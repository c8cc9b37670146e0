//! Forward block reachability (the two-point `bool` lattice).

use zolc_isa::Instr;

use crate::graph::FlowGraph;
use crate::solver::{solve, Analysis, Direction};

/// Forward reachability: a block's fact is `true` iff some path from
/// the entry reaches it.
///
/// Mostly used through [`reachable_blocks`]; as an [`Analysis`] it
/// also demonstrates the smallest possible pass (the transfer function
/// is the identity).
pub struct Reachability;

impl Analysis for Reachability {
    type Fact = bool;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> bool {
        true
    }

    fn bottom(&self) -> bool {
        false
    }

    fn join(&self, into: &mut bool, from: &bool) -> bool {
        let grew = *from && !*into;
        *into |= *from;
        grew
    }

    fn transfer(&self, _instr: Instr, _pc: u32, _fact: &mut bool) {}
}

/// Which blocks of `g` are reachable from its entry.
///
/// # Examples
///
/// ```
/// use zolc_analyze::{reachable_blocks, FlowBlock, FlowGraph};
/// use zolc_isa::Instr;
///
/// let g = FlowGraph::new(
///     0,
///     &[
///         FlowBlock { start: 0, instrs: &[Instr::Halt], succs: &[] },
///         FlowBlock { start: 4, instrs: &[Instr::Nop], succs: &[0] },
///     ],
/// );
/// assert_eq!(reachable_blocks(&g), vec![true, false]);
/// ```
pub fn reachable_blocks(g: &FlowGraph) -> Vec<bool> {
    solve(g, &Reachability).block_in
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FlowBlock;

    fn nops(start: u32, succs: &[usize]) -> FlowBlock<'_> {
        FlowBlock {
            start,
            instrs: &[Instr::Nop],
            succs,
        }
    }

    #[test]
    fn code_after_unconditional_jump_is_unreachable() {
        // b0 -> b2; b1 is skipped; b2 -> b3 via b1? no: b2 exits.
        let g = FlowGraph::new(
            0,
            &[
                nops(0, &[2]),
                nops(4, &[2]), // no predecessors reach it
                nops(8, &[]),
            ],
        );
        assert_eq!(reachable_blocks(&g), vec![true, false, true]);
    }

    #[test]
    fn cycles_do_not_confer_reachability() {
        // b1 and b2 form a cycle disconnected from the entry.
        let g = FlowGraph::new(0, &[nops(0, &[]), nops(4, &[2]), nops(8, &[1])]);
        assert_eq!(reachable_blocks(&g), vec![true, false, false]);
    }
}
