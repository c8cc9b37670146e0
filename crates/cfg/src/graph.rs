//! Control-flow graph construction from XR32 machine code.

use std::fmt;
use zolc_analyze::{Adjacency, FlowGraph};
use zolc_isa::{Instr, Program, TEXT_BASE};

/// A basic block: a maximal straight-line instruction run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Block id (index into [`Cfg::blocks`]).
    pub id: usize,
    /// Byte address of the first instruction.
    pub start: u32,
    /// Byte address one past the last instruction.
    pub end: u32,
}

impl BasicBlock {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        ((self.end - self.start) / 4) as usize
    }

    /// Whether the block is empty (never produced by the builder).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Iterates over the instruction addresses of the block.
    pub fn addrs(&self) -> impl Iterator<Item = u32> {
        (self.start..self.end).step_by(4)
    }
}

/// A control-flow graph over a program's text segment.
///
/// Fall-through, branch and jump edges are included; `halt` and `jr`
/// terminate paths (`jr` targets are data-dependent, so functions using
/// them as computed dispatch are out of scope — the benchmark kernels
/// return via straight-line code). Its edges are stored in the analysis
/// layer's one [`Adjacency`] format, which [`Cfg::flow`] hands on to the
/// dataflow solver as is.
///
/// # Examples
///
/// ```
/// use zolc_cfg::Cfg;
///
/// let program = zolc_isa::assemble("
///     li   r1, 3
/// top: addi r1, r1, -1
///     bne  r1, r0, top
///     halt
/// ").unwrap();
/// let cfg = Cfg::build(&program);
/// // blocks: [li], [addi, bne], [halt]
/// assert_eq!(cfg.blocks().len(), 3);
/// let latch = cfg.block_at(4).unwrap();
/// assert!(cfg.succs(latch.id).contains(&latch.id), "back edge to itself");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    blocks: Vec<BasicBlock>,
    /// The id of the block containing each instruction, by text index.
    block_of: Vec<usize>,
    adj: Adjacency,
}

/// The text index of byte address `addr`, if it lies inside a text of
/// `n` instructions (unaligned addresses round down).
fn text_index(addr: u32, n: usize) -> Option<usize> {
    let i = (addr.checked_sub(TEXT_BASE)? / 4) as usize;
    (i < n).then_some(i)
}

impl Cfg {
    /// Builds the CFG of `program`.
    pub fn build(program: &Program) -> Cfg {
        Cfg::with_controller_edges(program, [])
    }

    /// Builds the CFG of `program` combined with a loop controller's
    /// back edges, each `(end, start)`: fetch returns to `start` after
    /// the instruction at `end`. Both `start` and `end + 4` lead blocks,
    /// so the edge leaves exactly where the hardware redirects fetch; it
    /// follows the text successors of the block ending at `end`. An edge
    /// with an address outside the text or not on an instruction
    /// boundary adds nothing.
    pub(crate) fn with_controller_edges(
        program: &Program,
        edges: impl IntoIterator<Item = (u32, u32)>,
    ) -> Cfg {
        let text = program.text();
        let n = text.len();
        let addr = |idx: usize| TEXT_BASE + 4 * idx as u32;
        let index = |a: u32| text_index(a, n).filter(|&i| addr(i) == a);
        // as text indices, by end; a stable sort keeps the given order
        // among edges sharing an end
        let mut backs: Vec<(usize, usize)> = edges
            .into_iter()
            .filter_map(|(end, start)| Some((index(end)?, index(start)?)))
            .collect();
        backs.sort_by_key(|&(end, _)| end);

        // Pass 1: leaders, flagged 1 in `block_of` until pass 2
        // overwrites each flag with its instruction's block id.
        let mut block_of = vec![0usize; n];
        if let Some(first) = block_of.first_mut() {
            *first = 1;
        }
        for (i, instr) in text.iter().enumerate() {
            if let Some(t) = instr.static_target(addr(i)).and_then(|t| text_index(t, n)) {
                block_of[t] = 1;
            }
            if (instr.is_control_flow() || *instr == Instr::Halt) && i + 1 < n {
                block_of[i + 1] = 1;
            }
        }
        for &(end, start) in &backs {
            block_of[start] = 1;
            if end + 1 < n {
                block_of[end + 1] = 1;
            }
        }

        // Pass 2: blocks between leaders, and each instruction's block.
        let mut blocks: Vec<BasicBlock> = Vec::with_capacity(block_of.iter().sum());
        for (i, slot) in block_of.iter_mut().enumerate() {
            if *slot == 1 {
                if let Some(prev) = blocks.last_mut() {
                    prev.end = addr(i);
                }
                blocks.push(BasicBlock {
                    id: blocks.len(),
                    start: addr(i),
                    end: addr(n),
                });
            }
            *slot = blocks.len() - 1;
        }

        // Pass 3: each block's edges — the taken target, the
        // fall-through, then the controller's back edges.
        let block_at = |t: u32| {
            text_index(t, n)
                .map(|i| block_of[i])
                .filter(|&b| blocks[b].start == t)
        };
        let mut next_back = 0;
        let adj = Adjacency::new(blocks.iter().map(|b| {
            let last = ((b.end - 4 - TEXT_BASE) / 4) as usize;
            let instr = text[last];
            let taken = instr.static_target(addr(last)).and_then(block_at);
            let falls = !matches!(
                instr,
                Instr::J { .. } | Instr::Jal { .. } | Instr::Jr { .. } | Instr::Halt
            );
            let fall = if falls { block_at(b.end) } else { None };
            let from = next_back;
            while next_back < backs.len() && backs[next_back].0 == last {
                next_back += 1;
            }
            let backs = backs[from..next_back]
                .iter()
                .map(|&(_, start)| block_of[start]);
            taken.into_iter().chain(fall).chain(backs)
        }));

        Cfg {
            blocks,
            block_of,
            adj,
        }
    }

    /// All blocks in address order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The entry block id (address [`TEXT_BASE`]).
    pub fn entry(&self) -> usize {
        0
    }

    /// Successor block ids of block `b`: the taken target first, then
    /// the fall-through.
    pub fn succs(&self, b: usize) -> &[usize] {
        self.adj.succs(b)
    }

    /// Predecessor block ids of block `b`, in ascending order.
    pub fn preds(&self, b: usize) -> &[usize] {
        self.adj.preds(b)
    }

    /// The block starting at `addr`, if any.
    pub fn block_at(&self, addr: u32) -> Option<&BasicBlock> {
        self.block_containing(addr).filter(|b| b.start == addr)
    }

    /// The block *containing* `addr`.
    pub fn block_containing(&self, addr: u32) -> Option<&BasicBlock> {
        text_index(addr, self.block_of.len()).map(|i| &self.blocks[self.block_of[i]])
    }

    /// Converts to the explicit [`FlowGraph`] the dataflow solver runs
    /// over: a copy of this CFG's adjacency, with each block's
    /// instructions taken from `program` (which must be the program
    /// this CFG was built from).
    ///
    /// # Examples
    ///
    /// ```
    /// use zolc_analyze::{solve, Liveness, RegSet};
    /// use zolc_cfg::Cfg;
    ///
    /// let program = zolc_isa::assemble("
    ///     li   r1, 3
    /// top: addi r1, r1, -1
    ///     bne  r1, r0, top
    ///     halt
    /// ").unwrap();
    /// let cfg = Cfg::build(&program);
    /// let sol = solve(&cfg.flow(&program), &Liveness { at_exit: RegSet::EMPTY });
    /// assert!(sol.block_in[1].contains(zolc_isa::reg(1)), "counter live in the loop");
    /// ```
    pub fn flow(&self, program: &Program) -> FlowGraph {
        let text = program.text();
        let at = |a: u32| ((a - TEXT_BASE) / 4) as usize;
        FlowGraph::with_adjacency(
            self.entry(),
            self.adj.clone(),
            self.blocks
                .iter()
                .map(|b| (b.start, &text[at(b.start)..at(b.end)])),
        )
    }
}

impl fmt::Display for Cfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.blocks {
            writeln!(
                f,
                "bb{} [{:#x}..{:#x}) -> {:?}",
                b.id,
                b.start,
                b.end,
                self.succs(b.id)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zolc_isa::assemble;

    fn cfg_of(src: &str) -> Cfg {
        Cfg::build(&assemble(src).unwrap())
    }

    #[test]
    fn straight_line_is_one_block() {
        let c = cfg_of("nop\nnop\nhalt\n");
        assert_eq!(c.blocks().len(), 1);
        assert_eq!(c.blocks()[0].len(), 3);
        assert!(c.succs(0).is_empty());
    }

    #[test]
    fn branch_splits_blocks() {
        let c = cfg_of(
            "
            li   r1, 3
      top:  addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
        );
        // blocks: [li], [addi, bne], [halt]
        assert_eq!(c.blocks().len(), 3);
        let loop_block = c.block_at(4).unwrap();
        assert_eq!(loop_block.len(), 2);
        // back edge to itself and fall-through to halt
        assert!(c.succs(loop_block.id).contains(&loop_block.id));
        assert_eq!(c.succs(loop_block.id).len(), 2);
    }

    #[test]
    fn jump_edge_and_unreachable_block() {
        let c = cfg_of(
            "
            j    end
            nop
      end:  halt
        ",
        );
        assert_eq!(c.blocks().len(), 3);
        assert_eq!(c.succs(0), &[2]);
        let d = crate::Dominators::compute(&c);
        let reach = (0..3).filter(|&b| d.is_reachable(b)).count();
        assert_eq!(reach, 2); // the nop block is unreachable
    }

    #[test]
    fn controller_edges_lead_blocks_and_follow_text_successors() {
        let p = assemble(
            "
            li   r1, 3
            addi r2, r2, 1
            addi r3, r3, 1
            addi r4, r4, 1
            halt
        ",
        )
        .unwrap();
        // fetch returns to 4 after 8, and to 4 after 0 (the fall-through)
        let c = Cfg::with_controller_edges(&p, [(8, 4), (0, 4)]);
        let starts: Vec<u32> = c.blocks().iter().map(|b| b.start).collect();
        assert_eq!(starts, [0, 4, 12], "leaders at the start and at end + 4");
        assert_eq!(
            c.succs(1),
            &[2, 1],
            "the back edge follows the fall-through"
        );
        assert_eq!(
            c.succs(0),
            &[1],
            "an edge equal to the fall-through is kept once"
        );
        assert_eq!(c.preds(1), &[0, 1]);
        // unaligned and out-of-text edges add nothing
        let build = Cfg::build(&p);
        assert_eq!(
            Cfg::with_controller_edges(&p, [(9, 4), (8, 6), (8, 400)]),
            build
        );
        assert_eq!(Cfg::with_controller_edges(&p, []), build);
    }

    #[test]
    fn block_containing_lookup() {
        let c = cfg_of("nop\nnop\nhalt\n");
        assert_eq!(c.block_containing(4).unwrap().id, 0);
        assert!(c.block_containing(0x100).is_none());
    }

    #[test]
    fn if_else_diamond() {
        let c = cfg_of(
            "
            beq  r1, r0, else
            addi r2, r0, 1
            j    join
      else: addi r2, r0, 2
      join: halt
        ",
        );
        // entry, then, else, join
        assert_eq!(c.blocks().len(), 4);
        assert_eq!(c.succs(c.entry()).len(), 2);
        let join = c.block_at(16).unwrap();
        assert_eq!(c.preds(join.id).len(), 2);
    }

    #[test]
    fn display_lists_blocks() {
        let c = cfg_of("nop\nhalt\n");
        assert!(c.to_string().contains("bb0"));
    }
}
