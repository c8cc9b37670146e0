//! Control-flow graph construction from XR32 machine code.

use std::fmt;
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
/// return via straight-line code).
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
/// assert_eq!(cfg.reachable().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    blocks: Vec<BasicBlock>,
    entry: usize,
    /// The id of the block containing each instruction, by text index.
    block_of: Vec<usize>,
    /// Block `b`'s successors are `succs[succ_at[b]..succ_at[b + 1]]`.
    succ_at: Vec<usize>,
    succs: Vec<usize>,
    /// Block `b`'s predecessors are `preds[pred_at[b]..pred_at[b + 1]]`,
    /// in ascending order.
    pred_at: Vec<usize>,
    preds: Vec<usize>,
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
        let text = program.text();
        let n = text.len();
        let addr = |idx: usize| TEXT_BASE + 4 * idx as u32;

        // Pass 1: leaders, flagged 1 in `block_of` until pass 2
        // overwrites each flag with its instruction's block id.
        let mut block_of = vec![0usize; n];
        if let Some(first) = block_of.first_mut() {
            *first = 1;
        }
        for (i, instr) in text.iter().enumerate() {
            let target = match instr {
                Instr::J { target } | Instr::Jal { target } => Some(target << 2),
                Instr::Jr { .. } | Instr::Halt => None,
                _ if instr.is_cond_branch() => instr.branch_target(addr(i)),
                _ => continue,
            };
            if let Some(t) = target.and_then(|t| text_index(t, n)) {
                block_of[t] = 1;
            }
            if i + 1 < n {
                block_of[i + 1] = 1;
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

        // Pass 3: edges, then predecessors in ascending block order.
        let nb = blocks.len();
        let block_at = |t: u32| {
            text_index(t, n)
                .map(|i| block_of[i])
                .filter(|&b| blocks[b].start == t)
        };
        let mut succ_at = Vec::with_capacity(nb + 1);
        let mut succs = Vec::with_capacity(2 * nb);
        // predecessor counts, then each block's running end
        let mut pred_at = vec![0usize; nb + 1];
        succ_at.push(0);
        for b in &blocks {
            let last_pc = b.end - 4;
            let instr = text[((last_pc - TEXT_BASE) / 4) as usize];
            let fall = block_at(b.end);
            let (first, second) = match instr {
                Instr::J { target } | Instr::Jal { target } => (block_at(target << 2), None),
                Instr::Jr { .. } | Instr::Halt => (None, None),
                _ if instr.is_cond_branch() => {
                    let taken = instr.branch_target(last_pc).and_then(block_at);
                    (taken, fall.filter(|&f| taken != Some(f)))
                }
                _ => (fall, None),
            };
            for s in first.into_iter().chain(second) {
                succs.push(s);
                pred_at[s] += 1;
            }
            succ_at.push(succs.len());
        }
        for b in 1..=nb {
            pred_at[b] += pred_at[b - 1];
        }
        // fill from the back, so each block's offset counts down to its start
        let mut preds = vec![0; succs.len()];
        for b in (0..nb).rev() {
            for &s in succs[succ_at[b]..succ_at[b + 1]].iter().rev() {
                pred_at[s] -= 1;
                preds[pred_at[s]] = b;
            }
        }

        Cfg {
            blocks,
            entry: 0,
            block_of,
            succ_at,
            succs,
            pred_at,
            preds,
        }
    }

    /// All blocks in address order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The entry block id (address [`TEXT_BASE`]).
    pub fn entry(&self) -> usize {
        self.entry
    }

    /// Successor block ids of block `b`: the taken target first, then
    /// the fall-through.
    pub fn succs(&self, b: usize) -> &[usize] {
        &self.succs[self.succ_at[b]..self.succ_at[b + 1]]
    }

    /// Predecessor block ids of block `b`, in ascending order.
    pub fn preds(&self, b: usize) -> &[usize] {
        &self.preds[self.pred_at[b]..self.pred_at[b + 1]]
    }

    /// The block starting at `addr`, if any.
    pub fn block_at(&self, addr: u32) -> Option<&BasicBlock> {
        self.block_containing(addr).filter(|b| b.start == addr)
    }

    /// The block *containing* `addr`.
    pub fn block_containing(&self, addr: u32) -> Option<&BasicBlock> {
        text_index(addr, self.block_of.len()).map(|i| &self.blocks[self.block_of[i]])
    }

    /// Converts to the explicit [`zolc_analyze::FlowGraph`] the
    /// dataflow solver runs over, decoding each block's instructions
    /// from `program` (which must be the program this CFG was built
    /// from).
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
    pub fn flow(&self, program: &Program) -> zolc_analyze::FlowGraph {
        let text = program.text();
        let blocks: Vec<zolc_analyze::FlowBlock<'_>> = self
            .blocks
            .iter()
            .map(|b| zolc_analyze::FlowBlock {
                start: b.start,
                instrs: &text
                    [((b.start - TEXT_BASE) / 4) as usize..((b.end - TEXT_BASE) / 4) as usize],
                succs: self.succs(b.id),
            })
            .collect();
        zolc_analyze::FlowGraph::new(self.entry, &blocks)
    }

    /// Blocks reachable from the entry, as a bitset-ish sorted list.
    pub fn reachable(&self) -> Vec<usize> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![self.entry];
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut seen[b], true) {
                continue;
            }
            stack.extend_from_slice(self.succs(b));
        }
        (0..self.blocks.len()).filter(|&b| seen[b]).collect()
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
        let reach = c.reachable();
        assert_eq!(reach.len(), 2); // the nop block is unreachable
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
