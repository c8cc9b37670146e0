//! The adjacency format and the explicit flow graph the dataflow
//! solver runs over.
//!
//! [`Adjacency`] is the one successor/predecessor representation of the
//! analysis layer: [`Adjacency::new`] is its only builder, [`FlowGraph`]
//! stores one, and so does `zolc_cfg::Cfg`, which `Cfg::flow` copies
//! into the graph with the text slices of its blocks. `zolc-analyze`
//! sits below `zolc-cfg` in the workspace, so the solver runs over this
//! self-contained graph; building one by hand is a few lines, which
//! keeps the crate's tests independent of the CFG builder.

use zolc_isa::{Instr, INSTR_BYTES};

/// One basic block of a [`FlowGraph`], borrowed: a run of instructions
/// plus its successor edges. [`FlowGraph::new`] takes blocks in this
/// form, and [`FlowGraph::block`] hands them back.
#[derive(Debug, Clone, Copy)]
pub struct FlowBlock<'a> {
    /// Byte address of the first instruction.
    pub start: u32,
    /// The block's instructions in program order.
    pub instrs: &'a [Instr],
    /// Indices of successor blocks in the owning [`FlowGraph`].
    pub succs: &'a [usize],
}

impl FlowBlock<'_> {
    /// Byte address of the `i`-th instruction.
    pub fn pc_at(&self, i: usize) -> u32 {
        self.start + (i as u32) * INSTR_BYTES
    }

    /// One past the byte address of the last instruction.
    pub fn end(&self) -> u32 {
        self.start + (self.instrs.len() as u32) * INSTR_BYTES
    }
}

/// The successor and predecessor lists of a graph's blocks, as offset
/// ranges into one flat vector each, so a graph of any size is a fixed
/// handful of allocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adjacency {
    /// Block `b`'s successors are `succs[succ_at[b]..succ_at[b + 1]]`.
    succ_at: Vec<usize>,
    succs: Vec<usize>,
    /// Block `b`'s predecessors are `preds[pred_at[b]..pred_at[b + 1]]`,
    /// in ascending order.
    pred_at: Vec<usize>,
    preds: Vec<usize>,
}

impl Adjacency {
    /// Builds the adjacency of a graph from each block's successor list,
    /// in block order, and derives the predecessor lists. A successor
    /// already in its block's list is not added again.
    ///
    /// # Panics
    ///
    /// Panics if a successor index is not a block of the graph.
    pub fn new<L>(lists: impl IntoIterator<Item = L>) -> Adjacency
    where
        L: IntoIterator<Item = usize>,
    {
        let lists = lists.into_iter();
        let hint = lists.size_hint().0;
        let mut succ_at = Vec::with_capacity(hint + 1);
        let mut succs = Vec::with_capacity(2 * hint);
        succ_at.push(0);
        for list in lists {
            let first = succs.len();
            for s in list {
                if !succs[first..].contains(&s) {
                    succs.push(s);
                }
            }
            succ_at.push(succs.len());
        }
        let n = succ_at.len() - 1;
        // predecessor counts, then each block's running end
        let mut pred_at = vec![0usize; n + 1];
        for &s in &succs {
            assert!(s < n, "successor index {s} out of range ({n} blocks)");
            pred_at[s] += 1;
        }
        for b in 1..=n {
            pred_at[b] += pred_at[b - 1];
        }
        // fill from the back, so each block's offset counts down to its start
        let mut preds = vec![0; succs.len()];
        for b in (0..n).rev() {
            for &s in succs[succ_at[b]..succ_at[b + 1]].iter().rev() {
                pred_at[s] -= 1;
                preds[pred_at[s]] = b;
            }
        }
        Adjacency {
            succ_at,
            succs,
            pred_at,
            preds,
        }
    }

    fn len(&self) -> usize {
        self.succ_at.len() - 1
    }

    /// Successor indices of block `b`, in the order they were given.
    pub fn succs(&self, b: usize) -> &[usize] {
        &self.succs[self.succ_at[b]..self.succ_at[b + 1]]
    }

    /// Predecessor indices of block `b`, in ascending order.
    pub fn preds(&self, b: usize) -> &[usize] {
        &self.preds[self.pred_at[b]..self.pred_at[b + 1]]
    }
}

/// A flow graph: blocks, a distinguished entry, and their [`Adjacency`].
///
/// The blocks live in flat arrays, every instruction in one vector, so
/// building a graph allocates a fixed handful of vectors however many
/// blocks it has.
///
/// # Examples
///
/// ```
/// use zolc_analyze::{FlowBlock, FlowGraph};
/// use zolc_isa::Instr;
///
/// let g = FlowGraph::new(
///     0,
///     &[FlowBlock { start: 0, instrs: &[Instr::Halt], succs: &[] }],
/// );
/// assert_eq!(g.len(), 1);
/// assert_eq!(g.block_of(0), Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct FlowGraph {
    entry: usize,
    /// Start address of each block.
    starts: Vec<u32>,
    /// Block `b`'s instructions are `instrs[instr_at[b]..instr_at[b + 1]]`.
    instr_at: Vec<usize>,
    instrs: Vec<Instr>,
    adj: Adjacency,
}

impl FlowGraph {
    /// Builds a graph from blocks, computing predecessor lists.
    ///
    /// # Panics
    ///
    /// Panics if `entry` or any successor index is out of range.
    pub fn new(entry: usize, blocks: &[FlowBlock<'_>]) -> FlowGraph {
        let adj = Adjacency::new(blocks.iter().map(|b| b.succs.iter().copied()));
        FlowGraph::with_adjacency(entry, adj, blocks.iter().map(|b| (b.start, b.instrs)))
    }

    /// Builds a graph over an adjacency built elsewhere, from each
    /// block's start address and instructions, in block order.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range, or if `blocks` does not yield
    /// one block per block of `adj`.
    pub fn with_adjacency<'a>(
        entry: usize,
        adj: Adjacency,
        blocks: impl IntoIterator<Item = (u32, &'a [Instr])>,
    ) -> FlowGraph {
        let n = adj.len();
        assert!(
            entry < n || n == 0,
            "entry block index {entry} out of range ({n} blocks)"
        );
        let mut starts = Vec::with_capacity(n);
        let mut instr_at = Vec::with_capacity(n + 1);
        let mut instrs = Vec::new();
        instr_at.push(0);
        for (start, block) in blocks {
            starts.push(start);
            instrs.extend_from_slice(block);
            instr_at.push(instrs.len());
        }
        assert_eq!(starts.len(), n, "one block per adjacency entry");
        FlowGraph {
            entry,
            starts,
            instr_at,
            instrs,
            adj,
        }
    }

    /// Index of the entry block.
    pub fn entry(&self) -> usize {
        self.entry
    }

    /// All blocks, in block-id order.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = FlowBlock<'_>> + '_ {
        (0..self.len()).map(|i| self.block(i))
    }

    /// The block with index `i`.
    pub fn block(&self, i: usize) -> FlowBlock<'_> {
        FlowBlock {
            start: self.starts[i],
            instrs: &self.instrs[self.instr_at[i]..self.instr_at[i + 1]],
            succs: self.succs(i),
        }
    }

    /// The instructions of block `i`, for patching in place. The
    /// successor edges stay as built, so a caller may swap only
    /// instructions that keep the block's control flow.
    pub fn instrs_mut(&mut self, i: usize) -> &mut [Instr] {
        &mut self.instrs[self.instr_at[i]..self.instr_at[i + 1]]
    }

    /// Successor indices of block `i`.
    pub fn succs(&self, i: usize) -> &[usize] {
        self.adj.succs(i)
    }

    /// Predecessor indices of block `i`.
    pub fn preds(&self, i: usize) -> &[usize] {
        self.adj.preds(i)
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the graph has no blocks.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// The block containing byte address `pc`, if any.
    pub fn block_of(&self, pc: u32) -> Option<usize> {
        self.blocks().position(|b| {
            pc >= b.start && pc < b.end() && (pc - b.start).is_multiple_of(INSTR_BYTES)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zolc_isa::{reg, Instr};

    const NOPS: [Instr; 2] = [Instr::Nop; 2];

    fn nop_block(start: u32, n: usize, succs: &[usize]) -> FlowBlock<'_> {
        FlowBlock {
            start,
            instrs: &NOPS[..n],
            succs,
        }
    }

    #[test]
    fn preds_are_derived_from_succs() {
        let g = FlowGraph::new(
            0,
            &[
                nop_block(0, 1, &[1, 2]),
                nop_block(4, 1, &[2]),
                nop_block(8, 1, &[]),
            ],
        );
        assert_eq!(g.preds(0), &[] as &[usize]);
        assert_eq!(g.preds(1), &[0]);
        assert_eq!(g.preds(2), &[0, 1]);
    }

    #[test]
    fn adjacency_keeps_a_repeated_successor_once() {
        let adj = Adjacency::new([vec![1, 2], vec![2, 2], vec![]]);
        assert_eq!(adj.len(), 3);
        assert_eq!(adj.succs(1), &[2]);
        assert_eq!(adj.preds(2), &[0, 1]);
    }

    #[test]
    fn block_of_respects_alignment_and_bounds() {
        let g = FlowGraph::new(0, &[nop_block(0x100, 2, &[1]), nop_block(0x108, 1, &[])]);
        assert_eq!(g.block_of(0x100), Some(0));
        assert_eq!(g.block_of(0x104), Some(0));
        assert_eq!(g.block_of(0x108), Some(1));
        assert_eq!(g.block_of(0x102), None);
        assert_eq!(g.block_of(0x10c), None);
    }

    #[test]
    fn pc_at_and_end() {
        let b = FlowBlock {
            start: 0x20,
            instrs: &[
                Instr::Addi {
                    rt: reg(1),
                    rs: reg(0),
                    imm: 1,
                },
                Instr::Halt,
            ],
            succs: &[],
        };
        assert_eq!(b.pc_at(0), 0x20);
        assert_eq!(b.pc_at(1), 0x24);
        assert_eq!(b.end(), 0x28);
    }

    #[test]
    #[should_panic(expected = "successor index")]
    fn bad_successor_index_panics() {
        let _ = FlowGraph::new(0, &[nop_block(0, 1, &[7])]);
    }
}
