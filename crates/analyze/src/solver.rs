//! The generic worklist solver and the [`Analysis`] trait.
//!
//! An analysis supplies a fact lattice (a `Clone + PartialEq` fact type,
//! a `bottom`, a `join`) and a per-instruction `transfer` function; the
//! solver iterates the flow graph to the least fixpoint. The lattices
//! must be finite-height: the solver only joins, it never widens.

use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

use zolc_isa::{Instr, Reg};

use crate::graph::FlowGraph;

/// Which way facts flow through the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from the entry along edges (constants).
    Forward,
    /// Facts flow from exits against edges (liveness).
    Backward,
}

/// One dataflow analysis: a fact lattice plus a transfer function.
///
/// Implementations are small — liveness and constant propagation are
/// each one short `impl`. The solver owns all iteration concerns
/// (worklists, join accumulation).
pub trait Analysis {
    /// The fact attached to every program point.
    type Fact: Clone + PartialEq;

    /// Which way facts flow.
    fn direction(&self) -> Direction;

    /// The fact at the boundary: the entry block's input for forward
    /// analyses, the input of every exit block (no successors) for
    /// backward analyses.
    fn boundary(&self) -> Self::Fact;

    /// The least fact (`⊥`): the initial value everywhere, and the
    /// identity of [`Analysis::join`]. Blocks that never receive a
    /// non-bottom input are unreachable (forward) or cannot reach an
    /// exit (backward).
    fn bottom(&self) -> Self::Fact;

    /// Joins `from` into `into`; returns whether `into` changed.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool;

    /// Updates `fact` across `instr` at byte address `pc`, in the
    /// analysis direction: forward transfers map the fact *before* the
    /// instruction to the fact *after* it, backward transfers the
    /// reverse.
    fn transfer(&self, instr: Instr, pc: u32, fact: &mut Self::Fact);
}

/// The fixpoint facts at block granularity, in **program order**:
/// `block_in[b]` is the fact before the first instruction of block `b`
/// and `block_out[b]` the fact after its last instruction, for forward
/// and backward analyses alike.
#[derive(Debug, Clone)]
pub struct Solution<F> {
    /// Fact before each block's first instruction.
    pub block_in: Vec<F>,
    /// Fact after each block's last instruction.
    pub block_out: Vec<F>,
}

impl<F: Clone + PartialEq> Solution<F> {
    /// The facts at every program point of block `b`: `len + 1` facts,
    /// where `points[i]` holds before instruction `i` (program order)
    /// and `points[len]` after the last instruction.
    ///
    /// Recomputes the block-local transfers from the block boundary
    /// fact, so `a` must be the analysis this solution was produced by.
    pub fn points<A: Analysis<Fact = F>>(&self, g: &FlowGraph, a: &A, b: usize) -> Vec<F> {
        let blk = g.block(b);
        match a.direction() {
            Direction::Forward => {
                let mut f = self.block_in[b].clone();
                let mut res = Vec::with_capacity(blk.instrs.len() + 1);
                res.push(f.clone());
                for (i, &instr) in blk.instrs.iter().enumerate() {
                    a.transfer(instr, blk.pc_at(i), &mut f);
                    res.push(f.clone());
                }
                res
            }
            Direction::Backward => {
                let mut f = self.block_out[b].clone();
                let mut res = vec![f.clone()];
                for (i, &instr) in blk.instrs.iter().enumerate().rev() {
                    a.transfer(instr, blk.pc_at(i), &mut f);
                    res.push(f.clone());
                }
                res.reverse();
                res
            }
        }
    }
}

/// Runs `a` over `g` to its least fixpoint.
///
/// Classic worklist iteration: every block starts at `⊥` with the
/// boundary fact seeded at the entry (forward) or at blocks without
/// successors (backward); a block is reprocessed whenever the fact
/// flowing into it grows. Terminates for finite-height lattices, which
/// every analysis in this crate uses.
pub fn solve<A: Analysis>(g: &FlowGraph, a: &A) -> Solution<A::Fact> {
    let n = g.len();
    let backward = a.direction() == Direction::Backward;
    // Direction-relative: `flow_in[b]` is the fact where the analysis
    // *enters* block b (program start if forward, program end if
    // backward); `flow_out[b]` where it leaves.
    let mut flow_in: Vec<A::Fact> = (0..n).map(|_| a.bottom()).collect();
    let mut flow_out: Vec<A::Fact> = (0..n).map(|_| a.bottom()).collect();
    let mut fresh = vec![true; n];
    let mut queued = vec![true; n];
    let mut queue: VecDeque<usize> = if backward {
        (0..n).rev().collect()
    } else {
        (0..n).collect()
    };

    while let Some(b) = queue.pop_front() {
        queued[b] = false;
        let mut incoming = a.bottom();
        let at_boundary = if backward {
            g.succs(b).is_empty()
        } else {
            b == g.entry()
        };
        if at_boundary {
            a.join(&mut incoming, &a.boundary());
        }
        if backward {
            for &s in g.succs(b) {
                a.join(&mut incoming, &flow_out[s]);
            }
        } else {
            for &p in g.preds(b) {
                a.join(&mut incoming, &flow_out[p]);
            }
        }
        let grew = a.join(&mut flow_in[b], &incoming);
        if !grew && !fresh[b] {
            continue;
        }
        fresh[b] = false;

        let blk = g.block(b);
        let mut f = flow_in[b].clone();
        if backward {
            for (i, &instr) in blk.instrs.iter().enumerate().rev() {
                a.transfer(instr, blk.pc_at(i), &mut f);
            }
        } else {
            for (i, &instr) in blk.instrs.iter().enumerate() {
                a.transfer(instr, blk.pc_at(i), &mut f);
            }
        }
        if f != flow_out[b] {
            flow_out[b] = f;
            let deps = if backward { g.preds(b) } else { blk.succs };
            for &d in deps {
                if !queued[d] {
                    queued[d] = true;
                    queue.push_back(d);
                }
            }
        }
    }

    if backward {
        Solution {
            block_in: flow_out,
            block_out: flow_in,
        }
    } else {
        Solution {
            block_in: flow_in,
            block_out: flow_out,
        }
    }
}

/// A per-register table of facts, indexable by [`Reg`].
///
/// The register-file-shaped fact [`crate::ConstProp`] wraps in
/// `Option` (where `None` is the unreachable `⊥`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegFacts<T>([T; 32]);

impl<T: Copy> RegFacts<T> {
    /// A table with every register mapped to `v`.
    pub fn filled(v: T) -> RegFacts<T> {
        RegFacts([v; 32])
    }
}

impl<T> RegFacts<T> {
    /// Iterates `(register, fact)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Reg, &T)> {
        Reg::all().zip(self.0.iter())
    }
}

impl<T> Index<Reg> for RegFacts<T> {
    type Output = T;
    fn index(&self, r: Reg) -> &T {
        &self.0[r.index()]
    }
}

impl<T> IndexMut<Reg> for RegFacts<T> {
    fn index_mut(&mut self, r: Reg) -> &mut T {
        &mut self.0[r.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FlowBlock;
    use crate::live::{Liveness, RegSet};
    use zolc_isa::reg;

    #[test]
    fn reg_facts_index_by_reg() {
        let mut f = RegFacts::filled(0u32);
        f[reg(5)] = 99;
        assert_eq!(f[reg(5)], 99);
        assert_eq!(f[reg(4)], 0);
        assert_eq!(f.iter().filter(|&(_, &v)| v == 99).count(), 1);
    }

    #[test]
    fn points_fencepost_backward() {
        // addi r2, r0, 5 ; add r3, r2, r2 ; halt — with r3 live at exit.
        let g = FlowGraph::new(
            0,
            &[FlowBlock {
                start: 0,
                instrs: &[
                    Instr::Addi {
                        rt: reg(2),
                        rs: reg(0),
                        imm: 5,
                    },
                    Instr::Add {
                        rd: reg(3),
                        rs: reg(2),
                        rt: reg(2),
                    },
                    Instr::Halt,
                ],
                succs: &[],
            }],
        );
        let mut at_exit = RegSet::EMPTY;
        at_exit.insert(reg(3));
        let a = Liveness { at_exit };
        let sol = solve(&g, &a);
        let pts = sol.points(&g, &a, 0);
        assert_eq!(pts.len(), 4);
        assert!(!pts[0].contains(reg(2)), "r2 not live before its def");
        assert!(pts[1].contains(reg(2)), "r2 live between def and use");
        assert!(!pts[2].contains(reg(2)), "r2 dead after its last use");
        assert!(pts[2].contains(reg(3)));
        assert_eq!(pts[3], sol.block_out[0]);
        assert_eq!(pts[0], sol.block_in[0]);
    }
}
