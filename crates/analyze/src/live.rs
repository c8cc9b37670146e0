//! Backward register liveness over a [`RegSet`] bitset lattice.

use std::fmt;

use zolc_isa::{Instr, Reg};

use crate::solver::{Analysis, Direction};

/// A set of registers as a 32-bit mask.
///
/// # Examples
///
/// ```
/// use zolc_analyze::RegSet;
/// use zolc_isa::reg;
///
/// let mut s = RegSet::EMPTY;
/// s.insert(reg(3));
/// s.insert(reg(17));
/// assert!(s.contains(reg(3)));
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.to_string(), "{r3, r17}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct RegSet(u32);

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet(0);
    /// Every register except the hardwired-zero `r0` (which is never
    /// meaningfully live: reads of it are constant).
    pub const ALL: RegSet = RegSet(!1);

    /// The set whose members are the set bits of `mask` (`r0` dropped).
    #[inline]
    pub fn from_mask(mask: u32) -> RegSet {
        RegSet(mask & !1)
    }

    /// Adds `r` to the set.
    #[inline]
    pub fn insert(&mut self, r: Reg) {
        self.0 |= 1 << r.index();
    }

    /// Removes `r` from the set.
    #[inline]
    pub fn remove(&mut self, r: Reg) {
        self.0 &= !(1 << r.index());
    }

    /// Whether `r` is in the set.
    #[inline]
    pub fn contains(self, r: Reg) -> bool {
        self.0 & (1 << r.index()) != 0
    }

    /// Number of registers in the set.
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The union of the two sets.
    #[inline]
    pub fn union(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }

    /// Iterates the members in index order.
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        Reg::all().filter(move |&r| self.contains(r))
    }
}

impl FromIterator<Reg> for RegSet {
    fn from_iter<I: IntoIterator<Item = Reg>>(iter: I) -> RegSet {
        let mut s = RegSet::EMPTY;
        for r in iter {
            s.insert(r);
        }
        s
    }
}

impl fmt::Display for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

/// Backward register liveness.
///
/// A register is live at a point if some path from that point reads it
/// before redefining it. `at_exit` is the set assumed live when the
/// program leaves (or halts): the retarget filters use
/// [`RegSet::EMPTY`] (a freed counter's final value is excluded from
/// the equivalence contract), the lint pass uses [`RegSet::ALL`] (the
/// final architectural state is observable, so a write is dead only if
/// it is overwritten before any read on every path).
pub struct Liveness {
    /// Registers assumed live at every exit block.
    pub at_exit: RegSet,
}

impl Analysis for Liveness {
    type Fact = RegSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self) -> RegSet {
        self.at_exit
    }

    fn bottom(&self) -> RegSet {
        RegSet::EMPTY
    }

    fn join(&self, into: &mut RegSet, from: &RegSet) -> bool {
        let merged = into.union(*from);
        let changed = merged != *into;
        *into = merged;
        changed
    }

    fn transfer(&self, instr: Instr, _pc: u32, fact: &mut RegSet) {
        // live-before = (live-after \ defs) ∪ uses. Kill first so an
        // instruction that reads its own destination (dbnz) stays live.
        let (def, uses) = instr.def_use();
        if let Some(d) = def {
            fact.remove(d);
        }
        fact.0 |= uses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{FlowBlock, FlowGraph};
    use crate::solver::solve;
    use zolc_isa::reg;

    #[test]
    fn counter_live_around_back_edge_dead_after_loop() {
        // b0: li r1, 10          -> b1
        // b1: addi r1, r1, -1 ; bne r1, r0, b1   -> b1, b2
        // b2: halt
        let g = FlowGraph::new(
            0,
            &[
                FlowBlock {
                    start: 0,
                    instrs: &[Instr::Addi {
                        rt: reg(1),
                        rs: reg(0),
                        imm: 10,
                    }],
                    succs: &[1],
                },
                FlowBlock {
                    start: 4,
                    instrs: &[
                        Instr::Addi {
                            rt: reg(1),
                            rs: reg(1),
                            imm: -1,
                        },
                        Instr::Bne {
                            rs: reg(1),
                            rt: reg(0),
                            off: -2,
                        },
                    ],
                    succs: &[1, 2],
                },
                FlowBlock {
                    start: 12,
                    instrs: &[Instr::Halt],
                    succs: &[],
                },
            ],
        );
        let sol = solve(
            &g,
            &Liveness {
                at_exit: RegSet::EMPTY,
            },
        );
        assert!(
            sol.block_in[1].contains(reg(1)),
            "counter live at latch head"
        );
        assert!(!sol.block_in[2].contains(reg(1)), "counter dead after loop");
        assert!(!sol.block_in[0].contains(reg(1)), "counter defined in b0");
    }

    #[test]
    fn at_exit_keeps_final_writes_live() {
        let block = FlowBlock {
            start: 0,
            instrs: &[
                Instr::Addi {
                    rt: reg(2),
                    rs: reg(0),
                    imm: 5,
                },
                Instr::Halt,
            ],
            succs: &[],
        };
        let g = FlowGraph::new(0, &[block]);
        let a = Liveness {
            at_exit: RegSet::ALL,
        };
        let sol = solve(&g, &a);
        let pts = sol.points(&g, &a, 0);
        assert!(pts[1].contains(reg(2)), "write is observable at exit");
        assert!(!pts[0].contains(reg(2)), "killed upward past its def");
    }

    #[test]
    fn dbnz_reads_its_own_counter() {
        let mut f = RegSet::EMPTY;
        let live = Liveness {
            at_exit: RegSet::EMPTY,
        };
        live.transfer(
            Instr::Dbnz {
                rs: reg(7),
                off: -1,
            },
            0,
            &mut f,
        );
        assert!(f.contains(reg(7)));
    }

    #[test]
    fn regset_all_excludes_r0() {
        assert!(!RegSet::ALL.contains(reg(0)));
        assert_eq!(RegSet::ALL.len(), 31);
        let s: RegSet = [reg(1), reg(2)].into_iter().collect();
        assert_eq!(s.iter().count(), 2);
    }
}
