//! Forward constant propagation over the flat constant lattice.

use zolc_isa::{Instr, Reg};
use zolc_sim::exec::{self, Effect};

use crate::solver::{Analysis, Direction, RegFacts};

/// The flat constant lattice: a known 32-bit value or "varies".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cv {
    /// The register provably holds this value at this point.
    Const(u32),
    /// More than one value reaches this point (⊤).
    Varies,
}

impl Cv {
    /// The known value, if any.
    pub fn as_const(self) -> Option<u32> {
        match self {
            Cv::Const(v) => Some(v),
            Cv::Varies => None,
        }
    }

    fn join(self, other: Cv) -> Cv {
        match (self, other) {
            (Cv::Const(a), Cv::Const(b)) if a == b => self,
            _ => Cv::Varies,
        }
    }
}

/// Forward constant propagation.
///
/// The fact is a full register file of [`Cv`]s, wrapped in `Option`:
/// `None` is the unreachable `⊥` (no execution reaches this point), so
/// joins at merges of one reachable and one unreachable path lose
/// nothing. No branch is pruned, so a block's input is `None` exactly
/// when no path from the entry reaches it: this `⊥` is the workspace's
/// block reachability. The boundary fact maps every register to `Const(0)` — the
/// architected reset state every executor starts from.
///
/// Whenever every source operand is a known constant the transfer
/// function evaluates the instruction through [`zolc_sim::exec::step`],
/// the semantics core all executor tiers retire through, so constant
/// folding here cannot disagree with the machine.
pub struct ConstProp;

/// The per-point fact of [`ConstProp`].
pub type ConstFact = Option<RegFacts<Cv>>;

impl Analysis for ConstProp {
    type Fact = ConstFact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> ConstFact {
        Some(RegFacts::filled(Cv::Const(0)))
    }

    fn bottom(&self) -> ConstFact {
        None
    }

    fn join(&self, into: &mut ConstFact, from: &ConstFact) -> bool {
        let Some(from) = from else { return false };
        match into {
            None => {
                *into = Some(*from);
                true
            }
            Some(i) => {
                let mut changed = false;
                for r in Reg::all() {
                    let j = i[r].join(from[r]);
                    if j != i[r] {
                        i[r] = j;
                        changed = true;
                    }
                }
                changed
            }
        }
    }

    fn transfer(&self, instr: Instr, pc: u32, fact: &mut ConstFact) {
        let Some(facts) = fact else { return };
        let known = |r: Reg| facts[r].as_const();
        if instr
            .srcs()
            .into_iter()
            .flatten()
            .all(|r| known(r).is_some())
        {
            // All operands known: fold through the executor core.
            let read = |r: Reg| known(r).unwrap_or(0); // r0 reads 0
            match exec::step(instr, pc, read) {
                Effect::Write { dst, value } if !dst.is_zero() => facts[dst] = Cv::Const(value),
                Effect::Load { dst, .. } if !dst.is_zero() => facts[dst] = Cv::Varies,
                Effect::Jump {
                    link: Some((r, v)), ..
                } => facts[r] = Cv::Const(v),
                Effect::Branch {
                    decrement: Some((r, v)),
                    ..
                } if !r.is_zero() => facts[r] = Cv::Const(v),
                _ => {}
            }
        } else if let Some(d) = instr.dst() {
            facts[d] = Cv::Varies;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{FlowBlock, FlowGraph};
    use crate::solver::solve;
    use zolc_isa::reg;

    fn block<'a>(start: u32, instrs: &'a [Instr], succs: &'a [usize]) -> FlowBlock<'a> {
        FlowBlock {
            start,
            instrs,
            succs,
        }
    }

    #[test]
    fn folds_straight_line_arithmetic_exactly() {
        // li r1, 6 ; li r2, 7 ; add r3, r1, r2 ; halt
        let g = FlowGraph::new(
            0,
            &[block(
                0,
                &[
                    Instr::Addi {
                        rt: reg(1),
                        rs: reg(0),
                        imm: 6,
                    },
                    Instr::Addi {
                        rt: reg(2),
                        rs: reg(0),
                        imm: 7,
                    },
                    Instr::Add {
                        rd: reg(3),
                        rs: reg(1),
                        rt: reg(2),
                    },
                    Instr::Halt,
                ],
                &[],
            )],
        );
        let sol = solve(&g, &ConstProp);
        let out = sol.block_out[0].as_ref().unwrap();
        assert_eq!(out[reg(3)].as_const(), Some(13));
        assert_eq!(out[reg(0)].as_const(), Some(0), "r0 stays constant 0");
    }

    #[test]
    fn merge_of_distinct_constants_varies() {
        // b0: bne r9, r0 -> b2 else b1
        // b1: li r1, 1 -> b3 ; b2: li r1, 2 -> b3 ; b3: halt
        let g = FlowGraph::new(
            0,
            &[
                block(
                    0,
                    &[Instr::Bne {
                        rs: reg(9),
                        rt: reg(0),
                        off: 1,
                    }],
                    &[1, 2],
                ),
                block(
                    4,
                    &[Instr::Addi {
                        rt: reg(1),
                        rs: reg(0),
                        imm: 1,
                    }],
                    &[3],
                ),
                block(
                    8,
                    &[Instr::Addi {
                        rt: reg(1),
                        rs: reg(0),
                        imm: 2,
                    }],
                    &[3],
                ),
                block(12, &[Instr::Halt], &[]),
            ],
        );
        let sol = solve(&g, &ConstProp);
        let merged = sol.block_in[3].as_ref().unwrap();
        assert_eq!(merged[reg(1)], Cv::Varies);
        assert_eq!(merged[reg(2)].as_const(), Some(0), "untouched regs stay 0");
    }

    #[test]
    fn loads_and_unknown_operands_poison_the_destination() {
        let mut fact = ConstProp.boundary();
        ConstProp.transfer(
            Instr::Lw {
                rt: reg(4),
                rs: reg(1),
                off: 0,
            },
            0,
            &mut fact,
        );
        let f = fact.as_ref().unwrap();
        assert_eq!(f[reg(4)], Cv::Varies);
        // r4 now unknown: anything computed from it is unknown too.
        let mut fact2 = fact;
        ConstProp.transfer(
            Instr::Add {
                rd: reg(5),
                rs: reg(4),
                rt: reg(0),
            },
            4,
            &mut fact2,
        );
        assert_eq!(fact2.unwrap()[reg(5)], Cv::Varies);
    }

    /// Which blocks constant propagation reaches (a non-`⊥` input).
    fn reached(g: &FlowGraph) -> Vec<bool> {
        let sol = solve(g, &ConstProp);
        sol.block_in.iter().map(Option::is_some).collect()
    }

    #[test]
    fn code_after_unconditional_jump_is_unreachable() {
        let nop = [Instr::Nop];
        // b0 jumps over b1 to b2; b3 is reached only from the
        // unreachable b1, so it is unreachable too.
        let g = FlowGraph::new(
            0,
            &[
                block(0, &nop, &[2]),
                block(4, &nop, &[2, 3]),
                block(8, &[Instr::Halt], &[]),
                block(12, &nop, &[2]),
            ],
        );
        assert_eq!(reached(&g), vec![true, false, true, false]);
    }

    #[test]
    fn cycles_do_not_confer_reachability() {
        let nop = [Instr::Nop];
        // b1 and b2 form a cycle disconnected from the entry.
        let g = FlowGraph::new(
            0,
            &[
                block(0, &[Instr::Halt], &[]),
                block(4, &nop, &[2]),
                block(8, &nop, &[1]),
            ],
        );
        assert_eq!(reached(&g), vec![true, false, false]);
    }

    #[test]
    fn unreachable_bottom_is_join_identity_and_transfer_fixed() {
        let mut bot = ConstProp.bottom();
        ConstProp.transfer(Instr::Halt, 0, &mut bot);
        assert!(bot.is_none());
        let mut reach = ConstProp.boundary();
        assert!(!ConstProp.join(&mut reach, &None), "⊥ never changes a fact");
    }

    #[test]
    fn dbnz_decrement_and_jal_link_are_tracked() {
        let mut fact = ConstProp.boundary();
        ConstProp.transfer(
            Instr::Addi {
                rt: reg(6),
                rs: reg(0),
                imm: 5,
            },
            0,
            &mut fact,
        );
        ConstProp.transfer(
            Instr::Dbnz {
                rs: reg(6),
                off: -1,
            },
            4,
            &mut fact,
        );
        assert_eq!(fact.as_ref().unwrap()[reg(6)].as_const(), Some(4));
        ConstProp.transfer(Instr::Jal { target: 0x40 }, 8, &mut fact);
        assert_eq!(fact.unwrap()[Reg::RA].as_const(), Some(12));
    }
}
