//! The shared instruction lowering of the nest executor: straight-line
//! instructions become pre-lowered [`Op`]s and control transfers become
//! [`Terminator`]s.
//!
//! [`lower`] turns one predecoded instruction into either an op —
//! operands extracted, immediates pre-extended to the exact `u32` the
//! semantics core computes, ALU semantics reduced to a function pointer
//! — or the terminator that ends a straight-line run, with branch
//! targets and link values precomputed. The nest tier
//! ([`NestCpu`](crate::NestCpu)) embeds these ops in its superblocks;
//! every fn below mirrors one arm of [`crate::exec::step`] exactly, and
//! `zwr`/`zctl`/`dbnz` lower to [`Terminator::StepFrom`] so they run
//! through the step core.

use crate::exec::{LoadOp, StoreOp};
use zolc_isa::{Instr, Reg};

pub(crate) type AluFn = fn(u32, u32) -> u32;
pub(crate) type CondFn = fn(u32, u32) -> bool;

/// One pre-lowered straight-line instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// `dst = f(regs[a], regs[b])`.
    Alu { dst: Reg, a: Reg, b: Reg, f: AluFn },
    /// `dst = f(regs[a], imm)` — the immediate is pre-extended to the
    /// exact `u32` the semantics core would compute.
    AluImm {
        dst: Reg,
        a: Reg,
        imm: u32,
        f: AluFn,
    },
    /// `dst = mem[regs[base] + off]` (off pre-sign-extended; a load to
    /// `r0` still performs — and can fault on — the access).
    Load {
        dst: Reg,
        base: Reg,
        off: u32,
        op: LoadOp,
    },
    /// `mem[regs[base] + off] = regs[val]`.
    Store {
        val: Reg,
        base: Reg,
        off: u32,
        op: StoreOp,
    },
    /// `nop`.
    Nop,
}

/// How a straight-line run ends. Targets and link values are
/// precomputed at lowering time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Terminator {
    /// Re-enter the per-instruction step core at the terminator pc:
    /// `zwr`/`zctl`/`dbnz`.
    StepFrom,
    /// `halt` retires here.
    Halt,
    /// A conditional branch: `cond(regs[rs], regs[rt])` picks between
    /// the precomputed taken target and the fall-through.
    Branch {
        rs: Reg,
        rt: Reg,
        cond: CondFn,
        taken: u32,
    },
    /// `j`/`jal` with the link write (if any) precomputed.
    Jump {
        target: u32,
        link: Option<(Reg, u32)>,
    },
    /// `jr` — target read from the register file at run time.
    Jr { rs: Reg },
}

// ---- ALU semantics as named fn items (coerce to fn pointers) ----------
// Each mirrors one arm of `crate::exec::step` exactly.

fn f_add(a: u32, b: u32) -> u32 {
    a.wrapping_add(b)
}
fn f_sub(a: u32, b: u32) -> u32 {
    a.wrapping_sub(b)
}
fn f_and(a: u32, b: u32) -> u32 {
    a & b
}
fn f_or(a: u32, b: u32) -> u32 {
    a | b
}
fn f_xor(a: u32, b: u32) -> u32 {
    a ^ b
}
fn f_nor(a: u32, b: u32) -> u32 {
    !(a | b)
}
fn f_slt(a: u32, b: u32) -> u32 {
    ((a as i32) < (b as i32)) as u32
}
fn f_sltu(a: u32, b: u32) -> u32 {
    (a < b) as u32
}
fn f_sllv(a: u32, b: u32) -> u32 {
    a << (b & 31)
}
fn f_srlv(a: u32, b: u32) -> u32 {
    a >> (b & 31)
}
fn f_srav(a: u32, b: u32) -> u32 {
    ((a as i32) >> (b & 31)) as u32
}
fn f_sll(a: u32, b: u32) -> u32 {
    a << b
}
fn f_srl(a: u32, b: u32) -> u32 {
    a >> b
}
fn f_sra(a: u32, b: u32) -> u32 {
    ((a as i32) >> b) as u32
}
fn f_mul(a: u32, b: u32) -> u32 {
    a.wrapping_mul(b)
}
fn f_mulh(a: u32, b: u32) -> u32 {
    ((i64::from(a as i32) * i64::from(b as i32)) >> 32) as u32
}
fn f_snd(_a: u32, b: u32) -> u32 {
    b
}

// ---- branch conditions -------------------------------------------------

fn c_eq(a: u32, b: u32) -> bool {
    a == b
}
fn c_ne(a: u32, b: u32) -> bool {
    a != b
}
fn c_lez(a: u32, _b: u32) -> bool {
    (a as i32) <= 0
}
fn c_gtz(a: u32, _b: u32) -> bool {
    (a as i32) > 0
}
fn c_ltz(a: u32, _b: u32) -> bool {
    (a as i32) < 0
}
fn c_gez(a: u32, _b: u32) -> bool {
    (a as i32) >= 0
}

/// What `lower` produced for one instruction.
pub(crate) enum Lowered {
    Op(Op),
    Term(Terminator),
}

/// Lowers one instruction at `pc` into an op or a terminator.
pub(crate) fn lower(instr: Instr, pc: u32) -> Lowered {
    use Instr::*;
    let alu = |dst, a, b, f| Lowered::Op(Op::Alu { dst, a, b, f });
    let imm = |dst, a, imm, f| Lowered::Op(Op::AluImm { dst, a, imm, f });
    let sext = |v: i16| v as i32 as u32;
    match instr {
        Add { rd, rs, rt } => alu(rd, rs, rt, f_add),
        Sub { rd, rs, rt } => alu(rd, rs, rt, f_sub),
        And { rd, rs, rt } => alu(rd, rs, rt, f_and),
        Or { rd, rs, rt } => alu(rd, rs, rt, f_or),
        Xor { rd, rs, rt } => alu(rd, rs, rt, f_xor),
        Nor { rd, rs, rt } => alu(rd, rs, rt, f_nor),
        Slt { rd, rs, rt } => alu(rd, rs, rt, f_slt),
        Sltu { rd, rs, rt } => alu(rd, rs, rt, f_sltu),
        Sllv { rd, rt, rs } => alu(rd, rt, rs, f_sllv),
        Srlv { rd, rt, rs } => alu(rd, rt, rs, f_srlv),
        Srav { rd, rt, rs } => alu(rd, rt, rs, f_srav),
        Mul { rd, rs, rt } => alu(rd, rs, rt, f_mul),
        Mulh { rd, rs, rt } => alu(rd, rs, rt, f_mulh),
        Sll { rd, rt, sh } => imm(rd, rt, u32::from(sh), f_sll),
        Srl { rd, rt, sh } => imm(rd, rt, u32::from(sh), f_srl),
        Sra { rd, rt, sh } => imm(rd, rt, u32::from(sh), f_sra),
        Addi { rt, rs, imm: v } => imm(rt, rs, sext(v), f_add),
        Slti { rt, rs, imm: v } => imm(rt, rs, sext(v), f_slt),
        Sltiu { rt, rs, imm: v } => imm(rt, rs, sext(v), f_sltu),
        Andi { rt, rs, imm: v } => imm(rt, rs, u32::from(v), f_and),
        Ori { rt, rs, imm: v } => imm(rt, rs, u32::from(v), f_or),
        Xori { rt, rs, imm: v } => imm(rt, rs, u32::from(v), f_xor),
        Lui { rt, imm: v } => imm(rt, Reg::ZERO, u32::from(v) << 16, f_snd),
        Lb { rt, rs, off } => Lowered::Op(Op::Load {
            dst: rt,
            base: rs,
            off: sext(off),
            op: LoadOp::Byte,
        }),
        Lbu { rt, rs, off } => Lowered::Op(Op::Load {
            dst: rt,
            base: rs,
            off: sext(off),
            op: LoadOp::ByteUnsigned,
        }),
        Lh { rt, rs, off } => Lowered::Op(Op::Load {
            dst: rt,
            base: rs,
            off: sext(off),
            op: LoadOp::Half,
        }),
        Lhu { rt, rs, off } => Lowered::Op(Op::Load {
            dst: rt,
            base: rs,
            off: sext(off),
            op: LoadOp::HalfUnsigned,
        }),
        Lw { rt, rs, off } => Lowered::Op(Op::Load {
            dst: rt,
            base: rs,
            off: sext(off),
            op: LoadOp::Word,
        }),
        Sb { rt, rs, off } => Lowered::Op(Op::Store {
            val: rt,
            base: rs,
            off: sext(off),
            op: StoreOp::Byte,
        }),
        Sh { rt, rs, off } => Lowered::Op(Op::Store {
            val: rt,
            base: rs,
            off: sext(off),
            op: StoreOp::Half,
        }),
        Sw { rt, rs, off } => Lowered::Op(Op::Store {
            val: rt,
            base: rs,
            off: sext(off),
            op: StoreOp::Word,
        }),
        Nop => Lowered::Op(Op::Nop),
        Beq { rs, rt, .. } => branch(instr, pc, rs, rt, c_eq),
        Bne { rs, rt, .. } => branch(instr, pc, rs, rt, c_ne),
        Blez { rs, .. } => branch(instr, pc, rs, Reg::ZERO, c_lez),
        Bgtz { rs, .. } => branch(instr, pc, rs, Reg::ZERO, c_gtz),
        Bltz { rs, .. } => branch(instr, pc, rs, Reg::ZERO, c_ltz),
        Bgez { rs, .. } => branch(instr, pc, rs, Reg::ZERO, c_gez),
        J { target } => Lowered::Term(Terminator::Jump {
            target: target << 2,
            link: None,
        }),
        Jal { target } => Lowered::Term(Terminator::Jump {
            target: target << 2,
            link: Some((Reg::RA, pc.wrapping_add(4))),
        }),
        Jr { rs } => Lowered::Term(Terminator::Jr { rs }),
        Halt => Lowered::Term(Terminator::Halt),
        // Loop-controller interactions and the fused branch-decrement
        // run through the step core.
        Dbnz { .. } | Zwr { .. } | Zctl { .. } => Lowered::Term(Terminator::StepFrom),
    }
}

fn branch(instr: Instr, pc: u32, rs: Reg, rt: Reg, cond: CondFn) -> Lowered {
    Lowered::Term(Terminator::Branch {
        rs,
        rt,
        cond,
        taken: instr.branch_target(pc).expect("branch has target"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{CpuConfig, RunError};
    use crate::engine::NullEngine;
    use crate::exec::{step, Effect};
    use crate::{CompiledProgram, FunctionalCpu, NestCpu};
    use zolc_isa::{assemble, reg, Program};

    /// Register values the lowering checks read: distinct, with both
    /// signs, zeros and small shift amounts, so every branch condition
    /// and ALU fn is exercised on non-trivial operands.
    fn operand_sets() -> Vec<[u32; 32]> {
        let spread: [u32; 32] = std::array::from_fn(|i| (i as u32).wrapping_mul(0x9E37_79B9));
        let small: [u32; 32] = std::array::from_fn(|i| (i as u32).wrapping_sub(16));
        let mut zero = spread;
        zero[1..8].fill(0);
        vec![spread, small, zero]
    }

    /// Every instruction of `p` lowers to an op or terminator with
    /// exactly the architectural effect `exec::step` computes for it.
    fn assert_lowers_like_step(p: &Program) {
        for regs in operand_sets() {
            let read = |r: Reg| if r.is_zero() { 0 } else { regs[r.index()] };
            for (i, &instr) in p.text().iter().enumerate() {
                let pc = 4 * i as u32;
                let want = step(instr, pc, read);
                let got = match lower(instr, pc) {
                    Lowered::Op(Op::Alu { dst, a, b, f }) => Effect::Write {
                        dst,
                        value: f(read(a), read(b)),
                    },
                    Lowered::Op(Op::AluImm { dst, a, imm, f }) => Effect::Write {
                        dst,
                        value: f(read(a), imm),
                    },
                    Lowered::Op(Op::Load { dst, base, off, op }) => Effect::Load {
                        dst,
                        addr: read(base).wrapping_add(off),
                        op,
                    },
                    Lowered::Op(Op::Store { val, base, off, op }) => Effect::Store {
                        addr: read(base).wrapping_add(off),
                        value: read(val),
                        op,
                    },
                    Lowered::Op(Op::Nop) => Effect::Nop,
                    Lowered::Term(Terminator::Branch {
                        rs,
                        rt,
                        cond,
                        taken,
                    }) => Effect::Branch {
                        taken: cond(read(rs), read(rt)),
                        target: taken,
                        decrement: None,
                    },
                    Lowered::Term(Terminator::Jump { target, link }) => {
                        Effect::Jump { target, link }
                    }
                    Lowered::Term(Terminator::Jr { rs }) => Effect::Jump {
                        target: read(rs),
                        link: None,
                    },
                    Lowered::Term(Terminator::Halt) => Effect::Halt,
                    Lowered::Term(Terminator::StepFrom) => {
                        assert!(
                            matches!(
                                want,
                                Effect::Zwr { .. }
                                    | Effect::Zctl { .. }
                                    | Effect::Branch {
                                        decrement: Some(_),
                                        ..
                                    }
                            ),
                            "{instr:?} deferred to the step core"
                        );
                        continue;
                    }
                };
                assert_eq!(got, want, "{instr:?} at {pc:#x}");
            }
        }
    }

    /// The lowering checked per instruction, then executed by its one
    /// consumer, the nest tier, against the functional reference.
    fn assert_matches_functional(p: &Program, fuel: u64) {
        assert_lowers_like_step(p);
        let prog = CompiledProgram::compile(p.clone());
        let mut f = FunctionalCpu::session(&prog, CpuConfig::default()).unwrap();
        let fr = f.run(&mut NullEngine, fuel);
        let mut n = NestCpu::session(&prog, CpuConfig::default()).unwrap();
        let nr = n.run(&mut NullEngine, fuel);
        assert_eq!(fr, nr, "run results differ (fuel {fuel})");
        assert_eq!(f.regs().snapshot(), n.regs().snapshot(), "registers");
        assert_eq!(f.stats(), n.stats(), "stats");
    }

    fn nest_session(p: &Program) -> NestCpu {
        NestCpu::session(&CompiledProgram::compile(p.clone()), CpuConfig::default()).unwrap()
    }

    #[test]
    fn countdown_loop_matches_functional() {
        let p = assemble(
            "
            li   r1, 10
            li   r2, 0
      top:  add  r2, r2, r1
            addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
        )
        .unwrap();
        assert_matches_functional(&p, 1_000_000);
        let mut cpu = nest_session(&p);
        let stats = cpu.run(&mut NullEngine, 1_000_000).unwrap();
        assert_eq!(cpu.regs().read(reg(2)), (1..=10).sum::<u32>());
        assert_eq!(stats.cycles, 0);
        assert_eq!(stats.retired, 2 + 3 * 10 + 1);
        assert_eq!(stats.taken_branches, 9);
        assert_eq!(stats.branches, 10);
    }

    #[test]
    fn dbnz_jumps_and_calls_take_the_fallback() {
        let p = assemble(
            "
            li   r1, 4
            jal  sub
      top:  addi r2, r2, 1
            dbnz r1, top
            halt
      sub:  addi r5, r0, 9
            jr   r31
        ",
        )
        .unwrap();
        // `dbnz` defers to the step core; `jal` precomputes its link.
        assert!(matches!(
            lower(p.text()[3], 12),
            Lowered::Term(Terminator::StepFrom)
        ));
        assert!(matches!(
            lower(p.text()[1], 4),
            Lowered::Term(Terminator::Jump {
                target: 20,
                link: Some((Reg::RA, 8)),
            })
        ));
        assert_matches_functional(&p, 1_000_000);
        let mut cpu = nest_session(&p);
        let stats = cpu.run(&mut NullEngine, 1_000_000).unwrap();
        assert_eq!(cpu.regs().read(reg(2)), 4);
        assert_eq!(cpu.regs().read(reg(5)), 9);
        assert_eq!(stats.dbnz_retired, 4);
    }

    #[test]
    fn mid_block_fault_commits_the_prefix() {
        // The store to a misaligned data address faults with the two
        // earlier ALU results already committed and the pc parked on the
        // faulting instruction.
        let p = assemble(
            "
            li   r1, 2
            li   r2, 77
            sw   r2, (r1)
            halt
        ",
        )
        .unwrap();
        assert_matches_functional(&p, 1000);
        let mut n = nest_session(&p);
        assert!(matches!(
            n.run(&mut NullEngine, 1000),
            Err(RunError::Mem(_))
        ));
        assert_eq!(n.regs().read(reg(2)), 77);
        assert_eq!(n.stats().retired, 2);
    }

    #[test]
    fn fuel_boundary_matches_functional_exactly() {
        let p = assemble(
            "
            li   r1, 3
      top:  addi r2, r2, 1
            dbnz r1, top
            halt
        ",
        )
        .unwrap();
        // full run retires 1 + 2*3 + 1 = 8 instructions
        for fuel in 0..=9 {
            assert_matches_functional(&p, fuel);
        }
    }

    #[test]
    fn fetch_faults_match_functional() {
        for src in ["nop\nnop\n", "li r1, 6\njr r1\nhalt"] {
            let p = assemble(src).unwrap();
            assert_matches_functional(&p, 1000);
        }
        let p = assemble("li r1, 6\njr r1\nhalt").unwrap();
        let mut n = nest_session(&p);
        let err = n.run(&mut NullEngine, 1000).unwrap_err();
        assert_eq!(err, RunError::MisalignedFetch { pc: 6 });
    }

    #[test]
    fn trace_retire_falls_back_to_the_step_core() {
        let p = assemble("nop\nnop\nhalt").unwrap();
        assert_lowers_like_step(&p);
        let prog = CompiledProgram::compile(p);
        let mut cpu = NestCpu::session(
            &prog,
            CpuConfig {
                trace_retire: true,
                ..CpuConfig::default()
            },
        )
        .unwrap();
        cpu.run(&mut NullEngine, 100).unwrap();
        let ords: Vec<u64> = cpu.retire_log().iter().map(|e| e.cycle).collect();
        assert_eq!(ords, vec![1, 2, 3]);
        // Traced runs never compile a superblock.
        assert_eq!(prog.nest_cache_stats().misses, 0);
    }

    #[test]
    fn blocks_are_reused_across_iterations() {
        // A long-running loop lowers its body exactly once: the shared
        // cache registers a bounded number of misses and no
        // per-iteration recompilation.
        let p = assemble(
            "
            li   r1, 1000
      top:  addi r2, r2, 3
            addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
        )
        .unwrap();
        assert_lowers_like_step(&p);
        let prog = CompiledProgram::compile(p);
        let mut n = NestCpu::session(&prog, CpuConfig::default()).unwrap();
        n.run(&mut NullEngine, 1_000_000).unwrap();
        assert_eq!(n.regs().read(reg(2)), 3000);
        let stats = prog.nest_cache_stats();
        assert!(stats.misses >= 1, "the entry region is compiled");
        assert!(stats.misses <= 2, "no per-iteration recompilation");
        assert_eq!(stats.resident as u64, stats.misses, "nothing dropped");
        // A second session over the same program compiles nothing new.
        let mut n2 = NestCpu::session(&prog, CpuConfig::default()).unwrap();
        n2.run(&mut NullEngine, 1_000_000).unwrap();
        assert_eq!(n2.regs().read(reg(2)), 3000);
        assert_eq!(prog.nest_cache_stats().misses, stats.misses);
        assert!(prog.nest_cache_stats().hits > stats.hits, "reused");
    }
}
