//! Binary lint pass: dataflow-backed diagnostics over machine code.
//!
//! [`lint_program`] runs the `zolc-analyze` solver suite — reachability,
//! liveness, constant propagation — over a program's CFG and reports
//! defects a retargeting toolchain cares about before any excision
//! happens: code the entry can never reach, register writes no path
//! ever reads, computations discarded into `r0`, control transfers that
//! leave the text segment, and counted latches that provably never fall
//! through. With a [`ZolcImage`] the pass additionally checks loop
//! bodies against hardware-owned index registers.
//!
//! Every lint is anchored to the offending byte address, so drivers
//! (`zolcc --lint`, `explore --analyze`, the `zolcd` `lint` op) can
//! render, filter and count findings without parsing message text.
//!
//! The reported facts are *sound by construction of the analyses*: the
//! root `prop_analysis_sound` suite replays generated programs on the
//! functional executor and fails if a lint ever contradicts an observed
//! execution (a "dead" store that is read, an "unreachable" block that
//! retires an instruction).

use crate::graph::Cfg;
use std::fmt;
use zolc_analyze::{reachable_blocks, solve, ConstProp, Liveness, RegSet};
use zolc_core::ZolcImage;
use zolc_isa::{Instr, Program, Reg, INSTR_BYTES, TEXT_BASE};

/// The category of a lint finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LintKind {
    /// A basic block no path from the entry reaches.
    UnreachableBlock,
    /// A register write no path reads before redefinition.
    DeadStore,
    /// A computation whose encoded destination is the hard-wired `r0`.
    ZeroRegWrite,
    /// A loop-body write to a hardware-owned ZOLC index register.
    IndexRegWrite,
    /// A control transfer targeting an address outside the text segment.
    BadBranchTarget,
    /// A backward latch branch that is provably always taken.
    NonTerminatingLatch,
}

impl LintKind {
    /// Every kind, in severity-agnostic report order.
    pub const ALL: [LintKind; 6] = [
        LintKind::UnreachableBlock,
        LintKind::DeadStore,
        LintKind::ZeroRegWrite,
        LintKind::IndexRegWrite,
        LintKind::BadBranchTarget,
        LintKind::NonTerminatingLatch,
    ];

    /// Stable kebab-case label (used by drivers and the daemon wire
    /// format).
    pub fn label(self) -> &'static str {
        match self {
            LintKind::UnreachableBlock => "unreachable-block",
            LintKind::DeadStore => "dead-store",
            LintKind::ZeroRegWrite => "zero-reg-write",
            LintKind::IndexRegWrite => "index-reg-write",
            LintKind::BadBranchTarget => "bad-branch-target",
            LintKind::NonTerminatingLatch => "non-terminating-latch",
        }
    }
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One lint finding, anchored to a byte address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// The category.
    pub kind: LintKind,
    /// The offending instruction (or block start) address.
    pub addr: u32,
    /// Human-facing explanation.
    pub message: String,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}: {}: {}", self.addr, self.kind, self.message)
    }
}

/// The result of [`lint_program`]: all findings in address order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// The findings, sorted by address then kind.
    pub lints: Vec<Lint>,
}

impl LintReport {
    /// Whether the program linted clean.
    pub fn is_clean(&self) -> bool {
        self.lints.is_empty()
    }

    /// Number of findings of one kind.
    pub fn count(&self, kind: LintKind) -> usize {
        self.lints.iter().filter(|l| l.kind == kind).count()
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return writeln!(f, "clean: no findings");
        }
        for l in &self.lints {
            writeln!(f, "{l}")?;
        }
        writeln!(f, "{} finding(s)", self.lints.len())
    }
}

/// Evaluates a conditional branch on known operand values; `None` when
/// the instruction is not a conditional branch or an operand is unknown.
fn branch_taken(i: &Instr, val: impl Fn(Reg) -> Option<u32>) -> Option<bool> {
    let v = |r: Reg| if r.is_zero() { Some(0) } else { val(r) };
    Some(match *i {
        Instr::Beq { rs, rt, .. } => v(rs)? == v(rt)?,
        Instr::Bne { rs, rt, .. } => v(rs)? != v(rt)?,
        Instr::Blez { rs, .. } => (v(rs)? as i32) <= 0,
        Instr::Bgtz { rs, .. } => (v(rs)? as i32) > 0,
        Instr::Bltz { rs, .. } => (v(rs)? as i32) < 0,
        Instr::Bgez { rs, .. } => (v(rs)? as i32) >= 0,
        Instr::Dbnz { rs, .. } => v(rs)?.wrapping_sub(1) != 0,
        _ => return None,
    })
}

/// Lints `program`, optionally checking loop bodies against the index
/// registers a resolved `image` claims for the hardware.
///
/// With an `image`, the loop records' controller back edges (`end` →
/// `start`) are grafted onto the CFG before solving, so the facts hold
/// for the combined machine — an index step read by the next hardware
/// iteration is not a dead store even though no text branch re-enters
/// the loop. Records with an unresolved, unaligned or out-of-text
/// address add no edge: they are [`verify_image`](crate::verify_image)'s
/// domain.
///
/// # Examples
///
/// ```
/// use zolc_cfg::{lint_program, LintKind};
///
/// let program = zolc_isa::assemble("
///     li   r2, 7
///     add  r0, r2, r2
///     halt
///     nop
/// ").unwrap();
/// let report = lint_program(&program, None);
/// assert_eq!(report.count(LintKind::ZeroRegWrite), 1);
/// assert_eq!(report.count(LintKind::UnreachableBlock), 1);
/// assert_eq!(report.count(LintKind::DeadStore), 0, "r2 is read before halt");
/// ```
pub fn lint_program(program: &Program, image: Option<&ZolcImage>) -> LintReport {
    let text = program.text();
    let n = text.len();
    let mut lints = Vec::new();
    if n == 0 {
        return LintReport { lints };
    }

    let loops = image.map_or(&[][..], |image| &image.loops[..]);
    let backs = loops
        .iter()
        .filter_map(|l| Some((l.end.abs()?, l.start.abs()?)));
    let g = Cfg::with_controller_edges(program, backs).flow(program);
    let reachable = reachable_blocks(&g);
    // All registers observable at program end: a final write is *not*
    // dead merely because the program halts right after it.
    let live = solve(
        &g,
        &Liveness {
            at_exit: RegSet::ALL,
        },
    );
    let consts = solve(&g, &ConstProp);

    let in_text = |addr: u32| (TEXT_BASE..program.text_end()).contains(&addr);

    for (b, block) in g.blocks().enumerate() {
        if !reachable[b] {
            lints.push(Lint {
                kind: LintKind::UnreachableBlock,
                addr: block.start,
                message: format!(
                    "block of {} instruction(s) is unreachable from the entry",
                    block.instrs.len()
                ),
            });
            // facts inside unreachable blocks are vacuous: skip the
            // per-instruction lints
            continue;
        }

        let live_points = live.points(
            &g,
            &Liveness {
                at_exit: RegSet::ALL,
            },
            b,
        );
        let const_points = consts.points(&g, &ConstProp, b);
        for (i, instr) in block.instrs.iter().enumerate() {
            let pc = block.pc_at(i);

            // dead store: the write is not live immediately after the
            // instruction (no path reads it before redefinition)
            if let Some(r) = instr.dst() {
                if !live_points[i + 1].contains(r) {
                    lints.push(Lint {
                        kind: LintKind::DeadStore,
                        addr: pc,
                        message: format!("write to {r} is never read (`{instr}`)"),
                    });
                }
            }

            // discarded computation: encoded destination is r0
            if instr.dst_raw().is_some_and(|r| r.is_zero()) && *instr != Instr::Nop {
                lints.push(Lint {
                    kind: LintKind::ZeroRegWrite,
                    addr: pc,
                    message: format!("result of `{instr}` is discarded into r0"),
                });
            }

            // control transfer leaving the text segment
            if let Some(t) = instr.static_target(pc) {
                if !in_text(t) {
                    lints.push(Lint {
                        kind: LintKind::BadBranchTarget,
                        addr: pc,
                        message: format!("`{instr}` targets {t:#x}, outside the text segment"),
                    });
                }
            }

            // provably always-taken backward branch: the loop this
            // latch closes can never exit through its fall-through
            if let (Some(t), Some(facts)) = (instr.branch_target(pc), &const_points[i]) {
                if t <= pc {
                    let taken = branch_taken(instr, |r| facts[r].as_const());
                    if taken == Some(true) {
                        lints.push(Lint {
                            kind: LintKind::NonTerminatingLatch,
                            addr: pc,
                            message: format!(
                                "backward branch `{instr}` is always taken: the loop never falls through"
                            ),
                        });
                    }
                }
            }
        }
    }

    // loop-body writes to hardware-owned index registers
    for (k, l) in loops.iter().enumerate() {
        let (Some(r), Some(start), Some(end)) = (l.index_reg, l.start.abs(), l.end.abs()) else {
            continue;
        };
        if r.is_zero() {
            continue; // structural defect, verify_image's domain
        }
        let body = (start..=end).step_by(INSTR_BYTES as usize);
        for pc in body.take_while(|&pc| pc < program.text_end()) {
            if program.instr_at(pc).and_then(|i| i.dst()) == Some(r) {
                lints.push(Lint {
                    kind: LintKind::IndexRegWrite,
                    addr: pc,
                    message: format!("body of hardware loop {k} writes its index register {r}"),
                });
            }
        }
    }

    lints.sort_by_key(|l| (l.addr, l.kind));
    LintReport { lints }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zolc_isa::assemble;

    fn lint(src: &str) -> LintReport {
        lint_program(&assemble(src).unwrap(), None)
    }

    #[test]
    fn clean_loop_has_no_findings() {
        let r = lint(
            "
            li   r11, 5
      top:  add  r2, r2, r3
            addi r11, r11, -1
            bne  r11, r0, top
            halt
        ",
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn unreachable_block_reported_once_without_inner_lints() {
        let r = lint(
            "
            j    end
            add  r0, r2, r2
            add  r5, r2, r2
      end:  halt
        ",
        );
        assert_eq!(r.count(LintKind::UnreachableBlock), 1);
        // the dead block's own zero-write / dead-store defects are
        // subsumed by its unreachability
        assert_eq!(r.count(LintKind::ZeroRegWrite), 0);
        assert_eq!(r.count(LintKind::DeadStore), 0);
        assert_eq!(r.lints[0].addr, 4);
    }

    #[test]
    fn dead_store_is_overwritten_before_read() {
        let r = lint(
            "
            li   r2, 1
            li   r2, 2
            sw   r2, 0(r1)
            halt
        ",
        );
        assert_eq!(r.count(LintKind::DeadStore), 1);
        assert_eq!(r.lints[0].addr, zolc_isa::TEXT_BASE);
    }

    #[test]
    fn final_write_is_not_dead() {
        // with halt right after, the write is observable program state
        let r = lint("li r2, 1\nhalt\n");
        assert_eq!(r.count(LintKind::DeadStore), 0, "{r}");
    }

    #[test]
    fn write_live_on_one_path_is_not_dead() {
        let r = lint(
            "
            li   r2, 9
            beq  r3, r0, skip
            add  r4, r2, r2
      skip: halt
        ",
        );
        assert_eq!(r.count(LintKind::DeadStore), 0);
    }

    #[test]
    fn zero_reg_write_flagged_but_nop_is_not() {
        let r = lint("add r0, r2, r3\nnop\nhalt\n");
        assert_eq!(r.count(LintKind::ZeroRegWrite), 1);
        assert_eq!(r.lints.len(), 1, "{r}");
    }

    #[test]
    fn branch_out_of_text_flagged() {
        use zolc_isa::{Program, Reg};
        // hand-build: assemble would reject an unresolved label
        let p = Program::from_parts(
            vec![
                Instr::Beq {
                    rs: Reg::ZERO,
                    rt: Reg::ZERO,
                    off: 100,
                },
                Instr::Halt,
            ],
            Vec::new(),
        );
        let r = lint_program(&p, None);
        assert_eq!(r.count(LintKind::BadBranchTarget), 1);
    }

    #[test]
    fn constant_latch_that_never_exits_flagged() {
        // r2 is reset to 5 every iteration: the bne can never fall through
        let r = lint(
            "
      top:  li   r2, 5
            bne  r2, r0, top
            halt
        ",
        );
        assert_eq!(r.count(LintKind::NonTerminatingLatch), 1, "{r}");
    }

    #[test]
    fn decremented_latch_is_not_flagged() {
        let r = lint(
            "
            li   r2, 5
      top:  addi r2, r2, -1
            bne  r2, r0, top
            halt
        ",
        );
        assert_eq!(r.count(LintKind::NonTerminatingLatch), 0, "{r}");
    }

    #[test]
    fn index_reg_write_flagged_with_image() {
        use zolc_core::{LimitSrc, LoopSpec, TASK_NONE};
        use zolc_isa::reg;
        let p = assemble(
            "
            li   r11, 3
      top:  addi r20, r20, 1
            addi r11, r11, -1
            bne  r11, r0, top
            halt
        ",
        )
        .unwrap();
        let image = ZolcImage {
            loops: vec![LoopSpec {
                init: 0,
                step: 1,
                limit: LimitSrc::Const(3),
                index_reg: Some(reg(20)),
                start: 4.into(),
                end: 12.into(),
            }],
            tasks: vec![],
            entries: vec![],
            exits: vec![],
            initial_task: TASK_NONE,
        };
        let r = lint_program(&p, Some(&image));
        assert_eq!(r.count(LintKind::IndexRegWrite), 1, "{r}");
        assert_eq!(
            r.lints
                .iter()
                .find(|l| l.kind == LintKind::IndexRegWrite)
                .unwrap()
                .addr,
            4
        );
    }

    #[test]
    fn malformed_records_add_no_controller_edge() {
        use zolc_core::{AddrVal, LimitSrc, LoopSpec, TASK_NONE};
        let p = assemble(
            "
            li   r20, 0
      top:  add  r2, r2, r20
            addi r20, r20, 1
            li   r20, 0
            halt
        ",
        )
        .unwrap();
        let image = |start: AddrVal, end: AddrVal| ZolcImage {
            loops: vec![LoopSpec {
                init: 0,
                step: 1,
                limit: LimitSrc::Const(3),
                index_reg: Some(zolc_isa::reg(5)),
                start,
                end,
            }],
            tasks: vec![],
            entries: vec![],
            exits: vec![],
            initial_task: TASK_NONE,
        };
        // the step at 8 is read only by the next hardware iteration
        let without = lint_program(&p, None);
        assert_eq!(without.count(LintKind::DeadStore), 1, "{without}");
        let with_edge = lint_program(&p, Some(&image(4.into(), 8.into())));
        assert!(with_edge.is_clean(), "{with_edge}");
        let label = zolc_isa::Asm::new().new_label();
        let malformed: [(AddrVal, AddrVal); 6] = [
            (6.into(), 10.into()),
            (4.into(), 10.into()),
            (4.into(), 400.into()),
            (400.into(), 8.into()),
            (0.into(), u32::MAX.into()),
            (label.into(), 8.into()),
        ];
        for (start, end) in malformed {
            let r = lint_program(&p, Some(&image(start, end)));
            assert_eq!(r, without, "{start:?}..{end:?}");
        }
    }

    #[test]
    fn hardware_back_edge_keeps_index_step_live() {
        use zolc_core::ZolcConfig;
        use zolc_ir::{lower_into, LoopIr, LoopNode, Node, Target, Trips};
        use zolc_isa::{reg, Asm};
        // a ZOLC-lowered loop whose body uses a software-maintained
        // index: the final index step is read only by the *next*
        // hardware iteration, an edge that exists in the controller,
        // not the text
        let ir = LoopIr {
            name: "t".into(),
            nodes: vec![
                Node::Loop(LoopNode {
                    trips: Trips::Const(4),
                    index: None,
                    counter: reg(11),
                    // software-maintained induction variable: the step
                    // is read only by the next hardware iteration
                    body: vec![Node::code([
                        Instr::Add {
                            rd: reg(2),
                            rs: reg(2),
                            rt: reg(20),
                        },
                        Instr::Addi {
                            rt: reg(20),
                            rs: reg(20),
                            imm: 1,
                        },
                    ])],
                }),
                // a later redefinition: without the controller edge the
                // in-loop step looks overwritten-before-read
                Node::code([Instr::Addi {
                    rt: reg(20),
                    rs: reg(0),
                    imm: 0,
                }]),
            ],
        };
        let mut asm = Asm::new();
        let info = lower_into(&mut asm, &ir, &Target::Zolc(ZolcConfig::lite())).unwrap();
        asm.emit(Instr::Halt);
        let p = asm.finish().unwrap();
        let image = info.image.unwrap();
        let with_image = lint_program(&p, Some(&image));
        assert!(with_image.is_clean(), "{with_image}");
        // without the image the index step looks dead — the graft is
        // what makes the report faithful to the combined machine
        let without = lint_program(&p, None);
        assert!(without.count(LintKind::DeadStore) > 0);
    }

    #[test]
    fn report_renders_and_counts() {
        let r = lint("add r0, r2, r3\nhalt\n");
        assert!(!r.is_clean());
        assert!(r.to_string().contains("zero-reg-write"));
        assert!(lint("halt\n").to_string().contains("clean"));
    }
}
