//! Binary lint pass: dataflow-backed diagnostics over machine code.
//!
//! [`lint_program`] runs the two `zolc-analyze` analyses — liveness and
//! constant propagation, whose unreachable `⊥` marks the blocks no path
//! reaches — over a program's CFG and reports defects a retargeting
//! toolchain cares about before any excision happens: code the entry
//! can never reach, register writes no path ever reads, computations
//! discarded into `r0`, control transfers that leave the text segment,
//! and counted latches that provably never fall through. Each reachable
//! block is walked once forward, carrying the constants, and once
//! backward, carrying the live registers. With a [`ZolcImage`] the pass
//! also checks the image's
//! records against the text — the structural defects
//! [`ZolcImage::validate`] cannot see, because it knows the
//! configuration but not the program:
//!
//! * `bad-record-addr` — a loop, task, entry or exit address that is
//!   unresolved, unaligned or outside the text;
//! * `inverted-region` — a loop whose start lies after its end;
//! * `zero-index-reg` — `r0` claimed as a hardware index register;
//! * `index-reg-write` — a loop-body write to its hardware-owned index
//!   register;
//! * `end-mismatch` — a task end that differs from its loop's end;
//! * `cyclic-fallthru` — a task fall-through chain that never ends;
//! * `bad-exit-branch` — an exit address holding no conditional branch,
//!   or a branch whose target differs from the record's.
//!
//! Every lint is anchored to the offending byte address (an unresolved
//! record address at `TEXT_BASE`), so drivers (`zolcc --lint`,
//! `explore --analyze`, the `zolcd` `lint` op) can render, filter and
//! count findings without parsing message text.
//!
//! The reported facts are *sound by construction of the analyses*: the
//! root `prop_analysis_sound` suite replays generated programs on the
//! functional executor and fails if a lint ever contradicts an observed
//! execution (a "dead" store that is read, an "unreachable" block that
//! retires an instruction).

use crate::graph::Cfg;
use std::fmt;
use zolc_analyze::{solve, Analysis, ConstProp, Liveness, RegSet};
use zolc_core::{AddrVal, LoopSpec, ZolcImage, TASK_NONE};
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
    /// An image record address that is unresolved, unaligned or outside
    /// the text segment (unresolved ones anchor at `TEXT_BASE`).
    BadRecordAddr,
    /// An image loop record whose start lies after its end.
    InvertedRegion,
    /// An image loop record claiming `r0` as its index register.
    ZeroIndexReg,
    /// An image task whose end differs from its loop record's end.
    EndMismatch,
    /// An image task whose fall-through chain cycles instead of
    /// terminating.
    CyclicFallthru,
    /// An image exit record whose address holds no conditional branch,
    /// or a branch with another target than the record's.
    BadExitBranch,
}

impl LintKind {
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
            LintKind::BadRecordAddr => "bad-record-addr",
            LintKind::InvertedRegion => "inverted-region",
            LintKind::ZeroIndexReg => "zero-index-reg",
            LintKind::EndMismatch => "end-mismatch",
            LintKind::CyclicFallthru => "cyclic-fallthru",
            LintKind::BadExitBranch => "bad-exit-branch",
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

/// Lints `program`, optionally checking a resolved `image` against it.
///
/// With an `image`, the loop records' controller back edges (`end` →
/// `start`) are grafted onto the CFG before solving, so the facts hold
/// for the combined machine — an index step read by the next hardware
/// iteration is not a dead store even though no text branch re-enters
/// the loop. Records with an unresolved, unaligned or out-of-text
/// address add no edge; they are reported as
/// [`LintKind::BadRecordAddr`] instead. The image's records are also
/// checked against the text ([`LintKind::InvertedRegion`],
/// [`LintKind::ZeroIndexReg`], [`LintKind::IndexRegWrite`],
/// [`LintKind::EndMismatch`], [`LintKind::CyclicFallthru`],
/// [`LintKind::BadExitBranch`]). A record naming a loop or task the image
/// does not hold is [`ZolcImage::validate`]'s to reject, and is skipped.
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
    let mut lints = Vec::new();
    let loops = image.map_or(&[][..], |image| &image.loops[..]);
    if !program.text().is_empty() {
        lint_flow(program, loops, &mut lints);
    }
    if let Some(image) = image {
        lint_image(program, image, &mut lints);
    }
    lints.sort_by_key(|l| (l.addr, l.kind));
    LintReport { lints }
}

/// The dataflow lints of a non-empty `program` combined with the
/// controller back edges of `loops`.
fn lint_flow(program: &Program, loops: &[LoopSpec], lints: &mut Vec<Lint>) {
    let backs = loops
        .iter()
        .filter_map(|l| Some((l.end.abs()?, l.start.abs()?)));
    let g = Cfg::with_controller_edges(program, backs).flow(program);
    // All registers observable at program end: a final write is *not*
    // dead merely because the program halts right after it.
    let liveness = Liveness {
        at_exit: RegSet::ALL,
    };
    let live = solve(&g, &liveness);
    // Constant propagation prunes no branch, so its `⊥` input marks
    // exactly the blocks no path from the entry reaches.
    let consts = solve(&g, &ConstProp);

    let in_text = |addr: u32| (TEXT_BASE..program.text_end()).contains(&addr);

    for (b, block) in g.blocks().enumerate() {
        let mut facts = consts.block_in[b];
        if facts.is_none() {
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

        // Forward, carrying the constants before each instruction.
        for (i, instr) in block.instrs.iter().enumerate() {
            let pc = block.pc_at(i);

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
            if let (Some(t), Some(known)) = (instr.branch_target(pc), &facts) {
                if t <= pc && branch_taken(instr, |r| known[r].as_const()) == Some(true) {
                    lints.push(Lint {
                        kind: LintKind::NonTerminatingLatch,
                        addr: pc,
                        message: format!(
                            "backward branch `{instr}` is always taken: the loop never falls through"
                        ),
                    });
                }
            }
            ConstProp.transfer(*instr, pc, &mut facts);
        }

        // Backward, carrying the registers live after each instruction.
        let mut live_after = live.block_out[b];
        for (i, instr) in block.instrs.iter().enumerate().rev() {
            let pc = block.pc_at(i);

            // dead store: no path reads the write before redefinition
            if let (Some(r), _) = instr.def_use() {
                if !live_after.contains(r) {
                    lints.push(Lint {
                        kind: LintKind::DeadStore,
                        addr: pc,
                        message: format!("write to {r} is never read (`{instr}`)"),
                    });
                }
            }
            liveness.transfer(*instr, pc, &mut live_after);
        }
    }
}

/// Checks `image`'s records against the program text. Every check is
/// O(1) per record except two bounded walks: a body scan stops at the end
/// of the text, and a fall-through chain at the size of the task table.
fn lint_image(program: &Program, image: &ZolcImage, lints: &mut Vec<Lint>) {
    let lint = |kind, addr, message| Lint {
        kind,
        addr,
        message,
    };
    let unresolved = |rec: &str, k: usize, what: &str| {
        lint(
            LintKind::BadRecordAddr,
            TEXT_BASE,
            format!("{rec} {k}: unresolved {what}"),
        )
    };
    // an address on no instruction: `Cfg::with_controller_edges`
    // grafts no edge for it either
    let outside = |rec: &str, k: usize, field: &str, a: u32| {
        program.instr_at(a).is_none().then(|| {
            lint(
                LintKind::BadRecordAddr,
                a,
                format!("{rec} {k}: {field} {a:#x} outside text"),
            )
        })
    };

    for (k, l) in image.loops.iter().enumerate() {
        if l.index_reg.is_some_and(Reg::is_zero) {
            lints.push(lint(
                LintKind::ZeroIndexReg,
                l.start.abs().unwrap_or(TEXT_BASE),
                format!("loop {k}: r0 as index register"),
            ));
        }
        let (Some(start), Some(end)) = (l.start.abs(), l.end.abs()) else {
            lints.push(unresolved("loop", k, "addresses"));
            continue;
        };
        lints.extend(outside("loop", k, "start", start));
        lints.extend(outside("loop", k, "end", end));
        if start > end {
            lints.push(lint(
                LintKind::InvertedRegion,
                start,
                format!("loop {k}: start {start:#x} after end {end:#x}"),
            ));
        }
        // body writes to the hardware-owned index register
        let Some(r) = l.index_reg.filter(|r| !r.is_zero()) else {
            continue;
        };
        let body = (start..=end).step_by(INSTR_BYTES as usize);
        for pc in body.take_while(|&pc| pc < program.text_end()) {
            if program.instr_at(pc).and_then(|i| i.def_use().0) == Some(r) {
                lints.push(lint(
                    LintKind::IndexRegWrite,
                    pc,
                    format!("body of hardware loop {k} writes its index register {r}"),
                ));
            }
        }
    }

    for (k, t) in image.tasks.iter().enumerate() {
        let Some(end) = t.end.abs() else {
            lints.push(unresolved("task", k, "end"));
            continue;
        };
        lints.extend(outside("task", k, "end", end));
        let Some(l) = image.loops.get(usize::from(t.loop_id)) else {
            continue;
        };
        if l.end.abs() != Some(end) {
            lints.push(lint(
                LintKind::EndMismatch,
                end,
                format!("task {k}: end differs from its loop {} end", t.loop_id),
            ));
        }
        // The fall-through chain through same-end tasks must terminate
        // (a different end is a new wait state and ends the chain); one
        // longer than the task table repeats a task, so it cycles.
        let same_end = |id: u8| {
            let next = image.tasks.get(usize::from(id))?;
            (id != TASK_NONE && next.end.abs() == Some(end)).then_some(next)
        };
        let chain = std::iter::successors(same_end(t.next_fallthru), |c| same_end(c.next_fallthru));
        if chain.take(image.tasks.len() + 1).count() > image.tasks.len() {
            lints.push(lint(
                LintKind::CyclicFallthru,
                end,
                format!("task {k}: cyclic fall-through chain"),
            ));
        }
    }

    for (k, x) in image.exits.iter().enumerate() {
        let Some(branch) = x.branch.abs() else {
            lints.push(unresolved("exit", k, "branch address"));
            continue;
        };
        lints.extend(outside("exit", k, "branch", branch));
        let Some(i) = program.instr_at(branch) else {
            continue;
        };
        let message = if !i.is_cond_branch() {
            format!("exit {k}: instruction at {branch:#x} is `{i}`, not a conditional branch")
        } else {
            match (x.target.and_then(AddrVal::abs), i.branch_target(branch)) {
                (Some(expect), Some(actual)) if expect != actual => {
                    format!("exit {k}: branch targets {actual:#x}, record says {expect:#x}")
                }
                _ => continue,
            }
        };
        lints.push(lint(LintKind::BadExitBranch, branch, message));
    }

    for (k, e) in image.entries.iter().enumerate() {
        match e.addr.abs() {
            Some(a) => lints.extend(outside("entry", k, "address", a)),
            None => lints.push(unresolved("entry", k, "address")),
        }
    }
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
        use LintKind::{BadRecordAddr as Bad, InvertedRegion as Inverted};
        // each record's expected (kind, address) lints
        type Expect = &'static [(LintKind, u32)];
        let malformed: [(AddrVal, AddrVal, Expect); 6] = [
            (6.into(), 10.into(), &[(Bad, 6), (Bad, 10)]),
            (4.into(), 10.into(), &[(Bad, 10)]),
            (4.into(), 400.into(), &[(Bad, 400)]),
            (400.into(), 8.into(), &[(Bad, 400), (Inverted, 400)]),
            (0.into(), u32::MAX.into(), &[(Bad, u32::MAX)]),
            (label.into(), 8.into(), &[(Bad, TEXT_BASE)]),
        ];
        for (start, end, expect) in malformed {
            let r = lint_program(&p, Some(&image(start, end)));
            let (record, flow): (Vec<_>, Vec<_>) = r
                .lints
                .into_iter()
                .partition(|l| matches!(l.kind, Bad | Inverted));
            assert_eq!(flow, without.lints, "{start:?}..{end:?}");
            let record: Vec<_> = record.iter().map(|l| (l.kind, l.addr)).collect();
            assert_eq!(record, expect, "{start:?}..{end:?}");
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
