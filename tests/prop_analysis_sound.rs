//! Execution-checked soundness of the `zolc-analyze` layer: every
//! abstract fact the dataflow analyses claim is held against concrete
//! functional-executor traces, and every lint kind carries a fixed
//! regression case.
//!
//! The analyses are may/must over-approximations, so each has one
//! falsifiable reading against a retire-order trace of the same
//! program:
//!
//! * **reachability** — a retired pc must sit in a block whose
//!   constant-propagation input is not the unreachable `⊥` (and no
//!   `unreachable-block` lint may name a block that retired), and that
//!   `⊥` must agree block by block with the dominator tree's answer;
//! * **liveness** — a register an instruction actually reads must be
//!   live at that instruction's program point, and a store the lint
//!   pass calls dead must never be read before the next write to the
//!   same register;
//! * **constant propagation** — where the analysis pins a source
//!   register to a constant, the value the machine actually held there
//!   (reconstructed by replaying the trace's write log) must equal it;
//! * **non-terminating latches** — a latch the lint pass proves stuck
//!   cannot have retired in a run that reached `halt`.
//!
//! Coverage comes from two directions: a fixed sweep of 256 `zolc-gen`
//! seeds (deterministic, so CI failures replay exactly — the
//! `lint-clean` job runs this suite at this case count) and a
//! `proptest` arm over random straight-line bodies from the shared
//! menu, which shrinks a violation to its plainest instruction mix.

mod common;

use std::collections::HashMap;
use std::sync::Arc;

use common::any_instr;
use proptest::prelude::*;
use zolc::analyze::{solve, Analysis, ConstProp, Liveness, RegSet, Solution};
use zolc::cfg::{lint_program, Cfg, Dominators, LintKind};
use zolc::gen::{GenConfig, ProgramSpec};
use zolc::isa::{reg, Asm, Instr, Program, Reg, DATA_BASE, INSTR_BYTES, TEXT_BASE};
use zolc::sim::{CompiledProgram, CpuConfig, ExecutorKind, NullEngine, RetireEvent};

const FUEL: u64 = 50_000_000;
/// The fixed seed sweep: the CI gate pins the suite at this count.
const GEN_SEEDS: u64 = 256;

/// Runs `program` to `halt` on the functional executor with retire
/// tracing enabled and returns the trace.
fn traced_run(program: &Program) -> Vec<RetireEvent> {
    let prog = Arc::new(CompiledProgram::compile(program.clone()));
    let mut cpu = ExecutorKind::Functional
        .new_session(&prog, CpuConfig { trace_retire: true })
        .expect("session opens");
    cpu.run(&mut NullEngine, FUEL).expect("program halts");
    cpu.retire_log().to_vec()
}

/// Checks every abstract claim of the analysis layer against one
/// concrete trace of `program`. `ctx` labels failures.
fn check_sound(program: &Program, trace: &[RetireEvent], ctx: &str) {
    let cfg = Cfg::build(program);
    let flow = cfg.flow(program);
    let liveness = Liveness {
        at_exit: RegSet::ALL,
    };
    let live = solve(&flow, &liveness);
    let consts = solve(&flow, &ConstProp);
    let report = lint_program(program, None);

    // The two reachability answers agree: lint reads constant
    // propagation's ⊥, retarget's `filter_handled` the dominator tree.
    let dom = Dominators::compute(&cfg);
    for (b, fact) in consts.block_in.iter().enumerate() {
        assert_eq!(
            fact.is_some(),
            dom.is_reachable(b),
            "{ctx}: block {b} reachability"
        );
    }

    // Per-block program-point facts, computed on first touch.
    let mut live_pts: HashMap<usize, Vec<RegSet>> = HashMap::new();
    let mut const_pts = HashMap::new();
    fn points_of<'m, A: Analysis>(
        cache: &'m mut HashMap<usize, Vec<A::Fact>>,
        sol: &Solution<A::Fact>,
        flow: &zolc::analyze::FlowGraph,
        a: &A,
        b: usize,
    ) -> &'m [A::Fact]
    where
        A::Fact: Clone + PartialEq,
    {
        cache.entry(b).or_insert_with(|| sol.points(flow, a, b))
    }

    // The machine's register file, reconstructed from the write log:
    // every architectural register write is a trace `dst`, so folding
    // them forward reproduces the value each read observed.
    let mut regs = [0u32; 32];

    let dead_stores: Vec<&zolc::cfg::Lint> = report
        .lints
        .iter()
        .filter(|l| l.kind == LintKind::DeadStore)
        .collect();
    let unreachable_lints: Vec<u32> = report
        .lints
        .iter()
        .filter(|l| l.kind == LintKind::UnreachableBlock)
        .map(|l| l.addr)
        .collect();
    let stuck_latches: Vec<u32> = report
        .lints
        .iter()
        .filter(|l| l.kind == LintKind::NonTerminatingLatch)
        .map(|l| l.addr)
        .collect();

    for (i, ev) in trace.iter().enumerate() {
        let b = flow
            .block_of(ev.pc)
            .unwrap_or_else(|| panic!("{ctx}: retired pc {:#x} outside the graph", ev.pc));
        let block = flow.block(b);
        let idx = ((ev.pc - block.start) / INSTR_BYTES) as usize;

        // reachability (constant propagation's ⊥): executed code must
        // be abstractly reachable
        assert!(
            consts.block_in[b].is_some(),
            "{ctx}: pc {:#x} retired inside a block reachability calls dead",
            ev.pc
        );
        assert!(
            !unreachable_lints.contains(&block.start),
            "{ctx}: pc {:#x} retired inside a block the lint pass calls unreachable",
            ev.pc
        );
        assert!(
            !stuck_latches.contains(&ev.pc),
            "{ctx}: latch {:#x} retired in a run that halted, yet the lint pass \
             proves it non-terminating",
            ev.pc
        );

        // liveness: an actually-read register is live at the read point
        let lp = points_of(&mut live_pts, &live, &flow, &liveness, b);
        for src in ev.instr.srcs().into_iter().flatten() {
            assert!(
                lp[idx].contains(src),
                "{ctx}: pc {:#x} reads {src}, but liveness calls it dead there",
                ev.pc
            );
        }

        // constant propagation: a pinned source must hold that value
        let cp = points_of(&mut const_pts, &consts, &flow, &ConstProp, b);
        if let Some(facts) = &cp[idx] {
            for src in ev.instr.srcs().into_iter().flatten() {
                if let Some(v) = facts[src].as_const() {
                    assert_eq!(
                        regs[src.index()],
                        v,
                        "{ctx}: pc {:#x}: constprop pins {src} to {v:#x}, machine held {:#x}",
                        ev.pc,
                        regs[src.index()]
                    );
                }
            }
        }

        if let Some((dst, value)) = ev.dst {
            regs[dst.index()] = value;
        }

        // dead stores: flagged writes are never read before the next
        // write to the same register
        for l in &dead_stores {
            if l.addr != ev.pc {
                continue;
            }
            let Some((dst, _)) = ev.dst else { continue };
            for later in &trace[i + 1..] {
                assert!(
                    !later.instr.srcs().into_iter().flatten().any(|s| s == dst),
                    "{ctx}: store to {dst} at {:#x} is flagged dead but read at {:#x}",
                    ev.pc,
                    later.pc
                );
                if later.dst.is_some_and(|(d, _)| d == dst) {
                    break;
                }
            }
        }
    }
}

/// The fixed sweep: 256 deterministic `zolc-gen` programs, each traced
/// on the functional executor and held against every analysis.
#[test]
fn analyses_sound_on_generated_programs() {
    let gen = GenConfig::new();
    for seed in 0..GEN_SEEDS {
        let spec = ProgramSpec::generate(seed, &gen);
        let assembled = spec.assemble().expect("generated programs assemble");
        let trace = traced_run(&assembled.program);
        assert!(!trace.is_empty(), "seed {seed}: empty trace");
        check_sound(&assembled.program, &trace, &format!("seed {seed}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The shrinking arm: random straight-line bodies from the shared
    /// instruction menu (loads, stores, arithmetic through the r1 data
    /// base), so an unsound transfer rule falsifies here with a
    /// minimal instruction mix.
    #[test]
    fn analyses_sound_on_straightline(instrs in prop::collection::vec(any_instr(), 1..60)) {
        let mut asm = Asm::new();
        asm.li(reg(1), DATA_BASE as i32);
        asm.emit_all(instrs.iter().copied());
        asm.emit(Instr::Halt);
        let program = asm.finish().expect("assembles");
        let trace = traced_run(&program);
        check_sound(&program, &trace, "straightline");
    }
}

// ---- fixed regression cases, one per lint kind --------------------------

#[test]
fn regression_unreachable_block() {
    let p = zolc::isa::assemble(
        "
        j    end
        add  r5, r2, r2
  end:  halt
    ",
    )
    .unwrap();
    let r = lint_program(&p, None);
    assert_eq!(r.count(LintKind::UnreachableBlock), 1, "{r}");
    assert_eq!(r.lints[0].addr, TEXT_BASE + INSTR_BYTES);
    // the trace-side reading: the dead block never retires
    let trace = traced_run(&p);
    assert!(trace.iter().all(|ev| ev.pc != TEXT_BASE + INSTR_BYTES));
    check_sound(&p, &trace, "regression_unreachable");
}

#[test]
fn regression_dead_store() {
    let p = zolc::isa::assemble(
        "
        li   r2, 1
        li   r2, 2
        sw   r2, 0(r1)
        halt
    ",
    )
    .unwrap();
    let r = lint_program(&p, None);
    assert_eq!(r.count(LintKind::DeadStore), 1, "{r}");
    assert_eq!(r.lints[0].addr, TEXT_BASE);
    check_sound(&p, &traced_run(&p), "regression_dead_store");
}

#[test]
fn regression_zero_reg_write() {
    let p = zolc::isa::assemble("add r0, r2, r3\nhalt\n").unwrap();
    let r = lint_program(&p, None);
    assert_eq!(r.count(LintKind::ZeroRegWrite), 1, "{r}");
    assert_eq!(r.lints[0].addr, TEXT_BASE);
    check_sound(&p, &traced_run(&p), "regression_zero_reg_write");
}

#[test]
fn regression_bad_branch_target() {
    // hand-built: the assembler would reject an unresolvable label
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
    assert_eq!(r.count(LintKind::BadBranchTarget), 1, "{r}");
    assert_eq!(r.lints[0].addr, TEXT_BASE);
}

#[test]
fn regression_non_terminating_latch() {
    // r2 is reset to 5 every iteration: the bne can never fall through
    let p = zolc::isa::assemble(
        "
  top:  li   r2, 5
        bne  r2, r0, top
        halt
    ",
    )
    .unwrap();
    let r = lint_program(&p, None);
    assert_eq!(r.count(LintKind::NonTerminatingLatch), 1, "{r}");
}

#[test]
fn regression_index_reg_write() {
    use zolc::core::{LimitSrc, LoopSpec, ZolcImage, TASK_NONE};

    // A hardware-maintained index register written by the loop body:
    // the controller's rider write and the body's write race. The IR
    // lowering rejects this shape outright (`RegisterConflict`), so
    // the lint's clientele is foreign binaries — build the image by
    // hand, as an external toolchain would.
    let p = zolc::isa::assemble(
        "
        add  r2, r2, r20
  top:  addi r20, r20, 3
        add  r3, r3, r20
        halt
    ",
    )
    .unwrap();
    let image = ZolcImage {
        loops: vec![LoopSpec {
            init: 0,
            step: 1,
            limit: LimitSrc::Const(4),
            index_reg: Some(reg(20)),
            start: INSTR_BYTES.into(),
            end: (2 * INSTR_BYTES).into(),
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
        TEXT_BASE + INSTR_BYTES
    );
}
