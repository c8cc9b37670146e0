//! `kernels_warm`: the Fig. 2 kernels, the `zolc-lang` corpus, the
//! `deep_nest` synthetic and seeded long-trip `zolc-gen` programs, each
//! built for XRdefault and ZOLClite (hand-lowered where a lowering
//! exists, and auto-retargeted), compiled once in set-up, then run
//! over and over on the nest and cycle-accurate tiers over the same
//! warm `Arc<CompiledProgram>`s, every run checked.

use crate::engine::{clock_cost_ns, CountingEngine};
use crate::report::{self, Metric, Outcome};
use crate::trace::Tracer;
use crate::{expectation_holds, panic_message, Args, PINS, SETUPS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zolc_bench::{GeneratedProgram, MAX_FUEL};
use zolc_cfg::retarget;
use zolc_core::{Zolc, ZolcConfig};
use zolc_gen::{GenConfig, GenRng, ProgramSpec};
use zolc_ir::{LoweredInfo, Target};
use zolc_isa::reg;
use zolc_kernels::{kernels, AutoStats, BuiltKernel, Expectation};
use zolc_sim::{CompiledProgram, CpuConfig, ExecutorKind, NullEngine, Stats};

/// The two tiers every program runs on.
pub const TIERS: [ExecutorKind; 2] = [ExecutorKind::Nest, ExecutorKind::CycleAccurate];

/// Seeded long-trip `zolc-gen` programs per run.
const LONG_PROGRAMS: usize = 4;
/// Trip-count ceiling of the long-trip programs (the E7 default is 6).
const LONG_MAX_TRIPS: u32 = 24;
/// Accepted baseline retire counts of a long-trip program.
const LONG_RETIRED: std::ops::RangeInclusive<u64> = 20_000..=200_000;

/// One built program.
#[derive(Debug, Clone)]
pub struct Prog {
    /// Program name: `fig2.<kernel>`, `lang.<corpus program>`,
    /// `deep_nest`, or `long<generator seed>` for the seeded programs.
    pub name: String,
    /// `base` (XRdefault), `hand` (hand-lowered ZOLClite) or `auto`
    /// (baseline binary auto-retargeted onto ZOLClite).
    pub build: &'static str,
    /// The runnable, expectation-carrying build.
    pub built: BuiltKernel,
}

impl Prog {
    fn config(&self) -> Option<ZolcConfig> {
        match self.built.target {
            Target::Zolc(c) => Some(c),
            _ => None,
        }
    }

    fn seeded(&self) -> bool {
        self.name.starts_with("long")
    }
}

/// Simulated results of one (program, tier) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// Retired instructions.
    pub retired: u64,
    /// Cycles (0 off the cycle-accurate tier).
    pub cycles: u64,
}

/// The `deep_nest` synthetic: a 4-deep counted nest of one `addi`
/// (20×20×20×25 trips), the superblock tier's showcase shape.
fn deep_nest() -> BuiltKernel {
    let p = zolc_isa::assemble(
        "
        li   r10, 0
        li   r1, 20
  l1:   li   r2, 20
  l2:   li   r3, 20
  l3:   li   r4, 25
  l4:   addi r10, r10, 1
        addi r4, r4, -1
        bne  r4, r0, l4
        addi r3, r3, -1
        bne  r3, r0, l3
        addi r2, r2, -1
        bne  r2, r0, l2
        addi r1, r1, -1
        bne  r1, r0, l1
        halt
    ",
    )
    .expect("deep nest assembles");
    BuiltKernel {
        name: "deep_nest".into(),
        program: CompiledProgram::compile(p),
        target: Target::Baseline,
        expect: Expectation {
            mem_words: Vec::new(),
            regs: vec![(reg(10), 20 * 20 * 20 * 25)],
        },
        info: LoweredInfo::default(),
    }
}

/// Auto-retargets a baseline build onto `config` (what
/// `build_kernel_auto` does, with each call in its own span). With
/// `drop_scratch` the init sequence's scratch register leaves the
/// expectation, as the E7 matrix does for generated programs.
fn auto(
    base: &BuiltKernel,
    config: ZolcConfig,
    drop_scratch: bool,
    t: &mut Tracer,
) -> Result<BuiltKernel, String> {
    let r = t
        .time("cfg.retarget", 0, || {
            retarget(base.program.source(), &config)
        })
        .map_err(|e| format!("{}: retarget failed: {e}", base.name))?;
    let stats = AutoStats::from(&r);
    t.count("cfg.retarget_calls", 1);
    t.count("cfg.hw_loops", stats.hw_loops as u64);
    t.count("cfg.unhandled", stats.unhandled as u64);
    t.count("cfg.init_instructions", r.init_instructions as u64);
    let mut expect = base.expect.clone();
    if drop_scratch && r.init_instructions > 0 {
        expect.regs.retain(|(rg, _)| *rg != r.scratch);
    }
    let program = t.time("sim.compile", 0, || {
        CompiledProgram::compile(Arc::clone(&r.program))
    });
    Ok(BuiltKernel {
        name: base.name.clone(),
        program,
        target: Target::Zolc(config),
        expect,
        info: LoweredInfo {
            image: Some(r.image),
            init_instructions: r.init_instructions,
            notes: r.notes,
        },
    })
}

/// The generator seeds of the run's long-trip programs: the first
/// [`LONG_PROGRAMS`] seeds of the workload seed's stream whose baseline
/// retires a count in [`LONG_RETIRED`].
pub fn long_programs(seed: u64) -> Vec<GeneratedProgram> {
    let gen = GenConfig::default().with_max_trips(LONG_MAX_TRIPS);
    let mut rng = GenRng::new(seed ^ 0x006b_6572_6e65_6c73);
    let mut out = Vec::new();
    while out.len() < LONG_PROGRAMS {
        let s = rng.next_u64() >> 16;
        let g = GeneratedProgram::from_spec(format!("long{s}"), ProgramSpec::generate(s, &gen));
        let retired =
            zolc_sim::run_session(ExecutorKind::Nest, &g.program, &mut NullEngine, MAX_FUEL)
                .map_or(0, |f| f.stats.retired);
        if LONG_RETIRED.contains(&retired) {
            out.push(g);
        }
    }
    out
}

/// Builds every program. Build failures are returned by name.
pub fn build_all(seed: u64, t: &mut Tracer) -> (Vec<Prog>, Vec<String>) {
    let lite = ZolcConfig::lite();
    let mut progs = Vec::new();
    let mut errors = Vec::new();
    let mut push =
        |progs: &mut Vec<Prog>, name: &str, build, r: Result<BuiltKernel, String>| match r {
            Ok(built) => progs.push(Prog {
                name: name.to_owned(),
                build,
                built,
            }),
            Err(e) => errors.push(format!("{name}/{build}: {e}")),
        };
    for e in kernels() {
        let base = t.time("ir.lower", 0, || (e.build)(&Target::Baseline));
        let hand = t.time("ir.lower", 0, || (e.build)(&Target::Zolc(lite)));
        let name = format!("fig2.{}", e.name);
        push(&mut progs, &name, "hand", hand.map_err(|e| e.to_string()));
        match base {
            Ok(base) => {
                let a = auto(&base, lite, false, t);
                push(&mut progs, &name, "base", Ok(base));
                push(&mut progs, &name, "auto", a);
            }
            Err(err) => push(&mut progs, &name, "base", Err(err.to_string())),
        }
    }
    for e in zolc_lang::corpus() {
        let name = format!("lang.{}", e.name);
        let unit = match t.time("lang.compile", 0, || zolc_lang::compile(e.name, e.source)) {
            Ok(u) => u,
            Err(err) => {
                push(&mut progs, &name, "base", Err(err.to_string()));
                continue;
            }
        };
        let base = t.time("ir.lower", 0, || unit.build(&Target::Baseline));
        let hand = t.time("ir.lower", 0, || unit.build(&Target::Zolc(lite)));
        push(&mut progs, &name, "hand", hand.map_err(|e| e.to_string()));
        match base {
            Ok(base) => {
                let a = auto(&base, lite, false, t);
                push(&mut progs, &name, "base", Ok(base));
                push(&mut progs, &name, "auto", a);
            }
            Err(err) => push(&mut progs, &name, "base", Err(err.to_string())),
        }
    }
    let deep = deep_nest();
    let a = auto(&deep, lite, false, t);
    push(&mut progs, "deep_nest", "base", Ok(deep));
    push(&mut progs, "deep_nest", "auto", a);
    for g in long_programs(seed) {
        let base = g.as_built(Target::Baseline);
        let a = auto(&base, lite, true, t);
        push(&mut progs, &g.name, "base", Ok(base));
        push(&mut progs, &g.name, "auto", a);
    }
    (progs, errors)
}

/// One (program, tier) run and its class.
#[derive(Debug, Clone, Copy)]
struct Op {
    prog: usize,
    tier: ExecutorKind,
}

/// Classes the per-tier throughputs are reported for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    NestPassive,
    NestActive,
    Pipeline,
}

impl Class {
    fn of(p: &Prog, tier: ExecutorKind) -> Class {
        match (tier, p.config()) {
            (ExecutorKind::Nest, None) => Class::NestPassive,
            (ExecutorKind::Nest, Some(_)) => Class::NestActive,
            _ => Class::Pipeline,
        }
    }
}

/// Per-class sums of a timed loop.
#[derive(Debug, Clone, Copy, Default)]
struct Sums {
    run_ns: [f64; 3],
    retired: [u64; 3],
}

/// One checked run: its stats, timings and whether it was correct.
struct Ran {
    stats: Stats,
    ok: bool,
    run_ns: u64,
    total_ns: u64,
}

/// Runs `p` on `tier`, checking registers, memory and (on ZOLC targets)
/// the controller's consistency journal. Hook calls of a traced run go
/// through a [`CountingEngine`].
fn run_one(
    p: &Prog,
    tier: ExecutorKind,
    id: u64,
    t: &mut Tracer,
    hooks: &mut HookTotals,
) -> Result<Ran, String> {
    let depth = t.depth();
    t.enter("kernels.run", id);
    let r = catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let mut cpu = tier
            .new_session(&p.built.program, CpuConfig::default())
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let (stats, consistent, t2) = match p.config() {
            None => {
                let stats = cpu.run(&mut NullEngine, MAX_FUEL);
                (stats, true, Instant::now())
            }
            Some(c) if t.is_on() => {
                let mut z = CountingEngine::new(Zolc::new(c));
                let stats = cpu.run(&mut z, MAX_FUEL);
                let t2 = Instant::now();
                hooks.add(&z, stats.as_ref().map_or(0, |s| s.retired));
                (stats, z.inner().violations().is_empty(), t2)
            }
            Some(c) => {
                let mut z = Zolc::new(c);
                let stats = cpu.run(&mut z, MAX_FUEL);
                (stats, z.violations().is_empty(), Instant::now())
            }
        };
        let stats = stats.map_err(|e| e.to_string())?;
        let ok = consistent && expectation_holds(cpu.as_ref(), &p.built.expect);
        let t3 = Instant::now();
        t.record("sim.session_open", id, t0, t1);
        t.record("sim.run", id, t1, t2);
        t.record("kernels.check", id, t2, t3);
        t.count("sim.retired", stats.retired);
        t.count("sim.cycles", stats.cycles);
        let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
        Ok(Ran {
            stats,
            ok,
            run_ns: ns(t1, t2),
            total_ns: ns(t0, t3),
        })
    }))
    .map_err(panic_message);
    t.unwind_to(depth);
    r.and_then(|r| r)
}

/// Hook-call totals of the counting wrapper over a traced loop.
#[derive(Debug, Clone, Copy, Default)]
struct HookTotals {
    on_fetch: u64,
    on_execute: u64,
    hook_ns: f64,
    retired: u64,
    clock_ns: f64,
}

impl HookTotals {
    fn add(&mut self, z: &CountingEngine<Zolc>, retired: u64) {
        let c = z.counts();
        self.on_fetch += c.on_fetch;
        self.on_execute += c.on_execute;
        self.hook_ns += z.hook_ns_estimate(self.clock_ns);
        self.retired += retired;
    }
}

/// The built programs plus their first-run pins.
pub struct Suite {
    /// The programs.
    pub progs: Vec<Prog>,
    ops: Vec<Op>,
    /// First-run results, indexed like the op list.
    first: Vec<Option<Pin>>,
}

/// Set-up: builds everything and runs every (program, tier) once, which
/// fills the superblock caches; checks each first run against the pins.
fn setup(seed: u64, t: &mut Tracer, out: &mut Outcome) -> Suite {
    let (progs, errors) = build_all(seed, t);
    for e in &errors {
        println!("kernels_warm build failed: {e}");
    }
    out.attempted += errors.len() as u64;
    out.failed += errors.len() as u64;
    let mut ops: Vec<Op> = (0..progs.len())
        .flat_map(|prog| TIERS.iter().map(move |&tier| Op { prog, tier }))
        .collect();
    shuffle(&mut ops, seed);
    let mut first = Vec::with_capacity(ops.len());
    let mut hooks = HookTotals::default();
    for op in &ops {
        let p = &progs[op.prog];
        let start = Instant::now();
        let r = run_one(p, op.tier, u64::MAX, &mut Tracer::off(), &mut hooks);
        t.record("sim.first_run", 0, start, Instant::now());
        out.attempted += 1;
        let pin = match r {
            Ok(r) if r.ok => Some(Pin {
                retired: r.stats.retired,
                cycles: r.stats.cycles,
            }),
            Ok(_) => {
                println!(
                    "kernels_warm {}/{}/{}: incorrect first run",
                    p.name, p.build, op.tier
                );
                None
            }
            Err(e) => {
                println!("kernels_warm {}/{}/{}: {e}", p.name, p.build, op.tier);
                None
            }
        };
        let pinned = pinned(p, op.tier);
        let agrees = match (pin, pinned) {
            (Some(got), Some(want)) => got == want,
            (Some(_), None) => p.seeded(),
            (None, _) => false,
        };
        if !agrees {
            if let Some(got) = pin {
                println!(
                    "kernels_warm {}/{}/{}: retired {} cycles {} differ from the pins",
                    p.name, p.build, op.tier, got.retired, got.cycles
                );
            }
            out.failed += 1;
        }
        first.push(pin.filter(|_| agrees));
    }
    // every tier retires the same instructions
    for (i, a) in ops.iter().enumerate() {
        for (j, b) in ops.iter().enumerate().skip(i + 1) {
            if a.prog == b.prog {
                if let (Some(x), Some(y)) = (first[i], first[j]) {
                    if x.retired != y.retired {
                        println!(
                            "kernels_warm {}: tiers disagree on retired",
                            progs[a.prog].name
                        );
                        out.failed += 1;
                        first[j] = None;
                    }
                }
            }
        }
    }
    t.count(
        "sim.superblock_compiles",
        progs
            .iter()
            .map(|p| p.built.program.nest_cache_stats().misses)
            .sum(),
    );
    Suite { progs, ops, first }
}

fn pinned(p: &Prog, tier: ExecutorKind) -> Option<Pin> {
    let tier = tier.to_string();
    let f = report::pin(PINS, &["kernels", &p.name, p.build, &tier])?;
    Some(Pin {
        retired: f.first()?.parse().ok()?,
        cycles: f.get(1)?.parse().ok()?,
    })
}

/// Fisher–Yates with the generator's splitmix stream.
fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut rng = GenRng::new(seed);
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u32 + 1) as usize;
        v.swap(i, j);
    }
}

/// What the timed rounds over the suite produced.
#[derive(Default)]
struct Loop {
    rounds: u64,
    busy: Duration,
    sums: Sums,
    /// Runs attempted.
    ops: u64,
    /// Latency of every checked run, in seconds.
    latencies: Vec<f64>,
}

impl Loop {
    /// One round: every (program, tier) whose first run was correct,
    /// checked against that first run and its expectation.
    fn round(&mut self, s: &Suite, t: &mut Tracer, hooks: &mut HookTotals, out: &mut Outcome) {
        let start = Instant::now();
        for (op, pin) in s.ops.iter().zip(&s.first) {
            let Some(pin) = pin else { continue };
            let p = &s.progs[op.prog];
            let r = run_one(p, op.tier, self.ops, t, hooks);
            self.ops += 1;
            out.attempted += 1;
            match r {
                Ok(r) if r.ok && r.stats.retired == pin.retired && r.stats.cycles == pin.cycles => {
                    let c = Class::of(p, op.tier) as usize;
                    self.sums.run_ns[c] += r.run_ns as f64;
                    self.sums.retired[c] += r.stats.retired;
                    self.latencies.push(r.total_ns as f64 * 1e-9);
                }
                _ => out.failed += 1,
            }
        }
        self.busy += start.elapsed();
        self.rounds += 1;
    }

    /// Million retired instructions per second of `Executor::run` time,
    /// over every checked run of class `c`.
    fn mips(&self, c: Class) -> f64 {
        1e3 * self.sums.retired[c as usize] as f64 / self.sums.run_ns[c as usize].max(1.0)
    }

    /// Nanoseconds of `Executor::run` per retired instruction of class `c`.
    fn ns_per_instr(&self, c: Class) -> f64 {
        self.sums.run_ns[c as usize] / self.sums.retired[c as usize].max(1) as f64
    }

    /// Checked runs per second of the rounds' busy time.
    fn runs_per_s(&self) -> f64 {
        self.latencies.len() as f64 / self.busy.as_secs_f64().max(1e-12)
    }
}

/// The Fig. 2 ZOLClite average cycle saving from the first
/// cycle-accurate runs, in percent.
fn fig2_average(s: &Suite) -> Option<f64> {
    let cycles = |name: &str, build: &str| {
        s.ops.iter().zip(&s.first).find_map(|(op, pin)| {
            let p = &s.progs[op.prog];
            (p.name == name && p.build == build && op.tier == ExecutorKind::CycleAccurate)
                .then_some(pin.map(|p| p.cycles as f64))
                .flatten()
        })
    };
    let savings: Option<Vec<f64>> = kernels()
        .iter()
        .map(|k| {
            let name = format!("fig2.{}", k.name);
            let b = cycles(&name, "base")?;
            let z = cycles(&name, "hand")?;
            Some(100.0 * (b - z) / b)
        })
        .collect();
    savings.map(|v| v.iter().sum::<f64>() / v.len() as f64)
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if args.trace {
        traced(args, &mut out);
        return out;
    }
    let timed_setup = |out: &mut Outcome| {
        let start = Instant::now();
        let s = setup(args.seed, &mut Tracer::off(), out);
        (s, start.elapsed().as_secs_f64())
    };
    let (s, secs) = timed_setup(&mut out);
    let mut setups = vec![secs];
    let mut hooks = HookTotals::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut l = Loop::default();
    while l.busy < budget {
        l.round(&s, &mut Tracer::off(), &mut hooks, &mut out);
        while report::setup_due(setups.len(), l.busy, budget) {
            setups.push(timed_setup(&mut out).1);
        }
    }
    while setups.len() < SETUPS {
        setups.push(timed_setup(&mut out).1);
    }
    println!(
        "kernels_warm: {} programs x {} tiers, {} rounds, {} checked runs; retired instructions over Executor::run time:",
        s.progs.len(),
        TIERS.len(),
        l.rounds,
        l.latencies.len()
    );
    println!(
        "passive_mips {:.3} M instr/s (nest tier, NullEngine runs)",
        l.mips(Class::NestPassive)
    );
    println!(
        "active_mips {:.3} M instr/s (nest tier, active Zolc controller)",
        l.mips(Class::NestActive)
    );
    println!(
        "pipeline_mips {:.3} M instr/s (cycle-accurate tier, all targets)",
        l.mips(Class::Pipeline)
    );
    match fig2_average(&s) {
        Some(avg) => println!(
            "Fig. 2 ZOLClite average cycle saving {avg:.1}% (paper 26.2%; recorded 35.5% in crates/bench/EXPERIMENTS.md)"
        ),
        None => println!("Fig. 2 ZOLClite average unavailable: a Fig. 2 run failed"),
    }
    out.metrics = report::end_to_end(l.runs_per_s(), &l.latencies, &setups);
    out
}

fn traced(args: &Args, out: &mut Outcome) {
    let mut setup_tr = Tracer::on();
    let s = setup(args.seed, &mut setup_tr, out);
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let mut off = Loop::default();
    while off.busy < half {
        off.round(&s, &mut Tracer::off(), &mut HookTotals::default(), out);
    }
    let mut tr = Tracer::on();
    let mut hooks = HookTotals {
        clock_ns: clock_cost_ns(),
        ..HookTotals::default()
    };
    let mut on = Loop::default();
    while on.rounds < off.rounds {
        on.round(&s, &mut tr, &mut hooks, out);
    }
    crate::write_trace("kernels_warm", args.seed, &tr);
    println!(
        "kernels_warm traced: set-up, then {} rounds ({} runs); spans (self time excludes children):",
        on.rounds, on.ops
    );
    print!("{}{}", setup_tr.summary(), tr.summary());

    let setup_s = |name: &str| setup_tr.agg(name).total_ns as f64 * 1e-9;
    let per_run = |name: &str| tr.agg(name).total_ns as f64 * 1e-9 / on.ops.max(1) as f64;
    let per_op = |n: u64| n as f64 / on.ops.max(1) as f64;
    let calls = setup_tr.counter("cfg.retarget_calls");
    let hw = setup_tr.counter("cfg.hw_loops");
    let unhandled = setup_tr.counter("cfg.unhandled");
    let mut m = vec![
        Metric {
            name: "lang.compile_s",
            value: setup_s("lang.compile"),
        },
        Metric {
            name: "ir.lower_s",
            value: setup_s("ir.lower"),
        },
        Metric {
            name: "cfg.retarget_s",
            value: setup_s("cfg.retarget"),
        },
        Metric {
            name: "sim.compile_s",
            value: setup_s("sim.compile"),
        },
        Metric {
            name: "sim.first_run_s",
            value: setup_s("sim.first_run"),
        },
        Metric {
            name: "cfg.handled_ratio",
            value: hw as f64 / (hw + unhandled).max(1) as f64,
        },
        Metric {
            name: "sim.session_open_s",
            value: per_run("sim.session_open"),
        },
        Metric {
            name: "sim.run_s",
            value: per_run("sim.run"),
        },
        Metric {
            name: "kernels.check_s",
            value: per_run("kernels.check"),
        },
        Metric {
            name: "sim.retired",
            value: per_op(tr.counter("sim.retired")),
        },
        Metric {
            name: "sim.cycles",
            value: per_op(tr.counter("sim.cycles")),
        },
        Metric {
            name: "nest.passive.ns_per_instr",
            value: off.ns_per_instr(Class::NestPassive),
        },
        Metric {
            name: "nest.active.ns_per_instr",
            value: off.ns_per_instr(Class::NestActive),
        },
        Metric {
            name: "pipeline.ns_per_instr",
            value: off.ns_per_instr(Class::Pipeline),
        },
        Metric {
            name: "core.on_fetch_calls",
            value: per_op(hooks.on_fetch),
        },
        Metric {
            name: "core.on_execute_calls",
            value: per_op(hooks.on_execute),
        },
        Metric {
            name: "core.hooks_per_instr",
            value: (hooks.on_fetch + hooks.on_execute) as f64 / hooks.retired.max(1) as f64,
        },
        Metric {
            name: "core.hook_s",
            value: hooks.hook_ns * 1e-9 / on.ops.max(1) as f64,
        },
        Metric {
            name: "trace.overhead_pct",
            value: 100.0 * (on.busy.as_secs_f64() / off.busy.as_secs_f64() - 1.0),
        },
    ];
    // counts per set-up, and per retarget call for the fields of Retargeted
    for (name, per) in [
        ("cfg.retarget_calls", 1),
        ("sim.superblock_compiles", 1),
        ("cfg.hw_loops", calls),
        ("cfg.unhandled", calls),
        ("cfg.init_instructions", calls),
    ] {
        m.push(Metric {
            name,
            value: setup_tr.counter(name) as f64 / per.max(1) as f64,
        });
    }
    out.metrics = report::per_layer(m);
}

/// Pin lines for every fixed program and the seeded programs of `seeds`.
pub fn record_pins(seeds: &[u64]) -> Vec<String> {
    let mut lines = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for &seed in seeds {
        let (progs, errors) = build_all(seed, &mut Tracer::off());
        assert!(errors.is_empty(), "build failures: {errors:?}");
        for p in &progs {
            for tier in TIERS {
                if !seen.insert((p.name.clone(), p.build, tier.to_string())) {
                    continue;
                }
                let r = run_one(p, tier, 0, &mut Tracer::off(), &mut HookTotals::default())
                    .unwrap_or_else(|e| panic!("{}: {e}", p.name));
                assert!(r.ok, "{}/{}/{tier}: incorrect run", p.name, p.build);
                lines.push(format!(
                    "kernels {} {} {tier} {} {}",
                    p.name, p.build, r.stats.retired, r.stats.cycles
                ));
            }
        }
    }
    lines
}
