//! Criterion wall-clock benchmarks of the simulator itself: how fast the
//! cycle-accurate pipeline, the functional interpreter and the
//! loop-nest superblock executor run the benchmark kernels (engineering
//! metric, not a paper artifact).
//!
//! Besides the criterion timings, a side-by-side table reports all three
//! executor tiers in instructions per second so every speedup — the
//! functional interpreter over the pipeline and the superblock tier
//! over the interpreter — is a tracked artifact of every bench run. Full (non `--test`) runs also
//! rewrite `BENCH_throughput.json` at the repo root with the same rows
//! in machine-readable form.

use criterion::{criterion_group, Criterion};
use std::sync::Arc;
use std::time::Instant;
use zolc_bench::json::Json;
use zolc_core::ZolcConfig;
use zolc_ir::Target;
use zolc_kernels::{find_kernel, BuiltKernel, ExecutorKind};
use zolc_sim::{run_session, CompiledProgram, NullEngine};

const KERNELS: [&str; 4] = ["matmul", "crc32", "me_tss", "me_fs"];
const FUEL: u64 = 50_000_000;

fn targets() -> [(&'static str, Target); 2] {
    [
        ("baseline", Target::Baseline),
        ("zolc_lite", Target::Zolc(ZolcConfig::lite())),
    ]
}

fn build(name: &str, target: &Target) -> BuiltKernel {
    let entry = find_kernel(name).expect("kernel exists");
    (entry.build)(target).expect("builds")
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    for name in KERNELS {
        for (label, target) in targets() {
            let built = build(name, &target);
            for kind in ExecutorKind::ALL {
                group.bench_function(format!("{name}/{label}/{kind}"), |b| {
                    b.iter(|| {
                        let run = built.run(FUEL, kind).expect("runs");
                        assert!(run.is_correct());
                        run.stats.retired
                    })
                });
            }
        }
    }
    group.finish();
}

/// The superblock tier's showcase shape: a 4-deep passive counted nest
/// whose innermost body is straight-line ALU work — the whole nest is
/// one superblock and the inner iterations take the zero-dispatch bulk
/// path. This is the structure `zolc-gen` sweeps and the E7 explorer
/// hammer; the kernels above temper it with branchy inner bodies.
fn deep_nest() -> Arc<CompiledProgram> {
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
    CompiledProgram::compile(p)
}

/// Times `reps` runs of the synthetic deep nest and returns
/// (instructions/sec, retired instructions per run).
fn nest_instrs_per_sec(prog: &Arc<CompiledProgram>, kind: ExecutorKind, reps: u32) -> (f64, u64) {
    let expect: u32 = 20 * 20 * 20 * 25;
    let mut retired = 0;
    let start = Instant::now();
    for _ in 0..reps {
        let f = run_session(kind, prog, &mut NullEngine, FUEL).expect("runs");
        assert_eq!(f.cpu.regs().read(zolc_isa::reg(10)), expect);
        retired = f.stats.retired;
    }
    let secs = start.elapsed().as_secs_f64();
    (f64::from(reps) * retired as f64 / secs.max(1e-9), retired)
}

/// Times `reps` correctness-checked runs and returns (instructions/sec,
/// retired instructions per run).
fn instrs_per_sec(built: &BuiltKernel, kind: ExecutorKind, reps: u32) -> (f64, u64) {
    let mut retired = 0;
    let start = Instant::now();
    for _ in 0..reps {
        let run = built.run(FUEL, kind).expect("runs");
        assert!(run.is_correct());
        retired = run.stats.retired;
    }
    let secs = start.elapsed().as_secs_f64();
    (f64::from(reps) * retired as f64 / secs.max(1e-9), retired)
}

/// Prints one side-by-side row and returns its JSON form. `ips` holds
/// instructions/sec per tier, in [`ExecutorKind::ALL`] order.
fn row(kernel: &str, target: &str, retired: u64, ips: [f64; 3]) -> Json {
    let [pipe, func, nest] = ips;
    println!(
        "{kernel:<10} {target:<10} {retired:>8} {pipe:>13.0} {func:>13.0} {nest:>13.0} {:>6.1}x {:>6.1}x",
        func / pipe,
        nest / func
    );
    Json::Obj(vec![
        ("kernel".into(), Json::Str(kernel.into())),
        ("target".into(), Json::Str(target.into())),
        ("retired".into(), Json::u64(retired)),
        ("pipeline_ips".into(), Json::f64(pipe.round())),
        ("functional_ips".into(), Json::f64(func.round())),
        ("nest_ips".into(), Json::f64(nest.round())),
        (
            "nest_over_functional".into(),
            Json::f64((nest / func * 100.0).round() / 100.0),
        ),
    ])
}

/// The tracked artifact: the three executor tiers side by side, in
/// instructions per second, with per-cell speedups of each tier over
/// the previous one. Full runs also rewrite `BENCH_throughput.json` at
/// the repo root so the numbers are diffable without scraping stdout.
fn side_by_side(test_mode: bool) {
    let reps = if test_mode { 1 } else { 20 };
    println!("\nexecutor throughput side by side ({reps} runs/cell):");
    println!(
        "{:<10} {:<10} {:>8} {:>13} {:>13} {:>13} {:>7} {:>7}",
        "kernel", "target", "instrs", "pipeline i/s", "funct. i/s", "nest i/s", "f/p", "n/f"
    );
    let mut rows = Vec::new();
    for name in KERNELS {
        for (label, target) in targets() {
            let built = build(name, &target);
            let (pipe, retired) = instrs_per_sec(&built, ExecutorKind::CycleAccurate, reps);
            let (func, _) = instrs_per_sec(&built, ExecutorKind::Functional, reps);
            let (nest, _) = instrs_per_sec(&built, ExecutorKind::Nest, reps);
            rows.push(row(name, label, retired, [pipe, func, nest]));
        }
    }
    // The deep-nest synthetic: the tentpole shape for the superblock
    // tier, measured through the raw session API (no kernel harness).
    let prog = deep_nest();
    let (pipe, retired) = nest_instrs_per_sec(&prog, ExecutorKind::CycleAccurate, reps);
    let (func, _) = nest_instrs_per_sec(&prog, ExecutorKind::Functional, reps);
    let (nest, _) = nest_instrs_per_sec(&prog, ExecutorKind::Nest, reps);
    rows.push(row("deep_nest", "baseline", retired, [pipe, func, nest]));
    if !test_mode {
        let doc = Json::Obj(vec![
            (
                "generated_by".into(),
                Json::Str("cargo bench -p zolc-bench --bench sim_throughput".into()),
            ),
            ("fuel".into(), Json::u64(FUEL)),
            ("reps".into(), Json::u64(u64::from(reps))),
            ("rows".into(), Json::Arr(rows)),
        ]);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
        std::fs::write(path, doc.render() + "\n").expect("write BENCH_throughput.json");
        println!("\nwrote {path}");
    }
}

criterion_group!(benches, bench_simulation);

fn main() {
    benches();
    side_by_side(std::env::args().any(|a| a == "--test"));
}
