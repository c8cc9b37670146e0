//! The experiment implementations, one per paper artifact (see the
//! experiment index in `DESIGN.md` and results in `EXPERIMENTS.md`).

use crate::matrix::{BuildMode, Fig2Report, JobMatrix, MAX_FUEL};
use crate::table::{render_bars, render_table};
use std::fmt::Write as _;
use zolc_core::{area, PerfectLevel, PerfectNestController, PerfectNestSpec, ZolcConfig};
use zolc_ir::Target;
use zolc_kernels::{find_kernel, kernels, KernelEntry};
use zolc_sim::run_program;

/// Looks up a registry entry (Fig. 2 set or ablation extras) by name.
fn entry(name: &str) -> KernelEntry {
    find_kernel(name).unwrap_or_else(|| panic!("unknown kernel {name}"))
}

/// Paper values for E1 (Fig. 2 aggregates).
pub mod paper {
    /// Average cycle reduction with branch-decrement instructions (§3).
    pub const HWLOOP_AVG: f64 = 11.1;
    /// Maximum cycle reduction with branch-decrement instructions (§3).
    pub const HWLOOP_MAX: f64 = 27.5;
    /// Average ZOLC cycle reduction (§3).
    pub const ZOLC_AVG: f64 = 26.2;
    /// Maximum ZOLC cycle reduction (§3 / abstract).
    pub const ZOLC_MAX: f64 = 48.2;
    /// Minimum ZOLC cycle reduction (abstract: "8.4% to 48.2%").
    pub const ZOLC_MIN: f64 = 8.4;
    /// Storage bytes for uZOLC / ZOLClite / ZOLCfull (§3).
    pub const STORAGE_BYTES: [u32; 3] = [30, 258, 642];
    /// Combinational area in equivalent gates (§3).
    pub const GATES: [u32; 3] = [298, 4056, 4428];
    /// Clock target on 0.13 µm (§3).
    pub const FMAX_MHZ: f64 = 170.0;
}

/// E1 — regenerates Fig. 2: relative cycle counts of the twelve
/// benchmarks on `XRdefault` / `XRhrdwil` / `ZOLClite`, plus the
/// `ZOLCauto` column (the same ZOLC fed by the binary auto-retargeting
/// pipeline instead of the hand lowering), with the paper's aggregate
/// comparisons.
pub fn e1_fig2() -> String {
    let report = Fig2Report::collect();
    let mut rows = Vec::new();
    for r in &report.rows {
        let rel = r.relative();
        rows.push(vec![
            r.kernel.clone(),
            r.baseline.to_string(),
            r.hwloop.to_string(),
            r.zolc.to_string(),
            r.zolc_auto.to_string(),
            format!("{:.3}", rel[1]),
            format!("{:.3}", rel[2]),
            format!("{:.3}", rel[3]),
            format!("{:.1}%", r.hwloop_improvement()),
            format!("{:.1}%", r.zolc_improvement()),
            format!("{:.1}%", r.zolc_auto_improvement()),
        ]);
    }
    let mut out = String::from(
        "E1 / Figure 2 — cycle performance: XRdefault vs XRhrdwil vs ZOLClite (+ ZOLCauto)\n\n",
    );
    out.push_str(&render_table(
        &[
            "kernel",
            "XRdefault",
            "XRhrdwil",
            "ZOLClite",
            "ZOLCauto",
            "rel.hw",
            "rel.zolc",
            "rel.auto",
            "hw gain",
            "zolc gain",
            "auto gain",
        ],
        &rows,
    ));
    out.push('\n');
    // the figure as bars: relative cycles, normalized per kernel
    let mut series = Vec::new();
    for r in &report.rows {
        let rel = r.relative();
        series.push((format!("{} XRdefault", r.kernel), rel[0]));
        series.push((format!("{} XRhrdwil", r.kernel), rel[1]));
        series.push((format!("{} ZOLClite", r.kernel), rel[2]));
        series.push((format!("{} ZOLCauto", r.kernel), rel[3]));
    }
    out.push_str(&render_bars(
        "relative cycles (XRdefault = 1.0)",
        &series,
        46,
    ));
    out.push('\n');
    let _ = writeln!(
        out,
        "aggregates (paper -> measured):\n\
         \u{20}XRhrdwil avg {:.1}% -> {:.1}%   max {:.1}% -> {:.1}%\n\
         \u{20}ZOLC     avg {:.1}% -> {:.1}%   max {:.1}% -> {:.1}%   min {:.1}% -> {:.1}%\n\
         \u{20}ordering ZOLC <= XRhrdwil <= XRdefault on every kernel: {}",
        paper::HWLOOP_AVG,
        report.avg_hwloop(),
        paper::HWLOOP_MAX,
        report.max_hwloop(),
        paper::ZOLC_AVG,
        report.avg_zolc(),
        paper::ZOLC_MAX,
        report.max_zolc(),
        paper::ZOLC_MIN,
        report.min_zolc(),
        report.ordering_holds(),
    );
    out
}

/// E2 — the §3 storage/area table: 30/258/642 bytes and
/// 298/4056/4428 equivalent gates, reproduced from the register and
/// component inventories.
pub fn e2_area_table() -> String {
    let configs = [ZolcConfig::micro(), ZolcConfig::lite(), ZolcConfig::full()];
    let mut rows = Vec::new();
    for (k, cfg) in configs.iter().enumerate() {
        let s = area::storage(cfg);
        let g = area::gates(cfg);
        rows.push(vec![
            cfg.variant().to_string(),
            format!("{}", paper::STORAGE_BYTES[k]),
            format!("{}", s.bytes()),
            format!("{}", paper::GATES[k]),
            format!("{}", g.total()),
            if s.bytes() == paper::STORAGE_BYTES[k] && g.total() == paper::GATES[k] {
                "exact".to_owned()
            } else {
                "MISMATCH".to_owned()
            },
        ]);
    }
    let mut out =
        String::from("E2 / section 3 — storage and combinational area of the three designs\n\n");
    out.push_str(&render_table(
        &[
            "config", "paper B", "model B", "paper GE", "model GE", "match",
        ],
        &rows,
    ));
    out.push('\n');
    for cfg in &configs {
        let _ = writeln!(out, "{} storage breakdown:", cfg.variant());
        for (name, bits) in area::storage(cfg).sections() {
            let _ = writeln!(out, "  {name:<40} {bits:>6} bits");
        }
        let _ = writeln!(out, "{} gate breakdown:", cfg.variant());
        for (name, ge) in area::gates(cfg).components() {
            let _ = writeln!(out, "  {name:<40} {ge:>6} GE");
        }
    }
    out
}

/// E3 — the §3 cycle-time claim: the ZOLC fetch path fits comfortably
/// inside the 170 MHz processor cycle on every configuration.
pub fn e3_timing() -> String {
    let mut out = String::from(
        "E3 / section 3 — cycle time: \"The processor cycle time is not affected\n\
         due to ZOLC and corresponds to about 170MHz on a 0.13um ASIC process.\"\n\n",
    );
    let mut rows = Vec::new();
    for cfg in [ZolcConfig::micro(), ZolcConfig::lite(), ZolcConfig::full()] {
        let t = area::timing(&cfg);
        rows.push(vec![
            cfg.variant().to_string(),
            format!("{:.2}", t.zolc_path_ns),
            format!("{:.2}", t.processor_path_ns),
            format!("{:.2}", t.slack_ns()),
            format!("{:.0}", t.fmax_mhz()),
            (!t.limits_cycle_time()).to_string(),
        ]);
    }
    out.push_str(&render_table(
        &[
            "config",
            "zolc ns",
            "cpu ns",
            "slack ns",
            "fmax MHz",
            "unaffected",
        ],
        &rows,
    ));
    // design-space: where WOULD the controller become critical?
    out.push_str("\nextrapolation (fetch-path delay vs configuration size):\n");
    for loops in [1usize, 4, 8] {
        let cfg = ZolcConfig::custom(loops, 32.min(4 * loops), 0, 0).expect("valid custom config");
        let t = area::timing(&cfg);
        let _ = writeln!(
            out,
            "  {loops} loops: {:.2} ns ({} critical)",
            t.zolc_path_ns,
            if t.limits_cycle_time() { "IS" } else { "not" }
        );
    }
    out
}

/// E4 — the §2 initialization-overhead claim: "The initialization of ZOLC
/// presents only a very small cycle overhead since it occurs outside of
/// loop nests."
pub fn e4_init_overhead() -> String {
    let target = Target::Zolc(ZolcConfig::lite());
    let results = JobMatrix::cross(kernels(), std::slice::from_ref(&target)).run();
    let mut rows = Vec::new();
    for m in &results {
        let init = m.info.init_instructions;
        let pct = 100.0 * init as f64 / m.stats.cycles as f64;
        rows.push(vec![
            m.kernel.clone(),
            init.to_string(),
            m.stats.cycles.to_string(),
            format!("{pct:.2}%"),
        ]);
    }
    let mut out = String::from(
        "E4 / section 2 — ZOLC initialization overhead (executed once, outside loop nests)\n\n",
    );
    out.push_str(&render_table(
        &["kernel", "init instrs", "total cycles", "init share"],
        &rows,
    ));
    out
}

/// E5 — ablation: configuration variants and the perfect-nest baseline.
pub fn e5_ablation() -> String {
    let mut out = String::from("E5 — configuration ablation and the perfect-nest unit [2]\n\n");

    // Every (kernel, target) cell of the ablation as one batched matrix:
    // me_fs_early across configurations (a), the exhaustive-search
    // comparison point, and the uZOLC-coverage sweep (b).
    const EARLY_LABELS: [&str; 4] = [
        "XRdefault",
        "XRhrdwil",
        "ZOLClite (sw fixup)",
        "ZOLCfull (exit rec)",
    ];
    const FIND_LABELS: [&str; 5] = ["XRdefault", "XRhrdwil", "uZOLC", "ZOLClite", "ZOLCfull"];
    let mut matrix = JobMatrix::new();
    for target in [
        Target::Baseline,
        Target::HwLoop,
        Target::Zolc(ZolcConfig::lite()),
        Target::Zolc(ZolcConfig::full()),
    ] {
        matrix.push(entry("me_fs_early"), target);
    }
    matrix.push(entry("me_fs"), Target::Zolc(ZolcConfig::full()));
    for target in [
        Target::Baseline,
        Target::HwLoop,
        Target::Zolc(ZolcConfig::micro()),
        Target::Zolc(ZolcConfig::lite()),
        Target::Zolc(ZolcConfig::full()),
    ] {
        matrix.push(entry("find_first"), target);
    }
    let results = matrix.run();
    let (early_cells, rest) = results.split_at(EARLY_LABELS.len());
    let (plain_full, find_cells) = rest.split_first().expect("me_fs cell");

    // (a) multiple-exit support: me_fs_early across configurations
    let rows = EARLY_LABELS
        .iter()
        .zip(early_cells)
        .map(|(label, m)| {
            vec![
                (*label).to_owned(),
                m.stats.cycles.to_string(),
                m.info.notes.join("; "),
            ]
        })
        .collect::<Vec<_>>();
    out.push_str("(a) me_fs_early — early SAD termination (multiple-exit loops):\n");
    out.push_str(&render_table(&["config", "cycles", "notes"], &rows));

    // compare against plain full search under ZOLCfull
    let early_full = early_cells.last().expect("me_fs_early on ZOLCfull");
    let _ = writeln!(
        out,
        "\n    early termination saves {:.1}% cycles over exhaustive search on ZOLCfull\n",
        100.0 * (plain_full.stats.cycles as f64 - early_full.stats.cycles as f64)
            / plain_full.stats.cycles as f64
    );

    // (b) uZOLC coverage: single-loop kernel across all configurations
    let rows = FIND_LABELS
        .iter()
        .zip(find_cells)
        .map(|(label, m)| {
            let (bytes, gates) = match &m.target {
                Target::Zolc(cfg) => (
                    area::storage(cfg).bytes().to_string(),
                    area::gates(cfg).total().to_string(),
                ),
                _ => ("-".to_owned(), "-".to_owned()),
            };
            vec![
                (*label).to_owned(),
                m.stats.cycles.to_string(),
                bytes,
                gates,
            ]
        })
        .collect::<Vec<_>>();
    out.push_str("(b) find_first — single loop with early exit (uZOLC territory):\n");
    out.push_str(&render_table(
        &["config", "cycles", "storage B", "gates"],
        &rows,
    ));

    // (c) the perfect-nest unit [2] vs ZOLC
    out.push_str("\n(c) perfect-nest multiple-index unit (Talla et al. [2]) vs ZOLC:\n");
    out.push_str(&perfect_nest_comparison());
    out
}

/// Builds a perfect 2-nest through the ZOLC lowering and runs it against
/// both controllers: the [2]-style unit matches the ZOLC cycle-for-cycle
/// on its one supported shape, but cannot express imperfect structures
/// (where the ZOLC keeps its zero overhead).
fn perfect_nest_comparison() -> String {
    use zolc_core::Zolc;
    use zolc_ir::{lower_into, IndexSpec, LoopIr, LoopNode, Node, Trips};
    use zolc_isa::{reg, Asm, Instr};

    // perfect nest: 12 x 10 iterations, two live indices
    let ir = LoopIr {
        name: "perfect".into(),
        nodes: vec![Node::Loop(LoopNode {
            trips: Trips::Const(12),
            index: Some(IndexSpec {
                reg: reg(21),
                init: 0,
                step: 16,
            }),
            counter: reg(11),
            body: vec![Node::Loop(LoopNode {
                trips: Trips::Const(10),
                index: Some(IndexSpec {
                    reg: reg(20),
                    init: 0,
                    step: 1,
                }),
                counter: reg(12),
                body: vec![Node::code([
                    Instr::Add {
                        rd: reg(4),
                        rs: reg(21),
                        rt: reg(20),
                    },
                    Instr::Add {
                        rd: reg(2),
                        rs: reg(2),
                        rt: reg(4),
                    },
                ])],
            })],
        })],
    };
    let mut asm = Asm::new();
    let info = lower_into(&mut asm, &ir, &Target::Zolc(ZolcConfig::lite())).expect("lowers");
    asm.emit(Instr::Halt);
    let program = asm.finish().expect("assembles");
    let image = info.image.expect("image");

    // run on the ZOLC
    let mut zolc = Zolc::new(ZolcConfig::lite());
    let zolc_run = run_program(&program, &mut zolc, MAX_FUEL).expect("zolc runs");
    zolc.assert_consistent();

    // run the same body-only program on the perfect-nest unit: the zwr
    // initialization writes are ignored by it; zctl activates it.
    // (levels innermost-first)
    let levels: Vec<PerfectLevel> = image
        .loops
        .iter()
        .rev()
        .map(|l| PerfectLevel {
            limit: match l.limit {
                zolc_core::LimitSrc::Const(n) => n,
                zolc_core::LimitSrc::Reg(_) => unreachable!("constant nest"),
            },
            init: l.init,
            step: l.step,
            index_reg: l.index_reg,
        })
        .collect();
    let spec = PerfectNestSpec {
        start: image.loops[1].start.abs().expect("resolved"),
        end: image.loops[1].end.abs().expect("resolved"),
        levels,
    };
    let gates = PerfectNestController::new(spec.clone()).equivalent_gates();
    let mut pn = PerfectNestController::new(spec);
    let pn_run = run_program(&program, &mut pn, MAX_FUEL).expect("pn runs");

    assert_eq!(
        zolc_run.cpu.regs().read(reg(2)),
        pn_run.cpu.regs().read(reg(2)),
        "controllers disagree on the perfect nest"
    );

    let rows = vec![
        vec![
            "ZOLClite".to_owned(),
            zolc_run.stats.cycles.to_string(),
            area::gates(&ZolcConfig::lite()).total().to_string(),
            "any loop structure".to_owned(),
        ],
        vec![
            "perfect-nest unit [2]".to_owned(),
            pn_run.stats.cycles.to_string(),
            gates.to_string(),
            "single perfect nest only; area grows per level".to_owned(),
        ],
    ];
    let mut out = render_table(&["controller", "cycles", "gates", "scope"], &rows);
    let _ = writeln!(
        out,
        "    imperfect structures (loop sequences, pre/post body code — e.g. fir,\n\
         \u{20}   conv2d, me_fs) are not expressible on the [2]-style unit: its levels\n\
         \u{20}   share one body start/end by construction."
    );
    out
}

/// E6 — the automatic retargeting pipeline (§2's "generated
/// automatically from an existing program"): every Fig. 2 kernel's
/// *baseline binary* is excised and overlaid by `zolc_cfg::retarget`,
/// then compared cycle-for-cycle against the hand-lowered `ZOLClite`
/// build. Both builds are verified bit-exactly against the same
/// reference expectation before any cycle is reported.
pub fn e6_auto_retarget() -> String {
    use zolc_core::ZolcConfig;

    // hand and auto cells for every kernel, batch-parallel
    let mut matrix = JobMatrix::new();
    for e in kernels() {
        matrix.push(*e, Target::Zolc(ZolcConfig::lite()));
        matrix.push_auto(*e, ZolcConfig::lite());
    }
    let results = matrix.run();

    let mut rows = Vec::new();
    let mut total_unhandled = 0usize;
    for cell in results.chunks_exact(2) {
        let (hand, auto) = (&cell[0], &cell[1]);
        let stats = auto.auto.as_ref().expect("auto cells carry retarget stats");
        total_unhandled += stats.unhandled;
        let delta = 100.0 * (auto.stats.cycles as f64 - hand.stats.cycles as f64)
            / hand.stats.cycles as f64;
        rows.push(vec![
            hand.kernel.clone(),
            hand.stats.cycles.to_string(),
            auto.stats.cycles.to_string(),
            format!("{delta:+.1}%"),
            stats.hw_loops.to_string(),
            stats.unhandled.to_string(),
            stats.excised.to_string(),
            auto.info.init_instructions.to_string(),
        ]);
    }
    let mut out = String::from(
        "E6 — automatic ZOLC retargeting: binary -> CFG -> excised program + overlay\n\
         (auto builds are bit-exact against the same reference models as the hand builds;\n\
         \u{20}the residual cycle delta is the software index maintenance the retargeter\n\
         \u{20}deliberately keeps in the body)\n\n",
    );
    out.push_str(&render_table(
        &[
            "kernel",
            "hand cyc",
            "auto cyc",
            "delta",
            "hw loops",
            "unhandled",
            "excised",
            "init",
        ],
        &rows,
    ));
    let _ = writeln!(
        out,
        "\ntotal unhandled loops across the Fig. 2 suite: {total_unhandled}"
    );
    out
}

/// E8 — the `zolc-lang` front end end-to-end: every bundled corpus
/// program is compiled from source, lowered by hand for the three
/// Fig. 2 configurations, auto-retargeted from its baseline *binary*
/// (the `ZOLCauto` column), and measured cycle-accurately — each cell
/// gated on the program's interpreter-derived reference expectation.
/// The loop-shape and handledness numbers are held to the values
/// pinned in the corpus table, and the closed-form oracle's verdict on
/// each baseline binary is held to the pinned coverage flag, so front
/// end, retargeter, and oracle cannot drift silently.
///
/// # Panics
///
/// Panics if any corpus program fails to compile, build, run, or
/// verify, or if a measured loop count / oracle verdict disagrees with
/// the pinned corpus metadata.
pub fn e8_frontend() -> String {
    let units: Vec<_> = zolc_lang::corpus()
        .iter()
        .map(|e| {
            let unit = zolc_lang::compile_arc(e.name, e.source).unwrap_or_else(|err| {
                panic!("{}: front end rejected corpus program: {err}", e.name)
            });
            assert_eq!(
                (unit.counted_loops(), unit.while_loops()),
                (e.counted_loops, e.while_loops),
                "{}: loop shape drifted from the pinned corpus table",
                e.name
            );
            (e, unit)
        })
        .collect();

    let mut matrix = JobMatrix::new();
    for (_, unit) in &units {
        matrix.push_corpus(unit.clone(), Target::Baseline, BuildMode::Lower);
        matrix.push_corpus(unit.clone(), Target::HwLoop, BuildMode::Lower);
        matrix.push_corpus(
            unit.clone(),
            Target::Zolc(ZolcConfig::lite()),
            BuildMode::Lower,
        );
        matrix.push_corpus(
            unit.clone(),
            Target::Zolc(ZolcConfig::lite()),
            BuildMode::AutoRetarget,
        );
    }
    let results = matrix.run();

    let mut rows = Vec::new();
    let mut covered = 0usize;
    let mut hw_total = 0usize;
    let mut unhandled_total = 0usize;
    for ((e, unit), cell) in units.iter().zip(results.chunks_exact(4)) {
        let (base, hw, zolc, auto) = (&cell[0], &cell[1], &cell[2], &cell[3]);
        let stats = auto.auto.as_ref().expect("auto cells carry retarget stats");
        assert_eq!(
            stats.hw_loops, e.handled_loops,
            "{}: retarget handledness drifted from the pinned corpus table",
            e.name
        );
        hw_total += stats.hw_loops;
        unhandled_total += stats.unhandled;

        // The oracle's verdict on the baseline binary, pinned per program.
        let built = unit
            .build(&Target::Baseline)
            .unwrap_or_else(|err| panic!("{}: baseline build failed: {err}", e.name));
        let oracle = match zolc_oracle::summarize(built.program.source(), zolc_sim::MEM_SIZE) {
            Ok(_) => {
                covered += 1;
                "ok".to_owned()
            }
            Err(refusal) => refusal.0.label().to_owned(),
        };
        assert_eq!(
            oracle == "ok",
            e.oracle_covered,
            "{}: oracle coverage drifted from the pinned corpus table ({oracle})",
            e.name
        );

        let gain = 100.0 * (base.stats.cycles as f64 - zolc.stats.cycles as f64)
            / base.stats.cycles as f64;
        rows.push(vec![
            e.name.to_owned(),
            format!("{}/{}", e.counted_loops, e.while_loops),
            base.stats.cycles.to_string(),
            hw.stats.cycles.to_string(),
            zolc.stats.cycles.to_string(),
            auto.stats.cycles.to_string(),
            format!("{gain:.1}%"),
            stats.hw_loops.to_string(),
            stats.unhandled.to_string(),
            oracle,
        ]);
    }

    let mut out = String::from(
        "E8 — the zolc-lang front end: source -> IR -> three hand targets + binary\n\
         auto-retarget, every cell bit-exact against the compile-time reference\n\
         interpretation (loops column is counted/explicit-branch; oracle column is\n\
         the closed-form verdict on the baseline binary)\n\n",
    );
    out.push_str(&render_table(
        &[
            "program",
            "loops",
            "XRdefault",
            "XRhrdwil",
            "ZOLClite",
            "ZOLCauto",
            "zolc gain",
            "hw loops",
            "unhandled",
            "oracle",
        ],
        &rows,
    ));
    let _ = writeln!(
        out,
        "\n{} corpus programs; auto-retarget mapped {hw_total} loops onto ZOLC hardware\n\
         ({unhandled_total} left in software: break exits and while-adjacent bodies);\n\
         oracle summarized {covered}/{} baseline binaries in closed form",
        units.len(),
        units.len(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_reports_exact_match() {
        let r = e2_area_table();
        assert!(r.contains("exact"));
        assert!(!r.contains("MISMATCH"));
    }

    #[test]
    fn e3_all_unaffected() {
        let r = e3_timing();
        assert!(!r.contains("false"));
        assert!(r.contains("170"));
    }

    #[test]
    fn perfect_nest_unit_matches_zolc_cycles() {
        let r = perfect_nest_comparison();
        // both controllers appear with cycle counts
        assert!(r.contains("ZOLClite"));
        assert!(r.contains("perfect-nest unit"));
    }

    #[test]
    fn e6_reports_zero_unhandled() {
        let r = e6_auto_retarget();
        assert!(r.contains("total unhandled loops across the Fig. 2 suite: 0"));
    }

    #[test]
    fn e8_measures_every_corpus_program() {
        let r = e8_frontend();
        // every corpus program appears as a row, with the pinned
        // metadata checks inside e8_frontend having passed
        for e in zolc_lang::corpus() {
            assert!(r.contains(e.name), "{} missing from the E8 table", e.name);
        }
        assert!(r.contains("oracle summarized 2/"));
    }
}
