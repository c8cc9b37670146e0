//! The `lint-clean` gate: every benchmark kernel and every bundled
//! corpus program must pass the binary lint pass with zero findings, on
//! every build target.
//!
//! This keeps the code generators, the IR lowering and the retargeter
//! honest against the `zolc-analyze`-backed diagnostics: no dead
//! stores, no unreachable code, no discarded `r0` writes, no
//! out-of-text control transfers, no provably stuck latches, and no
//! body writes to hardware-owned index registers. A regression in any
//! layer shows up here as a concrete finding with an address.

use zolc::cfg::lint_program;
use zolc::core::ZolcConfig;
use zolc::ir::Target;
use zolc::kernels::{build_kernel_auto, fig2_targets, kernels};
use zolc::lang::{compile, corpus};

#[test]
fn all_fig2_kernels_lint_clean_on_every_target() {
    let mut dirty = Vec::new();
    for k in kernels() {
        for target in fig2_targets() {
            let built = (k.build)(&target).expect("kernel builds");
            let report = lint_program(built.program.source(), built.info.image.as_ref());
            if !report.is_clean() {
                dirty.push(format!("{}/{target}:\n{report}", k.name));
            }
        }
        let auto = build_kernel_auto(k, ZolcConfig::lite()).expect("kernel auto-retargets");
        let report = lint_program(auto.built.program.source(), auto.built.info.image.as_ref());
        if !report.is_clean() {
            dirty.push(format!("{}/auto:\n{report}", k.name));
        }
    }
    assert!(dirty.is_empty(), "{}", dirty.join("\n"));
}

#[test]
fn all_corpus_programs_lint_clean_on_every_target() {
    let mut dirty = Vec::new();
    for e in corpus() {
        let unit = compile(e.name, e.source).expect("corpus program compiles");
        for target in fig2_targets() {
            let built = unit.build(&target).expect("corpus program builds");
            let report = lint_program(built.program.source(), built.info.image.as_ref());
            if !report.is_clean() {
                dirty.push(format!("{}/{target}:\n{report}", e.name));
            }
        }
        let auto = unit
            .build(&Target::Baseline)
            .and_then(|base| base.retarget(ZolcConfig::lite()))
            .expect("corpus program auto-retargets");
        let report = lint_program(auto.built.program.source(), auto.built.info.image.as_ref());
        if !report.is_clean() {
            dirty.push(format!("{}/auto:\n{report}", e.name));
        }
    }
    assert!(dirty.is_empty(), "{}", dirty.join("\n"));
}
