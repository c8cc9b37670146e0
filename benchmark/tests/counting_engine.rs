//! The counting wrapper must be invisible to the simulation.

use std::sync::Arc;
use zolc_core::{Zolc, ZolcConfig};
use zolc_ir::Target;
use zolc_isa::{reg, DATA_BASE};
use zolc_kernels::find_kernel;
use zolc_repo_bench::engine::CountingEngine;
use zolc_sim::{CompiledProgram, CpuConfig, Executor, ExecutorKind, LoopEngine, NullEngine};

fn state(cpu: &dyn Executor) -> ([u32; 32], Vec<u32>) {
    let regs = std::array::from_fn(|i| cpu.regs().read(reg(i as u8)));
    let mem = cpu
        .mem()
        .read_words(DATA_BASE, 4096)
        .expect("data window readable");
    (regs, mem)
}

fn programs() -> Vec<(String, Arc<CompiledProgram>)> {
    let lite = ZolcConfig::lite();
    let mut out = Vec::new();
    for name in ["matmul", "fir", "me_tss", "bubble_sort"] {
        let entry = find_kernel(name).expect("kernel exists");
        let hand = (entry.build)(&Target::Zolc(lite)).expect("hand lowering builds");
        out.push((format!("{name}/hand"), hand.program));
        let auto = zolc_kernels::build_kernel_auto(&entry, lite).expect("retargets");
        out.push((format!("{name}/auto"), auto.built.program));
    }
    out
}

#[test]
fn wrapped_zolc_matches_bare_zolc_on_every_tier() {
    let lite = ZolcConfig::lite();
    for (name, prog) in programs() {
        for kind in ExecutorKind::ALL {
            let mut bare = Zolc::new(lite);
            let mut cpu = kind.new_session(&prog, CpuConfig::default()).unwrap();
            let want = cpu.run(&mut bare, 50_000_000).unwrap();
            let want_state = state(cpu.as_ref());

            let mut wrapped = CountingEngine::new(Zolc::new(lite));
            let mut cpu = kind.new_session(&prog, CpuConfig::default()).unwrap();
            let got = cpu.run(&mut wrapped, 50_000_000).unwrap();
            assert_eq!(got, want, "{name}/{kind}: stats differ");
            assert_eq!(
                state(cpu.as_ref()),
                want_state,
                "{name}/{kind}: state differs"
            );
            assert_eq!(wrapped.inner().violations(), bare.violations());
            assert_eq!(wrapped.inner().arch_state(), bare.arch_state());

            let c = wrapped.counts();
            assert!(
                c.on_fetch > 0 && c.on_execute > 0,
                "{name}/{kind}: hooks not forwarded"
            );
            assert!(
                c.exec_zwr > 0 && c.exec_zctl > 0,
                "{name}/{kind}: init not forwarded"
            );
            assert!(wrapped.hook_ns_estimate(0.0) > 0.0);
        }
    }
}

#[test]
fn wrapper_forwards_passivity() {
    let wrapped = CountingEngine::new(NullEngine);
    assert!(wrapped.is_passive());
    assert!(!CountingEngine::new(Zolc::new(ZolcConfig::lite())).is_passive());
    assert_eq!(wrapped.counts().is_passive, 1);
}

#[test]
fn wrapped_null_engine_keeps_the_fast_path() {
    let entry = find_kernel("matmul").expect("kernel exists");
    let base = (entry.build)(&Target::Baseline).expect("builds");
    for kind in ExecutorKind::ALL {
        let mut cpu = kind
            .new_session(&base.program, CpuConfig::default())
            .unwrap();
        let want = cpu.run(&mut NullEngine, 50_000_000).unwrap();
        let mut wrapped = CountingEngine::new(NullEngine);
        let mut cpu = kind
            .new_session(&base.program, CpuConfig::default())
            .unwrap();
        assert_eq!(cpu.run(&mut wrapped, 50_000_000).unwrap(), want, "{kind}");
    }
}
