//! The automatic retargeting path: benchmark kernels built from their
//! *baseline binaries* rather than from IR.
//!
//! The hand path lowers a kernel's IR directly for [`Target::Zolc`]; the
//! auto path lowers it for [`Target::Baseline`] and hands the resulting
//! *binary* to [`zolc_cfg::retarget`], which excises the software loop
//! control and synthesizes the controller overlay with no IR knowledge
//! at all — the paper's §2 claim that ZOLC task-to-task data "can be
//! generated automatically from an existing program".
//!
//! [`BuiltKernel::retarget`] is the one place that derivation happens,
//! for any baseline build: a registry kernel, a `zolc-lang` unit or a
//! generated program ([`BuiltKernel::retarget_with`] is the same
//! derivation from a [`RetargetPlan`] shared across configurations, as
//! the bench's E7 sweep shares one per generated program). The result
//! is an ordinary [`BuiltKernel`], so the whole measurement stack
//! ([`BuiltKernel::run`], the bench `JobMatrix` and sweep) runs it
//! unchanged; correctness is still judged against the same bit-exact
//! reference expectation the hand-lowered builds use.

use crate::common::{BuildError, BuiltKernel};
use crate::KernelEntry;
use std::sync::Arc;
use zolc_cfg::{RetargetPlan, Retargeted};
use zolc_core::ZolcConfig;
use zolc_ir::{LoweredInfo, Target};
use zolc_sim::CompiledProgram;

/// Summary statistics of one retargeting run (also carried by the bench
/// matrix's `ZOLCauto` measurements).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AutoStats {
    /// Natural loops the retargeter left in software.
    pub unhandled: usize,
    /// Loop-control instructions excised from the baseline text.
    pub excised: usize,
    /// Hardware loops in the synthesized overlay.
    pub hw_loops: usize,
    /// Body-start byte addresses (in the *original* program) of the
    /// hardware-mapped loops, in overlay order — lets sweep drivers
    /// attribute per-loop retargeting outcomes back to known loop
    /// positions (e.g. `zolc_gen`'s `Assembled::loop_starts`).
    pub hw_loop_starts: Vec<u32>,
}

impl From<&Retargeted> for AutoStats {
    /// The single derivation of retarget statistics, used by
    /// [`BuiltKernel::retarget`].
    fn from(r: &Retargeted) -> AutoStats {
        AutoStats {
            unhandled: r.unhandled.len(),
            excised: r.excised,
            hw_loops: r.counted.len(),
            hw_loop_starts: r.counted.iter().map(|c| c.start).collect(),
        }
    }
}

/// A kernel built through the automatic retargeting pipeline.
#[derive(Debug, Clone)]
pub struct AutoKernel {
    /// The runnable retargeted kernel (target [`Target::Zolc`]), checked
    /// against the same reference expectation as any hand-lowered build.
    pub built: BuiltKernel,
    /// What the retargeter did to get there.
    pub stats: AutoStats,
}

impl BuiltKernel {
    /// Auto-retargets this build's binary onto a ZOLC of configuration
    /// `config` — the single derivation of every `ZOLCauto` program:
    /// [`zolc_cfg::retarget`] excises the software loop control and
    /// synthesizes the overlay, and the result is compiled and gated on
    /// this build's expectation.
    ///
    /// The prepended init sequence clobbers the retargeter's scratch
    /// register (chosen untouched by surviving code), the one permitted
    /// register difference besides the freed counters, so it leaves the
    /// expectation whenever an init sequence is emitted.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Retarget`] if the retargeter rejects the
    /// binary.
    pub fn retarget(self, config: ZolcConfig) -> Result<AutoKernel, BuildError> {
        let plan = RetargetPlan::new(Arc::clone(self.program.source()))?;
        self.retarget_with(&plan, config)
    }

    /// [`BuiltKernel::retarget`] from an existing plan of this build's
    /// binary, so the configurations one binary is retargeted onto
    /// share a single analysis ([`RetargetPlan`]). A configuration that
    /// keeps every loop in software gets the plan's binary back, and
    /// the result then reuses this build's compiled program.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Retarget`] if synthesis for `config` fails.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was built from a different binary.
    pub fn retarget_with(
        self,
        plan: &RetargetPlan,
        config: ZolcConfig,
    ) -> Result<AutoKernel, BuildError> {
        // `Arc<Program>` equality tries the pointer first, so a plan
        // of this very binary costs no text comparison
        assert!(
            plan.program() == self.program.source(),
            "{}: retarget plan is not of this build's binary",
            self.name
        );
        let r = plan.retarget(&config)?;
        let stats = AutoStats::from(&r);
        let Retargeted {
            program,
            image,
            init_instructions,
            notes,
            scratch,
            ..
        } = r;
        let mut expect = self.expect;
        if init_instructions > 0 {
            expect.regs.retain(|(rg, _)| *rg != scratch);
        }
        // a configuration that keeps every loop in software gets this
        // very binary back, already compiled
        let program = if Arc::ptr_eq(&program, self.program.source()) {
            self.program
        } else {
            CompiledProgram::compile(program)
        };
        Ok(AutoKernel {
            built: BuiltKernel {
                name: self.name,
                program,
                target: Target::Zolc(config),
                expect,
                info: LoweredInfo {
                    image: Some(image),
                    init_instructions,
                    notes,
                },
            },
            stats,
        })
    }
}

/// Builds `entry` for [`Target::Baseline`] and auto-retargets the binary
/// onto a ZOLC of configuration `config` ([`BuiltKernel::retarget`]).
///
/// # Errors
///
/// Returns [`BuildError::Lower`]/[`BuildError::Asm`] if the baseline
/// build fails and [`BuildError::Retarget`] if the retargeter rejects
/// the binary.
pub fn build_kernel_auto(
    entry: &KernelEntry,
    config: ZolcConfig,
) -> Result<AutoKernel, BuildError> {
    (entry.build)(&Target::Baseline)?.retarget(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_kernel;
    use zolc_sim::ExecutorKind;

    #[test]
    fn auto_vec_mac_is_correct_on_both_executors() {
        let entry = find_kernel("vec_mac").unwrap();
        let auto = build_kernel_auto(&entry, ZolcConfig::lite()).unwrap();
        assert_eq!(auto.stats.unhandled, 0);
        assert!(auto.stats.excised > 0);
        for kind in [ExecutorKind::CycleAccurate, ExecutorKind::Functional] {
            let run = auto.built.run(10_000_000, kind).unwrap();
            assert!(run.is_correct(), "{kind}: {:?}", run.mismatches);
        }
    }

    #[test]
    #[should_panic(expected = "retarget plan is not of this build's binary")]
    fn plan_of_another_binary_is_refused() {
        let fir = (find_kernel("fir").unwrap().build)(&Target::Baseline).unwrap();
        let vec_mac = (find_kernel("vec_mac").unwrap().build)(&Target::Baseline).unwrap();
        let plan = RetargetPlan::new(Arc::clone(vec_mac.program.source())).unwrap();
        let _ = fir.retarget_with(&plan, ZolcConfig::lite());
    }

    #[test]
    fn auto_built_kernel_matches_reference() {
        let entry = find_kernel("fir").unwrap();
        let run = build_kernel_auto(&entry, ZolcConfig::lite())
            .unwrap()
            .built
            .run(10_000_000, ExecutorKind::CycleAccurate)
            .unwrap();
        assert!(
            run.is_correct(),
            "{:?} {:?}",
            run.mismatches,
            run.violations
        );
        assert!(run.stats.cycles > 0);
    }
}
