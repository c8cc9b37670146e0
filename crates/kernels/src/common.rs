//! Shared infrastructure for building and running benchmark kernels.

use std::fmt;
use std::sync::Arc;
use zolc_core::{Zolc, ZolcConfig};
use zolc_ir::{lower_into, LoopIr, LowerError, LoweredInfo, Target};
use zolc_isa::{Asm, AsmError, Instr, Reg};
use zolc_sim::{run_session, CompiledProgram, ExecutorKind, NullEngine, RunError, Stats};

/// Expected architectural results of a kernel run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expectation {
    /// `(address, expected words)` regions compared after the run.
    pub mem_words: Vec<(u32, Vec<u32>)>,
    /// `(register, expected value)` pairs compared after the run.
    pub regs: Vec<(Reg, u32)>,
}

/// A kernel lowered for one target, ready to run.
#[derive(Debug, Clone)]
pub struct BuiltKernel {
    /// Kernel name.
    pub name: String,
    /// The linked program (self-initializing for ZOLC targets),
    /// compiled once and `Arc`-shared: every [`BuiltKernel::run`] opens
    /// a fresh session over the same predecoded text and block cache.
    pub program: Arc<CompiledProgram>,
    /// The target it was lowered for.
    pub target: Target,
    /// Expected results (from the Rust reference model).
    pub expect: Expectation,
    /// Lowering byproducts (table image, init length, notes).
    pub info: LoweredInfo,
}

/// Errors building a kernel.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum BuildError {
    /// The IR did not lower for this target.
    Lower(LowerError),
    /// Assembly/linking failed.
    Asm(AsmError),
    /// The automatic retargeting pipeline rejected the baseline binary.
    Retarget(zolc_cfg::RetargetError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Lower(e) => write!(f, "lowering failed: {e}"),
            BuildError::Asm(e) => write!(f, "assembly failed: {e}"),
            BuildError::Retarget(e) => write!(f, "retargeting failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Lower(e) => Some(e),
            BuildError::Asm(e) => Some(e),
            BuildError::Retarget(e) => Some(e),
        }
    }
}

impl From<LowerError> for BuildError {
    fn from(e: LowerError) -> Self {
        BuildError::Lower(e)
    }
}

impl From<AsmError> for BuildError {
    fn from(e: AsmError) -> Self {
        BuildError::Asm(e)
    }
}

impl From<zolc_cfg::RetargetError> for BuildError {
    fn from(e: zolc_cfg::RetargetError) -> Self {
        BuildError::Retarget(e)
    }
}

/// Builds a kernel: `f` writes the data segment and setup code into the
/// assembler and returns the loop structure plus the reference
/// expectation; the loop structure is then lowered for `target`.
pub(crate) fn build_kernel(
    name: &str,
    target: &Target,
    f: impl FnOnce(&mut Asm) -> (LoopIr, Expectation),
) -> Result<BuiltKernel, BuildError> {
    let mut asm = Asm::new();
    let (ir, expect) = f(&mut asm);
    let info = lower_into(&mut asm, &ir, target)?;
    asm.emit(Instr::Halt);
    let program = CompiledProgram::compile(asm.finish()?);
    Ok(BuiltKernel {
        name: name.to_owned(),
        program,
        target: target.clone(),
        expect,
        info,
    })
}

/// Outcome of running a built kernel.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// Pipeline statistics (cycles are the paper's metric).
    pub stats: Stats,
    /// Differences from the reference expectation (empty = correct).
    pub mismatches: Vec<String>,
    /// ZOLC consistency violations (empty = correct; always empty for
    /// non-ZOLC targets).
    pub violations: Vec<String>,
}

impl KernelRun {
    /// Whether the run matched the reference bit-exactly and the
    /// controller stayed consistent.
    pub fn is_correct(&self) -> bool {
        self.mismatches.is_empty() && self.violations.is_empty()
    }
}

impl BuiltKernel {
    /// Runs the kernel on the chosen executor and checks it against its
    /// reference expectation — a fresh session over the kernel's shared
    /// [`CompiledProgram`], so repeated runs (and concurrent ones) pay
    /// the compile cost once.
    ///
    /// The correct loop engine is attached automatically (the [`Zolc`]
    /// controller for ZOLC targets, [`NullEngine`] otherwise). `fuel`
    /// bounds retired instructions with the same meaning on every
    /// executor (see [`zolc_sim::Executor::run`]). On the functional
    /// tiers ([`ExecutorKind::Functional`] / [`ExecutorKind::Nest`])
    /// the returned statistics carry no cycle counts but identical
    /// architectural event counts.
    ///
    /// # Errors
    ///
    /// Propagates simulator [`RunError`]s (fuel exhausted, memory
    /// fault).
    pub fn run(&self, fuel: u64, executor: ExecutorKind) -> Result<KernelRun, RunError> {
        let (finished, violations) = match &self.target {
            Target::Zolc(cfg) => {
                let mut z = Zolc::new(*cfg);
                let fin = run_session(executor, &self.program, &mut z, fuel)?;
                (fin, z.violations().to_vec())
            }
            _ => {
                let fin = run_session(executor, &self.program, &mut NullEngine, fuel)?;
                (fin, Vec::new())
            }
        };
        let mut mismatches = Vec::new();
        for (addr, words) in &self.expect.mem_words {
            let got = finished
                .cpu
                .mem()
                .read_words(*addr, words.len())
                .map_err(RunError::from)?;
            for (k, (g, w)) in got.iter().zip(words).enumerate() {
                if g != w && mismatches.len() < 8 {
                    mismatches.push(format!(
                        "{}/{}: mem[{:#x}] = {:#x}, expected {:#x}",
                        self.name,
                        self.target,
                        addr + 4 * k as u32,
                        g,
                        w
                    ));
                }
            }
        }
        for (r, v) in &self.expect.regs {
            let got = finished.cpu.regs().read(*r);
            if got != *v {
                mismatches.push(format!(
                    "{}/{}: {r} = {got:#x}, expected {v:#x}",
                    self.name, self.target
                ));
            }
        }
        Ok(KernelRun {
            stats: finished.stats,
            mismatches,
            violations,
        })
    }
}

/// Runs a built kernel on the cycle-accurate simulator and checks it
/// against its reference expectation.
///
/// Shorthand for [`BuiltKernel::run`] on [`ExecutorKind::CycleAccurate`];
/// use that directly to pick one of the fast functional tiers when
/// cycle counts are not needed.
///
/// # Errors
///
/// Propagates simulator [`RunError`]s (fuel exhausted, memory fault).
pub fn run_kernel(built: &BuiltKernel, fuel: u64) -> Result<KernelRun, RunError> {
    built.run(fuel, ExecutorKind::CycleAccurate)
}

/// The standard targets of the paper's Fig. 2 comparison.
pub fn fig2_targets() -> Vec<Target> {
    vec![
        Target::Baseline,
        Target::HwLoop,
        Target::Zolc(ZolcConfig::lite()),
    ]
}

/// A deterministic xorshift PRNG so kernel inputs never depend on crate
/// versions or platform (the `rand` crate is used only through this).
#[derive(Debug, Clone)]
pub struct Xorshift {
    state: u64,
}

impl Xorshift {
    /// Creates a generator from a nonzero seed.
    pub fn new(seed: u64) -> Xorshift {
        Xorshift { state: seed.max(1) }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// A value in `0..bound`.
    pub fn below(&mut self, bound: u32) -> u32 {
        (self.next_u64() % u64::from(bound)) as u32
    }

    /// A signed value in `-range..=range`.
    pub fn signed(&mut self, range: u32) -> i32 {
        self.below(2 * range + 1) as i32 - range as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_executors_agree_on_a_kernel() {
        for k in crate::kernels() {
            for target in fig2_targets() {
                let name = k.name;
                let built = (k.build)(&target).expect("builds");
                let slow = built.run(10_000_000, ExecutorKind::CycleAccurate).unwrap();
                assert!(slow.is_correct(), "{name}/{target}: {:?}", slow.mismatches);
                assert!(slow.stats.cycles > 0);
                for kind in [ExecutorKind::Functional, ExecutorKind::Nest] {
                    let fast = built.run(10_000_000, kind).unwrap();
                    let ctx = format!("{name}/{target}/{kind}");
                    assert!(fast.is_correct(), "{ctx}: {:?}", fast.mismatches);
                    assert_eq!(slow.stats.retired, fast.stats.retired, "{ctx}");
                    assert_eq!(fast.stats.cycles, 0);
                }
            }
        }
    }

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = Xorshift::new(42);
        let mut b = Xorshift::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xorshift::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn xorshift_bounds_respected() {
        let mut r = Xorshift::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let s = r.signed(5);
            assert!((-5..=5).contains(&s));
        }
    }

    #[test]
    fn zero_seed_is_fixed_up() {
        let mut r = Xorshift::new(0);
        assert_ne!(r.next_u64(), 0);
    }
}
