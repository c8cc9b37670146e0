//! `zolc-lang` — a small C-like loop language compiled through
//! [`zolc_ir`] to XR32/ZOLC binaries.
//!
//! The language covers exactly the territory the DATE 2005 controller
//! argues about: `i32` scalars, fixed-size `i32` arrays, `for`/`while`/
//! `if`/`break`, and expressions over the XR32 ALU operations — no
//! functions, no pointers, no I/O. Programs are therefore *closed*:
//! the front end runs every accepted program on a reference AST
//! interpreter at compile time and derives the bit-exact
//! [`Expectation`] that the executor tiers
//! and the differential nets are gated on.
//!
//! Pipeline (each stage reports failures as a [`Diagnostic`] with
//! line/column — the front end never panics on malformed input):
//!
//! ```text
//! source ── lexer ── parser ── check ──┬── interp (reference state)
//!                                      └── codegen ── zolc_ir::LoopIr
//!                                                        │ lower_into
//!                            Baseline / HwLoop / Zolc ───┴── retarget
//! ```
//!
//! Counted `for` loops whose shape the generator can prove — induction
//! variable advancing by a constant toward a loop-invariant bound —
//! become [`zolc_ir::LoopNode`]s (ZOLC-mappable); `while` loops,
//! data-dependent `for`s and loops under `if` demote to explicit
//! branch code, so `retarget`'s handledness filters make the final
//! hardware-mapping call exactly as they would on third-party
//! binaries.
//!
//! # Quickstart
//!
//! ```
//! use zolc_lang::compile;
//! use zolc_ir::Target;
//! use zolc_sim::ExecutorKind;
//!
//! let unit = compile(
//!     "dot",
//!     "int a[4] = {1, 2, 3, 4};
//!      int b[4] = {4, 3, 2, 1};
//!      int s; int i;
//!      for (i = 0; i < 4; i += 1) { s += a[i] * b[i]; }",
//! )
//! .expect("compiles");
//! assert_eq!(unit.counted_loops(), 1);
//! let built = unit.build(&Target::Baseline).expect("lowers");
//! let run = built.run(1_000_000, ExecutorKind::Functional).expect("runs");
//! assert!(run.is_correct());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod check;
mod codegen;
mod corpus;
mod interp;
mod interval;
mod lexer;
mod parser;

pub use ast::{Diagnostic, Pos};
pub use corpus::{corpus, find_corpus, CorpusEntry};

use std::sync::Arc;
use zolc_ir::{lower_into, LoopIr, Target};
use zolc_isa::{Asm, Instr, Reg};
use zolc_kernels::{BuildError, BuiltKernel, Expectation};
use zolc_sim::CompiledProgram;

/// A compiled program: IR plus everything needed to emit and judge
/// binaries for any [`Target`].
///
/// Produced by [`compile`]. The unit owns the reference expectation
/// (computed by running the program on the AST interpreter), so every
/// [`BuiltKernel`] it emits is checked bit-for-bit by
/// [`BuiltKernel::run`] — the same gate the hand-written Fig. 2
/// kernels use.
#[derive(Debug, Clone)]
pub struct CompiledUnit {
    name: String,
    ir: LoopIr,
    expect: Expectation,
    scalars: Vec<ScalarSlot>,
    arrays: Vec<ArraySlot>,
    counted_loops: usize,
    while_loops: usize,
}

/// A scalar variable's placement and reference final value.
#[derive(Debug, Clone)]
pub struct ScalarSlot {
    /// Source name.
    pub name: String,
    /// Home register (`r2..=r13`).
    pub reg: Reg,
    /// Reference final value; `None` when the scalar is owned by the
    /// ZOLC hardware index unit (its post-loop register value is not
    /// architecturally comparable across targets, and the program
    /// provably never reads it).
    pub final_value: Option<i32>,
}

/// An array's placement and reference final contents.
#[derive(Debug, Clone)]
pub struct ArraySlot {
    /// Source name.
    pub name: String,
    /// Data-segment address of element 0.
    pub addr: u32,
    /// Initial contents (what the emitted data segment holds).
    pub init: Vec<i32>,
    /// Reference final contents.
    pub final_words: Vec<i32>,
}

impl CompiledUnit {
    /// The program name given to [`compile`].
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The generated loop IR (inspect or [`Display`](std::fmt::Display)
    /// it for the `--emit ir` view).
    pub fn ir(&self) -> &LoopIr {
        &self.ir
    }

    /// The reference expectation every built binary is judged against.
    pub fn expect(&self) -> &Expectation {
        &self.expect
    }

    /// Scalar variables in declaration order.
    pub fn scalars(&self) -> &[ScalarSlot] {
        &self.scalars
    }

    /// Arrays in declaration order.
    pub fn arrays(&self) -> &[ArraySlot] {
        &self.arrays
    }

    /// `for` loops recognized as counted (lowered as hardware-mappable
    /// [`zolc_ir::LoopNode`]s).
    pub fn counted_loops(&self) -> usize {
        self.counted_loops
    }

    /// Loops lowered in explicit-branch form (`while` loops and demoted
    /// `for` loops).
    pub fn while_loops(&self) -> usize {
        self.while_loops
    }

    /// Emits the data segment (every array, packed in declaration
    /// order) into `asm`.
    fn emit_data(&self, asm: &mut Asm) {
        for a in &self.arrays {
            asm.data_symbol(&a.name);
            if a.init.iter().all(|&w| w == 0) {
                asm.zeroed_words(a.init.len());
            } else {
                asm.words(&a.init);
            }
        }
    }

    /// Lowers the unit for `target` into a runnable [`BuiltKernel`]
    /// (data segment, lowered loop structure, `halt`).
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError::Lower`]/[`BuildError::Asm`] from the IR
    /// lowering and the assembler.
    pub fn build(&self, target: &Target) -> Result<BuiltKernel, BuildError> {
        let mut asm = Asm::new();
        self.emit_data(&mut asm);
        let info = lower_into(&mut asm, &self.ir, target)?;
        asm.emit(Instr::Halt);
        let program = CompiledProgram::compile(asm.finish()?);
        Ok(BuiltKernel {
            name: self.name.clone(),
            program,
            target: target.clone(),
            expect: self.expect.clone(),
            info,
        })
    }
}

/// Compiles `source` into a [`CompiledUnit`].
///
/// Runs the full front end: lex → parse → scope/type check → reference
/// interpretation (which also proves termination within a budget and
/// the absence of out-of-bounds accesses on every executed path) →
/// IR generation.
///
/// # Errors
///
/// The first problem found, as a [`Diagnostic`] with line/column.
pub fn compile(name: &str, source: &str) -> Result<CompiledUnit, Diagnostic> {
    let program = parser::parse(source)?;
    let syms = check::check(&program)?;
    let final_state = interp::run(&program, &syms)?;
    let generated = codegen::generate(&program, &syms)?;

    let scalars: Vec<ScalarSlot> = syms
        .scalars
        .iter()
        .map(|s| ScalarSlot {
            name: s.name.clone(),
            reg: s.reg,
            final_value: (!generated.index_only.contains(&s.name))
                .then(|| final_state.scalars[s.name.as_str()]),
        })
        .collect();
    let arrays: Vec<ArraySlot> = syms
        .arrays
        .iter()
        .map(|a| ArraySlot {
            name: a.name.clone(),
            addr: a.addr,
            init: a.init.clone(),
            final_words: final_state.arrays[a.name.as_str()].clone(),
        })
        .collect();
    let expect = Expectation {
        mem_words: arrays
            .iter()
            .map(|a| (a.addr, a.final_words.iter().map(|&w| w as u32).collect()))
            .collect(),
        regs: scalars
            .iter()
            .filter_map(|s| s.final_value.map(|v| (s.reg, v as u32)))
            .collect(),
    };
    Ok(CompiledUnit {
        name: name.to_owned(),
        ir: LoopIr {
            name: name.to_owned(),
            nodes: generated.nodes,
        },
        expect,
        scalars,
        arrays,
        counted_loops: generated.counted_loops,
        while_loops: generated.while_loops,
    })
}

/// [`compile`] returning a shared handle, for callers that build one
/// unit for many targets (the bench matrix's corpus source).
///
/// # Errors
///
/// Same as [`compile`].
pub fn compile_arc(name: &str, source: &str) -> Result<Arc<CompiledUnit>, Diagnostic> {
    compile(name, source).map(Arc::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zolc_core::ZolcConfig;
    use zolc_sim::ExecutorKind;

    const FUEL: u64 = 50_000_000;

    fn exec_all(unit: &CompiledUnit) {
        for target in [
            Target::Baseline,
            Target::HwLoop,
            Target::Zolc(ZolcConfig::lite()),
        ] {
            let built = unit.build(&target).expect("builds");
            let run = built.run(FUEL, ExecutorKind::Functional).expect("runs");
            assert!(
                run.is_correct(),
                "{}/{target}: {:?} {:?}",
                unit.name(),
                run.mismatches,
                run.violations
            );
        }
        let auto = unit
            .build(&Target::Baseline)
            .expect("builds")
            .retarget(ZolcConfig::lite())
            .expect("retargets");
        let run = auto
            .built
            .run(FUEL, ExecutorKind::Functional)
            .expect("runs");
        assert!(run.is_correct(), "auto: {:?}", run.mismatches);
    }

    #[test]
    fn dot_product_compiles_and_runs_everywhere() {
        let unit = compile(
            "dot",
            "int a[4] = {1, 2, 3, 4};\n\
             int b[4] = {4, 3, 2, 1};\n\
             int s; int i;\n\
             for (i = 0; i < 4; i += 1) { s += a[i] * b[i]; }",
        )
        .unwrap();
        assert_eq!(unit.counted_loops(), 1);
        assert_eq!(unit.while_loops(), 0);
        // s = 4 + 6 + 6 + 4 = 20
        let s = unit.scalars().iter().find(|s| s.name == "s").unwrap();
        assert_eq!(s.final_value, Some(20));
        // `i` only appears in the loop header/body: hardware index.
        let i = unit.scalars().iter().find(|s| s.name == "i").unwrap();
        assert_eq!(i.final_value, None);
        exec_all(&unit);
    }

    #[test]
    fn while_and_break_demote_to_branch_code() {
        let unit = compile(
            "scan",
            "int a[6] = {3, 1, 4, 0, 5, 9};\n\
             int i; int s;\n\
             while (a[i] != 0) { s += a[i]; i += 1; }",
        )
        .unwrap();
        assert_eq!(unit.counted_loops(), 0);
        assert_eq!(unit.while_loops(), 1);
        let s = unit.scalars().iter().find(|s| s.name == "s").unwrap();
        assert_eq!(s.final_value, Some(8));
        exec_all(&unit);
    }

    #[test]
    fn runtime_bound_becomes_reg_trips() {
        let unit = compile(
            "tri",
            "int b[16]; int i; int j; int n;\n\
             for (i = 1; i <= 4; i += 1) {\n\
               for (j = 0; j < i; j += 1) { b[n] = i; n += 1; }\n\
             }",
        )
        .unwrap();
        assert_eq!(unit.counted_loops(), 2);
        let ir = unit.ir().to_string();
        assert!(ir.contains("loop x4"), "{ir}");
        assert!(ir.contains("loop xr"), "{ir}"); // inner trips in a register
        let n = unit.scalars().iter().find(|s| s.name == "n").unwrap();
        assert_eq!(n.final_value, Some(10));
        exec_all(&unit);
    }

    #[test]
    fn loop_under_if_demotes() {
        let unit = compile(
            "guarded",
            "int x = 3; int i; int s;\n\
             if (x > 0) { for (i = 0; i < 5; i += 1) { s += i; } }",
        )
        .unwrap();
        assert_eq!(unit.counted_loops(), 0);
        assert_eq!(unit.while_loops(), 1);
        let s = unit.scalars().iter().find(|s| s.name == "s").unwrap();
        assert_eq!(s.final_value, Some(10));
        exec_all(&unit);
    }

    #[test]
    fn compile_errors_are_diagnostics() {
        let err = compile("bad", "x = 1;").unwrap_err();
        assert!(err.message.contains("not declared"));
        let err = compile("oob", "int a[2]; a[5] = 1;").unwrap_err();
        assert!(err.message.contains("out of bounds"));
        let err = compile("spin", "int x; while (x == 0) { x = 0; }").unwrap_err();
        assert!(err.message.contains("budget"));
    }
}
