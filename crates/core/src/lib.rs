//! # zolc-core — the zero-overhead loop controller (ZOLC)
//!
//! This crate implements the primary contribution of *Kavvadias &
//! Nikolaidis, "Hardware support for arbitrarily complex loop structures
//! in embedded applications", DATE 2005*: a loop controller that executes
//! arbitrary loop structures — imperfect nests, multiple-entry and
//! multiple-exit loops — with **zero cycle overhead** at every loop
//! boundary.
//!
//! ## Architecture (paper Fig. 1)
//!
//! * [`ZolcTables`] — the storage: loop parameter table, task-switching
//!   LUT and (ZOLCfull) multiple-entry/exit records, written by the `zwr`
//!   instruction in *initialization mode*;
//! * [`decide`] — the task selection unit and index calculation unit: at
//!   the fetch of a task-end instruction it selects the succeeding task
//!   and next PC (chaining through nested completions in a single cycle)
//!   and updates loop indices through a dedicated register-file port;
//! * [`Zolc`] — the controller as a pipeline [`zolc_sim::LoopEngine`],
//!   with speculative/architectural state separation, a consistency
//!   journal, and [`decide`] compiled into one site per hook-footprint pc;
//! * [`ZolcImage`] — the software-side table description, its validation,
//!   the initialization-sequence generator, and
//!   [`ZolcImage::chained`], the one task-chain rule: both the forward
//!   lowering (`zolc-ir`) and the retargeter (`zolc-cfg`) build their
//!   images with it, and pad in-loop `zwr` limit updates to [`ZWR_LEAD`],
//!   the lead the controller's journal check enforces;
//! * [`area`] — storage/combinational-area/timing models calibrated to the
//!   paper's synthesis results (30/258/642 bytes, 298/4056/4428 gates,
//!   ~170 MHz on 0.13 µm);
//! * [`PerfectNestController`] — the perfect-loop-nest baseline unit in
//!   the style of Talla et al. (the paper's reference \[2\]), used by the
//!   ablation experiments.
//!
//! ## Configurations
//!
//! [`ZolcConfig::micro`] (uZOLC), [`ZolcConfig::lite`] (ZOLClite) and
//! [`ZolcConfig::full`] (ZOLCfull) reproduce the paper's three design
//! points; [`ZolcConfig::custom`] explores others.
//!
//! # Examples
//!
//! Running a ZOLC-controlled loop on the pipeline:
//!
//! ```
//! use zolc_core::{LimitSrc, LoopSpec, TaskSpec, ZolcConfig, ZolcImage, Zolc, TASK_NONE};
//! use zolc_isa::{reg, Asm, Instr, Reg};
//! use zolc_sim::run_program;
//!
//! // sum r3 += r5 for r5 = 0..10, with no loop-control instructions at all
//! let mut a = Asm::new();
//! let start = a.new_label();
//! let end = a.new_label();
//! let image = ZolcImage {
//!     loops: vec![LoopSpec {
//!         init: 0, step: 1, limit: LimitSrc::Const(10),
//!         index_reg: Some(reg(5)),
//!         start: start.into(), end: end.into(),
//!     }],
//!     tasks: vec![TaskSpec { end: end.into(), loop_id: 0, next_iter: 0, next_fallthru: TASK_NONE }],
//!     entries: vec![], exits: vec![], initial_task: 0,
//! };
//! image.emit_init(&mut a, reg(1));
//! a.emit(Instr::Nop); // ≥1 instruction between zctl.on and the body
//! a.bind(start)?;
//! a.emit(Instr::Nop);
//! a.bind(end)?;
//! a.emit(Instr::Add { rd: reg(3), rs: reg(3), rt: reg(5) });
//! a.emit(Instr::Halt);
//! let program = a.finish()?;
//!
//! let mut zolc = Zolc::new(ZolcConfig::lite());
//! let finished = run_program(&program, &mut zolc, 100_000)?;
//! zolc.assert_consistent();
//! assert_eq!(finished.cpu.regs().read(reg(3)), (0..10).sum::<u32>());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
mod config;
mod controller;
mod dynamics;
mod image;
mod perfect;
mod sites;
mod tables;

pub use config::{ConfigError, ZolcConfig, ZolcVariant, MAX_LOOPS, MAX_TASKS, TASK_NONE};
pub use controller::{Zolc, ZWR_LEAD};
pub use dynamics::{decide, Decision, DecisionKind, DynState};
pub use image::{
    AddrVal, EntrySpec, ExitSpec, ImageError, InitStats, LimitSrc, LoopSpec, TaskSpec, ZolcImage,
};
pub use perfect::{PerfectLevel, PerfectNestController, PerfectNestSpec};
pub use tables::{
    EntryRecord, ExitRecord, LoopRecord, TableError, TaskRecord, WriteEffect, ZolcTables,
};
