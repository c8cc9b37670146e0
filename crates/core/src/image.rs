//! Software-side table images and initialization-sequence generation.
//!
//! A [`ZolcImage`] is what a compiler produces for a ZOLC-enabled region:
//! the loop parameters, task-switching entries and (for ZOLCfull)
//! entry/exit records. It can be
//!
//! * lowered to the paper's *initialization mode* instruction sequence
//!   ([`ZolcImage::emit_init`]) — a short run of `zwr` writes bracketed by
//!   `zctl` operations, executed **outside** the loop nest (this is the
//!   "very small cycle overhead" of §2, measured by experiment E4);
//! * validated against a hardware configuration
//!   ([`ZolcImage::validate`]).
//!
//! Addresses may be given as resolved byte addresses or as [`Label`]s of
//! an in-progress [`Asm`] build; [`ZolcImage::resolve`] converts the
//! latter once layout is final.

use crate::config::{ZolcConfig, TASK_NONE};
use std::fmt;
use zolc_isa::{
    entry_field, exit_field, loop_field, task_field, Asm, Instr, Label, Reg, ZolcCtl, ZolcRegion,
};

/// An address that may still be an unresolved assembler label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrVal {
    /// A resolved byte address.
    Abs(u32),
    /// A label of an in-progress [`Asm`] build.
    Label(Label),
}

impl AddrVal {
    /// The resolved address, if this is [`AddrVal::Abs`].
    pub fn abs(self) -> Option<u32> {
        match self {
            AddrVal::Abs(a) => Some(a),
            AddrVal::Label(_) => None,
        }
    }
}

impl From<u32> for AddrVal {
    fn from(a: u32) -> Self {
        AddrVal::Abs(a)
    }
}

impl From<Label> for AddrVal {
    fn from(l: Label) -> Self {
        AddrVal::Label(l)
    }
}

/// Where a loop's iteration limit comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitSrc {
    /// A compile-time constant (must be ≥ 1).
    Const(u32),
    /// A register read at initialization time (data-dependent bound,
    /// loaded by the `zwr` without a constant materialization).
    Reg(Reg),
}

/// One loop's parameters in image form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopSpec {
    /// Initial index value.
    pub init: i32,
    /// Index step per iteration.
    pub step: i32,
    /// Iteration count source.
    pub limit: LimitSrc,
    /// Index register the hardware maintains (`None` = no index).
    pub index_reg: Option<Reg>,
    /// First body instruction.
    pub start: AddrVal,
    /// Last body instruction.
    pub end: AddrVal,
}

/// One task-switching entry in image form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpec {
    /// The task's final instruction.
    pub end: AddrVal,
    /// Loop consulted at this task's completion.
    pub loop_id: u8,
    /// Successor on iterate.
    pub next_iter: u8,
    /// Successor on completion ([`TASK_NONE`] for "nothing follows").
    pub next_fallthru: u8,
}

/// One multiple-entry record in image form (ZOLCfull).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntrySpec {
    /// Loop the record slot belongs to.
    pub loop_id: u8,
    /// Slot within the loop's records.
    pub slot: u8,
    /// Address whose fetch enters the structure.
    pub addr: AddrVal,
    /// Task that becomes current.
    pub task: u8,
    /// Loops initialized on entry (bitmask).
    pub init_mask: u8,
    /// Optional redirect.
    pub redirect: Option<AddrVal>,
}

/// One multiple-exit record in image form (ZOLCfull).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExitSpec {
    /// Loop the record slot belongs to.
    pub loop_id: u8,
    /// Slot within the loop's records.
    pub slot: u8,
    /// Address of the exiting branch.
    pub branch: AddrVal,
    /// Task that becomes current when it is taken.
    pub target_task: u8,
    /// Loops whose counters clear (bitmask).
    pub clear_mask: u8,
    /// Expected branch target (cross-check; `None` = unchecked).
    pub target: Option<AddrVal>,
}

/// A complete ZOLC program description.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ZolcImage {
    /// Loop parameter records, indexed by loop id.
    pub loops: Vec<LoopSpec>,
    /// Task-switching entries, indexed by task id.
    pub tasks: Vec<TaskSpec>,
    /// Multiple-entry records.
    pub entries: Vec<EntrySpec>,
    /// Multiple-exit records.
    pub exits: Vec<ExitSpec>,
    /// Task current when the controller activates.
    pub initial_task: u8,
}

/// Errors validating or resolving an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// More loops than the configuration provides.
    TooManyLoops {
        /// Loops in the image.
        have: usize,
        /// Configured capacity.
        capacity: usize,
    },
    /// More tasks than the configuration provides.
    TooManyTasks {
        /// Tasks in the image.
        have: usize,
        /// Configured capacity.
        capacity: usize,
    },
    /// The configuration has no entry/exit records but the image uses them.
    RecordsUnavailable,
    /// A record slot index exceeds the per-loop slot count.
    SlotOutOfRange {
        /// The offending slot.
        slot: u8,
        /// Configured slots per loop.
        capacity: usize,
    },
    /// A task or record references a nonexistent loop/task.
    BadReference(String),
    /// A constant loop limit of zero (zero-trip loops need a software
    /// guard branch; the hardware executes bodies at least once).
    ZeroTripLimit {
        /// The offending loop.
        loop_id: u8,
    },
    /// An address was still a label where a resolved address was required.
    Unresolved,
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::TooManyLoops { have, capacity } => {
                write!(
                    f,
                    "image has {have} loops, configuration provides {capacity}"
                )
            }
            ImageError::TooManyTasks { have, capacity } => {
                write!(
                    f,
                    "image has {have} tasks, configuration provides {capacity}"
                )
            }
            ImageError::RecordsUnavailable => {
                write!(
                    f,
                    "entry/exit records used but not present in this configuration"
                )
            }
            ImageError::SlotOutOfRange { slot, capacity } => {
                write!(f, "record slot {slot} out of range (capacity {capacity})")
            }
            ImageError::BadReference(msg) => write!(f, "bad reference: {msg}"),
            ImageError::ZeroTripLimit { loop_id } => write!(
                f,
                "loop {loop_id} has a constant limit of 0 (guard zero-trip loops in software)"
            ),
            ImageError::Unresolved => write!(f, "image contains unresolved labels"),
        }
    }
}

impl std::error::Error for ImageError {}

/// Cost accounting of an emitted initialization sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InitStats {
    /// Instructions emitted (including the two `zctl` operations).
    pub instructions: usize,
}

impl ZolcImage {
    /// The image of a loop tree: `loops` in image order, one task per
    /// loop ending at the loop's end, the task chain planned, and no
    /// entry or exit records. This is the one task-chain rule both the
    /// forward lowering and the retargeter use.
    ///
    /// `tree[k]` gives loop `k`'s nearest ancestor in `loops` (`None`
    /// at top level) and a key that orders loops by execution. The key
    /// need not follow image order: the retargeter's image order is the
    /// loop forest's, and it passes header addresses.
    ///
    /// * Entering a loop descends to its innermost first child: that
    ///   task is the loop's `next_iter`, and the first top-level loop's
    ///   is the initial task ([`TASK_NONE`] with no loops).
    /// * Completion falls through to the next sibling's first task,
    ///   else to the parent's task, else to [`TASK_NONE`].
    /// * A configuration without a task table (uZOLC) gets no tasks.
    pub fn chained(
        config: &ZolcConfig,
        loops: Vec<LoopSpec>,
        tree: &[(Option<usize>, u32)],
    ) -> ZolcImage {
        let n = tree.len();
        // Every loop's first child and next sibling, with the root at
        // index `n`: sorting by (parent, key) lays each level out
        // contiguously in execution order (a stable sort keeps image
        // order on ties).
        let level = |k: usize| tree[k].0.unwrap_or(n);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&k| (level(k), tree[k].1));
        let mut first_child = vec![usize::MAX; n + 1];
        let mut next_sibling = vec![usize::MAX; n];
        for (i, &k) in order.iter().enumerate() {
            match i.checked_sub(1).map(|j| order[j]) {
                Some(prev) if level(prev) == level(k) => next_sibling[prev] = k,
                _ => first_child[level(k)] = k,
            }
        }
        let first_task = |mut k: usize| {
            while first_child[k] != usize::MAX {
                k = first_child[k];
            }
            k
        };
        let tasks = if config.tasks() == 0 {
            Vec::new()
        } else {
            (0..n)
                .map(|k| TaskSpec {
                    end: loops[k].end,
                    loop_id: k as u8,
                    next_iter: first_task(k) as u8,
                    next_fallthru: match next_sibling[k] {
                        usize::MAX => tree[k].0.map_or(TASK_NONE, |p| p as u8),
                        next => first_task(next) as u8,
                    },
                })
                .collect()
        };
        ZolcImage {
            initial_task: match first_task(n) {
                k if k == n => TASK_NONE,
                k => k as u8,
            },
            loops,
            tasks,
            entries: vec![],
            exits: vec![],
        }
    }

    /// Checks the image against a hardware configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ImageError`] found; a valid image is loadable
    /// into (and executable on) a controller of that configuration.
    pub fn validate(&self, config: &ZolcConfig) -> Result<(), ImageError> {
        if self.loops.len() > config.loops() {
            return Err(ImageError::TooManyLoops {
                have: self.loops.len(),
                capacity: config.loops(),
            });
        }
        // a configuration without a task table (uZOLC) has capacity 0
        if self.tasks.len() > config.tasks() {
            return Err(ImageError::TooManyTasks {
                have: self.tasks.len(),
                capacity: config.tasks(),
            });
        }
        for (k, l) in self.loops.iter().enumerate() {
            if let LimitSrc::Const(0) = l.limit {
                return Err(ImageError::ZeroTripLimit { loop_id: k as u8 });
            }
        }
        // `what` is formatted only when the reference is bad
        let check_task_ref = |id: u8, what: fmt::Arguments<'_>| -> Result<(), ImageError> {
            if id != TASK_NONE && usize::from(id) >= self.tasks.len() {
                return Err(ImageError::BadReference(format!(
                    "{what} references task {id}, image has {}",
                    self.tasks.len()
                )));
            }
            Ok(())
        };
        for (k, t) in self.tasks.iter().enumerate() {
            if usize::from(t.loop_id) >= self.loops.len() {
                return Err(ImageError::BadReference(format!(
                    "task {k} references loop {}, image has {}",
                    t.loop_id,
                    self.loops.len()
                )));
            }
            check_task_ref(t.next_iter, format_args!("task {k} next_iter"))?;
            check_task_ref(t.next_fallthru, format_args!("task {k} next_fallthru"))?;
        }
        if (!self.entries.is_empty() || !self.exits.is_empty()) && !config.has_records() {
            return Err(ImageError::RecordsUnavailable);
        }
        for e in &self.entries {
            if usize::from(e.loop_id) >= self.loops.len() {
                return Err(ImageError::BadReference(format!(
                    "entry record references loop {}",
                    e.loop_id
                )));
            }
            if usize::from(e.slot) >= config.entry_slots() {
                return Err(ImageError::SlotOutOfRange {
                    slot: e.slot,
                    capacity: config.entry_slots(),
                });
            }
            check_task_ref(e.task, format_args!("entry record"))?;
        }
        for x in &self.exits {
            if usize::from(x.loop_id) >= self.loops.len() {
                return Err(ImageError::BadReference(format!(
                    "exit record references loop {}",
                    x.loop_id
                )));
            }
            if usize::from(x.slot) >= config.exit_slots() {
                return Err(ImageError::SlotOutOfRange {
                    slot: x.slot,
                    capacity: config.exit_slots(),
                });
            }
            check_task_ref(x.target_task, format_args!("exit record"))?;
        }
        if config.tasks() > 0 {
            check_task_ref(self.initial_task, format_args!("initial task"))?;
        }
        Ok(())
    }

    /// Maps label addresses to resolved addresses using `lookup`, in
    /// place.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::Unresolved`] if `lookup` cannot resolve a
    /// label.
    pub fn resolve(
        mut self,
        lookup: impl Fn(Label) -> Option<u32>,
    ) -> Result<ZolcImage, ImageError> {
        let res = |a: AddrVal| -> Result<AddrVal, ImageError> {
            match a {
                AddrVal::Abs(v) => Ok(AddrVal::Abs(v)),
                AddrVal::Label(l) => lookup(l).map(AddrVal::Abs).ok_or(ImageError::Unresolved),
            }
        };
        for l in &mut self.loops {
            l.start = res(l.start)?;
            l.end = res(l.end)?;
        }
        for t in &mut self.tasks {
            t.end = res(t.end)?;
        }
        for e in &mut self.entries {
            e.addr = res(e.addr)?;
            e.redirect = e.redirect.map(res).transpose()?;
        }
        for x in &mut self.exits {
            x.branch = res(x.branch)?;
            x.target = x.target.map(res).transpose()?;
        }
        Ok(self)
    }

    /// Emits the initialization-mode instruction sequence:
    /// `zctl.rst`, the `zwr` writes for every non-default field, and
    /// `zctl.on initial_task`.
    ///
    /// Constants are materialized into `scratch` (consecutive writes of the
    /// same value reuse it). Label-valued addresses use fixed-size
    /// `lui`+`ori` pairs patched at link time.
    pub fn emit_init(&self, asm: &mut Asm, scratch: Reg) -> InitStats {
        let before = asm.here();
        asm.emit(Instr::Zctl { op: ZolcCtl::Reset });

        // Constant-materialization cache: the value currently in `scratch`.
        struct Cache {
            scratch: Reg,
            value: Option<u32>,
        }
        impl Cache {
            fn materialize(&mut self, asm: &mut Asm, value: u32) {
                if self.value != Some(value) {
                    asm.li(self.scratch, value as i32);
                    self.value = Some(value);
                }
            }
        }
        let mut cache = Cache {
            scratch,
            value: None,
        };
        fn write_const(
            asm: &mut Asm,
            cache: &mut Cache,
            region: ZolcRegion,
            index: u8,
            field: u8,
            value: u32,
            skip_zero: bool,
        ) {
            if skip_zero && value == 0 {
                return;
            }
            cache.materialize(asm, value);
            asm.emit(Instr::Zwr {
                region,
                index,
                field,
                rs: cache.scratch,
            });
        }
        fn write_addr(
            asm: &mut Asm,
            cache: &mut Cache,
            region: ZolcRegion,
            index: u8,
            field: u8,
            addr: AddrVal,
        ) {
            match addr {
                AddrVal::Abs(v) => cache.materialize(asm, v),
                AddrVal::Label(l) => {
                    asm.li_addr(cache.scratch, l);
                    cache.value = None; // unknown until link time
                }
            }
            asm.emit(Instr::Zwr {
                region,
                index,
                field,
                rs: cache.scratch,
            });
        }

        for (k, l) in self.loops.iter().enumerate() {
            let k = k as u8;
            write_const(
                asm,
                &mut cache,
                ZolcRegion::Loop,
                k,
                loop_field::INIT,
                l.init as u32,
                true,
            );
            write_const(
                asm,
                &mut cache,
                ZolcRegion::Loop,
                k,
                loop_field::STEP,
                l.step as u32,
                true,
            );
            match l.limit {
                LimitSrc::Const(v) => write_const(
                    asm,
                    &mut cache,
                    ZolcRegion::Loop,
                    k,
                    loop_field::LIMIT,
                    v,
                    false,
                ),
                LimitSrc::Reg(r) => {
                    asm.emit(Instr::Zwr {
                        region: ZolcRegion::Loop,
                        index: k,
                        field: loop_field::LIMIT,
                        rs: r,
                    });
                }
            }
            if let Some(r) = l.index_reg {
                write_const(
                    asm,
                    &mut cache,
                    ZolcRegion::Loop,
                    k,
                    loop_field::INDEX_REG,
                    r.field(),
                    true,
                );
            }
            write_addr(
                asm,
                &mut cache,
                ZolcRegion::Loop,
                k,
                loop_field::START,
                l.start,
            );
            write_addr(asm, &mut cache, ZolcRegion::Loop, k, loop_field::END, l.end);
        }

        for (k, t) in self.tasks.iter().enumerate() {
            let k = k as u8;
            write_addr(asm, &mut cache, ZolcRegion::Task, k, task_field::END, t.end);
            write_const(
                asm,
                &mut cache,
                ZolcRegion::Task,
                k,
                task_field::LOOP_ID,
                u32::from(t.loop_id),
                true,
            );
            write_const(
                asm,
                &mut cache,
                ZolcRegion::Task,
                k,
                task_field::NEXT_ITER,
                u32::from(t.next_iter),
                false,
            );
            write_const(
                asm,
                &mut cache,
                ZolcRegion::Task,
                k,
                task_field::NEXT_FALLTHRU,
                u32::from(t.next_fallthru),
                false,
            );
            write_const(
                asm,
                &mut cache,
                ZolcRegion::Task,
                k,
                task_field::CTL,
                1,
                false,
            );
        }

        for e in &self.entries {
            let idx = e.loop_id * 4 + e.slot;
            write_addr(
                asm,
                &mut cache,
                ZolcRegion::Entry,
                idx,
                entry_field::ADDR,
                e.addr,
            );
            write_const(
                asm,
                &mut cache,
                ZolcRegion::Entry,
                idx,
                entry_field::TASK,
                u32::from(e.task),
                true,
            );
            write_const(
                asm,
                &mut cache,
                ZolcRegion::Entry,
                idx,
                entry_field::INIT_MASK,
                u32::from(e.init_mask),
                true,
            );
            if let Some(r) = e.redirect {
                write_addr(
                    asm,
                    &mut cache,
                    ZolcRegion::Entry,
                    idx,
                    entry_field::REDIRECT,
                    r,
                );
            }
            write_const(
                asm,
                &mut cache,
                ZolcRegion::Entry,
                idx,
                entry_field::VALID,
                1,
                false,
            );
        }

        for x in &self.exits {
            let idx = x.loop_id * 4 + x.slot;
            write_addr(
                asm,
                &mut cache,
                ZolcRegion::Exit,
                idx,
                exit_field::BRANCH,
                x.branch,
            );
            write_const(
                asm,
                &mut cache,
                ZolcRegion::Exit,
                idx,
                exit_field::TASK,
                u32::from(x.target_task),
                true,
            );
            write_const(
                asm,
                &mut cache,
                ZolcRegion::Exit,
                idx,
                exit_field::CLEAR_MASK,
                u32::from(x.clear_mask),
                true,
            );
            if let Some(t) = x.target {
                write_addr(
                    asm,
                    &mut cache,
                    ZolcRegion::Exit,
                    idx,
                    exit_field::TARGET,
                    t,
                );
            }
            write_const(
                asm,
                &mut cache,
                ZolcRegion::Exit,
                idx,
                exit_field::VALID,
                1,
                false,
            );
        }

        asm.emit(Instr::Zctl {
            op: ZolcCtl::Activate {
                task: self.initial_task,
            },
        });
        InitStats {
            instructions: ((asm.here() - before) / 4) as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zolc_isa::reg;

    fn one_loop_image() -> ZolcImage {
        ZolcImage {
            loops: vec![LoopSpec {
                init: 0,
                step: 1,
                limit: LimitSrc::Const(4),
                index_reg: Some(reg(5)),
                start: AddrVal::Abs(0x20),
                end: AddrVal::Abs(0x2c),
            }],
            tasks: vec![TaskSpec {
                end: AddrVal::Abs(0x2c),
                loop_id: 0,
                next_iter: 0,
                next_fallthru: TASK_NONE,
            }],
            entries: vec![],
            exits: vec![],
            initial_task: 0,
        }
    }

    /// Entering descends to the innermost first child, completion falls
    /// through to the next sibling's first task or to the parent, both in
    /// key order, and uZOLC gets no tasks.
    #[test]
    fn chained_follows_execution_order() {
        let spec = |start: u32, end: u32| LoopSpec {
            init: 0,
            step: 0,
            limit: LimitSrc::Const(2),
            index_reg: None,
            start: start.into(),
            end: end.into(),
        };
        // loop 0 holds loops 1 and 3; loop 2 runs first, before loop 0
        let loops = vec![
            spec(0x20, 0x40),
            spec(0x24, 0x28),
            spec(0x10, 0x14),
            spec(0x2c, 0x30),
        ];
        let tree = [(None, 0x20), (Some(0), 0x24), (None, 0x10), (Some(0), 0x2c)];
        let image = ZolcImage::chained(&ZolcConfig::lite(), loops.clone(), &tree);
        assert_eq!(image.initial_task, 2);
        let links: Vec<_> = image
            .tasks
            .iter()
            .map(|t| (t.end, t.loop_id, t.next_iter, t.next_fallthru))
            .collect();
        assert_eq!(
            links,
            [
                (0x40.into(), 0, 1, TASK_NONE),
                (0x28.into(), 1, 1, 3),
                (0x14.into(), 2, 2, 1),
                (0x30.into(), 3, 3, 0),
            ]
        );
        assert_eq!(image.loops, loops);
        assert!(image.entries.is_empty() && image.exits.is_empty());
        image.validate(&ZolcConfig::lite()).unwrap();

        let micro = ZolcImage::chained(
            &ZolcConfig::micro(),
            vec![spec(0x10, 0x14)],
            &[(None, 0x10)],
        );
        assert!(micro.tasks.is_empty());
        assert_eq!(micro.initial_task, 0);
        assert_eq!(
            ZolcImage::chained(&ZolcConfig::lite(), vec![], &[]).initial_task,
            TASK_NONE
        );
    }

    #[test]
    fn validates_against_configs() {
        let img = one_loop_image();
        assert!(img.validate(&ZolcConfig::lite()).is_ok());
        assert!(img.validate(&ZolcConfig::full()).is_ok());
        // uZOLC takes a single loop but no LUT tasks
        assert_eq!(
            img.validate(&ZolcConfig::micro()),
            Err(ImageError::TooManyTasks {
                have: 1,
                capacity: 0
            })
        );
        let mut micro = img.clone();
        micro.tasks.clear();
        assert!(micro.validate(&ZolcConfig::micro()).is_ok());
        // one task past ZOLClite's table
        let mut over = img.clone();
        over.tasks = vec![img.tasks[0]; 33];
        assert_eq!(
            over.validate(&ZolcConfig::lite()),
            Err(ImageError::TooManyTasks {
                have: 33,
                capacity: 32
            })
        );
    }

    #[test]
    fn zero_limit_rejected() {
        let mut img = one_loop_image();
        img.loops[0].limit = LimitSrc::Const(0);
        assert!(matches!(
            img.validate(&ZolcConfig::lite()),
            Err(ImageError::ZeroTripLimit { loop_id: 0 })
        ));
    }

    #[test]
    fn bad_references_rejected() {
        let mut img = one_loop_image();
        img.tasks[0].loop_id = 3;
        assert!(matches!(
            img.validate(&ZolcConfig::lite()),
            Err(ImageError::BadReference(_))
        ));
        let mut img = one_loop_image();
        img.tasks[0].next_iter = 7;
        assert!(img.validate(&ZolcConfig::lite()).is_err());
    }

    #[test]
    fn records_require_full_config() {
        let mut img = one_loop_image();
        img.exits.push(ExitSpec {
            loop_id: 0,
            slot: 0,
            branch: AddrVal::Abs(0x24),
            target_task: TASK_NONE,
            clear_mask: 1,
            target: None,
        });
        assert!(matches!(
            img.validate(&ZolcConfig::lite()),
            Err(ImageError::RecordsUnavailable)
        ));
        assert!(img.validate(&ZolcConfig::full()).is_ok());
        img.exits[0].slot = 4;
        assert!(matches!(
            img.validate(&ZolcConfig::full()),
            Err(ImageError::SlotOutOfRange { .. })
        ));
    }

    #[test]
    fn emit_init_produces_wr_sequence_bracketed_by_zctl() {
        let img = one_loop_image();
        let mut asm = Asm::new();
        let stats = img.emit_init(&mut asm, reg(1));
        asm.emit(Instr::Halt);
        let p = asm.finish().unwrap();
        assert_eq!(p.text()[0], Instr::Zctl { op: ZolcCtl::Reset });
        assert_eq!(
            p.text()[stats.instructions - 1],
            Instr::Zctl {
                op: ZolcCtl::Activate { task: 0 }
            }
        );
        // the sequence is compact: a handful of li/zwr per loop and task
        assert!(stats.instructions < 30, "init too long: {stats:?}");
        // all intermediate instructions are li/zwr
        for i in &p.text()[1..stats.instructions - 1] {
            assert!(
                matches!(
                    i,
                    Instr::Zwr { .. } | Instr::Addi { .. } | Instr::Lui { .. } | Instr::Ori { .. }
                ),
                "unexpected init instruction {i}"
            );
        }
    }

    #[test]
    fn scratch_value_reuse_shrinks_sequence() {
        // adjacent writes of the same value (init == step) reuse the
        // materialized scratch constant
        let count_lis = |img: &ZolcImage| {
            let mut asm = Asm::new();
            let stats = img.emit_init(&mut asm, reg(1));
            asm.emit(Instr::Halt);
            let p = asm.finish().unwrap();
            p.text()[..stats.instructions]
                .iter()
                .filter(|i| matches!(i, Instr::Addi { .. }))
                .count()
        };
        let mut img = one_loop_image();
        img.loops[0].init = 5;
        img.loops[0].step = 5;
        let shared = count_lis(&img);
        img.loops[0].step = 6;
        let distinct = count_lis(&img);
        assert_eq!(distinct, shared + 1);
    }

    #[test]
    fn label_addresses_resolve() {
        let mut asm = Asm::new();
        let start = asm.new_label();
        let end = asm.new_label();
        let img = ZolcImage {
            loops: vec![LoopSpec {
                init: 0,
                step: 1,
                limit: LimitSrc::Const(2),
                index_reg: None,
                start: start.into(),
                end: end.into(),
            }],
            tasks: vec![TaskSpec {
                end: end.into(),
                loop_id: 0,
                next_iter: 0,
                next_fallthru: TASK_NONE,
            }],
            entries: vec![],
            exits: vec![],
            initial_task: 0,
        };
        img.emit_init(&mut asm, reg(1));
        asm.bind(start).unwrap();
        asm.emit(Instr::Nop);
        asm.bind(end).unwrap();
        asm.emit(Instr::Nop);
        asm.emit(Instr::Halt);
        let start_addr = asm.label_addr(start).unwrap();
        let resolved = img.clone().resolve(|l| asm.label_addr(l)).unwrap();
        assert_eq!(resolved.loops[0].start, AddrVal::Abs(start_addr));
        assert!(asm.finish().is_ok());
        // unresolved lookup fails
        assert!(img.resolve(|_| None).is_err());
    }
}
