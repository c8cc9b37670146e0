//! The ZOLC storage resources (paper Fig. 1).
//!
//! Three groups of registers, written by the `zwr` instruction during
//! *initialization mode* (and, for data-dependent loop limits, from inside
//! an enclosing loop body):
//!
//! * **loop parameter table** — per-loop bounds (`init`/`step`/`limit`),
//!   the index register written by the index calculation unit, and the
//!   loop body's start/end addresses;
//! * **task-switching LUT** — per task: the task's end address, the loop
//!   whose status its completion consults, and the successor task for the
//!   *iterate* and *fall-through* outcomes;
//! * **entry/exit records** (ZOLCfull only) — multiple-entry/exit support.
//!
//! Iteration *counts* are dynamic state ([`crate::DynState`]), not table
//! contents: they exist twice (speculative and architectural).

use crate::config::{ZolcConfig, MAX_LOOPS, TASK_NONE};
use std::fmt;
use zolc_isa::{entry_field, exit_field, global_field, loop_field, task_field, Reg, ZolcRegion};

/// One loop's static parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoopRecord {
    /// Initial index value (written to the index register on entry).
    pub init: u32,
    /// Index step applied per iteration (two's-complement).
    pub step: u32,
    /// Number of iterations the body executes (must be ≥ 1 when reached).
    pub limit: u32,
    /// GPR updated by the index calculation unit (`None` = no index).
    pub index_reg: Option<Reg>,
    /// Byte address of the first body instruction.
    pub start: u32,
    /// Byte address of the last body instruction.
    pub end: u32,
    /// Reserved per-loop flags.
    pub flags: u32,
}

/// One task-switching LUT entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskRecord {
    /// Byte address of the task's final instruction (the *task end*).
    pub end: u32,
    /// The loop whose iteration status this task's completion consults.
    pub loop_id: u8,
    /// Task that becomes current when the loop iterates.
    pub next_iter: u8,
    /// Task that becomes current when the loop completes (chained lookup
    /// continues if that task ends at the same address).
    pub next_fallthru: u8,
    /// Whether this entry participates in matching.
    pub valid: bool,
    /// Reserved flags.
    pub flags: u32,
}

impl Default for TaskRecord {
    fn default() -> Self {
        TaskRecord {
            end: 0,
            loop_id: 0,
            next_iter: TASK_NONE,
            next_fallthru: TASK_NONE,
            valid: false,
            flags: 0,
        }
    }
}

/// One multiple-entry record (ZOLCfull).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EntryRecord {
    /// Address whose fetch signals entry into the loop structure.
    pub addr: u32,
    /// Task that becomes current on entry.
    pub task: u8,
    /// Loops (bitmask) whose counters and indices initialize on entry.
    pub init_mask: u8,
    /// Optional fetch redirect applied on entry (0 = none).
    pub redirect: u32,
    /// Whether this record participates in matching.
    pub valid: bool,
}

/// One multiple-exit record (ZOLCfull).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExitRecord {
    /// Address of the branch realizing the early exit.
    pub branch: u32,
    /// Task that becomes current when that branch is taken.
    pub target_task: u8,
    /// Loops (bitmask) whose counters clear on exit.
    pub clear_mask: u8,
    /// Expected branch target (cross-check only; 0 = unchecked).
    pub target: u32,
    /// Whether this record participates in matching.
    pub valid: bool,
}

/// Errors raised by table writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// The record index exceeds the configured table size.
    IndexOutOfRange {
        /// Region written.
        region: ZolcRegion,
        /// Offending index.
        index: u8,
        /// Configured capacity.
        capacity: usize,
    },
    /// The field selector does not exist for this region.
    UnknownField {
        /// Region written.
        region: ZolcRegion,
        /// Offending field selector.
        field: u8,
    },
    /// The configuration has no such region (e.g. exit records on ZOLClite).
    RegionUnavailable {
        /// Region written.
        region: ZolcRegion,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::IndexOutOfRange {
                region,
                index,
                capacity,
            } => write!(
                f,
                "{region} record {index} out of range (capacity {capacity})"
            ),
            TableError::UnknownField { region, field } => {
                write!(f, "unknown field {field} for {region} records")
            }
            TableError::RegionUnavailable { region } => {
                write!(f, "this configuration has no {region} records")
            }
        }
    }
}

impl std::error::Error for TableError {}

/// Effect of a `zwr` that the controller must apply outside the tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteEffect {
    /// Static table contents changed.
    Static,
    /// The write targeted a loop's *count*: dynamic state must be updated.
    Count {
        /// The loop whose counter was written.
        loop_id: u8,
        /// The new counter value.
        value: u32,
    },
}

/// The complete register/table file of one ZOLC instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZolcTables {
    config: ZolcConfig,
    loops: Vec<LoopRecord>,
    tasks: Vec<TaskRecord>,
    entries: Vec<EntryRecord>,
    exits: Vec<ExitRecord>,
    /// Code base address (offsets in hardware are base-relative; the model
    /// stores absolute addresses and keeps the base for reporting).
    code_base: u32,
}

impl ZolcTables {
    /// Creates empty (all-invalid) tables for a configuration.
    pub fn new(config: ZolcConfig) -> ZolcTables {
        ZolcTables {
            config,
            loops: vec![LoopRecord::default(); config.loops()],
            tasks: vec![TaskRecord::default(); config.tasks()],
            entries: vec![EntryRecord::default(); config.loops() * config.entry_slots()],
            exits: vec![ExitRecord::default(); config.loops() * config.exit_slots()],
            code_base: 0,
        }
    }

    /// The configuration these tables were sized for.
    pub fn config(&self) -> &ZolcConfig {
        &self.config
    }

    /// Clears every record and the base address.
    pub fn reset(&mut self) {
        for l in &mut self.loops {
            *l = LoopRecord::default();
        }
        for t in &mut self.tasks {
            *t = TaskRecord::default();
        }
        for e in &mut self.entries {
            *e = EntryRecord::default();
        }
        for x in &mut self.exits {
            *x = ExitRecord::default();
        }
        self.code_base = 0;
    }

    /// The loop records.
    pub fn loops(&self) -> &[LoopRecord] {
        &self.loops
    }

    /// The task records.
    pub fn tasks(&self) -> &[TaskRecord] {
        &self.tasks
    }

    /// The entry records (empty unless the configuration has them).
    pub fn entries(&self) -> &[EntryRecord] {
        &self.entries
    }

    /// The exit records (empty unless the configuration has them).
    pub fn exits(&self) -> &[ExitRecord] {
        &self.exits
    }

    /// Looks up a loop record.
    pub fn loop_rec(&self, id: u8) -> Option<&LoopRecord> {
        self.loops.get(usize::from(id))
    }

    /// Looks up a task record.
    pub fn task(&self, id: u8) -> Option<&TaskRecord> {
        if id == TASK_NONE {
            return None;
        }
        self.tasks.get(usize::from(id))
    }

    /// The valid entry record matching an address, if any.
    pub fn entry_at(&self, pc: u32) -> Option<&EntryRecord> {
        self.entries.iter().find(|e| e.valid && e.addr == pc)
    }

    /// The valid exit record whose branch address matches, if any.
    pub fn exit_at(&self, pc: u32) -> Option<&ExitRecord> {
        self.exits.iter().find(|e| e.valid && e.branch == pc)
    }

    /// Direct mutable access for test set-up, bypassing `zwr`.
    #[cfg(test)]
    pub(crate) fn loops_mut(&mut self) -> &mut [LoopRecord] {
        &mut self.loops
    }

    #[cfg(test)]
    pub(crate) fn tasks_mut(&mut self) -> &mut [TaskRecord] {
        &mut self.tasks
    }

    #[cfg(test)]
    pub(crate) fn entries_mut(&mut self) -> &mut [EntryRecord] {
        &mut self.entries
    }

    /// Applies a `zwr` write.
    ///
    /// # Errors
    ///
    /// Returns [`TableError`] when the region is not present in this
    /// configuration, the index exceeds its capacity, or the field selector
    /// is unknown. (The controller records these as configuration
    /// violations; real hardware would ignore the write.)
    pub fn write(
        &mut self,
        region: ZolcRegion,
        index: u8,
        field: u8,
        value: u32,
    ) -> Result<WriteEffect, TableError> {
        let oob = |capacity: usize| TableError::IndexOutOfRange {
            region,
            index,
            capacity,
        };
        match region {
            ZolcRegion::Loop => {
                let cap = self.loops.len();
                let rec = self.loops.get_mut(usize::from(index)).ok_or(oob(cap))?;
                match field {
                    loop_field::INIT => rec.init = value,
                    loop_field::STEP => rec.step = value,
                    loop_field::LIMIT => rec.limit = value,
                    loop_field::COUNT => {
                        return Ok(WriteEffect::Count {
                            loop_id: index,
                            value,
                        })
                    }
                    loop_field::INDEX_REG => {
                        rec.index_reg = Reg::new((value & 0x1f) as u8).filter(|r| !r.is_zero());
                    }
                    loop_field::START => rec.start = value,
                    loop_field::END => rec.end = value,
                    loop_field::FLAGS => rec.flags = value,
                    f => return Err(TableError::UnknownField { region, field: f }),
                }
            }
            ZolcRegion::Task => {
                let cap = self.tasks.len();
                if cap == 0 {
                    return Err(TableError::RegionUnavailable { region });
                }
                let rec = self.tasks.get_mut(usize::from(index)).ok_or(oob(cap))?;
                match field {
                    task_field::END => rec.end = value,
                    task_field::LOOP_ID => rec.loop_id = (value & 0x7) as u8,
                    task_field::NEXT_ITER => rec.next_iter = (value & 0x1f) as u8,
                    task_field::NEXT_FALLTHRU => rec.next_fallthru = (value & 0x1f) as u8,
                    task_field::CTL => {
                        rec.valid = value & 1 != 0;
                        rec.flags = value >> 1;
                    }
                    f => return Err(TableError::UnknownField { region, field: f }),
                }
            }
            ZolcRegion::Entry => {
                let cap = self.entries.len();
                if cap == 0 {
                    return Err(TableError::RegionUnavailable { region });
                }
                let rec = self.entries.get_mut(usize::from(index)).ok_or(oob(cap))?;
                match field {
                    entry_field::ADDR => rec.addr = value,
                    entry_field::TASK => rec.task = (value & 0x1f) as u8,
                    entry_field::INIT_MASK => rec.init_mask = (value & 0xff) as u8,
                    entry_field::REDIRECT => rec.redirect = value,
                    entry_field::VALID => rec.valid = value & 1 != 0,
                    f => return Err(TableError::UnknownField { region, field: f }),
                }
            }
            ZolcRegion::Exit => {
                let cap = self.exits.len();
                if cap == 0 {
                    return Err(TableError::RegionUnavailable { region });
                }
                let rec = self.exits.get_mut(usize::from(index)).ok_or(oob(cap))?;
                match field {
                    exit_field::BRANCH => rec.branch = value,
                    exit_field::TASK => rec.target_task = (value & 0x1f) as u8,
                    exit_field::CLEAR_MASK => rec.clear_mask = (value & 0xff) as u8,
                    exit_field::TARGET => rec.target = value,
                    exit_field::VALID => rec.valid = value & 1 != 0,
                    f => return Err(TableError::UnknownField { region, field: f }),
                }
            }
            ZolcRegion::Global => match field {
                global_field::CODE_BASE => self.code_base = value,
                // task/loop counts are implied by the valid bits in this
                // model; accept the writes for instruction-set completeness.
                global_field::TASK_COUNT | global_field::LOOP_COUNT => {}
                f => return Err(TableError::UnknownField { region, field: f }),
            },
        }
        Ok(WriteEffect::Static)
    }

    /// Bitmask helper: the loops selected by `mask`, in ascending order.
    pub fn loops_in_mask(mask: u8) -> impl Iterator<Item = u8> {
        (0..MAX_LOOPS as u8).filter(move |k| mask & (1 << k) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zolc_isa::reg;

    #[test]
    fn write_loop_fields() {
        let mut t = ZolcTables::new(ZolcConfig::lite());
        t.write(ZolcRegion::Loop, 2, loop_field::INIT, 5).unwrap();
        t.write(ZolcRegion::Loop, 2, loop_field::STEP, 1).unwrap();
        t.write(ZolcRegion::Loop, 2, loop_field::LIMIT, 10).unwrap();
        t.write(ZolcRegion::Loop, 2, loop_field::INDEX_REG, 7)
            .unwrap();
        t.write(ZolcRegion::Loop, 2, loop_field::START, 0x40)
            .unwrap();
        t.write(ZolcRegion::Loop, 2, loop_field::END, 0x60).unwrap();
        let l = t.loop_rec(2).unwrap();
        assert_eq!(l.init, 5);
        assert_eq!(l.limit, 10);
        assert_eq!(l.index_reg, Some(reg(7)));
        assert_eq!((l.start, l.end), (0x40, 0x60));
    }

    #[test]
    fn count_write_is_dynamic() {
        let mut t = ZolcTables::new(ZolcConfig::lite());
        let eff = t.write(ZolcRegion::Loop, 1, loop_field::COUNT, 3).unwrap();
        assert_eq!(
            eff,
            WriteEffect::Count {
                loop_id: 1,
                value: 3
            }
        );
    }

    #[test]
    fn index_reg_zero_means_none() {
        let mut t = ZolcTables::new(ZolcConfig::lite());
        t.write(ZolcRegion::Loop, 0, loop_field::INDEX_REG, 0)
            .unwrap();
        assert_eq!(t.loop_rec(0).unwrap().index_reg, None);
    }

    #[test]
    fn capacity_enforced() {
        let mut t = ZolcTables::new(ZolcConfig::micro());
        assert!(matches!(
            t.write(ZolcRegion::Loop, 1, loop_field::INIT, 0),
            Err(TableError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            t.write(ZolcRegion::Task, 0, task_field::END, 0),
            Err(TableError::RegionUnavailable { .. })
        ));
        let mut lite = ZolcTables::new(ZolcConfig::lite());
        assert!(matches!(
            lite.write(ZolcRegion::Exit, 0, exit_field::BRANCH, 0),
            Err(TableError::RegionUnavailable { .. })
        ));
    }

    #[test]
    fn unknown_field_rejected() {
        let mut t = ZolcTables::new(ZolcConfig::full());
        assert!(matches!(
            t.write(ZolcRegion::Loop, 0, 31, 0),
            Err(TableError::UnknownField { .. })
        ));
        assert!(t
            .write(ZolcRegion::Global, 0, global_field::CODE_BASE, 0x100)
            .is_ok());
    }

    #[test]
    fn task_ctl_packs_valid_and_flags() {
        let mut t = ZolcTables::new(ZolcConfig::lite());
        t.write(ZolcRegion::Task, 3, task_field::CTL, 0b101)
            .unwrap();
        let rec = t.task(3).unwrap();
        assert!(rec.valid);
        assert_eq!(rec.flags, 0b10);
        assert!(t.task(TASK_NONE).is_none());
    }

    #[test]
    fn entry_exit_matching() {
        let mut t = ZolcTables::new(ZolcConfig::full());
        t.write(ZolcRegion::Entry, 0, entry_field::ADDR, 0x80)
            .unwrap();
        t.write(ZolcRegion::Entry, 0, entry_field::VALID, 1)
            .unwrap();
        t.write(ZolcRegion::Exit, 5, exit_field::BRANCH, 0x9c)
            .unwrap();
        t.write(ZolcRegion::Exit, 5, exit_field::VALID, 1).unwrap();
        assert!(t.entry_at(0x80).is_some());
        assert!(t.entry_at(0x84).is_none());
        assert!(t.exit_at(0x9c).is_some());
        // invalid records never match
        t.write(ZolcRegion::Exit, 5, exit_field::VALID, 0).unwrap();
        assert!(t.exit_at(0x9c).is_none());
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = ZolcTables::new(ZolcConfig::full());
        t.write(ZolcRegion::Loop, 0, loop_field::LIMIT, 9).unwrap();
        t.write(ZolcRegion::Task, 0, task_field::CTL, 1).unwrap();
        t.reset();
        assert_eq!(t.loop_rec(0).unwrap().limit, 0);
        assert!(!t.task(0).unwrap().valid);
    }

    #[test]
    fn mask_iteration() {
        let v: Vec<u8> = ZolcTables::loops_in_mask(0b1010_0001).collect();
        assert_eq!(v, vec![0, 5, 7]);
    }
}

impl fmt::Display for ZolcTables {
    /// Dumps the programmed (valid/non-default) table contents — the
    /// debugging view of what an initialization sequence loaded.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.config)?;
        for (k, l) in self.loops.iter().enumerate() {
            if *l == LoopRecord::default() {
                continue;
            }
            writeln!(
                f,
                "  loop {k}: [{:#x}..{:#x}] init {} step {} limit {} index {}",
                l.start,
                l.end,
                l.init as i32,
                l.step as i32,
                l.limit,
                l.index_reg.map_or("-".into(), |r| r.to_string()),
            )?;
        }
        for (k, t) in self.tasks.iter().enumerate() {
            if !t.valid {
                continue;
            }
            writeln!(
                f,
                "  task {k}: end {:#x} loop {} iter->{} fall->{}",
                t.end, t.loop_id, t.next_iter, t.next_fallthru
            )?;
        }
        for (k, e) in self.entries.iter().enumerate() {
            if !e.valid {
                continue;
            }
            writeln!(
                f,
                "  entry {k}: at {:#x} task {} mask {:#04b}",
                e.addr, e.task, e.init_mask
            )?;
        }
        for (k, x) in self.exits.iter().enumerate() {
            if !x.valid {
                continue;
            }
            writeln!(
                f,
                "  exit {k}: branch {:#x} -> task {} clear {:#04b}",
                x.branch, x.target_task, x.clear_mask
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;
    use zolc_isa::reg;

    #[test]
    fn dump_shows_programmed_records_only() {
        let mut t = ZolcTables::new(ZolcConfig::full());
        t.loops_mut()[0] = LoopRecord {
            init: 0,
            step: 4,
            limit: 10,
            index_reg: Some(reg(20)),
            start: 0x40,
            end: 0x58,
            flags: 0,
        };
        t.tasks_mut()[0] = TaskRecord {
            end: 0x58,
            loop_id: 0,
            next_iter: 0,
            next_fallthru: TASK_NONE,
            valid: true,
            flags: 0,
        };
        let s = t.to_string();
        assert!(s.contains("loop 0"));
        assert!(s.contains("task 0"));
        // only one loop/task line each (unprogrammed records suppressed)
        assert_eq!(
            s.matches("loop ").count(),
            1 + 1 /* header mentions loops */
        );
        assert!(!s.contains("entry"));
    }
}
