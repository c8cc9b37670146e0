//! The [`Zolc`] controller: the paper's hardware unit as a [`LoopEngine`].
//!
//! # Speculation model
//!
//! The pipeline fetches speculatively (predict-not-taken), so fetch-time
//! decisions may be made for instructions that are later squashed. The
//! controller therefore keeps two copies of its dynamic state:
//!
//! * **speculative** — advanced by [`LoopEngine::on_fetch`]; drives the
//!   zero-overhead redirects;
//! * **architectural** — advanced by [`LoopEngine::on_execute`] when the
//!   same instruction retires (EX, no longer squashable).
//!
//! On any pipeline flush, speculative state is restored from architectural
//! state. Because [`crate::decide`] is deterministic, replaying it at
//! retire must produce exactly the decision made at fetch; the controller
//! keeps a FIFO *journal* of non-trivial fetch decisions and verifies each
//! against its replay, recording mismatches as **violations** (these catch
//! mis-scheduled in-loop `zwr` limit updates, which must precede the
//! affected task end by [`ZWR_LEAD`] instructions so the write retires
//! before the end address is fetched).
//!
//! # Executor independence
//!
//! The hooks are defined purely in terms of the [`LoopEngine`] trait, so
//! the controller runs unchanged on either simulator executor:
//!
//! * the **cycle-accurate pipeline** drives it speculatively — several
//!   fetches can separate an instruction's `on_fetch` from its
//!   `on_execute`, and wrong-path fetches are rolled back via `on_flush`;
//! * the **functional executor** drives it with strict per-instruction
//!   alternation (`on_fetch` immediately followed by `on_execute`, no
//!   wrong paths), under which speculative and architectural state never
//!   diverge and the journal trivially verifies.
//!
//! A fetch-time decision made while nothing is in flight (an empty
//! journal and speculative state equal to architectural) is held as
//! *pending* instead of journaled: if the very next call is its own
//! `on_execute`, the replay is known to reproduce it, so the
//! architectural state adopts the speculative one without deciding
//! again. Any other call first files the pending decision into the
//! journal, where it is checked as usual. Under strict alternation every
//! decision takes this path.
//!
//! Both schedules are legal by the trait's contract and produce identical
//! architectural results (the root `prop_exec_equiv` suite checks this on
//! every benchmark kernel).
//!
//! The journal keeps each decision's pc, redirect and kind, with its
//! rider writes in a side queue, and a flag records when speculative
//! state is known to equal architectural, so the idle check seldom
//! compares the two.
//!
//! # Hook footprint and site table
//!
//! [`decide`] can only act at a pc that is a valid task end (uZOLC: loop
//! 0's end), the instruction before some loop record's start (step 3's
//! entry initialization), or a valid entry address, and the exit check
//! only at a valid exit branch. While active the controller reports
//! exactly that set through [`LoopEngine::hook_pcs`] (empty while
//! inactive), so executors skip both hooks everywhere else, and a hook
//! called at any other pc returns the trivial decision at once.
//!
//! The hooks do not scan the tables as [`decide`] does. Each footprint pc
//! has a compiled **site** holding what those scans find there: the
//! entry record at the pc, the tasks ending there, the loops starting at
//! the next pc and the exit record at the pc; alongside, per loop and per
//! entry redirect, the loops that start at that address. A decision walks
//! the site and reads the fields that can change without moving the
//! footprint — bounds, step, init, index register, task links, entry and
//! exit targets and masks — live from the tables. [`decide`] stays the
//! executable specification: [`Zolc::decide_at`] exposes the compiled
//! decision, and `crates/core/tests/footprint.rs` holds the two equal.
//!
//! The footprint and its sites are rebuilt together on `zctl.on` and on
//! every `zwr` made while active that writes a record address, a valid
//! bit or an entry redirect (the one cached field outside the footprint);
//! initialization sequences run before activation and so trigger no
//! rebuilds.
//!
//! # Granted iterates
//!
//! The site table also answers [`LoopEngine::iterations`]: at a task end
//! (uZOLC: loop 0's end) without entry or exit records, when the current
//! task's loop iterates with no loop finishing first, the next
//! `limit − 1 − count` decisions there are the same iterate — the same
//! redirect, the index advancing by the step, the same loop-entry rider
//! writes — if the task iterates into itself, and one decision
//! otherwise. The controller grants them only while idle (empty journal,
//! nothing pending, speculative state equal to architectural) and never
//! where the count would wrap; [`LoopEngine::retire_iterations`] applies
//! `n` of them to both states at once, in closed form.

use crate::config::ZolcConfig;
use crate::dynamics::{Decision, DynState};
use crate::sites::{invalidates, Outcome, SiteTable};
use crate::tables::{WriteEffect, ZolcTables};
use std::collections::VecDeque;
use zolc_isa::{Reg, ZolcCtl, ZolcRegion};
use zolc_sim::{ExecEvent, FetchDecision, Iterations, LoopEngine, RegWrites};

/// The lead an in-loop `zwr` needs before the end of a loop whose record
/// it writes: counting from the instruction after the `zwr` through the
/// end instruction, at least this many, so the write retires before the
/// end address is fetched. With less, the fetch-time decision at the end
/// reads the old record and its retire-time replay the new one, and the
/// journal check records the mismatch as a violation
/// ([`Zolc::violations`]). The forward lowering and the retargeter both
/// pad their limit updates to this lead.
pub const ZWR_LEAD: usize = 3;

/// The zero-overhead loop controller.
///
/// # Examples
///
/// Directly exercising the engine interface (normally the pipeline does
/// this):
///
/// ```
/// use zolc_core::{Zolc, ZolcConfig};
/// use zolc_sim::LoopEngine;
/// use zolc_isa::ZolcCtl;
///
/// let mut z = Zolc::new(ZolcConfig::full());
/// z.exec_zctl(ZolcCtl::Activate { task: 0 });
/// assert!(z.arch_state().active);
/// z.exec_zctl(ZolcCtl::Deactivate);
/// assert!(!z.arch_state().active);
/// ```
#[derive(Debug, Clone)]
pub struct Zolc {
    tables: ZolcTables,
    arch: DynState,
    spec: DynState,
    /// Set only when `spec == arch` is known without comparing them.
    synced: bool,
    journal: VecDeque<Fetched>,
    /// The rider writes of the journaled decisions, in journal order.
    riders: VecDeque<(Reg, u32)>,
    /// A decision made with nothing in flight, not yet journaled (see
    /// the module docs).
    pending: Option<(u32, Outcome, RegWrites)>,
    violations: Vec<String>,
    /// The hook footprint and its sites as of the last activation or
    /// site-invalidating `zwr` while active.
    sites: SiteTable,
}

/// A journaled fetch-time decision without its rider writes, which wait
/// in [`Zolc::riders`].
#[derive(Debug, Clone, Copy)]
struct Fetched {
    pc: u32,
    outcome: Outcome,
    riders: u8,
}

impl Zolc {
    /// Creates a controller with empty tables in inactive mode.
    pub fn new(config: ZolcConfig) -> Zolc {
        Zolc {
            tables: ZolcTables::new(config),
            arch: DynState::default(),
            spec: DynState::default(),
            synced: true,
            journal: VecDeque::new(),
            riders: VecDeque::new(),
            pending: None,
            violations: Vec::new(),
            sites: SiteTable::default(),
        }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &ZolcConfig {
        self.tables.config()
    }

    /// The table contents.
    pub fn tables(&self) -> &ZolcTables {
        &self.tables
    }

    /// Mutable table access for test set-up (bypassing the instruction
    /// interface).
    #[cfg(test)]
    pub(crate) fn tables_mut(&mut self) -> &mut ZolcTables {
        &mut self.tables
    }

    /// The architectural dynamic state.
    pub fn arch_state(&self) -> &DynState {
        &self.arch
    }

    /// The speculative dynamic state.
    pub fn spec_state(&self) -> &DynState {
        &self.spec
    }

    /// Configuration violations and consistency-check failures recorded so
    /// far (empty on a correct run).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// The decision the controller's hooks make at `pc` in state `st`,
    /// through its site table, updating `st` in place.
    ///
    /// While the controller is active this equals
    /// [`decide`](crate::decide)`(self.tables(), st, pc)`. The site table
    /// is maintained only while active, so an inactive controller
    /// returns the trivial decision and leaves `st` alone.
    pub fn decide_at(&self, st: &mut DynState, pc: u32) -> Decision {
        match self.sites.find(pc) {
            Some(i) if self.arch.active => self.sites.decision(&self.tables, st, i),
            _ => Decision::default(),
        }
    }

    /// Activates the controller directly (equivalent to executing
    /// `zctl.on task`).
    pub fn activate(&mut self, task: u8) {
        self.exec_zctl(ZolcCtl::Activate { task });
    }

    /// Panics if any violation was recorded (test helper).
    ///
    /// # Panics
    ///
    /// Panics with the list of violations when the run was inconsistent.
    pub fn assert_consistent(&self) {
        assert!(
            self.violations.is_empty(),
            "ZOLC violations: {:#?}",
            self.violations
        );
    }

    /// Whether nothing is in flight: an empty journal and speculative
    /// state equal to architectural.
    fn idle(&mut self) -> bool {
        debug_assert!(!self.synced || self.spec == self.arch);
        if !self.journal.is_empty() {
            return false;
        }
        self.synced = self.synced || self.spec == self.arch;
        self.synced
    }

    /// Journals a non-trivial fetch-time decision with rider writes `w`.
    fn journal(&mut self, pc: u32, outcome: Outcome, w: &RegWrites) {
        if !w.is_empty() {
            self.riders.extend(w.iter());
        }
        self.journal.push_back(Fetched {
            pc,
            outcome,
            riders: w.len() as u8,
        });
    }

    /// Files a pending decision into the journal (a no-op if there is
    /// none, or if it was trivial).
    #[inline]
    fn file_pending(&mut self) {
        if let Some((pc, o, w)) = self.pending.take() {
            if !o.is_trivial(&w) {
                self.journal(pc, o, &w);
            }
        }
    }

    /// Replays the decision at `pc`, site `i`, on architectural state
    /// and checks it against the journal.
    fn replay(&mut self, pc: u32, i: usize) {
        let mut w = RegWrites::new();
        let o = self.sites.decide(&self.tables, &mut self.arch, i, &mut w);
        self.synced = false;
        if !o.is_trivial(&w) {
            self.check_replay(pc, o, w);
        }
    }

    /// Checks a non-trivial retire-time replay against the oldest
    /// journaled fetch-time decision.
    #[inline]
    fn check_replay(&mut self, pc: u32, outcome: Outcome, w: RegWrites) {
        let Some(f) = self.journal.pop_front() else {
            self.unmatched_replay(pc, outcome.decision(w));
            return;
        };
        let n = usize::from(f.riders);
        let same = f.pc == pc
            && f.outcome == outcome
            && n == w.len()
            && (n == 0 || self.riders.iter().take(n).copied().eq(w.iter()));
        if !same {
            self.mismatched_replay(pc, outcome.decision(w), f);
        }
        if n > 0 {
            self.riders.drain(..n);
        }
    }

    /// Records a non-trivial replay `d` that no journaled decision awaits.
    #[cold]
    #[inline(never)]
    fn unmatched_replay(&mut self, pc: u32, d: Decision) {
        self.record_violation(format!(
            "retire-time decision {d:?} at {pc:#x} had no fetch-time counterpart"
        ));
    }

    /// Records a replay `d` that differs from the journaled decision `f`
    /// (whose rider writes still head [`Zolc::riders`]).
    #[cold]
    #[inline(never)]
    fn mismatched_replay(&mut self, pc: u32, d: Decision, f: Fetched) {
        let mut jw = RegWrites::new();
        for &(r, v) in self.riders.iter().take(usize::from(f.riders)) {
            jw.push(r, v);
        }
        let jd = f.outcome.decision(jw);
        let jpc = f.pc;
        self.record_violation(format!(
            "decision mismatch at {pc:#x}: fetch made {jd:?} at {jpc:#x}, retire replayed {d:?} \
             (an in-loop zwr probably executed between the fetch and retire of a task end)"
        ));
    }

    /// Applies the exit record `x` to the architectural state: its
    /// branch at `pc` was taken to `target`.
    fn take_exit(&mut self, pc: u32, x: usize, target: u32) {
        let rec = self.tables.exits()[x];
        if rec.target != 0 && rec.target != target {
            self.record_violation(format!(
                "exit record at {pc:#x} expected target {:#x}, branch went to {target:#x}",
                rec.target
            ));
        }
        self.arch.current_task = rec.target_task;
        for k in ZolcTables::loops_in_mask(rec.clear_mask) {
            self.arch.counts[usize::from(k)] = 0;
        }
        self.synced = false;
        // The taken branch flushes the pipeline right after this call;
        // on_flush copies arch (with the exit applied) over spec.
    }

    fn record_violation(&mut self, msg: String) {
        // Bound memory usage on pathological runs.
        if self.violations.len() < 64 {
            self.violations.push(msg);
        }
    }
}

impl LoopEngine for Zolc {
    fn on_fetch(&mut self, pc: u32) -> FetchDecision {
        self.file_pending();
        // Outside the footprint every decision is trivial.
        let Some(site) = self.sites.lookup(pc) else {
            return FetchDecision::default();
        };
        let idle = self.idle();
        let mut w = RegWrites::new();
        let o = self
            .sites
            .decide(&self.tables, &mut self.spec, site, &mut w);
        self.synced = false;
        if idle {
            self.pending = Some((pc, o, w));
        } else if !o.is_trivial(&w) {
            self.journal(pc, o, &w);
        }
        // Build the decision in place: `default` (unlike `none`) inlines,
        // and a rider-free decision needs no copy.
        if w.is_empty() {
            return FetchDecision {
                redirect: o.redirect,
                index_writes: RegWrites::default(),
            };
        }
        FetchDecision {
            redirect: o.redirect,
            index_writes: w,
        }
    }

    fn on_execute(&mut self, pc: u32, event: ExecEvent) {
        let site = match self.pending {
            Some((ppc, ..)) if ppc == pc => {
                // Nothing ran since the idle fetch of this instruction, so
                // replaying its decision on architectural state would
                // reproduce the speculative state exactly.
                self.pending = None;
                self.arch = self.spec;
                self.synced = true;
                self.sites.lookup(pc)
            }
            _ => {
                self.file_pending();
                let site = self.sites.lookup(pc);
                if let Some(i) = site {
                    self.replay(pc, i);
                }
                site
            }
        };

        // Multiple-exit records: a taken branch at a registered address
        // re-targets the current task and clears the exited loops' counters.
        if let ExecEvent::Taken { target } = event {
            if !self.arch.active {
                return;
            }
            if let Some(x) = site.and_then(|i| self.sites.exit(i)) {
                self.take_exit(pc, x, target);
            }
        }
    }

    fn exec_zwr(&mut self, region: ZolcRegion, index: u8, field: u8, value: u32) {
        self.file_pending();
        match self.tables.write(region, index, field, value) {
            Ok(WriteEffect::Static) => {
                if self.arch.active && invalidates(region, field) {
                    self.sites.rebuild(&self.tables);
                }
            }
            Ok(WriteEffect::Count { loop_id, value }) => {
                let k = usize::from(loop_id);
                if k < self.arch.counts.len() {
                    self.arch.counts[k] = value;
                    self.spec.counts[k] = value;
                }
            }
            Err(e) => self.record_violation(format!("zwr rejected: {e}")),
        }
    }

    fn exec_zctl(&mut self, op: ZolcCtl) {
        self.file_pending();
        match op {
            ZolcCtl::Activate { task } => {
                self.arch.active = true;
                self.arch.current_task = task;
                self.spec = self.arch;
                self.sites.rebuild(&self.tables);
            }
            ZolcCtl::Deactivate => {
                self.arch.active = false;
                self.spec = self.arch;
            }
            ZolcCtl::Reset => {
                self.tables.reset();
                self.arch = DynState::default();
                self.spec = DynState::default();
                self.journal.clear();
                self.riders.clear();
            }
        }
        self.synced = true;
    }

    fn on_flush(&mut self) {
        if !self.synced {
            self.spec = self.arch;
            self.synced = true;
        }
        self.journal.clear();
        self.riders.clear();
        self.pending = None;
    }

    fn hook_pcs(&self) -> Option<&[u32]> {
        Some(if self.arch.active {
            self.sites.pcs()
        } else {
            &[]
        })
    }

    fn iterations(&self, pc: u32) -> Option<Iterations> {
        let idle = self.journal.is_empty()
            && self.pending.is_none()
            && (self.synced || self.spec == self.arch);
        if !idle {
            return None;
        }
        let i = self.sites.find(pc)?;
        self.sites.iterations(&self.tables, &self.arch, i)
    }

    fn retire_iterations(&mut self, pc: u32, n: u32) {
        if n == 0 {
            return;
        }
        let i = self.sites.find(pc).expect("iterates retire at a site");
        self.sites
            .retire_iterations(&self.tables, &mut self.arch, i, n);
        self.spec = self.arch;
        self.synced = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TASK_NONE;
    use crate::tables::{LoopRecord, TaskRecord};
    use zolc_isa::{loop_field, reg, task_field};

    fn controller_with_loop() -> Zolc {
        let mut z = Zolc::new(ZolcConfig::lite());
        z.tables_mut().loops_mut()[0] = LoopRecord {
            init: 0,
            step: 1,
            limit: 2,
            index_reg: Some(reg(4)),
            start: 0x10,
            end: 0x18,
            flags: 0,
        };
        z.tables_mut().tasks_mut()[0] = TaskRecord {
            end: 0x18,
            loop_id: 0,
            next_iter: 0,
            next_fallthru: TASK_NONE,
            valid: true,
            flags: 0,
        };
        z.activate(0);
        z
    }

    #[test]
    fn fetch_then_execute_is_consistent() {
        let mut z = controller_with_loop();
        // walk the loop exactly as the pipeline would: fetch then retire
        for pc in [0x0c, 0x10, 0x14, 0x18, 0x10, 0x14, 0x18, 0x1c] {
            let _ = z.on_fetch(pc);
            z.on_execute(pc, ExecEvent::Plain);
        }
        z.assert_consistent();
        assert_eq!(z.arch_state().counts[0], 0);
        assert_eq!(z.arch_state(), z.spec_state());
    }

    #[test]
    fn functional_drive_pattern_with_flush_mirroring_is_consistent() {
        // The functional executor's schedule: fetch/execute strictly
        // alternate and on_flush is mirrored after taken transfers; spec
        // and arch state must track each other exactly throughout.
        let mut z = controller_with_loop();
        for pc in [0x0c, 0x10, 0x14, 0x18, 0x10, 0x14, 0x18, 0x1c] {
            let _ = z.on_fetch(pc);
            z.on_execute(pc, ExecEvent::Plain);
            z.on_flush(); // worst case: mirror a flush after every instr
            assert_eq!(z.arch_state(), z.spec_state());
        }
        z.assert_consistent();
        assert_eq!(z.arch_state().counts[0], 0);
    }

    #[test]
    fn speculative_state_rolls_back_on_flush() {
        let mut z = controller_with_loop();
        let _ = z.on_fetch(0x0c);
        z.on_execute(0x0c, ExecEvent::Plain);
        // fetch the task end speculatively (advances spec)…
        let d = z.on_fetch(0x18);
        assert_eq!(d.redirect, Some(0x10));
        assert_eq!(z.spec_state().counts[0], 1);
        assert_eq!(z.arch_state().counts[0], 0);
        // …but a flush squashes it before it retires
        z.on_flush();
        assert_eq!(z.spec_state().counts[0], 0);
        z.assert_consistent();
    }

    #[test]
    fn mis_scheduled_zwr_is_detected() {
        let mut z = controller_with_loop();
        let _ = z.on_fetch(0x0c);
        z.on_execute(0x0c, ExecEvent::Plain);
        // fetch decision for the end uses limit=2 (iterate)…
        let _ = z.on_fetch(0x18);
        // …then a zwr changes the limit before the end retires
        z.exec_zwr(ZolcRegion::Loop, 0, loop_field::LIMIT, 1);
        z.on_execute(0x18, ExecEvent::Plain);
        assert!(!z.violations().is_empty());
    }

    #[test]
    fn zwr_count_updates_both_states() {
        let mut z = controller_with_loop();
        z.exec_zwr(ZolcRegion::Loop, 0, loop_field::COUNT, 5);
        assert_eq!(z.arch_state().counts[0], 5);
        assert_eq!(z.spec_state().counts[0], 5);
    }

    #[test]
    fn invalid_zwr_recorded_as_violation() {
        let mut z = Zolc::new(ZolcConfig::lite());
        z.exec_zwr(ZolcRegion::Exit, 0, 0, 0); // lite has no exit records
        assert_eq!(z.violations().len(), 1);
    }

    #[test]
    fn reset_clears_state_and_tables() {
        let mut z = controller_with_loop();
        z.exec_zctl(ZolcCtl::Reset);
        assert!(!z.arch_state().active);
        assert_eq!(z.tables().loop_rec(0).unwrap().limit, 0);
    }

    #[test]
    fn footprint_is_empty_while_inactive() {
        let mut z = Zolc::new(ZolcConfig::lite());
        assert_eq!(z.hook_pcs(), Some(&[][..]));
        // Init writes before activation leave it empty and uncomputed.
        z.exec_zwr(ZolcRegion::Loop, 0, loop_field::START, 0x10);
        z.exec_zwr(ZolcRegion::Task, 0, task_field::END, 0x18);
        z.exec_zwr(ZolcRegion::Task, 0, task_field::CTL, 1);
        assert_eq!(z.hook_pcs(), Some(&[][..]));
        assert!(z.sites.pcs().is_empty());
        z.activate(0);
        // Unused loop records start at 0: their entry pc wraps out of text.
        assert_eq!(z.hook_pcs(), Some(&[0x0c, 0x18, 0xffff_fffc][..]));
        z.exec_zctl(ZolcCtl::Deactivate);
        assert_eq!(z.hook_pcs(), Some(&[][..]));
    }

    #[test]
    fn footprint_follows_address_writes_while_active() {
        let mut z = controller_with_loop();
        assert_eq!(z.hook_pcs(), Some(&[0x0c, 0x18, 0xffff_fffc][..]));
        z.exec_zwr(ZolcRegion::Task, 0, task_field::END, 0x40);
        assert_eq!(z.hook_pcs(), Some(&[0x0c, 0x40, 0xffff_fffc][..]));
        z.exec_zwr(ZolcRegion::Loop, 0, loop_field::START, 0x20);
        assert_eq!(z.hook_pcs(), Some(&[0x1c, 0x40, 0xffff_fffc][..]));
        z.exec_zwr(ZolcRegion::Task, 0, task_field::CTL, 0);
        assert_eq!(z.hook_pcs(), Some(&[0x1c, 0xffff_fffc][..]));
        // Bounds are not addresses: the footprint stays.
        z.exec_zwr(ZolcRegion::Loop, 0, loop_field::LIMIT, 9);
        assert_eq!(z.hook_pcs(), Some(&[0x1c, 0xffff_fffc][..]));
    }

    #[test]
    fn micro_footprint_names_loop_zero_end() {
        let mut z = Zolc::new(ZolcConfig::micro());
        z.exec_zwr(ZolcRegion::Loop, 0, loop_field::START, 0x10);
        z.exec_zwr(ZolcRegion::Loop, 0, loop_field::END, 0x18);
        z.activate(0);
        assert_eq!(z.hook_pcs(), Some(&[0x0c, 0x18][..]));
    }

    #[test]
    fn pending_decision_is_journaled_when_another_call_intervenes() {
        // Fetch the task end with nothing in flight, then change the
        // limit before it retires: the pending decision must be checked
        // against the replay like any journaled one.
        let mut z = controller_with_loop();
        let _ = z.on_fetch(0x0c);
        z.on_execute(0x0c, ExecEvent::Plain);
        let d = z.on_fetch(0x18);
        assert_eq!(d.redirect, Some(0x10));
        z.exec_zwr(ZolcRegion::Loop, 0, loop_field::LIMIT, 1);
        z.on_execute(0x18, ExecEvent::Plain);
        assert_eq!(z.violations().len(), 1);
        // Without the write, the replay is skipped and the states agree.
        let mut z = controller_with_loop();
        let _ = z.on_fetch(0x18);
        z.on_execute(0x18, ExecEvent::Plain);
        z.assert_consistent();
        assert_eq!(z.arch_state(), z.spec_state());
        assert_eq!(z.arch_state().counts[0], 1);
    }

    #[test]
    fn deactivate_stops_decisions() {
        let mut z = controller_with_loop();
        z.exec_zctl(ZolcCtl::Deactivate);
        let d = z.on_fetch(0x18);
        assert_eq!(d.redirect, None);
    }
}
