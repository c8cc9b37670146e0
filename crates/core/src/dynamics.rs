//! The task selection unit's decision logic and the controller's dynamic
//! state.
//!
//! [`DynState`] is everything that changes while the controller is in
//! *active* mode: per-loop iteration counts, the shadow of each loop's
//! current index value, and the current task. The controller keeps **two**
//! copies: a *speculative* one advanced at fetch time (so redirects cost
//! zero cycles) and an *architectural* one advanced when instructions
//! retire; pipeline flushes copy architectural over speculative.
//!
//! [`decide`] is the combinational decision evaluated at a fetch address:
//!
//! 1. **multiple-entry records** (ZOLCfull): fetching a registered entry
//!    address re-targets the current task and initializes the loops named
//!    by the record's mask;
//! 2. **task-end matching**: when the fetched instruction is the current
//!    task's end, the associated loop either *iterates* (count++, index +=
//!    step, redirect to the loop start — the zero-overhead back edge) or
//!    *finishes* (count resets and the lookup **chains** to the
//!    fall-through task if it ends at the same address — this is how
//!    successive last iterations of nested loops complete in a single
//!    cycle);
//! 3. **loop-entry initialization**: if the *next* instruction address is
//!    the start of a loop whose count is zero, that loop is being entered;
//!    its index register is initialized through the dedicated write port.
//!    The write rides on the instruction *preceding* the body so the first
//!    body instruction already observes it via forwarding.
//!
//! A decision carries at most one index write per loop: when a later
//! step writes a loop's index again, that write replaces the earlier one
//! (the rider is last-write-wins, so no register's final value changes),
//! and [`MAX_LOOPS`] rider slots always suffice.

use crate::config::{MAX_LOOPS, TASK_NONE};
use crate::tables::ZolcTables;
use zolc_isa::Reg;
use zolc_sim::RegWrites;

/// Dynamic (mode-dependent) controller state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynState {
    /// Whether the controller is in active mode.
    pub active: bool,
    /// The task whose end address fetch currently watches ([`TASK_NONE`]
    /// when no task is being tracked).
    pub current_task: u8,
    /// Iterations completed by each loop in its current activation.
    pub counts: [u32; MAX_LOOPS],
    /// Shadow of each loop's current index value (mirrors the index
    /// register file contents including in-flight rider writes).
    pub index_cur: [u32; MAX_LOOPS],
}

impl Default for DynState {
    fn default() -> Self {
        DynState {
            active: false,
            current_task: TASK_NONE,
            counts: [0; MAX_LOOPS],
            index_cur: [0; MAX_LOOPS],
        }
    }
}

/// What a fetch-time decision did (recorded for consistency checking).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecisionKind {
    /// Nothing matched.
    #[default]
    None,
    /// A multiple-entry record fired.
    Entry,
    /// A loop iterated: redirect to its start.
    Iterate {
        /// The iterating loop.
        loop_id: u8,
        /// Number of enclosing loops that finished first in the same cycle.
        chained: u8,
    },
    /// One or more loops finished; control falls through.
    Finish {
        /// Number of loops that finished in this cycle.
        depth: u8,
    },
}

/// The outcome of evaluating the controller at one fetch address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Decision {
    /// Next-fetch override (the zero-overhead task switch).
    pub redirect: Option<u32>,
    /// Index-register writes riding on the fetched instruction.
    pub writes: RegWrites,
    /// Classification for the journal/consistency checker.
    pub kind: DecisionKind,
}

impl Decision {
    /// Whether the decision had any externally visible effect.
    pub fn is_trivial(&self) -> bool {
        self.redirect.is_none() && self.writes.is_empty() && self.kind == DecisionKind::None
    }
}

/// Adds loop `k`'s index write to `w`. `written` marks the loops that
/// already have one; a second write of the same loop (to the same
/// register) supersedes the first.
pub(crate) fn ride(w: &mut RegWrites, written: &mut u8, k: usize, r: Reg, v: u32) {
    if *written & (1 << k) != 0 {
        w.supersede(r, v);
    } else {
        *written |= 1 << k;
        w.push(r, v);
    }
}

/// Evaluates the task-selection and index-calculation logic at `pc`,
/// updating `st` in place.
///
/// This function is *pure hardware semantics*: the controller calls it on
/// the speculative state at fetch and replays it on the architectural
/// state at retire, asserting both produce identical [`Decision`]s.
pub fn decide(tables: &ZolcTables, st: &mut DynState, pc: u32) -> Decision {
    let mut d = Decision::default();
    if !st.active {
        return d;
    }
    let mut written = 0u8;

    // 1. Multiple-entry records (ZOLCfull). The entry address is inside
    // the loop body, so it is fetched again on every iteration; the
    // initialization applies only when the named loops are dormant
    // (count 0), i.e. on genuine entry from outside — internal revisits
    // leave the running counters alone.
    if let Some(rec) = tables.entry_at(pc).copied() {
        st.current_task = rec.task;
        let mut fired = false;
        for k in ZolcTables::loops_in_mask(rec.init_mask) {
            let ki = usize::from(k);
            if st.counts[ki] != 0 {
                continue;
            }
            if let Some(l) = tables.loop_rec(k).copied() {
                st.index_cur[ki] = l.init;
                if let Some(r) = l.index_reg {
                    ride(&mut d.writes, &mut written, ki, r, l.init);
                }
                fired = true;
            }
        }
        if fired {
            if rec.redirect != 0 {
                d.redirect = Some(rec.redirect);
            }
            d.kind = DecisionKind::Entry;
        }
    }

    // 2. Task-end matching with chaining.
    if tables.config().tasks() == 0 {
        // uZOLC: one implicit loop, no LUT.
        if let Some(l) = tables.loop_rec(0).copied() {
            if l.limit != 0 && pc == l.end {
                let count = st.counts[0].wrapping_add(1);
                if count < l.limit {
                    st.counts[0] = count;
                    st.index_cur[0] = st.index_cur[0].wrapping_add(l.step);
                    if let Some(r) = l.index_reg {
                        ride(&mut d.writes, &mut written, 0, r, st.index_cur[0]);
                    }
                    d.redirect = Some(l.start);
                    d.kind = DecisionKind::Iterate {
                        loop_id: 0,
                        chained: 0,
                    };
                } else {
                    st.counts[0] = 0;
                    d.kind = DecisionKind::Finish { depth: 1 };
                }
            }
        }
    } else {
        let mut chained = 0u8;
        let mut t = st.current_task;
        while let Some(task) = tables
            .task(t)
            .copied()
            .filter(|rec| rec.valid && rec.end == pc)
        {
            let lid = usize::from(task.loop_id);
            let Some(l) = tables.loop_rec(task.loop_id).copied() else {
                break;
            };
            let count = st.counts[lid].wrapping_add(1);
            if count < l.limit {
                st.counts[lid] = count;
                st.index_cur[lid] = st.index_cur[lid].wrapping_add(l.step);
                if let Some(r) = l.index_reg {
                    ride(&mut d.writes, &mut written, lid, r, st.index_cur[lid]);
                }
                st.current_task = task.next_iter;
                d.redirect = Some(l.start);
                d.kind = DecisionKind::Iterate {
                    loop_id: task.loop_id,
                    chained,
                };
                break;
            }
            // Last iteration: reset and chain to the fall-through task.
            st.counts[lid] = 0;
            st.current_task = task.next_fallthru;
            t = task.next_fallthru;
            chained += 1;
            d.kind = DecisionKind::Finish { depth: chained };
            // A chain runs through distinct tasks into a cycle of
            // fall-through links. One pass round the cycle leaves each
            // of its counts at 0; if the next pass finishes every task
            // too, so does every later one. A chain that ends thus
            // finishes fewer than twice the tasks the table holds.
            if usize::from(chained) >= 2 * tables.tasks().len() {
                break;
            }
        }
    }

    // 3. Loop-entry initialization for the *next* address. (Not guarded
    // on `limit`: data-dependent limits may be written between this entry
    // detection and the first task-end; unused records cannot false-match
    // because `start == 0` only equals `pc + 4` for pc = 0xfffffffc.)
    let next = d.redirect.unwrap_or_else(|| pc.wrapping_add(4));
    for (k, l) in tables.loops().iter().enumerate() {
        if l.start == next && st.counts[k] == 0 {
            st.index_cur[k] = l.init;
            if let Some(r) = l.index_reg {
                ride(&mut d.writes, &mut written, k, r, l.init);
            }
        }
    }

    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ZolcConfig;
    use crate::tables::{LoopRecord, TaskRecord};
    use zolc_isa::reg;

    /// One loop: body 0x10..=0x1c, 3 iterations, index r5 = 100 + 10*k.
    fn single_loop_tables(config: ZolcConfig) -> ZolcTables {
        let mut t = ZolcTables::new(config);
        t.loops_mut()[0] = LoopRecord {
            init: 100,
            step: 10,
            limit: 3,
            index_reg: Some(reg(5)),
            start: 0x10,
            end: 0x1c,
            flags: 0,
        };
        if t.config().tasks() > 0 {
            t.tasks_mut()[0] = TaskRecord {
                end: 0x1c,
                loop_id: 0,
                next_iter: 0,
                next_fallthru: TASK_NONE,
                valid: true,
                flags: 0,
            };
        }
        t
    }

    fn active_state() -> DynState {
        DynState {
            active: true,
            current_task: 0,
            ..DynState::default()
        }
    }

    #[test]
    fn inactive_controller_never_decides() {
        let t = single_loop_tables(ZolcConfig::lite());
        let mut st = DynState::default();
        let d = decide(&t, &mut st, 0x1c);
        assert!(d.is_trivial());
    }

    #[test]
    fn entry_initialization_rides_the_preceding_instruction() {
        let t = single_loop_tables(ZolcConfig::lite());
        let mut st = active_state();
        // fetching 0x0c (pc+4 == 0x10 == loop start) initializes the index
        let d = decide(&t, &mut st, 0x0c);
        assert_eq!(d.redirect, None);
        assert_eq!(d.writes.value_for(reg(5)), Some(100));
        assert_eq!(st.index_cur[0], 100);
    }

    #[test]
    fn iterate_then_finish() {
        let t = single_loop_tables(ZolcConfig::lite());
        let mut st = active_state();
        decide(&t, &mut st, 0x0c); // entry init

        // end of iteration 0: iterate, index 110, redirect to start
        let d1 = decide(&t, &mut st, 0x1c);
        assert_eq!(d1.redirect, Some(0x10));
        assert_eq!(d1.writes.value_for(reg(5)), Some(110));
        assert_eq!(st.counts[0], 1);
        assert!(matches!(d1.kind, DecisionKind::Iterate { loop_id: 0, .. }));

        // end of iteration 1: iterate, index 120
        let d2 = decide(&t, &mut st, 0x1c);
        assert_eq!(d2.writes.value_for(reg(5)), Some(120));

        // end of iteration 2 (last): finish, fall through, count resets
        let d3 = decide(&t, &mut st, 0x1c);
        assert_eq!(d3.redirect, None);
        assert!(d3.writes.is_empty());
        assert_eq!(st.counts[0], 0);
        assert_eq!(st.current_task, TASK_NONE);
        assert_eq!(d3.kind, DecisionKind::Finish { depth: 1 });
    }

    #[test]
    fn micro_variant_behaves_like_single_loop() {
        let t = single_loop_tables(ZolcConfig::micro());
        let mut st = active_state();
        decide(&t, &mut st, 0x0c);
        let d1 = decide(&t, &mut st, 0x1c);
        assert_eq!(d1.redirect, Some(0x10));
        decide(&t, &mut st, 0x1c);
        let d3 = decide(&t, &mut st, 0x1c);
        assert_eq!(d3.redirect, None);
        assert_eq!(st.counts[0], 0);
    }

    /// Perfect 2-nest: both loops end at 0x28; inner body 0x10..=0x28 (3x),
    /// outer 2x. Chained completion must handle the inner-finish +
    /// outer-iterate case in a single decision.
    fn perfect_nest_tables() -> ZolcTables {
        let mut t = ZolcTables::new(ZolcConfig::lite());
        t.loops_mut()[0] = LoopRecord {
            init: 0,
            step: 1,
            limit: 3,
            index_reg: Some(reg(6)),
            start: 0x10,
            end: 0x28,
            flags: 0,
        };
        t.loops_mut()[1] = LoopRecord {
            init: 0,
            step: 4,
            limit: 2,
            index_reg: Some(reg(7)),
            start: 0x10, // perfect nest: same body start
            end: 0x28,
            flags: 0,
        };
        t.tasks_mut()[0] = TaskRecord {
            end: 0x28,
            loop_id: 0,
            next_iter: 0,
            next_fallthru: 1,
            valid: true,
            flags: 0,
        };
        t.tasks_mut()[1] = TaskRecord {
            end: 0x28,
            loop_id: 1,
            next_iter: 0,
            next_fallthru: TASK_NONE,
            valid: true,
            flags: 0,
        };
        t
    }

    #[test]
    fn perfect_nest_chains_in_one_decision() {
        let t = perfect_nest_tables();
        let mut st = active_state();
        decide(&t, &mut st, 0x0c); // init both indices (same start, counts 0)
        assert_eq!(st.index_cur[0], 0);
        assert_eq!(st.index_cur[1], 0);

        // inner iterates twice
        for k in 1..3u32 {
            let d = decide(&t, &mut st, 0x28);
            assert_eq!(d.redirect, Some(0x10));
            assert_eq!(d.writes.value_for(reg(6)), Some(k));
        }
        // inner finishes AND outer iterates in the same cycle: redirect to
        // body start, outer index steps to 4, inner index re-initializes.
        let d = decide(&t, &mut st, 0x28);
        assert_eq!(d.redirect, Some(0x10));
        assert_eq!(d.writes.value_for(reg(7)), Some(4));
        assert_eq!(d.writes.value_for(reg(6)), Some(0)); // re-init via step 3
        assert!(matches!(
            d.kind,
            DecisionKind::Iterate {
                loop_id: 1,
                chained: 1
            }
        ));
        assert_eq!(st.counts[0], 0);
        assert_eq!(st.counts[1], 1);
        assert_eq!(st.current_task, 0);

        // run inner again to completion; then both finish at once
        decide(&t, &mut st, 0x28);
        decide(&t, &mut st, 0x28);
        let last = decide(&t, &mut st, 0x28);
        assert_eq!(last.redirect, None);
        assert_eq!(last.kind, DecisionKind::Finish { depth: 2 });
        assert_eq!(st.current_task, TASK_NONE);
        assert_eq!(st.counts, [0; MAX_LOOPS]);
    }

    #[test]
    fn a_count_of_u32_max_wraps_and_iterates() {
        for config in [ZolcConfig::micro(), ZolcConfig::lite()] {
            let t = single_loop_tables(config);
            let mut st = active_state();
            st.counts[0] = u32::MAX;
            let d = decide(&t, &mut st, 0x1c);
            assert_eq!(d.redirect, Some(0x10), "{config}");
            assert_eq!(st.counts[0], 0, "{config}");
        }
    }

    /// The perfect nest's two loops and tasks on a table of just those
    /// two tasks, with fall-throughs 0 → 1 → 0 and loop limits `limits`.
    fn cyclic_chain_tables(limits: [u32; 2]) -> ZolcTables {
        let nest = perfect_nest_tables();
        let mut t = ZolcTables::new(ZolcConfig::custom(2, 2, 0, 0).unwrap());
        for (k, limit) in limits.into_iter().enumerate() {
            t.loops_mut()[k] = LoopRecord {
                limit,
                ..nest.loops()[k]
            };
            t.tasks_mut()[k] = TaskRecord {
                next_fallthru: 1 - k as u8,
                ..nest.tasks()[k]
            };
        }
        t
    }

    #[test]
    fn a_chain_that_never_ends_stops_at_twice_the_task_table() {
        let t = cyclic_chain_tables([1, 1]);
        let mut st = active_state();
        let d = decide(&t, &mut st, 0x28);
        assert_eq!(d.redirect, None);
        assert_eq!(d.kind, DecisionKind::Finish { depth: 4 });
    }

    #[test]
    fn a_chain_that_finishes_more_tasks_than_the_table_holds_can_end() {
        // Task 0 finishes, task 1 finishes on its last count, task 0
        // finishes again, and task 1, back at count 0, iterates.
        let t = cyclic_chain_tables([1, 5]);
        let mut st = active_state();
        st.counts[1] = 4;
        let d = decide(&t, &mut st, 0x28);
        assert_eq!(d.redirect, Some(0x10));
        assert_eq!(
            d.kind,
            DecisionKind::Iterate {
                loop_id: 1,
                chained: 3
            }
        );
        assert_eq!(st.counts[..2], [0, 1]);
    }

    #[test]
    fn entry_record_retargets_task_and_inits_loops() {
        let mut t = single_loop_tables(ZolcConfig::full());
        {
            let e = &mut t.entries_mut()[0];
            e.addr = 0x40;
            e.task = 0;
            e.init_mask = 0b1;
            e.redirect = 0x10;
            e.valid = true;
        }
        let mut st = DynState {
            active: true,
            current_task: TASK_NONE,
            ..DynState::default()
        };
        let d = decide(&t, &mut st, 0x40);
        assert_eq!(d.kind, DecisionKind::Entry);
        assert_eq!(d.redirect, Some(0x10));
        assert_eq!(d.writes.value_for(reg(5)), Some(100));
        assert_eq!(st.current_task, 0);
    }

    #[test]
    fn one_rider_write_per_loop_however_many_steps_write_it() {
        // Eight loops start right after an entry record that initializes
        // all of them: steps 1 and 3 both write every index. The later
        // write replaces the earlier, so eight writes ride, in order.
        let mut t = ZolcTables::new(ZolcConfig::full());
        for (k, l) in t.loops_mut().iter_mut().enumerate() {
            *l = LoopRecord {
                init: 10 * k as u32,
                step: 1,
                limit: 2,
                index_reg: Some(reg(8 + k as u8)),
                start: 0x44,
                end: 0x48,
                flags: 0,
            };
        }
        let e = &mut t.entries_mut()[0];
        (e.addr, e.init_mask, e.valid) = (0x40, 0xff, true);
        let mut st = active_state();
        let d = decide(&t, &mut st, 0x40);
        assert_eq!(d.kind, DecisionKind::Entry);
        let writes: Vec<_> = d.writes.iter().collect();
        let want: Vec<_> = (0..8u8).map(|k| (reg(8 + k), 10 * u32::from(k))).collect();
        assert_eq!(writes, want);
    }

    #[test]
    fn zero_limit_loop_degenerates_to_fall_through() {
        let mut t = single_loop_tables(ZolcConfig::lite());
        t.loops_mut()[0].limit = 0;
        let mut st = active_state();
        // the entry rule still initializes the index (the limit may be
        // written later by a data-dependent zwr)…
        let d = decide(&t, &mut st, 0x0c);
        assert_eq!(d.writes.value_for(reg(5)), Some(100));
        // …but end matching falls through without iterating
        let d = decide(&t, &mut st, 0x1c);
        assert_eq!(d.redirect, None);
    }

    #[test]
    fn decision_is_deterministic_replayable() {
        // The same pc sequence applied to two copies of the state yields
        // identical decisions — the property the spec/arch split relies on.
        let t = perfect_nest_tables();
        let mut a = active_state();
        let mut b = active_state();
        for pc in [0x0c, 0x28, 0x28, 0x28, 0x28, 0x28, 0x28, 0x2c, 0x30] {
            let da = decide(&t, &mut a, pc);
            let db = decide(&t, &mut b, pc);
            assert_eq!(da, db);
            assert_eq!(a, b);
        }
    }
}
