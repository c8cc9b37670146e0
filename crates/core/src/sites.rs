//! The controller's compiled decision: one *site* per hook-footprint pc.
//!
//! [`decide`](crate::decide) scans the tables on every call: the entry
//! records for the fetched pc, the task LUT along the completion chain,
//! every loop record for the next address. A [`SiteTable`] does those
//! scans once per footprint pc, when the footprint itself is computed,
//! and keeps their results — record indices and loop/task bitmasks —
//! so a decision only reads the fields that can change without moving
//! the footprint (bounds, step, init, index register, task links, entry
//! task/mask, exit task/mask/target) live from the tables.
//!
//! What a site caches is derived from record addresses, valid bits and
//! entry redirects; [`invalidates`] names the `zwr`s that change any of
//! them, after which the owner must [`SiteTable::rebuild`].

use crate::config::MAX_LOOPS;
use crate::dynamics::{ride, Decision, DecisionKind, DynState};
use crate::tables::ZolcTables;
use zolc_isa::{entry_field, exit_field, loop_field, task_field, ZolcRegion};
use zolc_sim::{IndexStep, Iterations, RegWrites};

/// What the scans of [`decide`](crate::decide) find at one pc.
#[derive(Debug, Clone, Copy, Default)]
struct Site {
    /// The valid entry record at this pc (the first, as
    /// [`ZolcTables::entry_at`] finds it).
    entry: Option<u8>,
    /// The valid exit record at this pc (as [`ZolcTables::exit_at`]).
    exit: Option<u8>,
    /// The valid tasks ending here, one bit per task.
    tasks: u32,
    /// uZOLC: loop 0 ends here.
    micro_end: bool,
    /// The loops starting at `pc + 4`.
    starts_next: u8,
}

/// Bits of `mask`, ascending.
fn bits(mut mask: u8) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let k = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (k < 8).then_some(k)
    })
}

/// Whether a `zwr` to `field` of `region` changes what a site caches
/// (and so what the hook footprint holds, entry redirects aside).
pub(crate) fn invalidates(region: ZolcRegion, field: u8) -> bool {
    match region {
        ZolcRegion::Loop => matches!(field, loop_field::START | loop_field::END),
        ZolcRegion::Task => matches!(field, task_field::END | task_field::CTL),
        ZolcRegion::Entry => matches!(
            field,
            entry_field::ADDR | entry_field::VALID | entry_field::REDIRECT
        ),
        ZolcRegion::Exit => matches!(field, exit_field::BRANCH | exit_field::VALID),
        ZolcRegion::Global => false,
    }
}

/// The hook footprint of a set of tables with one [`Site`] per pc.
#[derive(Debug, Clone, Default)]
pub(crate) struct SiteTable {
    /// The footprint: sorted, deduplicated.
    pcs: Vec<u32>,
    /// One site per entry of `pcs`.
    sites: Vec<Site>,
    /// Per loop: the loops starting where it starts (step 3 after an
    /// iterate redirect).
    start_masks: [u8; MAX_LOOPS],
    /// Per entry record: the loops starting at its redirect (step 3
    /// after an entry redirect).
    entry_masks: Vec<u8>,
    /// The loop records the configuration has.
    loop_mask: u8,
    /// uZOLC: no task LUT, loop 0's end is the only task end.
    micro: bool,
    /// The last pc [`SiteTable::lookup`] found, and its site.
    last: Option<(u32, usize)>,
}

impl SiteTable {
    /// The footprint pcs.
    pub(crate) fn pcs(&self) -> &[u32] {
        &self.pcs
    }

    /// Recomputes the footprint and every site from `t`.
    pub(crate) fn rebuild(&mut self, t: &ZolcTables) {
        self.last = None;
        let loops = t.loops();
        let starting_at = |a: u32| {
            loops
                .iter()
                .enumerate()
                .filter(|(_, l)| l.start == a)
                .fold(0u8, |m, (k, _)| m | 1 << k)
        };
        self.micro = t.config().tasks() == 0;
        self.loop_mask = (0..loops.len()).fold(0u8, |m, k| m | 1 << k);
        for (k, l) in loops.iter().enumerate() {
            self.start_masks[k] = starting_at(l.start);
        }
        self.entry_masks.clear();
        self.entry_masks
            .extend(t.entries().iter().map(|e| starting_at(e.redirect)));

        let pcs = &mut self.pcs;
        pcs.clear();
        pcs.extend(loops.iter().map(|l| l.start.wrapping_sub(4)));
        if self.micro {
            pcs.extend(t.loop_rec(0).map(|l| l.end));
        }
        pcs.extend(t.tasks().iter().filter(|r| r.valid).map(|r| r.end));
        pcs.extend(t.entries().iter().filter(|e| e.valid).map(|e| e.addr));
        pcs.extend(t.exits().iter().filter(|x| x.valid).map(|x| x.branch));
        pcs.sort_unstable();
        pcs.dedup();

        let index_of = |found: Option<usize>| found.map(|i| i as u8);
        self.sites.clear();
        self.sites.extend(pcs.iter().map(|&pc| {
            Site {
                entry: index_of(t.entries().iter().position(|e| e.valid && e.addr == pc)),
                exit: index_of(t.exits().iter().position(|x| x.valid && x.branch == pc)),
                tasks: (0..t.tasks().len())
                    .filter(|&i| t.task(i as u8).is_some_and(|r| r.valid && r.end == pc))
                    .fold(0u32, |m, i| m | 1 << i),
                micro_end: self.micro && t.loop_rec(0).is_some_and(|l| l.end == pc),
                starts_next: starting_at(pc.wrapping_add(4)),
            }
        }));
    }

    /// The site index of `pc`, if it is in the footprint.
    #[inline]
    pub(crate) fn find(&self, pc: u32) -> Option<usize> {
        self.pcs.binary_search(&pc).ok()
    }

    /// [`SiteTable::find`], remembering the last site found: loops
    /// revisit one pc far more often than they move between sites.
    #[inline]
    pub(crate) fn lookup(&mut self, pc: u32) -> Option<usize> {
        match self.last {
            Some((last, i)) if last == pc => Some(i),
            _ => {
                let i = self.find(pc)?;
                self.last = Some((pc, i));
                Some(i)
            }
        }
    }

    /// The exit record at site `i`, if any.
    pub(crate) fn exit(&self, i: usize) -> Option<usize> {
        self.sites[i].exit.map(usize::from)
    }

    /// [`decide`](crate::decide) at the pc of site `i`, for tables `t`
    /// (the ones this table was last rebuilt from, up to fields that do
    /// not [`invalidate`](invalidates) it), as a [`Decision`].
    pub(crate) fn decision(&self, t: &ZolcTables, st: &mut DynState, i: usize) -> Decision {
        let mut w = RegWrites::new();
        let o = self.decide(t, st, i, &mut w);
        o.decision(w)
    }

    /// [`SiteTable::decision`] with the rider writes added to `w` (which
    /// must be empty) rather than returned, so that callers copy the
    /// 68-byte [`RegWrites`] only where they keep it.
    #[inline(always)]
    pub(crate) fn decide(
        &self,
        t: &ZolcTables,
        st: &mut DynState,
        i: usize,
        w: &mut RegWrites,
    ) -> Outcome {
        let mut o = Outcome::default();
        if !st.active {
            return o;
        }
        let site = &self.sites[i];
        let loops = t.loops();
        let mut written = 0u8;
        let mut next = site.starts_next;

        // 1. Multiple-entry records.
        if let Some(e) = site.entry {
            let rec = &t.entries()[usize::from(e)];
            st.current_task = rec.task;
            let mut fired = false;
            for k in bits(rec.init_mask & self.loop_mask) {
                if st.counts[k] != 0 {
                    continue;
                }
                let l = &loops[k];
                st.index_cur[k] = l.init;
                if let Some(r) = l.index_reg {
                    ride(w, &mut written, k, r, l.init);
                }
                fired = true;
            }
            if fired {
                if rec.redirect != 0 {
                    o.redirect = Some(rec.redirect);
                    next = self.entry_masks[usize::from(e)];
                }
                o.kind = DecisionKind::Entry;
            }
        }

        // 2. Task-end matching with chaining.
        if site.micro_end {
            let l = &loops[0];
            if l.limit != 0 {
                let count = st.counts[0].wrapping_add(1);
                if count < l.limit {
                    st.counts[0] = count;
                    st.index_cur[0] = st.index_cur[0].wrapping_add(l.step);
                    if let Some(r) = l.index_reg {
                        ride(w, &mut written, 0, r, st.index_cur[0]);
                    }
                    o.redirect = Some(l.start);
                    next = self.start_masks[0];
                    o.kind = DecisionKind::Iterate {
                        loop_id: 0,
                        chained: 0,
                    };
                } else {
                    st.counts[0] = 0;
                    o.kind = DecisionKind::Finish { depth: 1 };
                }
            }
        } else if site.tasks != 0 {
            let mut chained = 0u8;
            let mut t_id = st.current_task;
            while t_id < 32 && site.tasks & (1 << t_id) != 0 {
                let task = &t.tasks()[usize::from(t_id)];
                let lid = usize::from(task.loop_id);
                let Some(l) = loops.get(lid) else {
                    break;
                };
                let count = st.counts[lid].wrapping_add(1);
                if count < l.limit {
                    st.counts[lid] = count;
                    st.index_cur[lid] = st.index_cur[lid].wrapping_add(l.step);
                    if let Some(r) = l.index_reg {
                        ride(w, &mut written, lid, r, st.index_cur[lid]);
                    }
                    st.current_task = task.next_iter;
                    o.redirect = Some(l.start);
                    next = self.start_masks[lid];
                    o.kind = DecisionKind::Iterate {
                        loop_id: task.loop_id,
                        chained,
                    };
                    break;
                }
                st.counts[lid] = 0;
                st.current_task = task.next_fallthru;
                t_id = task.next_fallthru;
                chained += 1;
                o.kind = DecisionKind::Finish { depth: chained };
                // `decide`'s bound: a chain this long never ends
                if usize::from(chained) >= 2 * t.tasks().len() {
                    break;
                }
            }
        }

        // 3. Loop-entry initialization for the next address.
        for k in bits(next) {
            if st.counts[k] == 0 {
                let l = &loops[k];
                st.index_cur[k] = l.init;
                if let Some(r) = l.index_reg {
                    ride(w, &mut written, k, r, l.init);
                }
            }
        }

        o
    }

    /// The loop the decision at site `i` iterates from state `st` with
    /// no loop finishing first, and how many decisions in a row do so:
    /// `(loop, count)`. `None` when the decision is anything else, or
    /// the site holds an entry or exit record (whose decisions and
    /// retire-time checks a run of iterates would skip).
    fn iterating(&self, t: &ZolcTables, st: &DynState, i: usize) -> Option<(usize, u32)> {
        let site = &self.sites[i];
        if !st.active || site.entry.is_some() || site.exit.is_some() {
            return None;
        }
        let (lid, repeats) = if site.micro_end {
            (0, true)
        } else {
            let cur = st.current_task;
            if cur >= 32 || site.tasks & (1 << cur) == 0 {
                return None;
            }
            let task = &t.tasks()[usize::from(cur)];
            (usize::from(task.loop_id), task.next_iter == cur)
        };
        let l = t.loops().get(lid)?;
        // Iterates while `count + 1 < limit`; a count that would wrap
        // is left to the per-decision path.
        let left = l.limit.checked_sub(st.counts[lid].checked_add(1)?)?;
        match left {
            0 => None,
            _ if repeats => Some((lid, left)),
            _ => Some((lid, 1)),
        }
    }

    /// The iterates [`SiteTable::decide`] makes at site `i` from state
    /// `st` onwards, when the next one is a plain iterate (see
    /// [`LoopEngine::iterations`](zolc_sim::LoopEngine::iterations)).
    pub(crate) fn iterations(&self, t: &ZolcTables, st: &DynState, i: usize) -> Option<Iterations> {
        let (lid, count) = self.iterating(t, st, i)?;
        let loops = t.loops();
        let l = &loops[lid];
        let index = l.index_reg.map(|reg| IndexStep {
            reg,
            first: st.index_cur[lid].wrapping_add(l.step),
            step: l.step,
        });
        // Step 3 after the redirect: dormant loops starting where this
        // one does re-initialize, the same way every time (the
        // iterating loop's own count is nonzero from the first iterate).
        let mut rider = RegWrites::new();
        for k in bits(self.start_masks[lid]) {
            if k != lid && st.counts[k] == 0 {
                if let Some(r) = loops[k].index_reg {
                    rider.push(r, loops[k].init);
                }
            }
        }
        Some(Iterations {
            count,
            target: l.start,
            index,
            rider,
        })
    }

    /// Applies `n` of the iterates [`SiteTable::iterations`] grants at
    /// site `i` to `st` at once (`n` at most the granted count).
    pub(crate) fn retire_iterations(&self, t: &ZolcTables, st: &mut DynState, i: usize, n: u32) {
        if n == 0 {
            return;
        }
        let Some((lid, count)) = self.iterating(t, st, i) else {
            panic!("no iterates to retire at site {i}");
        };
        assert!(n <= count, "{n} iterates retired, {count} granted");
        let loops = t.loops();
        let l = &loops[lid];
        st.counts[lid] += n;
        st.index_cur[lid] = st.index_cur[lid].wrapping_add(l.step.wrapping_mul(n));
        if !self.sites[i].micro_end {
            st.current_task = t.tasks()[usize::from(st.current_task)].next_iter;
        }
        for k in bits(self.start_masks[lid]) {
            if st.counts[k] == 0 {
                st.index_cur[k] = loops[k].init;
            }
        }
    }
}

/// A [`Decision`] without its rider writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Outcome {
    /// [`Decision::redirect`].
    pub(crate) redirect: Option<u32>,
    /// [`Decision::kind`].
    pub(crate) kind: DecisionKind,
}

impl Outcome {
    /// The [`Decision`] of this outcome with riders `writes`.
    pub(crate) fn decision(self, writes: RegWrites) -> Decision {
        Decision {
            redirect: self.redirect,
            writes,
            kind: self.kind,
        }
    }

    /// [`Decision::is_trivial`] of this outcome with rider writes `w`.
    pub(crate) fn is_trivial(&self, w: &RegWrites) -> bool {
        self.redirect.is_none() && w.is_empty() && self.kind == DecisionKind::None
    }
}
