//! A counting [`LoopEngine`] wrapper: forwards every trait method to the
//! wrapped controller, counting calls and sampling hook time.

use std::cell::Cell;
use std::time::Instant;
use zolc_isa::{ZolcCtl, ZolcRegion};
use zolc_sim::{ExecEvent, FetchDecision, LoopEngine};

/// Calls seen per trait method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HookCounts {
    /// `on_fetch` calls.
    pub on_fetch: u64,
    /// `on_execute` calls.
    pub on_execute: u64,
    /// `exec_zwr` calls.
    pub exec_zwr: u64,
    /// `exec_zctl` calls.
    pub exec_zctl: u64,
    /// `on_flush` calls.
    pub on_flush: u64,
    /// `is_passive` queries.
    pub is_passive: u64,
}

/// One in this many `on_fetch`/`on_execute` calls is timed (a power of
/// two, so the test is a mask).
pub const SAMPLE_EVERY: u64 = 16;

/// Wraps a loop engine and counts every call into it.
///
/// One in [`SAMPLE_EVERY`] `on_fetch`/`on_execute` calls is timed;
/// [`CountingEngine::hook_ns_estimate`] scales the sample up to all
/// calls, minus the cost of reading the clock.
#[derive(Debug)]
pub struct CountingEngine<E> {
    inner: E,
    counts: HookCounts,
    passive_queries: Cell<u64>,
    sampled_calls: u64,
    sampled_ns: u64,
}

impl<E: LoopEngine> CountingEngine<E> {
    /// Wraps `inner`.
    pub fn new(inner: E) -> CountingEngine<E> {
        CountingEngine {
            inner,
            counts: HookCounts::default(),
            passive_queries: Cell::new(0),
            sampled_calls: 0,
            sampled_ns: 0,
        }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Calls seen so far.
    pub fn counts(&self) -> HookCounts {
        HookCounts {
            is_passive: self.passive_queries.get(),
            ..self.counts
        }
    }

    /// Estimated nanoseconds spent inside `on_fetch`/`on_execute`,
    /// given the clock-read cost `clock_ns` of one timed sample.
    pub fn hook_ns_estimate(&self, clock_ns: f64) -> f64 {
        if self.sampled_calls == 0 {
            return 0.0;
        }
        let per_call = (self.sampled_ns as f64 / self.sampled_calls as f64 - clock_ns).max(0.0);
        per_call * (self.counts.on_fetch + self.counts.on_execute) as f64
    }

    fn sampled(calls: u64) -> bool {
        calls & (SAMPLE_EVERY - 1) == 0
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut E) -> T) -> T {
        let t = Instant::now();
        let out = f(&mut self.inner);
        self.sampled_ns += t.elapsed().as_nanos() as u64;
        self.sampled_calls += 1;
        out
    }
}

impl<E: LoopEngine> LoopEngine for CountingEngine<E> {
    fn on_fetch(&mut self, pc: u32) -> FetchDecision {
        self.counts.on_fetch += 1;
        if Self::sampled(self.counts.on_fetch) {
            self.timed(|e| e.on_fetch(pc))
        } else {
            self.inner.on_fetch(pc)
        }
    }

    fn on_execute(&mut self, pc: u32, event: ExecEvent) {
        self.counts.on_execute += 1;
        if Self::sampled(self.counts.on_execute) {
            self.timed(|e| e.on_execute(pc, event));
        } else {
            self.inner.on_execute(pc, event);
        }
    }

    fn exec_zwr(&mut self, region: ZolcRegion, index: u8, field: u8, value: u32) {
        self.counts.exec_zwr += 1;
        self.inner.exec_zwr(region, index, field, value);
    }

    fn exec_zctl(&mut self, op: ZolcCtl) {
        self.counts.exec_zctl += 1;
        self.inner.exec_zctl(op);
    }

    fn on_flush(&mut self) {
        self.counts.on_flush += 1;
        self.inner.on_flush();
    }

    fn is_passive(&self) -> bool {
        self.passive_queries.set(self.passive_queries.get() + 1);
        self.inner.is_passive()
    }
}

/// Median cost in nanoseconds of one `Instant::now()` pair, the bias a
/// timed hook sample carries.
pub fn clock_cost_ns() -> f64 {
    let mut v: Vec<u64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2] as f64
}
