//! In-memory span tracing from the benchmark's own files.
//!
//! A [`Tracer`] records a span around each call into a layer: name,
//! start, end, parent, and the id of the cell or job it belongs to.
//! Aggregates (call count, inclusive time, self time) are kept online
//! for every span; raw spans are kept only for ids below a retention
//! limit, so a long traced run stays small in memory. Counters are
//! recorded at the same boundaries with [`Tracer::count`].
//!
//! A disabled tracer (`Tracer::off`) does nothing but one branch per
//! call, which is what the untraced half of a traced run measures
//! against to report the tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NONE: u32 = u32::MAX;

/// Raw spans are retained for cell, run or job ids below this; spans of
/// later ids only aggregate.
pub const KEEP_IDS: u64 = 2_000;

/// One retained span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `sim.run`.
    pub name: &'static str,
    /// The cell or job this span belongs to.
    pub id: u64,
    /// Index of the enclosing span in the same trace, if retained.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// Online aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    id: u64,
    start_ns: u64,
    child_ns: u64,
    slot: u32,
}

/// A per-thread span recorder; merge worker tracers with
/// [`Tracer::merge`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Open>,
    spans: Vec<Span>,
    aggs: BTreeMap<&'static str, Agg>,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer that retains raw spans for ids below
    /// [`KEEP_IDS`] (aggregates cover every id).
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
            aggs: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Whether this tracer records.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// An empty tracer with the same epoch and settings, for a worker
    /// thread.
    pub fn fork(&self) -> Tracer {
        Tracer {
            epoch: self.epoch,
            ..Tracer::new(self.on)
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, id: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.ns(Instant::now());
        let slot = self.reserve(name, id, start_ns);
        self.stack.push(Open {
            name,
            id,
            start_ns,
            child_ns: 0,
            slot,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.ns(Instant::now());
        let open = self.stack.pop().expect("exit without a matching enter");
        self.close(open, end_ns);
    }

    /// Records a leaf span with explicit times under the innermost open
    /// span (for calls the caller timed itself).
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let start_ns = self.ns(start);
        let slot = self.reserve(name, id, start_ns);
        let open = Open {
            name,
            id,
            start_ns,
            child_ns: 0,
            slot,
        };
        let end_ns = self.ns(end);
        self.close(open, end_ns);
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, id, start, Instant::now());
        out
    }

    /// Adds `n` to a counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counters.entry(name).or_default() += n;
        }
    }

    /// Number of open spans (see [`Tracer::unwind_to`]).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Closes every span opened above `depth` — used after a caught
    /// panic left spans open.
    pub fn unwind_to(&mut self, depth: usize) {
        while self.stack.len() > depth {
            self.exit();
        }
    }

    fn reserve(&mut self, name: &'static str, id: u64, start_ns: u64) -> u32 {
        if id >= KEEP_IDS {
            return NONE;
        }
        let parent = self.stack.last().map(|o| o.slot).filter(|&s| s != NONE);
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
            self_ns: 0,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, open: Open, end_ns: u64) {
        let dur = end_ns.saturating_sub(open.start_ns);
        let self_ns = dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let agg = self.aggs.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += self_ns;
        if open.slot != NONE {
            let s = &mut self.spans[open.slot as usize];
            s.end_ns = end_ns;
            s.self_ns = self_ns;
            debug_assert_eq!((s.name, s.id), (open.name, open.id));
        }
    }

    /// Folds a worker's tracer into this one.
    pub fn merge(&mut self, other: Tracer) {
        assert!(other.stack.is_empty(), "merging a tracer with open spans");
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (name, a) in other.aggs {
            let mine = self.aggs.entry(name).or_default();
            mine.count += a.count;
            mine.total_ns += a.total_ns;
            mine.self_ns += a.self_ns;
        }
        for (name, n) in other.counters {
            *self.counters.entry(name).or_default() += n;
        }
    }

    /// The aggregate of spans named `name` (zero if none closed).
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    /// Every aggregate, by name.
    pub fn aggs(&self) -> &BTreeMap<&'static str, Agg> {
        &self.aggs
    }

    /// A counter's value (zero if never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The retained spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The retained spans as CSV (`index,id,name,parent,start_ns,end_ns,self_ns`).
    pub fn spans_csv(&self) -> String {
        let mut out = String::from("index,id,name,parent,start_ns,end_ns,self_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i},{},{},{parent},{},{},{}",
                s.id, s.name, s.start_ns, s.end_ns, s.self_ns
            );
        }
        out
    }

    /// One line per span name: count, inclusive and self seconds.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (name, a) in &self.aggs {
            let _ = writeln!(
                out,
                "  {name:<22} {:>9} spans {:>12.6} s total {:>12.6} s self",
                a.count,
                a.total_ns as f64 * 1e-9,
                a.self_ns as f64 * 1e-9
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut t = Tracer::on();
        t.enter("cell", 1);
        let a = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        t.record("leaf", 1, a, Instant::now());
        t.exit();
        let cell = t.agg("cell");
        let leaf = t.agg("leaf");
        assert_eq!(cell.count, 1);
        assert!(cell.total_ns >= leaf.total_ns);
        assert_eq!(cell.self_ns, cell.total_ns - leaf.total_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
    }

    #[test]
    fn ids_past_the_retention_limit_only_aggregate() {
        let mut t = Tracer::on();
        t.time("x", 0, || ());
        t.time("x", KEEP_IDS, || ());
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.agg("x").count, 2);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        t.enter("a", 0);
        t.count("c", 3);
        t.exit();
        assert!(t.aggs().is_empty());
        assert_eq!(t.counter("c"), 0);
    }

    #[test]
    fn merge_offsets_parents() {
        let mut a = Tracer::on();
        a.time("x", 0, || ());
        let mut b = a.fork();
        b.enter("p", 1);
        b.time("c", 1, || ());
        b.exit();
        b.count("n", 2);
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.counter("n"), 2);
    }
}
