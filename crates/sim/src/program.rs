//! The immutable, shareable side of an executor: [`CompiledProgram`].
//!
//! The session design splits an executor into two halves with very
//! different lifetimes:
//!
//! * [`CompiledProgram`] — everything derived from the program bytes
//!   and nothing else: the predecoded [`TextImage`], the encoded text
//!   bytes (sessions copy them into simulated memory) and the
//!   nest-superblock cache of the nest tier. It is immutable after
//!   construction and `Arc`-shared, so one compile serves any number of
//!   concurrent sessions — the daemon's whole reason to exist.
//! * a **session** (one of [`Cpu`](crate::Cpu),
//!   [`FunctionalCpu`](crate::FunctionalCpu) and
//!   [`NestCpu`](crate::NestCpu), created through
//!   [`ExecutorKind::new_session`](crate::ExecutorKind::new_session))
//!   — the cheap per-run half: registers, data memory, pc, statistics.
//!
//! # The shared cache
//!
//! Superblocks are keyed by entry pc and **footprint id** and lazily
//! populated under a mutex; a loop body's superblock for granted
//! iterates is keyed by its task-end pc, footprint id and body start. A superblock ends before every pc of the
//! engine's hook footprint ([`LoopEngine::hook_pcs`]), so one entry pc
//! compiles differently under different footprints. The program interns
//! each distinct footprint (as text indices) under a small id — id 0 is
//! the empty footprint of passive engines — and at most
//! [`MAX_FOOTPRINTS`] are interned, so the cache never holds more than
//! that many entries per text instruction. Sessions keep a private memo
//! of `Arc`s they have already looked up, so the steady-state dispatch
//! loop never touches the lock.
//! [`CompiledProgram::nest_cache_stats`] exposes hit/miss counters.
//!
//! [`LoopEngine::hook_pcs`]: crate::LoopEngine::hook_pcs

use crate::exec::TextImage;
use crate::nest::NestEntry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use zolc_isa::{Program, TEXT_BASE};

/// Counters of the shared superblock cache (see
/// [`CompiledProgram::nest_cache_stats`]).
///
/// Hits and misses count *shared-cache* lookups: a session's private
/// memo absorbs repeat lookups, so a long-running loop registers one
/// miss when its entry is first compiled and no further traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct BlockCacheStats {
    /// Lookups answered by an already-resident entry.
    pub hits: u64,
    /// Lookups that had to compile (and insert) the entry.
    pub misses: u64,
    /// Entries currently resident.
    pub resident: usize,
}

/// Most distinct hook footprints one program interns; sessions whose
/// footprint finds no id left run on the step core.
pub(crate) const MAX_FOOTPRINTS: usize = 64;

/// A concurrent, lazily populated superblock cache keyed by (footprint
/// id, entry pc, loop-body start): the start is `None` for a region
/// entered at the pc, and names the body for the granted iterates of a
/// loop whose task ends at the pc.
type Key = (u32, u32, Option<u32>);

#[derive(Debug)]
struct SharedCache {
    map: Mutex<HashMap<Key, Arc<NestEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SharedCache {
    fn new() -> SharedCache {
        SharedCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the entry compiled at `key`, building it with `make`
    /// if absent. Compilation runs outside the lock; when two sessions
    /// race on the same entry the first insert wins and the loser's
    /// compile is discarded (both results are identical — text and the
    /// footprint behind an id are immutable).
    fn get_or_compile(&self, key: Key, make: impl FnOnce() -> NestEntry) -> Arc<NestEntry> {
        if let Some(b) = self.map.lock().expect("compile cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(b);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let compiled = Arc::new(make());
        let mut map = self.map.lock().expect("compile cache poisoned");
        Arc::clone(map.entry(key).or_insert(compiled))
    }

    fn stats(&self) -> BlockCacheStats {
        BlockCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            resident: self.map.lock().expect("compile cache poisoned").len(),
        }
    }
}

/// An immutable, `Arc`-shareable compiled program: the predecoded text
/// image plus the shared nest-superblock cache (see the module docs).
///
/// Compile once, then open any number of concurrent sessions against
/// it:
///
/// ```
/// use zolc_sim::{run_session, CompiledProgram, ExecutorKind, NullEngine};
///
/// let program = zolc_isa::assemble("
///     li   r1, 100
///     li   r2, 0
/// top: add  r2, r2, r1
///     addi r1, r1, -1
///     bne  r1, r0, top
///     halt
/// ").unwrap();
/// let prog = CompiledProgram::compile(program);
/// for kind in ExecutorKind::ALL {
///     let f = run_session(kind, &prog, &mut NullEngine, 1_000_000)?;
///     assert_eq!(f.cpu.regs().read(zolc_isa::reg(2)), (1..=100).sum::<u32>());
/// }
/// # Ok::<(), zolc_sim::RunError>(())
/// ```
#[derive(Debug)]
pub struct CompiledProgram {
    source: Arc<Program>,
    text: TextImage,
    text_bytes: Vec<u8>,
    nests: SharedCache,
    /// Interned hook footprints (ascending text indices); the position
    /// is the id, and id 0 is the empty footprint.
    footprints: Mutex<Vec<Box<[u32]>>>,
}

impl CompiledProgram {
    /// Predecodes `program` into a shareable compiled form. Accepts an
    /// owned [`Program`] or an `Arc<Program>` (shared without copying).
    pub fn compile(program: impl Into<Arc<Program>>) -> Arc<CompiledProgram> {
        let source = program.into();
        let text = TextImage::new(&source);
        let text_bytes = source.text_bytes();
        Arc::new(CompiledProgram {
            source,
            text,
            text_bytes,
            nests: SharedCache::new(),
            footprints: Mutex::new(vec![Box::default()]),
        })
    }

    /// An empty program (no text, no data) — the image a freshly
    /// constructed core holds before anything is loaded.
    pub(crate) fn empty() -> Arc<CompiledProgram> {
        CompiledProgram::compile(Program::default())
    }

    /// The source program this was compiled from.
    pub fn source(&self) -> &Arc<Program> {
        &self.source
    }

    /// The predecoded text segment.
    pub fn text(&self) -> &TextImage {
        &self.text
    }

    /// The encoded text bytes (what sessions copy to [`zolc_isa::TEXT_BASE`]).
    pub(crate) fn text_bytes(&self) -> &[u8] {
        &self.text_bytes
    }

    /// Shared nest-superblock cache counters; see [`BlockCacheStats`].
    /// A *miss* is one superblock compilation (positive or negative);
    /// `resident` counts cached entries including negative ones.
    pub fn nest_cache_stats(&self) -> BlockCacheStats {
        self.nests.stats()
    }

    /// Dense per-instruction index for `pc`, when `pc` is aligned and
    /// inside text — exactly the addresses [`TextImage::fetch`] accepts.
    pub(crate) fn block_index(&self, pc: u32) -> Option<usize> {
        if !pc.is_multiple_of(4) {
            return None;
        }
        let idx = (pc.wrapping_sub(TEXT_BASE) / 4) as usize;
        (idx < self.text.len()).then_some(idx)
    }

    /// The id of the footprint whose ascending text indices are
    /// `indices`, interning it on first sight; `None` once
    /// [`MAX_FOOTPRINTS`] are interned and this one is not among them.
    pub(crate) fn footprint_id(&self, indices: &[u32]) -> Option<u32> {
        let mut fps = self.footprints.lock().expect("footprint table poisoned");
        if let Some(id) = fps.iter().position(|f| **f == *indices) {
            return Some(id as u32);
        }
        if fps.len() >= MAX_FOOTPRINTS {
            return None;
        }
        fps.push(indices.into());
        Some((fps.len() - 1) as u32)
    }

    /// The nest-superblock entry at `entry` under footprint `fp`, whose
    /// per-instruction flags are `stops` (compiling on first use;
    /// negative results — regions not worth a superblock — are cached
    /// too, as [`NestEntry::Step`]).
    pub(crate) fn nest_at(&self, fp: u32, stops: &[bool], entry: u32) -> Arc<NestEntry> {
        self.nests.get_or_compile((fp, entry, None), || {
            crate::nest::compile_nest(&self.text, entry, stops)
        })
    }

    /// The superblock running the granted iterates of the loop whose
    /// task ends at footprint pc `end` and whose body starts at
    /// `target`, under footprint `fp` with flags `stops` (compiling on
    /// first use; [`NestEntry::Step`] when the body cannot run in one).
    pub(crate) fn iterations_at(
        &self,
        fp: u32,
        stops: &[bool],
        end: u32,
        target: u32,
    ) -> Arc<NestEntry> {
        self.nests.get_or_compile((fp, end, Some(target)), || {
            crate::nest::compile_iterations(&self.text, end, target, stops)
        })
    }
}
