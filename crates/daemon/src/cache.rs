//! A content-addressed, single-flight result cache.
//!
//! Keys are the **canonical bytes** of a job (see the protocol module's
//! canonicalization rules), hashed with FNV-1a; the full canonical form
//! is kept alongside each entry so a 64-bit collision degrades to a
//! second slot in the bucket, never to a wrong answer. Because keys are
//! pure functions of job content, entries can never go stale — there is
//! no TTL and no invalidation; restarting the daemon is the only flush.
//!
//! The cache is **single-flight**: when two clients race on the same
//! cold key, one computes while the others block on a condvar, and all
//! of them receive the one rendered result. Failures are cached too —
//! a malformed program that cannot be retargeted fails once, not once
//! per client — and a computation that panics is one such failure, so
//! a job bug fails that job without wedging its key or the daemon.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// FNV-1a over `bytes` — the same hash family the sweep fingerprint
/// uses, hand-rolled because the default [`std::collections`] hasher is
/// randomized per process and cache keys must at least be stable within
/// one daemon lifetime (and cheap over multi-megabyte canon forms).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

enum State {
    /// Some thread is computing; waiters sleep on the condvar.
    Building,
    /// The rendered result document, shared with every response.
    Ready(Arc<String>),
    /// The computation failed; the error is replayed to later clients.
    Failed(String),
}

struct Entry {
    /// Full canonical bytes — compared on lookup so FNV collisions
    /// fall into separate slots instead of aliasing.
    canon: Vec<u8>,
    state: State,
}

/// Counters and occupancy of a [`ResultCache`], as returned by
/// [`ResultCache::stats`].
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct CacheStats {
    /// Lookups answered from a completed entry (or by waiting out an
    /// in-flight computation of the same job).
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Completed entries currently resident (successes and failures).
    pub entries: usize,
}

/// A content-addressed result cache with single-flight computation.
pub struct ResultCache {
    map: Mutex<HashMap<u64, Vec<Entry>>>,
    ready: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    /// The key hash over canonical bytes — FNV-1a in production;
    /// injectable in tests so a forced collision exercises the
    /// bucket-split path deterministically.
    hash: fn(&[u8]) -> u64,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> ResultCache {
        ResultCache {
            map: Mutex::new(HashMap::new()),
            ready: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            hash: fnv1a,
        }
    }

    /// An empty cache keyed by an arbitrary hash function. Test-only:
    /// production callers always want [`ResultCache::new`]'s FNV-1a,
    /// but a degenerate hasher is the only cheap way to force two
    /// canons into one bucket.
    #[cfg(test)]
    fn with_hasher(hash: fn(&[u8]) -> u64) -> ResultCache {
        ResultCache {
            hash,
            ..ResultCache::new()
        }
    }

    /// Returns the cached result for `canon`, computing it with
    /// `compute` on a miss. Concurrent callers with the same `canon`
    /// compute once: the first runs `compute` (outside the lock), the
    /// rest block until it finishes and share the outcome. A panic in
    /// `compute` is caught and cached as a failure.
    ///
    /// # Errors
    ///
    /// The error `compute` produced, or a description of its panic —
    /// whether on this call or on the earlier call that populated (and
    /// failed) this entry.
    pub fn get_or_compute(
        &self,
        canon: &[u8],
        compute: impl FnOnce() -> Result<String, String>,
    ) -> Result<Arc<String>, String> {
        let key = (self.hash)(canon);
        let slot;
        {
            let mut map = self.map.lock().expect("cache poisoned");
            loop {
                let bucket = map.entry(key).or_default();
                match bucket.iter().position(|e| e.canon == canon) {
                    None => {
                        slot = bucket.len();
                        bucket.push(Entry {
                            canon: canon.to_vec(),
                            state: State::Building,
                        });
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    Some(i) => match &bucket[i].state {
                        State::Building => {
                            map = self.ready.wait(map).expect("cache poisoned");
                        }
                        State::Ready(result) => {
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            return Ok(Arc::clone(result));
                        }
                        State::Failed(e) => {
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            return Err(e.clone());
                        }
                    },
                }
            }
        }

        // We own the Building slot; compute outside the lock so other
        // keys proceed, then publish and wake every waiter (waiters on
        // other keys just re-check and sleep again).
        let outcome = catch_unwind(AssertUnwindSafe(compute)).unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "no message".into());
            Err(format!("job panicked: {msg}"))
        });
        let mut map = self.map.lock().expect("cache poisoned");
        let entry = &mut map.get_mut(&key).expect("building entry vanished")[slot];
        let result = match outcome {
            Ok(doc) => {
                let doc = Arc::new(doc);
                entry.state = State::Ready(Arc::clone(&doc));
                Ok(doc)
            }
            Err(e) => {
                entry.state = State::Failed(e.clone());
                Err(e)
            }
        };
        drop(map);
        self.ready.notify_all();
        result
    }

    /// Current counters and occupancy. In-flight computations do not
    /// count as entries until they finish.
    pub fn stats(&self) -> CacheStats {
        let map = self.map.lock().expect("cache poisoned");
        let entries = map
            .values()
            .flatten()
            .filter(|e| !matches!(e.state, State::Building))
            .count();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
        }
    }
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    #[test]
    fn second_lookup_hits_and_shares_the_allocation() {
        let cache = ResultCache::new();
        let a = cache
            .get_or_compute(b"job", || Ok("{\"answer\":42}".into()))
            .unwrap();
        let b = cache
            .get_or_compute(b"job", || panic!("must not recompute"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn failures_are_cached_and_replayed() {
        let cache = ResultCache::new();
        assert_eq!(
            cache.get_or_compute(b"bad", || Err("nope".into())),
            Err("nope".into())
        );
        assert_eq!(
            cache.get_or_compute(b"bad", || panic!("must not recompute")),
            Err("nope".into())
        );
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn a_panicking_job_fails_its_key_instead_of_wedging_it() {
        let cache = Arc::new(ResultCache::new());
        let first = cache.get_or_compute(b"boom", || panic!("job bug"));
        assert_eq!(first, Err("job panicked: job bug".into()));
        // A later caller for the same key, on another thread, gets the
        // cached failure promptly instead of waiting on a Building slot.
        let (tx, rx) = std::sync::mpsc::channel();
        let c = Arc::clone(&cache);
        thread::spawn(move || {
            let _ = tx.send(c.get_or_compute(b"boom", || Ok("late".into())));
        });
        let second = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("second caller wedged on the panicked key");
        assert_eq!(second, Err("job panicked: job bug".into()));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn racing_threads_compute_once() {
        let cache = ResultCache::new();
        let runs = AtomicUsize::new(0);
        thread::scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    let got = cache
                        .get_or_compute(b"shared", || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            // widen the race window
                            thread::sleep(std::time::Duration::from_millis(10));
                            Ok("result".into())
                        })
                        .unwrap();
                    assert_eq!(*got, "result");
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "single-flight violated");
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 15);
    }

    #[test]
    fn colliding_hashes_would_still_disambiguate_by_canon() {
        // We can't cheaply forge an FNV collision, but the bucket logic
        // is exercised by two keys that differ only in canon bytes.
        let cache = ResultCache::new();
        let a = cache.get_or_compute(b"k1", || Ok("one".into())).unwrap();
        let b = cache.get_or_compute(b"k2", || Ok("two".into())).unwrap();
        assert_ne!(*a, *b);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn forced_collision_splits_the_bucket_by_canon() {
        // A constant hasher drives every canon into one 64-bit key:
        // the bucket must split into one slot per canon — two misses,
        // two resident entries — and later lookups must replay each
        // canon's own result as a hit, never the bucket-mate's.
        let cache = ResultCache::with_hasher(|_| 0);
        let a = cache.get_or_compute(b"left", || Ok("L".into())).unwrap();
        let b = cache.get_or_compute(b"right", || Ok("R".into())).unwrap();
        assert_eq!((a.as_str(), b.as_str()), ("L", "R"));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));
        let a2 = cache
            .get_or_compute(b"left", || panic!("must not recompute"))
            .unwrap();
        let b2 = cache
            .get_or_compute(b"right", || panic!("must not recompute"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &a2) && Arc::ptr_eq(&b, &b2));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 2, 2));
        // Failures split the same way: a third canon in the same
        // bucket caches its error without disturbing its mates.
        assert_eq!(
            cache.get_or_compute(b"bad", || Err("boom".into())),
            Err("boom".into())
        );
        assert_eq!(
            cache.get_or_compute(b"bad", || panic!("must not recompute")),
            Err("boom".into())
        );
        assert_eq!(cache.stats().entries, 3);
        assert_eq!(
            *cache.get_or_compute(b"left", || unreachable!()).unwrap(),
            "L"
        );
    }
}
