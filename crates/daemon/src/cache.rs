//! A content-addressed, single-flight result cache.
//!
//! Keys are the **canonical bytes** of a job (see the protocol module's
//! canonicalization rules), held whole as the keys of a [`HashMap`], so
//! two distinct jobs never share an entry. Because keys are pure
//! functions of job content, entries can never go stale — there is no
//! TTL and no invalidation; restarting the daemon is the only flush.
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

enum State {
    /// Some thread is computing; waiters sleep on the condvar.
    Building,
    /// The rendered result document, shared with every response.
    Ready(Arc<String>),
    /// The computation failed; the error is replayed to later clients.
    Failed(String),
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
    map: Mutex<HashMap<Box<[u8]>, State>>,
    ready: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> ResultCache {
        ResultCache {
            map: Mutex::new(HashMap::new()),
            ready: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
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
        {
            let mut map = self.map.lock().expect("cache poisoned");
            loop {
                match map.get(canon) {
                    None => {
                        map.insert(canon.into(), State::Building);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    Some(State::Building) => {
                        map = self.ready.wait(map).expect("cache poisoned");
                    }
                    Some(State::Ready(result)) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(Arc::clone(result));
                    }
                    Some(State::Failed(e)) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Err(e.clone());
                    }
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
        let state = map.get_mut(canon).expect("building entry vanished");
        let result = match outcome {
            Ok(doc) => {
                let doc = Arc::new(doc);
                *state = State::Ready(Arc::clone(&doc));
                Ok(doc)
            }
            Err(e) => {
                *state = State::Failed(e.clone());
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
            .filter(|state| !matches!(state, State::Building))
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
        // Two keys that differ only in their canonical bytes get an
        // entry each.
        let cache = ResultCache::new();
        let a = cache.get_or_compute(b"k1", || Ok("one".into())).unwrap();
        let b = cache.get_or_compute(b"k2", || Ok("two".into())).unwrap();
        assert_ne!(*a, *b);
        assert_eq!(cache.stats().entries, 2);
    }
}
