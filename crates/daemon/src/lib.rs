//! # zolc-daemon — sweep-as-a-service
//!
//! `zolcd` is a persistent job daemon over the retargeting pipeline,
//! the binary lint pass and the sweep harness: clients submit
//! **retarget** jobs (a raw XR32 binary plus a
//! [`ZolcConfig`](zolc_core::ZolcConfig)), **lint** jobs (a binary,
//! optionally retargeted first and linted against its synthesized
//! table image) and **sweep** jobs (a
//! [`SweepConfig`](zolc_bench::SweepConfig)) over a tiny
//! length-prefixed JSON protocol, and the daemon answers repeated jobs
//! from content-addressed result caches instead of recomputing them.
//!
//! The cost model this serves: a retarget of a kernel-sized or generated
//! binary is tens of microseconds (about 50 µs per call in the
//! repository benchmark's traced `e7_sweep` run), a sweep is seconds to
//! minutes — so most of the work a cache hit saves is sweep work — and
//! design-space exploration resubmits the *same* jobs constantly (the
//! same kernel against a grid of configurations, the same sweep
//! re-requested by every member of a team or CI shard). Caching at a
//! daemon shares that work across processes the way
//! [`CompiledProgram`](zolc_sim::CompiledProgram) shares compiled
//! superblocks across sessions within one.
//!
//! Three guarantees shape the design:
//!
//! * **Byte-identity** — a cache hit returns *exactly* the bytes the
//!   cold computation produced (responses splice the cached rendering
//!   verbatim, and there is deliberately no "cached" marker). Offline
//!   recomputation via [`server::offline_retarget_response`] /
//!   [`server::offline_sweep_response`] produces the same bytes, which
//!   is what `scripts/daemon_smoke.sh` asserts.
//! * **Content addressing** — cache keys hash the canonical re-encoding
//!   of the decoded job, never the client's formatting, so equivalent
//!   requests share entries and entries can never go stale.
//! * **Single-flight** — concurrent clients racing on a cold key
//!   compute once; the rest wait and share the result (failures
//!   included).
//!
//! ```no_run
//! use zolc_daemon::{Client, Daemon, DaemonConfig};
//!
//! let daemon = Daemon::bind(&DaemonConfig::new())?;
//! let addr = daemon.local_addr();
//! std::thread::spawn(move || daemon.run());
//!
//! let mut client = Client::connect(addr)?;
//! assert!(client.ping()?);
//! # std::io::Result::Ok(())
//! ```
//!
//! See `examples/zolcd.rs` (the server binary) and
//! `examples/zolc-client.rs` (a job-submitting client with offline
//! verification), and the "Daemon & caches" section of
//! `ARCHITECTURE.md` for the protocol and cache-key reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use cache::{CacheStats, ResultCache};
pub use client::Client;
pub use server::{Daemon, DaemonConfig};
