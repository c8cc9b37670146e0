//! The `zolcd` server: a TCP accept loop, thread-per-connection job
//! dispatch, and the two content-addressed result caches.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use zolc_bench::json::{self, Json};
use zolc_bench::{run_sweep, SweepConfig};
use zolc_core::ZolcConfig;
use zolc_isa::Program;

use crate::cache::ResultCache;
use crate::protocol::{
    err_response, lint_report_json, lint_request, ok_response, read_frame, retarget_request,
    retargeted_json, sweep_config_json, write_frame,
};

/// How a [`Daemon`] binds and serves.
///
/// Construct with [`DaemonConfig::new`] and `with_*` builders — the
/// struct is `#[non_exhaustive]` so new knobs can land without breaking
/// callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct DaemonConfig {
    /// The address to listen on. Port 0 picks a free port; read the
    /// actual one back with [`Daemon::local_addr`].
    pub addr: String,
}

impl DaemonConfig {
    /// The default configuration: loopback only, kernel-assigned port.
    pub fn new() -> DaemonConfig {
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
        }
    }

    /// Sets the listen address.
    #[must_use]
    pub fn with_addr(mut self, addr: impl Into<String>) -> DaemonConfig {
        self.addr = addr.into();
        self
    }
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig::new()
    }
}

/// Computes the canonical result document for a retarget job — the
/// exact string `zolcd` caches and serves, exposed so offline
/// verification (the smoke client's `--verify` mode, tests) can
/// byte-compare against a daemon response.
///
/// # Errors
///
/// The retargeting error, rendered to the string the daemon would put
/// in its failure response.
pub fn retarget_result(program: &Program, config: &ZolcConfig) -> Result<String, String> {
    // Jobs arrive as binaries, so the daemon's view of a program has no
    // symbol table. Normalize to the same wire form here — symbols only
    // affect relocation *notes*, but notes are part of the response
    // bytes, and offline verification retargets label-bearing originals.
    let wire = Program::from_parts(program.text().to_vec(), program.data().to_vec());
    let r = zolc_cfg::retarget(&wire, config).map_err(|e| e.to_string())?;
    Ok(retargeted_json(&r).render())
}

/// Computes the canonical result document for a lint job (see
/// [`retarget_result`] — same contract, for the binary lint pass).
/// With a configuration the binary is retargeted on it first and the
/// excised program is linted against its synthesized table image;
/// without one the binary is linted as-is.
///
/// # Errors
///
/// The retargeting error (when a configuration was given), rendered to
/// the string the daemon would put in its failure response.
pub fn lint_result(program: &Program, config: Option<&ZolcConfig>) -> Result<String, String> {
    let wire = Program::from_parts(program.text().to_vec(), program.data().to_vec());
    let report = match config {
        Some(config) => {
            let r = zolc_cfg::retarget(&wire, config).map_err(|e| e.to_string())?;
            zolc_cfg::lint_program(&r.program, Some(&r.image))
        }
        None => zolc_cfg::lint_program(&wire, None),
    };
    Ok(lint_report_json(&report).render())
}

/// Computes the canonical result document for a sweep job (see
/// [`retarget_result`] — same contract, for sweeps, which cannot fail).
pub fn sweep_result(cfg: &SweepConfig) -> String {
    zolc_bench::report_json(&run_sweep(cfg)).render()
}

/// The complete, byte-exact response a daemon sends for a retarget
/// job — computed locally. The daemon smoke test's `--verify` mode
/// compares these against live responses.
pub fn offline_retarget_response(program: &Program, config: &ZolcConfig) -> Vec<u8> {
    match retarget_result(program, config) {
        Ok(doc) => ok_response(&doc),
        Err(e) => err_response(&e),
    }
}

/// The complete, byte-exact response a daemon sends for a lint job —
/// computed locally (see [`offline_retarget_response`]).
pub fn offline_lint_response(program: &Program, config: Option<&ZolcConfig>) -> Vec<u8> {
    match lint_result(program, config) {
        Ok(doc) => ok_response(&doc),
        Err(e) => err_response(&e),
    }
}

/// The complete, byte-exact response a daemon sends for a sweep job —
/// computed locally (see [`offline_retarget_response`]).
pub fn offline_sweep_response(cfg: &SweepConfig) -> Vec<u8> {
    ok_response(&sweep_result(cfg))
}

struct Shared {
    /// Canonical retarget request bytes → rendered retarget result.
    retargets: ResultCache,
    /// Canonical lint request bytes → rendered lint report.
    lints: ResultCache,
    /// Canonical sweep configuration bytes → rendered sweep report.
    sweeps: ResultCache,
    stop: AtomicBool,
    addr: SocketAddr,
}

impl Shared {
    fn stats_json(&self) -> Json {
        let cache = |s: crate::cache::CacheStats| {
            Json::Obj(vec![
                ("hits".into(), Json::u64(s.hits)),
                ("misses".into(), Json::u64(s.misses)),
                ("entries".into(), Json::u64(s.entries as u64)),
            ])
        };
        Json::Obj(vec![
            ("retarget".into(), cache(self.retargets.stats())),
            ("lint".into(), cache(self.lints.stats())),
            ("sweep".into(), cache(self.sweeps.stats())),
        ])
    }

    /// Dispatches one decoded request, returning the response payload
    /// and whether this was a shutdown request.
    fn dispatch(&self, payload: &[u8]) -> (Vec<u8>, bool) {
        let doc = match std::str::from_utf8(payload)
            .map_err(|e| e.to_string())
            .and_then(|s| json::parse(s).map_err(|e| e.to_string()))
        {
            Ok(doc) => doc,
            Err(e) => return (err_response(&format!("malformed request: {e}")), false),
        };
        let Some(op) = doc.get("op").and_then(Json::as_str) else {
            return (err_response("request has no `op` field"), false);
        };
        match op {
            "ping" => (ok_response("\"pong\""), false),
            "stats" => (ok_response(&self.stats_json().render()), false),
            "shutdown" => (ok_response("\"bye\""), true),
            "retarget" => (self.retarget_job(&doc), false),
            "lint" => (self.lint_job(&doc), false),
            "sweep" => (self.sweep_job(&doc), false),
            other => (err_response(&format!("unknown op `{other}`")), false),
        }
    }

    fn retarget_job(&self, doc: &Json) -> Vec<u8> {
        let program = match crate::protocol::parse_retarget_program(doc) {
            Ok(p) => p,
            Err(e) => return err_response(&e),
        };
        let config = match doc
            .get("config")
            .ok_or("retarget: missing `config`".to_owned())
            .and_then(|c| crate::protocol::parse_zolc_config(c).map_err(|e| e.to_owned()))
        {
            Ok(c) => c,
            Err(e) => return err_response(&e),
        };
        // The cache key is the *canonical* re-encoding of the decoded
        // job, not the client's bytes: two clients formatting the same
        // job differently share one entry.
        let canon = retarget_request(&program, &config).render();
        match self
            .retargets
            .get_or_compute(canon.as_bytes(), || retarget_result(&program, &config))
        {
            Ok(doc) => ok_response(&doc),
            Err(e) => err_response(&e),
        }
    }

    fn lint_job(&self, doc: &Json) -> Vec<u8> {
        let program = match crate::protocol::parse_lint_program(doc) {
            Ok(p) => p,
            Err(e) => return err_response(&e),
        };
        // `config` is optional here: absent means "lint the binary
        // as-is", present means "retarget on it, lint the result".
        let config = match doc
            .get("config")
            .map(crate::protocol::parse_zolc_config)
            .transpose()
        {
            Ok(c) => c,
            Err(e) => return err_response(&e),
        };
        let canon = lint_request(&program, config.as_ref()).render();
        match self
            .lints
            .get_or_compute(canon.as_bytes(), || lint_result(&program, config.as_ref()))
        {
            Ok(doc) => ok_response(&doc),
            Err(e) => err_response(&e),
        }
    }

    fn sweep_job(&self, doc: &Json) -> Vec<u8> {
        let cfg = match doc
            .get("config")
            .ok_or("sweep: missing `config`".to_owned())
            .and_then(crate::protocol::parse_sweep_config)
        {
            Ok(c) => c,
            Err(e) => return err_response(&e),
        };
        let canon = sweep_config_json(&cfg).render();
        match self
            .sweeps
            .get_or_compute(canon.as_bytes(), || Ok(sweep_result(&cfg)))
        {
            Ok(doc) => ok_response(&doc),
            Err(e) => err_response(&e),
        }
    }
}

/// A bound `zolcd` instance.
///
/// [`Daemon::bind`] reserves the socket (so the port is known before
/// any client starts); [`Daemon::run`] serves until a `shutdown`
/// request arrives.
pub struct Daemon {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Daemon {
    /// Binds the listen socket.
    ///
    /// # Errors
    ///
    /// The socket error if the address cannot be bound.
    pub fn bind(config: &DaemonConfig) -> io::Result<Daemon> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        Ok(Daemon {
            listener,
            shared: Arc::new(Shared {
                retargets: ResultCache::new(),
                lints: ResultCache::new(),
                sweeps: ResultCache::new(),
                stop: AtomicBool::new(false),
                addr,
            }),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Serves connections until a client sends `shutdown`, then drains:
    /// already-accepted connections finish their in-flight jobs before
    /// this returns.
    ///
    /// # Errors
    ///
    /// A fatal accept-loop error (per-connection I/O errors only drop
    /// that connection).
    pub fn run(self) -> io::Result<()> {
        let mut workers = Vec::new();
        for conn in self.listener.incoming() {
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = conn?;
            let shared = Arc::clone(&self.shared);
            workers.push(thread::spawn(move || serve_connection(stream, &shared)));
        }
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

/// Serves one connection: frames in, responses out, until EOF or a
/// fatal I/O error. On `shutdown` the reply is written first, then the
/// accept loop is woken with a throwaway self-connection.
fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    while let Ok(Some(payload)) = read_frame(&mut stream) {
        let (response, shutdown) = shared.dispatch(&payload);
        if write_frame(&mut stream, &response).is_err() {
            return;
        }
        if shutdown {
            shared.stop.store(true, Ordering::SeqCst);
            // `incoming()` has no timeout; a throwaway connection makes
            // it yield once more so the accept loop observes `stop`.
            drop(TcpStream::connect(shared.addr));
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use zolc_bench::SweepPoint;
    use zolc_sim::ExecutorKind;

    fn spawn_daemon() -> (SocketAddr, thread::JoinHandle<io::Result<()>>) {
        let daemon = Daemon::bind(&DaemonConfig::new()).unwrap();
        let addr = daemon.local_addr();
        (addr, thread::spawn(move || daemon.run()))
    }

    fn tiny_sweep() -> SweepConfig {
        SweepConfig::new()
            .with_programs(2)
            .with_points(vec![SweepPoint::new("lite", ZolcConfig::lite())])
            .with_executor(ExecutorKind::Functional)
    }

    fn loop_program() -> Program {
        zolc_isa::assemble(
            "
            li   r11, 5
      top:  addi r11, r11, -1
            bne  r11, r0, top
            halt
        ",
        )
        .unwrap()
    }

    #[test]
    fn ping_stats_and_shutdown() {
        let (addr, handle) = spawn_daemon();
        let mut c = Client::connect(addr).unwrap();
        assert!(c.ping().unwrap());
        let stats = c.stats().unwrap();
        assert_eq!(
            stats.get("retarget").unwrap().get("hits").unwrap().as_u64(),
            Some(0)
        );
        c.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn warm_retarget_responses_are_byte_identical_to_cold_and_offline() {
        let (addr, handle) = spawn_daemon();
        let program = loop_program();
        let config = ZolcConfig::lite();

        let mut c = Client::connect(addr).unwrap();
        let cold = c.retarget(&program, &config).unwrap();
        let warm = c.retarget(&program, &config).unwrap();
        assert_eq!(cold, warm, "cache hit changed the response bytes");
        assert_eq!(
            cold,
            offline_retarget_response(&program, &config),
            "daemon response diverged from the offline computation"
        );

        let stats = c.stats().unwrap();
        let retarget = stats.get("retarget").unwrap();
        assert_eq!(retarget.get("hits").unwrap().as_u64(), Some(1));
        assert_eq!(retarget.get("misses").unwrap().as_u64(), Some(1));

        c.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn lint_jobs_match_offline_report_findings_and_cache() {
        let (addr, handle) = spawn_daemon();
        // the loop program plus one dead store: the first write to `r9`
        // is overwritten before any read
        let dirty = zolc_isa::assemble(
            "
            li   r9, 7
            li   r9, 8
            li   r11, 5
      top:  addi r11, r11, -1
            bne  r11, r0, top
            halt
        ",
        )
        .unwrap();

        let mut c = Client::connect(addr).unwrap();
        let cold = c.lint(&dirty, None).unwrap();
        let warm = c.lint(&dirty, None).unwrap();
        assert_eq!(cold, warm, "cache hit changed the response bytes");
        assert_eq!(
            cold,
            offline_lint_response(&dirty, None),
            "daemon response diverged from the offline computation"
        );
        let body = String::from_utf8(cold).unwrap();
        assert!(body.contains("\"clean\":false"), "{body}");
        assert!(body.contains("dead-store"), "{body}");

        // with a configuration: retarget first, lint the excised binary
        // against its image — the clean loop program stays clean
        let clean = loop_program();
        let r = c.lint(&clean, Some(&ZolcConfig::lite())).unwrap();
        assert_eq!(r, offline_lint_response(&clean, Some(&ZolcConfig::lite())));
        let body = String::from_utf8(r).unwrap();
        assert!(body.contains("\"clean\":true"), "{body}");

        let stats = c.stats().unwrap();
        let lint = stats.get("lint").unwrap();
        assert_eq!(lint.get("hits").unwrap().as_u64(), Some(1));
        assert_eq!(lint.get("misses").unwrap().as_u64(), Some(2));

        c.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn sweep_jobs_match_offline_and_hit_on_repeat() {
        let (addr, handle) = spawn_daemon();
        let cfg = tiny_sweep();

        let mut c = Client::connect(addr).unwrap();
        let cold = c.sweep(&cfg).unwrap();
        let warm = c.sweep(&cfg).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(cold, offline_sweep_response(&cfg));

        c.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn concurrent_clients_share_the_cache_and_agree() {
        let (addr, handle) = spawn_daemon();
        let program = loop_program();
        let config = ZolcConfig::full();
        let expected = offline_retarget_response(&program, &config);

        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut c = Client::connect(addr).unwrap();
                    for _ in 0..3 {
                        assert_eq!(c.retarget(&program, &config).unwrap(), expected);
                    }
                });
            }
        });

        let mut c = Client::connect(addr).unwrap();
        let stats = c.stats().unwrap();
        let retarget = stats.get("retarget").unwrap();
        assert_eq!(retarget.get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(retarget.get("hits").unwrap().as_u64(), Some(11));

        c.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn malformed_requests_get_errors_not_disconnects() {
        let (addr, handle) = spawn_daemon();
        let mut c = Client::connect(addr).unwrap();

        let r = c.request_raw(b"not json").unwrap();
        assert!(
            r.starts_with(b"{\"ok\":false"),
            "{:?}",
            String::from_utf8_lossy(&r)
        );
        let r = c.request_raw(b"{\"op\":\"dance\"}").unwrap();
        assert!(r.starts_with(b"{\"ok\":false"));
        // `compiled` names no executor tier
        let r = c
            .request_raw(b"{\"op\":\"sweep\",\"config\":{\"executor\":\"compiled\"}}")
            .unwrap();
        let body = String::from_utf8_lossy(&r);
        assert!(body.starts_with("{\"ok\":false"), "{body}");
        assert!(body.contains("compiled"), "{body}");
        // Sizes that would abort the daemon on allocation are refused at
        // decode, naming the field.
        for (frame, field) in [
            (
                &b"{\"op\":\"sweep\",\"config\":{\"programs\":1000000000000}}"[..],
                "programs",
            ),
            (
                b"{\"op\":\"sweep\",\"config\":{\"gen\":{\"max_body\":4000000000}}}",
                "max_body",
            ),
        ] {
            let body = String::from_utf8(c.request_raw(frame).unwrap()).unwrap();
            assert!(body.starts_with("{\"ok\":false"), "{body}");
            assert!(body.contains(field), "{body}");
        }
        // the connection survived all five
        assert!(c.ping().unwrap());

        c.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn deeply_nested_frames_do_not_kill_the_daemon() {
        let (addr, handle) = spawn_daemon();
        let mut c = Client::connect(addr).unwrap();
        // One frame of a million `[`: an error response (or, at worst,
        // a dropped connection) — never a stack overflow that aborts
        // the whole process.
        if let Ok(r) = c.request_raw("[".repeat(1_000_000).as_bytes()) {
            let body = String::from_utf8_lossy(&r);
            assert!(body.starts_with("{\"ok\":false"), "{body}");
            assert!(body.contains("nesting"), "{body}");
        }
        // Shutdown drains open connections, so close this one first.
        drop(c);
        let mut fresh = Client::connect(addr).unwrap();
        assert!(fresh.ping().unwrap());
        fresh.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn undecodable_binaries_are_rejected_with_the_offending_word() {
        let (addr, handle) = spawn_daemon();
        let mut c = Client::connect(addr).unwrap();
        let r = c
            .request(&Json::Obj(vec![
                ("op".into(), Json::Str("retarget".into())),
                // opcode 0x3e names no instruction
                ("binary".into(), Json::Arr(vec![Json::u64(0x3e << 26)])),
                (
                    "config".into(),
                    Json::Obj(vec![("variant".into(), Json::Str("lite".into()))]),
                ),
            ]))
            .unwrap();
        assert!(r.starts_with(b"{\"ok\":false"));
        c.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }
}
