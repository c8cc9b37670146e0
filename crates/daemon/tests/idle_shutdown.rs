//! `shutdown` drains a daemon that still has idle clients: their
//! connections are closed rather than waited on, while a job already
//! running on another connection still gets its reply.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;
use zolc_bench::{SweepConfig, SweepPoint};
use zolc_core::ZolcConfig;
use zolc_daemon::protocol::{read_frame, sweep_request, write_frame};
use zolc_daemon::server::offline_sweep_response;
use zolc_daemon::{Client, Daemon, DaemonConfig};

/// How long a drain may take before the test calls it stuck.
const DRAIN: Duration = Duration::from_secs(10);

/// A daemon serving on its own thread.
struct Running {
    addr: SocketAddr,
    thread: thread::JoinHandle<()>,
    done: mpsc::Receiver<io::Result<()>>,
}

impl Running {
    fn start() -> Running {
        let daemon = Daemon::bind(&DaemonConfig::new()).unwrap();
        let addr = daemon.local_addr();
        let (tx, done) = mpsc::channel();
        let thread = thread::spawn(move || {
            let _ = tx.send(daemon.run());
        });
        Running { addr, thread, done }
    }

    /// Asserts that `run` returns cleanly within [`DRAIN`], then joins
    /// its thread. A stuck drain fails the test instead of hanging it.
    fn assert_drains(self) {
        let ran = self.done.recv_timeout(DRAIN);
        assert!(
            matches!(ran, Ok(Ok(()))),
            "the daemon did not drain within {DRAIN:?}: {ran:?}"
        );
        self.thread.join().expect("the daemon thread did not panic");
    }
}

#[test]
fn shutdown_returns_with_idle_clients_connected() {
    let daemon = Running::start();
    let addr = daemon.addr;
    // one client that spoke once and went quiet, one that never spoke
    let mut spoke = Client::connect(addr).unwrap();
    assert!(spoke.ping().unwrap());
    let silent = TcpStream::connect(addr).unwrap();
    Client::connect(addr).unwrap().shutdown().unwrap();
    daemon.assert_drains();
    // both idle connections were closed by the drain
    assert!(spoke.ping().is_err());
    drop(silent);
}

#[test]
fn shutdown_still_answers_a_job_in_flight() {
    let daemon = Running::start();
    let addr = daemon.addr;
    let sweep = SweepConfig::new()
        .with_programs(200)
        .with_points(vec![SweepPoint::new("lite", ZolcConfig::lite())]);
    // the job is on the wire before `shutdown` is sent
    let mut busy = TcpStream::connect(addr).unwrap();
    write_frame(&mut busy, sweep_request(&sweep).render().as_bytes()).unwrap();
    Client::connect(addr).unwrap().shutdown().unwrap();
    daemon.assert_drains();
    let reply = read_frame(&mut busy)
        .unwrap()
        .expect("the job in flight got its reply");
    assert_eq!(reply, offline_sweep_response(&sweep));
}
