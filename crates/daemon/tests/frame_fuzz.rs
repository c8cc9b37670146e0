//! A standing frame-fuzz net for `zolcd`: byte soup, truncated frames
//! and lying length prefixes, each on a connection of its own. Every
//! bad connection must get error frames or be dropped (never hang or
//! kill the daemon), and a fresh `ping` must still answer afterwards.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;
use zolc_daemon::protocol::MAX_FRAME;
use zolc_daemon::{Client, Daemon, DaemonConfig};
use zolc_gen::GenRng;

/// How long the daemon may take to answer or drop one connection.
const PATIENCE: Duration = Duration::from_secs(10);

/// `payload` behind its big-endian length prefix.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = (payload.len() as u32).to_be_bytes().to_vec();
    f.extend_from_slice(payload);
    f
}

/// Sends `bytes` on a fresh connection, closes the write side and
/// reads what comes back until the daemon closes the connection.
/// Returns the complete frames received; a partial trailing frame, or
/// a reset, is a dropped connection.
fn send(addr: SocketAddr, bytes: &[u8], ctx: &str) -> Vec<Vec<u8>> {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(PATIENCE)).unwrap();
    // the daemon may drop the connection before taking every byte
    if s.write_all(bytes).is_ok() {
        let _ = s.shutdown(Shutdown::Write);
    }
    let mut back = Vec::new();
    if let Err(e) = s.read_to_end(&mut back) {
        assert!(
            !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "{ctx}: neither answered nor dropped within {PATIENCE:?}"
        );
    }
    let mut frames = Vec::new();
    let mut rest = &back[..];
    while let Some((len, tail)) = rest.split_first_chunk::<4>() {
        let len = u32::from_be_bytes(*len) as usize;
        let Some(payload) = tail.get(..len) else {
            break;
        };
        frames.push(payload.to_vec());
        rest = &tail[len..];
    }
    frames
}

/// Asserts that every frame is an error response; returns how many.
fn error_frames(frames: &[Vec<u8>], ctx: &str) -> usize {
    for f in frames {
        let body = String::from_utf8_lossy(f);
        assert!(body.starts_with("{\"ok\":false"), "{ctx}: {body}");
    }
    frames.len()
}

fn ping(addr: SocketAddr, ctx: &str) {
    let mut c = Client::connect(addr).unwrap();
    assert!(c.ping().unwrap(), "{ctx}: ping after the bad connection");
}

#[test]
fn bad_frames_get_errors_or_drops_and_the_daemon_lives_on() {
    let daemon = Daemon::bind(&DaemonConfig::new()).unwrap();
    let addr = daemon.local_addr();
    let (tx, done) = mpsc::channel();
    let server = thread::spawn(move || {
        let _ = tx.send(daemon.run());
    });
    let mut rng = GenRng::new(0xf0a2_f422);
    let mut errors = 0;

    // byte soup, raw and behind honest length prefixes
    for k in 0..150 {
        let len = rng.below(96) as usize;
        let soup: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let bytes = if k % 2 == 0 { soup } else { frame(&soup) };
        let ctx = format!("soup {k}");
        errors += error_frames(&send(addr, &bytes, &ctx), &ctx);
        if k % 10 == 0 {
            ping(addr, &format!("soup {k}"));
        }
    }

    // every truncation of a good request, and of two in a row
    let good = frame(b"{\"op\":\"ping\"}");
    let two = [good.clone(), frame(b"{\"op\":\"stats\"}")].concat();
    for cut in (1..two.len()).filter(|&cut| cut != good.len()) {
        // a whole first request is answered; the torn one is dropped
        let answered = if cut > good.len() {
            vec![b"{\"ok\":true,\"result\":\"pong\"}".to_vec()]
        } else {
            Vec::new()
        };
        assert_eq!(send(addr, &two[..cut], ""), answered, "truncated at {cut}");
    }
    ping(addr, "truncations");

    // lying length prefixes: past the payload, at the cap with no
    // payload at all, and past the cap
    let lies: [(&str, Vec<u8>); 4] = [
        ("longer than its payload", {
            let mut f = frame(b"{\"op\":\"ping\"}");
            f[3] += 40;
            f
        }),
        (
            "at the cap, empty",
            (MAX_FRAME as u32).to_be_bytes().to_vec(),
        ),
        (
            "past the cap",
            (MAX_FRAME as u32 + 1).to_be_bytes().to_vec(),
        ),
        ("all ones", vec![0xff; 4]),
    ];
    for (what, bytes) in &lies {
        errors += error_frames(&send(addr, bytes, what), what);
        ping(addr, what);
    }

    eprintln!("{errors} error frames received");
    assert!(
        errors >= 50,
        "only {errors} error frames: the soup never reached the parser"
    );
    Client::connect(addr).unwrap().shutdown().unwrap();
    let ran = done.recv_timeout(PATIENCE);
    assert!(
        matches!(ran, Ok(Ok(()))),
        "no drain within {PATIENCE:?}: {ran:?}"
    );
    server.join().expect("the daemon thread did not panic");
}
