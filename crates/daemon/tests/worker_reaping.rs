//! A long-lived `zolcd` must not keep one thread per past connection:
//! after many short connections, the process's memory map is about as
//! long as before them. (Its own test binary, so no other test's
//! threads or allocations move the map while it counts.)

#![cfg(target_os = "linux")]

use std::thread;
use zolc_daemon::{Client, Daemon, DaemonConfig};

/// Lines of `/proc/self/maps`: one per mapping, so one or more per
/// thread stack still mapped.
fn mapped_regions() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("procfs is mounted")
        .lines()
        .count()
}

fn ping_once(addr: std::net::SocketAddr) {
    let mut c = Client::connect(addr).unwrap();
    assert!(c.ping().unwrap());
}

#[test]
fn sequential_connections_leave_no_threads_behind() {
    let daemon = Daemon::bind(&DaemonConfig::new()).unwrap();
    let addr = daemon.local_addr();
    let server = thread::spawn(move || daemon.run());
    // Warm up: allocator arenas and cached stacks settle first.
    for _ in 0..50 {
        ping_once(addr);
    }
    let before = mapped_regions();
    for _ in 0..1000 {
        ping_once(addr);
    }
    let after = mapped_regions();
    assert!(
        after <= before + 32,
        "1000 connections grew the memory map from {before} to {after} regions"
    );
    Client::connect(addr).unwrap().shutdown().unwrap();
    server.join().unwrap().unwrap();
}
