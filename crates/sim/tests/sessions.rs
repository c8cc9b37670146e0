//! Session-API coverage: many concurrent sessions over one shared
//! [`CompiledProgram`] must be bit-exact with solo runs on every
//! executor tier — including the loop-nest superblock tier, whose
//! superblocks live in the program's shared cache.

use std::sync::Arc;
use std::thread;
use zolc_isa::assemble;
use zolc_sim::{run_session, CompiledProgram, CpuConfig, ExecutorKind, NullEngine, Stats};

/// A program with several distinct basic blocks, calls and a loop — all
/// the shapes the superblock compiler caches.
const KERNEL: &str = "
        li   r1, 200
        li   r2, 0
  top:  add  r2, r2, r1
        jal  scale
        addi r1, r1, -1
        bne  r1, r0, top
        j    done
  scale:
        slt  r4, r2, r3
        beq  r4, r0, cap
        addi r3, r3, 1
        jr   r31
  cap:  addi r3, r3, 2
        jr   r31
  done: halt
";

fn solo(kind: ExecutorKind, prog: &Arc<CompiledProgram>) -> (Stats, Vec<u32>) {
    let f = run_session(kind, prog, &mut NullEngine, 1_000_000).unwrap();
    (f.stats, f.cpu.regs().snapshot().to_vec())
}

/// N threads sharing one `Arc<CompiledProgram>` each run to completion
/// and match the solo run bit-exactly, on every executor tier.
#[test]
fn concurrent_sessions_match_solo_runs_on_every_tier() {
    let p = assemble(KERNEL).unwrap();
    let prog = CompiledProgram::compile(p);
    for kind in ExecutorKind::ALL {
        let reference = solo(kind, &prog);
        thread::scope(|s| {
            let handles: Vec<_> = (0..8).map(|_| s.spawn(|| solo(kind, &prog))).collect();
            for h in handles {
                let got = h.join().expect("session thread panicked");
                assert_eq!(got, reference, "{kind}: concurrent run diverged from solo");
            }
        });
    }
    // The nest tier exercised the shared superblock cache: each entry
    // region compiled once (by whichever of the 9 sessions got there
    // first), all later sessions hit.
    let nstats = prog.nest_cache_stats();
    assert!(
        nstats.misses > 0,
        "nest tier populated the superblock cache"
    );
    assert!(nstats.hits > 0, "later sessions reused shared superblocks");
}

/// Sessions are independent: seeding registers or memory in one session
/// never leaks into another over the same program.
#[test]
fn sessions_do_not_share_mutable_state() {
    let p = assemble(
        "
        .data
  cell: .space 4
        .text
        la   r1, cell
        lw   r2, (r1)
        addi r2, r2, 1
        halt
    ",
    )
    .unwrap();
    let prog = CompiledProgram::compile(p);
    for kind in ExecutorKind::ALL {
        let mut a = kind.new_session(&prog, CpuConfig::default()).unwrap();
        a.mem_mut().store_word(0x40000, 41).unwrap();
        a.run(&mut NullEngine, 1_000).unwrap();
        assert_eq!(a.regs().read(zolc_isa::reg(2)), 42);

        let mut b = kind.new_session(&prog, CpuConfig::default()).unwrap();
        b.run(&mut NullEngine, 1_000).unwrap();
        assert_eq!(
            b.regs().read(zolc_isa::reg(2)),
            1,
            "{kind}: session B saw session A's memory"
        );
    }
}
