//! Session-API coverage: many concurrent sessions over one shared
//! [`CompiledProgram`] must be bit-exact with solo runs on every
//! executor tier — including the loop-nest superblock tier, whose
//! superblocks live in the program's shared cache.

use std::sync::Arc;
use std::thread;
use zolc_isa::{assemble, DATA_BASE, TEXT_BASE};
use zolc_sim::{
    run_session, CompiledProgram, CpuConfig, ExecutorKind, MemErrorKind, NullEngine, RunError,
    Stats, MEM_SIZE,
};

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

/// Every address below `MEM_SIZE` is usable and `OutOfBounds` starts
/// exactly at `MEM_SIZE`, for loads and stores, on every tier.
#[test]
fn memory_ends_exactly_at_mem_size_on_every_tier() {
    let last = MEM_SIZE - 4;
    let ok = CompiledProgram::compile(
        assemble(&format!(
            "
        li   r1, {last}
        li   r2, 0x5a5a1234
        sw   r2, (r1)
        lw   r3, (r1)
        halt
    "
        ))
        .unwrap(),
    );
    for kind in ExecutorKind::ALL {
        let f = run_session(kind, &ok, &mut NullEngine, 1_000).unwrap();
        assert_eq!(f.cpu.regs().read(zolc_isa::reg(3)), 0x5a5a_1234, "{kind}");
        assert_eq!(
            f.cpu.mem().load_word(last as u32).unwrap(),
            0x5a5a_1234,
            "{kind}"
        );
    }
    for access in ["sw r2, (r1)", "lw r3, (r1)"] {
        let bad = CompiledProgram::compile(
            assemble(&format!("li r1, {MEM_SIZE}\n{access}\nhalt")).unwrap(),
        );
        for kind in ExecutorKind::ALL {
            match run_session(kind, &bad, &mut NullEngine, 1_000) {
                Err(RunError::Mem(e)) => {
                    assert_eq!(e.kind(), MemErrorKind::OutOfBounds, "{kind}: {access}");
                    assert_eq!(e.addr() as usize, MEM_SIZE, "{kind}: {access}");
                }
                other => panic!(
                    "{kind}: {access} at MEM_SIZE gave {:?}",
                    other.map(|f| f.stats)
                ),
            }
        }
    }
}

/// A session dropped on a thread hands its memory to the next session
/// that thread opens, which must still read zero everywhere outside its
/// own text and data image: a data page, the last word below
/// `MEM_SIZE` and a host write across a page boundary are all reset.
#[test]
fn recycled_session_memory_reads_zero_on_every_tier() {
    let p = assemble(&format!(
        "
        .data
  cell: .space 4
        .text
        la   r1, cell
        li   r2, -1
        sw   r2, (r1)
        li   r1, {far}
        sw   r2, (r1)
        li   r1, {last}
        sw   r2, (r1)
        halt
    ",
        far = DATA_BASE + 0x8000,
        last = MEM_SIZE - 4,
    ))
    .unwrap();
    let prog = CompiledProgram::compile(p);
    let text = prog.source().text_bytes();
    let data = prog.source().data().to_vec();
    let (t, d) = (TEXT_BASE as usize, DATA_BASE as usize);
    let image = |a: usize| (t..t + text.len()).contains(&a) || (d..d + data.len()).contains(&a);
    for kind in ExecutorKind::ALL {
        let mut a = kind.new_session(&prog, CpuConfig::default()).unwrap();
        a.mem_mut()
            .write_bytes(DATA_BASE + 0x1ffc, &[0xff; 8])
            .unwrap();
        a.run(&mut NullEngine, 1_000).unwrap();
        assert_eq!(a.mem().load_word((MEM_SIZE - 4) as u32).unwrap(), u32::MAX);
        let a_buf = a.mem().read_bytes(0, 1).unwrap().as_ptr() as usize;
        drop(a);

        let b = kind.new_session(&prog, CpuConfig::default()).unwrap();
        let bytes = b.mem().read_bytes(0, MEM_SIZE).unwrap();
        assert_eq!(
            bytes.as_ptr() as usize,
            a_buf,
            "{kind}: session B recycles session A's memory"
        );
        assert_eq!(&bytes[t..t + text.len()], &text[..], "{kind}: text image");
        assert_eq!(&bytes[d..d + data.len()], &data[..], "{kind}: data image");
        if let Some(a) = (0..MEM_SIZE).find(|&a| !image(a) && bytes[a] != 0) {
            panic!("{kind}: session B reads {:#x} at {a:#x}", bytes[a]);
        }
    }
}
