//! The lemmas behind the E7 sweep's run sharing across configurations
//! (`zolc_cfg::SynthesisKey`): a run cannot tell two configurations
//! with task tables apart when its tables fit both.
//!
//! * `ZOLCfull` and `ZOLClite` differ only in entry and exit record
//!   slots. A run that writes no entry and no exit record cannot tell
//!   them apart.
//! * Task-table configurations with different loop and task counts
//!   agree on a run whose every table write, loop id, task link and
//!   activation names a record below both counts. A retargeted text
//!   whose handled loops fit both capacities is such a run: it names
//!   only loops and tasks below the handled-loop count.
//!
//! Random table sets in the style of `footprint.rs`: one random sequence
//! of `zwr` writes to the loop, task and global regions (every field,
//! unknown field selectors included, and record indices past the
//! capacity where both configurations share it), `zctl` operations, and
//! hook calls — fetches that run ahead of their retirement and are
//! flushed or executed in order, taken and not-taken branch events,
//! granted iterates retired in closed form — drives one controller of
//! each configuration. After every step the two must agree on the hook
//! footprint, the fetch-time decisions, the compiled decision at every
//! text pc from random states, the iterates granted at every text pc,
//! both dynamic states and the violations.
//!
//! The footprints are compared without `0xfffffffc`, the pc before the
//! start of an unwritten loop record. A configuration with more loop
//! records than the tables write holds such records; a run reaches that
//! pc on neither configuration, since no text holds it.

use zolc_core::{DynState, Zolc, ZolcConfig, MAX_LOOPS, MAX_TASKS, TASK_NONE};
use zolc_gen::GenRng;
use zolc_isa::{global_field, loop_field as l, task_field as t, ZolcCtl, ZolcRegion, TEXT_BASE};
use zolc_sim::{ExecEvent, LoopEngine};

/// Text length the random addresses are drawn from.
const LEN: u32 = 32;

/// The pc before the start of an unwritten loop record.
const UNWRITTEN: u32 = 0u32.wrapping_sub(4);

/// The records random tables may name: below both configurations'
/// loop and task counts.
#[derive(Clone, Copy)]
struct Fit {
    loops: u32,
    tasks: u32,
    /// Whether a write past the capacity is allowed: only where both
    /// configurations reject it alike (equal loop and task counts).
    out_of_range: bool,
}

impl Fit {
    fn of(a: &ZolcConfig, b: &ZolcConfig) -> Fit {
        Fit {
            loops: a.loops().min(b.loops()) as u32,
            tasks: a.tasks().min(b.tasks()) as u32,
            out_of_range: a.loops() == b.loops() && a.tasks() == b.tasks(),
        }
    }

    /// A task id: below the fit, or [`TASK_NONE`] when `id` is past it.
    fn task(self, id: u32) -> u32 {
        if id < self.tasks {
            id
        } else {
            u32::from(TASK_NONE)
        }
    }
}

/// A random value for `field` of record `index` of `region`: addresses
/// in (or just past) the text, valid bits mostly set, small limits and
/// counts, loop ids and iterate links within the fit, fall-through
/// links only to higher task ids (or none, so completion chains end),
/// any other value.
fn random_value(rng: &mut GenRng, fit: Fit, region: ZolcRegion, field: u8, index: u8) -> u32 {
    match (region, field) {
        (ZolcRegion::Loop, l::START | l::END) | (ZolcRegion::Task, t::END) => {
            TEXT_BASE + 4 * rng.below(LEN + 2)
        }
        (ZolcRegion::Task, t::CTL) => u32::from(rng.chance(3, 4)),
        (ZolcRegion::Loop, l::LIMIT | l::COUNT) => rng.below(5),
        (ZolcRegion::Loop, l::INDEX_REG) => rng.below(32),
        (ZolcRegion::Task, t::LOOP_ID) => rng.below(fit.loops),
        (ZolcRegion::Task, t::NEXT_ITER) => rng.below(fit.tasks),
        (ZolcRegion::Task, t::NEXT_FALLTHRU) => fit.task(u32::from(index) + 1 + rng.below(8)),
        _ => rng.next_u64() as u32,
    }
}

/// A random `zwr` to a region both configurations have: mostly a known
/// field of a record within the fit, sometimes an unknown field or
/// (where the fit allows) an index past the capacity. Both are rejected
/// and recorded as violations.
fn random_zwr(rng: &mut GenRng, fit: Fit) -> (ZolcRegion, u8, u8, u32) {
    let (region, fields) = match rng.below(8) {
        0..=3 => (ZolcRegion::Loop, 8),
        4..=6 => (ZolcRegion::Task, 5),
        _ => (ZolcRegion::Global, 3),
    };
    let index = if fit.out_of_range && rng.chance(1, 16) {
        rng.below(256) as u8
    } else if region == ZolcRegion::Loop {
        rng.below(fit.loops) as u8
    } else {
        rng.below(fit.tasks) as u8
    };
    let field = if rng.chance(1, 32) {
        fields + rng.below(4) as u8
    } else {
        rng.below(u32::from(fields)) as u8
    };
    (
        region,
        index,
        field,
        random_value(rng, fit, region, field, index),
    )
}

/// The hook footprint a run can reach.
fn footprint(z: &Zolc) -> Vec<u32> {
    let fp = z.hook_pcs().unwrap_or_default();
    fp.iter().copied().filter(|&pc| pc != UNWRITTEN).collect()
}

fn random_pc(rng: &mut GenRng, z: &Zolc) -> u32 {
    let fp = footprint(z);
    if !fp.is_empty() && rng.chance(3, 4) {
        fp[rng.below(fp.len() as u32) as usize]
    } else {
        TEXT_BASE + 4 * rng.below(LEN)
    }
}

fn random_event(rng: &mut GenRng) -> ExecEvent {
    match rng.below(3) {
        0 => ExecEvent::Plain,
        1 => ExecEvent::NotTaken,
        _ => ExecEvent::Taken {
            target: TEXT_BASE + 4 * rng.below(LEN),
        },
    }
}

/// A random active dynamic state a run of fitting tables can reach:
/// the current task within the fit (or none), and counts and indices
/// only on loops within it.
fn random_state(rng: &mut GenRng, fit: Fit) -> DynState {
    let mut st = DynState {
        active: true,
        current_task: fit.task(rng.below(fit.tasks + 1)) as u8,
        ..DynState::default()
    };
    for k in 0..fit.loops as usize {
        st.counts[k] = rng.below(6);
        st.index_cur[k] = rng.next_u64() as u32;
    }
    st
}

/// Asserts that `a` and `b` agree on everything a run observes.
/// Returns the iterates granted at text pcs.
fn agree(a: &Zolc, b: &Zolc, rng: &mut GenRng, fit: Fit, ctx: &str) -> usize {
    assert_eq!(footprint(a), footprint(b), "{ctx}: footprint");
    assert_eq!(a.is_passive(), b.is_passive(), "{ctx}: passive");
    assert_eq!(a.arch_state(), b.arch_state(), "{ctx}: arch state");
    assert_eq!(a.spec_state(), b.spec_state(), "{ctx}: spec state");
    assert_eq!(a.violations(), b.violations(), "{ctx}: violations");
    let mut grants = 0;
    let states = [
        *a.arch_state(),
        random_state(rng, fit),
        random_state(rng, fit),
    ];
    for pc in (0..LEN).map(|i| TEXT_BASE + 4 * i) {
        for st in states {
            let (mut sa, mut sb) = (st, st);
            let (da, db) = (a.decide_at(&mut sa, pc), b.decide_at(&mut sb, pc));
            assert_eq!(da, db, "{ctx}: decision at {pc:#x} from {st:?}");
            assert_eq!(sa, sb, "{ctx}: post-state at {pc:#x} from {st:?}");
        }
        let it = a.iterations(pc);
        assert_eq!(it, b.iterations(pc), "{ctx}: grant at {pc:#x}");
        grants += usize::from(it.is_some());
    }
    grants
}

/// Drives a controller of `ca` and one of `cb` through `rounds` random
/// table sets that fit both and checks after every step that they
/// agree. Returns the grants and the fetches compared.
fn differential(ca: ZolcConfig, cb: ZolcConfig, seed: u64, rounds: usize) -> (usize, usize) {
    let fit = Fit::of(&ca, &cb);
    let mut rng = GenRng::new(seed);
    let (mut grants, mut fetches) = (0, 0);
    for round in 0..rounds {
        let (mut a, mut b) = (Zolc::new(ca), Zolc::new(cb));
        // An initialization sequence: every field of every loop record
        // and of a few tasks within the fit, then activation.
        let mut init = Vec::new();
        for index in 0..fit.loops as u8 {
            for field in 0..8 {
                init.push((ZolcRegion::Loop, index, field));
            }
        }
        for _ in 0..6 {
            let index = rng.below(fit.tasks) as u8;
            init.extend((0..5).map(|field| (ZolcRegion::Task, index, field)));
        }
        init.push((ZolcRegion::Global, 0, global_field::CODE_BASE));
        let mut writes: Vec<(ZolcRegion, u8, u8, u32)> = init
            .into_iter()
            .map(|(region, index, field)| {
                (
                    region,
                    index,
                    field,
                    random_value(&mut rng, fit, region, field, index),
                )
            })
            .collect();
        // and a few tasks that end where their loop ends and iterate
        // into themselves, where the controller grants iterates
        for _ in 0..3 {
            let index = rng.below(fit.loops.min(fit.tasks)) as u8;
            let end = writes
                .iter()
                .find(|w| w.0 == ZolcRegion::Loop && w.1 == index && w.2 == l::END)
                .map_or(TEXT_BASE, |w| w.3);
            writes.extend([
                (ZolcRegion::Loop, index, l::LIMIT, 2 + rng.below(6)),
                (ZolcRegion::Task, index, t::END, end),
                (ZolcRegion::Task, index, t::LOOP_ID, u32::from(index)),
                (ZolcRegion::Task, index, t::NEXT_ITER, u32::from(index)),
                (ZolcRegion::Task, index, t::CTL, 1),
            ]);
        }
        for (region, index, field, value) in writes {
            a.exec_zwr(region, index, field, value);
            b.exec_zwr(region, index, field, value);
        }
        let on = ZolcCtl::Activate {
            task: rng.below(fit.tasks.min(8)) as u8,
        };
        a.exec_zctl(on);
        b.exec_zctl(on);
        grants += agree(&a, &b, &mut rng, fit, &format!("round {round} init"));

        for step in 0..40 {
            let ctx = format!("{ca} vs {cb}, round {round} step {step}");
            match rng.below(16) {
                0..=2 => {
                    let (region, index, field, value) = random_zwr(&mut rng, fit);
                    a.exec_zwr(region, index, field, value);
                    b.exec_zwr(region, index, field, value);
                }
                3 => {
                    let op = match rng.below(4) {
                        0 => ZolcCtl::Deactivate,
                        1 => ZolcCtl::Reset,
                        _ => ZolcCtl::Activate {
                            task: fit.task(rng.below(MAX_TASKS as u32)) as u8,
                        },
                    };
                    a.exec_zctl(op);
                    b.exec_zctl(op);
                }
                4..=5 => {
                    // fetches running ahead of retirement, then either
                    // flushed or executed in order
                    let pcs: Vec<u32> = (0..1 + rng.below(3))
                        .map(|_| random_pc(&mut rng, &a))
                        .collect();
                    for &pc in &pcs {
                        assert_eq!(a.on_fetch(pc), b.on_fetch(pc), "{ctx}: fetch {pc:#x}");
                        fetches += 1;
                    }
                    if rng.chance(1, 3) {
                        a.on_flush();
                        b.on_flush();
                    } else {
                        for &pc in &pcs {
                            let event = random_event(&mut rng);
                            a.on_execute(pc, event);
                            b.on_execute(pc, event);
                        }
                    }
                }
                6..=7 => {
                    let pc = random_pc(&mut rng, &a);
                    if let Some(it) = a.iterations(pc) {
                        let n = 1 + rng.below(it.count);
                        a.retire_iterations(pc, n);
                        b.retire_iterations(pc, n);
                    }
                }
                _ => {
                    let pc = random_pc(&mut rng, &a);
                    assert_eq!(a.on_fetch(pc), b.on_fetch(pc), "{ctx}: fetch {pc:#x}");
                    fetches += 1;
                    let event = random_event(&mut rng);
                    a.on_execute(pc, event);
                    b.on_execute(pc, event);
                }
            }
            grants += agree(&a, &b, &mut rng, fit, &ctx);
        }
    }
    (grants, fetches)
}

#[test]
fn lite_and_full_agree_without_entry_or_exit_writes() {
    let (grants, fetches) = differential(ZolcConfig::lite(), ZolcConfig::full(), 0x005e_eb1e, 400);
    eprintln!("grants, fetches compared: {grants}, {fetches}");
    // the net must reach granted iterates and many hooked fetches
    assert!(grants >= 1000, "only {grants} grants compared");
    assert!(fetches >= 8000, "only {fetches} fetches compared");
}

#[test]
fn task_tables_agree_across_loop_and_task_counts_on_tables_that_fit_both() {
    let custom = |loops, tasks, entries, exits| {
        ZolcConfig::custom(loops, tasks, entries, exits).expect("valid custom point")
    };
    let pairs = [
        // the standard sweep's pairs
        (ZolcConfig::lite(), custom(2, 8, 0, 0)),
        (ZolcConfig::full(), custom(2, 8, 0, 0)),
        // more tasks than loops, and the reverse
        (custom(MAX_LOOPS, 8, 0, 0), ZolcConfig::full()),
        (custom(3, 4, 0, 0), custom(5, 3, 2, 1)),
        // a single loop and task
        (custom(1, 1, 0, 0), ZolcConfig::lite()),
    ];
    for (k, (a, b)) in pairs.into_iter().enumerate() {
        let (grants, fetches) = differential(a, b, 0x0c0_57a7 + k as u64, 150);
        eprintln!("{a} vs {b}: grants, fetches compared: {grants}, {fetches}");
        assert!(grants >= 150, "{a} vs {b}: only {grants} grants compared");
        assert!(
            fetches >= 3000,
            "{a} vs {b}: only {fetches} fetches compared"
        );
    }
}
