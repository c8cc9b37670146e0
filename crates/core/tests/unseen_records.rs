//! The lemma behind `ZolcConfig::seen_by`'s second rule: a run that
//! writes no entry and no exit record cannot tell `ZOLCfull` from
//! `ZOLClite`.
//!
//! Random table sets in the style of `footprint.rs`: one random sequence
//! of `zwr` writes to the loop, task and global regions (every field,
//! record indices past the capacity and unknown field selectors
//! included), `zctl` operations, and hook calls — fetches that run ahead
//! of their retirement and are flushed or executed in order, taken and
//! not-taken branch events, granted iterates retired in closed form —
//! drives one controller of each configuration. After every step the
//! two must agree on the hook footprint, the fetch-time decisions, the
//! compiled decision at every text pc from random states, the iterates
//! granted at every text pc, both dynamic states and the violations.

use zolc_core::{DynState, Zolc, ZolcConfig, MAX_LOOPS};
use zolc_gen::GenRng;
use zolc_isa::{global_field, loop_field as l, task_field as t, ZolcCtl, ZolcRegion, TEXT_BASE};
use zolc_sim::{ExecEvent, LoopEngine};

/// Text length the random addresses are drawn from.
const LEN: u32 = 32;

/// A random value for `field` of record `index` of `region`: addresses
/// in (or just past) the text, valid bits mostly set, small limits and
/// counts, fall-through links only to higher task ids (capped at
/// `TASK_NONE`, so completion chains end), any other value.
fn random_value(rng: &mut GenRng, region: ZolcRegion, field: u8, index: u8) -> u32 {
    match (region, field) {
        (ZolcRegion::Loop, l::START | l::END) | (ZolcRegion::Task, t::END) => {
            TEXT_BASE + 4 * rng.below(LEN + 2)
        }
        (ZolcRegion::Task, t::CTL) => u32::from(rng.chance(3, 4)),
        (ZolcRegion::Loop, l::LIMIT | l::COUNT) => rng.below(5),
        (ZolcRegion::Loop, l::INDEX_REG) => rng.below(32),
        (ZolcRegion::Task, t::LOOP_ID) => rng.below(8),
        (ZolcRegion::Task, t::NEXT_ITER) => rng.below(32),
        (ZolcRegion::Task, t::NEXT_FALLTHRU) => (u32::from(index) + 1 + rng.below(8)).min(31),
        _ => rng.next_u64() as u32,
    }
}

/// A random `zwr` to a region both configurations have: mostly a known
/// field of an in-range record, sometimes an index past the capacity or
/// an unknown field (both are rejected and recorded as violations).
fn random_zwr(rng: &mut GenRng) -> (ZolcRegion, u8, u8, u32) {
    let (region, fields) = match rng.below(8) {
        0..=3 => (ZolcRegion::Loop, 8),
        4..=6 => (ZolcRegion::Task, 5),
        _ => (ZolcRegion::Global, 3),
    };
    let index = if rng.chance(1, 16) {
        rng.below(256) as u8
    } else if region == ZolcRegion::Loop {
        rng.below(MAX_LOOPS as u32) as u8
    } else {
        rng.below(32) as u8
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
        random_value(rng, region, field, index),
    )
}

fn random_pc(rng: &mut GenRng, z: &Zolc) -> u32 {
    let fp = z.hook_pcs().unwrap_or_default();
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

/// A random active dynamic state.
fn random_state(rng: &mut GenRng) -> DynState {
    let mut st = DynState {
        active: true,
        current_task: rng.below(32) as u8,
        ..DynState::default()
    };
    for k in 0..MAX_LOOPS {
        st.counts[k] = rng.below(6);
        st.index_cur[k] = rng.next_u64() as u32;
    }
    st
}

/// Asserts that `lite` and `full` agree on everything a run observes.
/// Returns the iterates granted at text pcs.
fn agree(lite: &Zolc, full: &Zolc, rng: &mut GenRng, ctx: &str) -> usize {
    assert_eq!(lite.hook_pcs(), full.hook_pcs(), "{ctx}: footprint");
    assert_eq!(lite.is_passive(), full.is_passive(), "{ctx}: passive");
    assert_eq!(lite.arch_state(), full.arch_state(), "{ctx}: arch state");
    assert_eq!(lite.spec_state(), full.spec_state(), "{ctx}: spec state");
    assert_eq!(lite.violations(), full.violations(), "{ctx}: violations");
    let mut grants = 0;
    let states = [*lite.arch_state(), random_state(rng), random_state(rng)];
    for pc in (0..LEN).map(|i| TEXT_BASE + 4 * i) {
        for st in states {
            let (mut a, mut b) = (st, st);
            let (da, db) = (lite.decide_at(&mut a, pc), full.decide_at(&mut b, pc));
            assert_eq!(da, db, "{ctx}: decision at {pc:#x} from {st:?}");
            assert_eq!(a, b, "{ctx}: post-state at {pc:#x} from {st:?}");
        }
        let it = lite.iterations(pc);
        assert_eq!(it, full.iterations(pc), "{ctx}: grant at {pc:#x}");
        grants += usize::from(it.is_some());
    }
    grants
}

#[test]
fn lite_and_full_agree_without_entry_or_exit_writes() {
    let mut rng = GenRng::new(0x005e_eb1e);
    let (mut grants, mut fetches) = (0, 0);
    for round in 0..400 {
        let (mut lite, mut full) = (Zolc::new(ZolcConfig::lite()), Zolc::new(ZolcConfig::full()));
        // An initialization sequence: every field of every loop record
        // and of a few tasks, then activation.
        let mut init = Vec::new();
        for index in 0..MAX_LOOPS as u8 {
            for field in 0..8 {
                init.push((ZolcRegion::Loop, index, field));
            }
        }
        for _ in 0..6 {
            let index = rng.below(32) as u8;
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
                    random_value(&mut rng, region, field, index),
                )
            })
            .collect();
        // and a few tasks that end where their loop ends and iterate
        // into themselves, where the controller grants iterates
        for _ in 0..3 {
            let index = rng.below(8) as u8;
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
            lite.exec_zwr(region, index, field, value);
            full.exec_zwr(region, index, field, value);
        }
        let on = ZolcCtl::Activate {
            task: rng.below(8) as u8,
        };
        lite.exec_zctl(on);
        full.exec_zctl(on);
        grants += agree(&lite, &full, &mut rng, &format!("round {round} init"));

        for step in 0..40 {
            let ctx = format!("round {round} step {step}");
            match rng.below(16) {
                0..=2 => {
                    let (region, index, field, value) = random_zwr(&mut rng);
                    lite.exec_zwr(region, index, field, value);
                    full.exec_zwr(region, index, field, value);
                }
                3 => {
                    let op = match rng.below(4) {
                        0 => ZolcCtl::Deactivate,
                        1 => ZolcCtl::Reset,
                        _ => ZolcCtl::Activate {
                            task: rng.below(32) as u8,
                        },
                    };
                    lite.exec_zctl(op);
                    full.exec_zctl(op);
                }
                4..=5 => {
                    // fetches running ahead of retirement, then either
                    // flushed or executed in order
                    let pcs: Vec<u32> = (0..1 + rng.below(3))
                        .map(|_| random_pc(&mut rng, &lite))
                        .collect();
                    for &pc in &pcs {
                        assert_eq!(lite.on_fetch(pc), full.on_fetch(pc), "{ctx}: fetch {pc:#x}");
                        fetches += 1;
                    }
                    if rng.chance(1, 3) {
                        lite.on_flush();
                        full.on_flush();
                    } else {
                        for &pc in &pcs {
                            let event = random_event(&mut rng);
                            lite.on_execute(pc, event);
                            full.on_execute(pc, event);
                        }
                    }
                }
                6..=7 => {
                    let pc = random_pc(&mut rng, &lite);
                    if let Some(it) = lite.iterations(pc) {
                        let n = 1 + rng.below(it.count);
                        lite.retire_iterations(pc, n);
                        full.retire_iterations(pc, n);
                    }
                }
                _ => {
                    let pc = random_pc(&mut rng, &lite);
                    assert_eq!(lite.on_fetch(pc), full.on_fetch(pc), "{ctx}: fetch {pc:#x}");
                    fetches += 1;
                    let event = random_event(&mut rng);
                    lite.on_execute(pc, event);
                    full.on_execute(pc, event);
                }
            }
            grants += agree(&lite, &full, &mut rng, &ctx);
        }
    }
    eprintln!("grants, fetches compared: {grants}, {fetches}");
    // the net must reach granted iterates and many hooked fetches
    assert!(grants >= 1000, "only {grants} grants compared");
    assert!(fetches >= 8000, "only {fetches} fetches compared");
}
