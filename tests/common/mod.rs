//! Instruction and loop-structure generators shared by the root
//! property suites (`prop_pipeline` checks pipeline-vs-interpreter,
//! `prop_exec_equiv` checks pipeline-vs-functional-executor and
//! retarget equivalence), and the hostile text generator
//! ([`hostile`]) of the wild-input nets. Each suite uses a different
//! part of this module.
//!
//! Loop-structure generation is delegated to `zolc-gen`: the strategies
//! here sample `proptest` randomness into [`LoopShape`] values (and the
//! shared `body_instr` menu), and the suites assemble them through
//! `ProgramSpec::assemble` — the same model and emitter the E7
//! design-space sweeps use, so a shape the property suite falsifies is
//! immediately replayable in the explorer.

#![allow(dead_code)]

pub mod hostile;

use proptest::prelude::*;
use zolc::gen::{body_instr_variant, BoundKind, GenRng, LatchKind, LoopShape, BODY_MENU_LEN};
use zolc::isa::Instr;

/// Strategy: one random straight-line instruction over r2..r9 plus
/// memory accesses through the r1 base (word slots 0..16, byte offsets
/// 0..64 — all inside the 256-byte data window the sweeps snapshot).
///
/// Sampled through `zolc_gen::body_instr_variant` — the same menu the
/// E7 design-space sweeps draw from — so the property suites and the
/// explorer can never drift apart in the body space they cover, while
/// the separately-shrinkable variant index keeps counterexamples
/// shrinking toward the plainest instruction.
pub fn any_instr() -> impl Strategy<Value = Instr> {
    (0..BODY_MENU_LEN, any::<u64>())
        .prop_map(|(variant, seed)| body_instr_variant(variant, &mut GenRng::new(seed)))
}

/// Strategy for one [`LoopShape`] used by the auto-retarget equivalence
/// property: a down-counter (or `dbnz`) loop with a straight-line body,
/// optionally one nested inner loop, and optional forward branches
/// interacting with the loop region (`pre_skip` over the whole loop,
/// `tail_skip` from body start to latch). Counter and bound registers
/// are allocated by `zolc-gen` from the `r10`–`r31` pool, which
/// [`any_instr`] bodies never touch.
pub fn gen_loop() -> impl Strategy<Value = LoopShape> {
    (
        1u32..8,
        any::<bool>(),
        any::<bool>(),
        prop::collection::vec(any_instr(), 0..5),
        (
            any::<bool>(),
            1u32..6,
            any::<bool>(),
            prop::collection::vec(any_instr(), 0..4),
        ),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(
                trips,
                reg_limit,
                dbnz,
                body,
                (nested, itrips, idbnz, ibody),
                pre_skip,
                tail_skip,
            )| {
                let latch_of = |dbnz: bool| {
                    if dbnz {
                        LatchKind::Dbnz
                    } else {
                        LatchKind::Counter
                    }
                };
                let children = if nested {
                    vec![LoopShape {
                        latch: latch_of(idbnz),
                        pre: ibody,
                        ..LoopShape::counted(itrips)
                    }]
                } else {
                    vec![]
                };
                LoopShape {
                    trips,
                    bound: if reg_limit {
                        BoundKind::Reg
                    } else {
                        BoundKind::Const
                    },
                    latch: latch_of(dbnz),
                    pre: body,
                    children,
                    post: vec![],
                    pre_skip,
                    tail_skip,
                }
            },
        )
}
