//! Closed-form loop-summarization oracle for the ZOLC simulator.
//!
//! `zolc-oracle` predicts the final architectural state of
//! engine-passive programs *without executing them*: counted loop
//! nests built from the canonical `addi c, c, -1; bne c, r0, top`
//! latch are summarized symbolically — induction-variable recurrences,
//! accumulators and loop-invariant stores fold into an exact closed
//! form via a wrapping affine domain and a matrix-power recurrence —
//! while straight-line code is evaluated concretely. The result is a
//! [`Summary`] that must bit-match every executor tier, or an explicit
//! [`Unanalyzable`] refusal carrying a [`Reason`].
//!
//! The crate depends only on `zolc-isa`: its semantics are derived
//! from the ISA reference (instruction documentation and the memory
//! model), **not** from any executor implementation. That independence
//! is the point — the differential suites use the oracle as an extra
//! arm that would catch a semantics bug shared by all three executor
//! tiers, which mutual cross-checking cannot.
//!
//! # The analyzable fragment
//!
//! The oracle refuses (soundly, never wrongly) anything outside this
//! fragment:
//!
//! - control flow must be straight-line code, forward branches with
//!   loop-invariant (concretely resolvable) conditions, and counted
//!   latches of the exact shape `addi c, c, -1` immediately followed
//!   by `bne c, r0, top` with a backward target;
//! - `dbnz`, `zwr` and `zctl` are excluded — the oracle models
//!   engine-passive programs only ([`Reason::DbnzLatch`],
//!   [`Reason::ZolcInstr`]);
//! - loop-body memory accesses need loop-invariant addresses, and a
//!   value must never flow from one iteration to the next through
//!   memory ([`Reason::VariantAddress`], [`Reason::MemoryCarried`]);
//! - values feeding non-affine operations (compares, logic ops,
//!   variable shifts of a variant value, …) must be loop-invariant
//!   ([`Reason::CounterEscape`]) — with two exactness-preserving
//!   widenings: operations with absorbing or neutral concrete operands
//!   (`x & 0`, `x | !0`, `x ^ 0`, a shift by zero, …) stay in the
//!   affine domain, and values that merely *settle* (become
//!   iteration-independent after a short prefix, like a flag computed
//!   on the first trip) are admitted by peeling the settling prefix
//!   and folding the verified steady remainder — see the
//!   stabilization notes in the `analyze` module.
//!
//! Inside the fragment the summary is exact modulo 2^32, including
//! retire/branch counts, the final pc and every touched memory byte.
//!
//! # Example
//!
//! ```
//! let program = zolc_isa::assemble(
//!     r"
//!         li   r1, 100
//!         li   r2, 0
//! top:    add  r2, r2, r1
//!         addi r1, r1, -1
//!         bne  r1, r0, top
//!         halt
//!     ",
//! )
//! .unwrap();
//! let s = zolc_oracle::summarize(&program, 0x5_0000).unwrap();
//! assert_eq!(s.final_regs[2], 5050); // sum 1..=100
//! assert_eq!(s.final_regs[1], 0);
//! ```

#![warn(missing_docs)]

mod analyze;
mod expr;
mod summary;

pub use analyze::{summarize, summarize_state};
pub use summary::{Reason, Summary, Unanalyzable};

#[cfg(test)]
mod tests {
    use super::*;
    use zolc_isa::{assemble, Instr, Program, DATA_BASE, TEXT_BASE};

    const MEM: usize = DATA_BASE as usize + 0x1_0000;

    fn ok(src: &str) -> (Program, Summary) {
        let p = assemble(src).expect("assembles");
        let s = summarize(&p, MEM).expect("analyzable");
        (p, s)
    }

    fn refused(src: &str) -> Reason {
        let p = assemble(src).expect("assembles");
        summarize(&p, MEM).expect_err("must refuse").0
    }

    #[test]
    fn straightline_concrete_evaluation() {
        let (p, s) = ok(r"
            li   r2, 7
            addi r3, r2, 3
            sll  r4, r3, 4
            slt  r5, r2, r3
            halt
        ");
        assert_eq!(s.final_regs[2], 7);
        assert_eq!(s.final_regs[3], 10);
        assert_eq!(s.final_regs[4], 160);
        assert_eq!(s.final_regs[5], 1);
        assert_eq!(s.retired, p.text().len() as u64);
        assert_eq!(
            s.final_pc,
            TEXT_BASE + 4 * (p.text().len() as u64 - 1) as u32
        );
        assert_eq!(s.branches, 0);
        assert!(s.touched_mem.is_empty());
    }

    #[test]
    fn countdown_accumulator_closed_form() {
        let (p, s) = ok(r"
            li   r1, 100
            li   r2, 0
    top:    add  r2, r2, r1
            addi r1, r1, -1
            bne  r1, r0, top
            halt
        ");
        let prologue = p.text().len() as u64 - 4; // body + latch + halt
        assert_eq!(s.final_regs[2], 5050);
        assert_eq!(s.final_regs[1], 0);
        assert_eq!(s.retired, prologue + 3 * 100 + 1);
        assert_eq!(s.branches, 100);
        assert_eq!(s.taken_branches, 99);
        assert_eq!(s.final_pc, TEXT_BASE + 4 * (p.text().len() as u32 - 1));
    }

    #[test]
    fn nested_loops_fold_exactly() {
        let (p, s) = ok(r"
            li   r3, 0
            li   r10, 5
    outer:  li   r11, 4
    inner:  addi r3, r3, 1
            addi r11, r11, -1
            bne  r11, r0, inner
            addi r10, r10, -1
            bne  r10, r0, outer
            halt
        ");
        let prologue = p.text().len() as u64 - 7;
        assert_eq!(s.final_regs[3], 20);
        assert_eq!(s.final_regs[10], 0);
        assert_eq!(s.final_regs[11], 0);
        // Inner body retires 3/iteration (addi + latch pair); the outer
        // body retires li + 12 + its own latch pair = 15/iteration.
        assert_eq!(s.retired, prologue + 5 * 15 + 1);
        assert_eq!(s.branches, 25);
        assert_eq!(s.taken_branches, 19);
    }

    #[test]
    fn coupled_induction_chain_is_linear() {
        // r2 accumulates the counter, r3 accumulates the accumulator:
        // a second-order recurrence the matrix power must fold exactly.
        let (_, s) = ok(r"
            li   r1, 50
            li   r2, 0
            li   r3, 0
    top:    add  r2, r2, r1
            add  r3, r3, r2
            addi r1, r1, -1
            bne  r1, r0, top
            halt
        ");
        // r2_k = sum of the first k counter values; r3 = sum of prefixes.
        let mut c = 50u32;
        let (mut r2, mut r3) = (0u32, 0u32);
        for _ in 0..50 {
            r2 = r2.wrapping_add(c);
            r3 = r3.wrapping_add(r2);
            c = c.wrapping_sub(1);
        }
        assert_eq!(s.final_regs[2], r2);
        assert_eq!(s.final_regs[3], r3);
        assert_eq!(s.final_regs[1], 0);
    }

    #[test]
    fn wrapping_arithmetic_is_exact() {
        // 2^20 iterations of r2 += 0x10000 wraps r2 through 2^32.
        let (_, s) = ok(r"
            li   r1, 0x100000
            lui  r3, 0x1
            li   r2, 0
    top:    add  r2, r2, r3
            addi r1, r1, -1
            bne  r1, r0, top
            halt
        ");
        assert_eq!(s.final_regs[2], 0x10000u32.wrapping_mul(0x100000));
        assert!(s.retired > 3 * (1 << 20));
    }

    #[test]
    fn loop_invariant_stores_commit_last_value() {
        let (_, s) = ok(&format!(
            r"
            li   r1, {DATA_BASE}
            li   r10, 10
            li   r2, 0
    top:    sw   r2, 0(r1)
            lw   r3, 0(r1)
            addi r2, r2, 1
            addi r10, r10, -1
            bne  r10, r0, top
            halt
        "
        ));
        assert_eq!(s.final_regs[2], 10);
        // The forwarded load observes the value stored this iteration.
        assert_eq!(s.final_regs[3], 9);
        let word: Vec<(u32, u8)> = vec![
            (DATA_BASE, 9),
            (DATA_BASE + 1, 0),
            (DATA_BASE + 2, 0),
            (DATA_BASE + 3, 0),
        ];
        assert_eq!(s.touched_mem, word);
    }

    #[test]
    fn top_level_memory_roundtrip_with_extension() {
        let (_, s) = ok(&format!(
            r"
            li   r1, {DATA_BASE}
            li   r2, -2
            sb   r2, 5(r1)
            lb   r3, 5(r1)
            lbu  r4, 5(r1)
            halt
        "
        ));
        assert_eq!(s.final_regs[3], (-2i32) as u32);
        assert_eq!(s.final_regs[4], 0xfe);
        assert_eq!(s.touched_mem, vec![(DATA_BASE + 5, 0xfe)]);
    }

    #[test]
    fn data_segment_is_visible() {
        let (_, s) = ok(r"
            .data
    v:      .word 0x11223344
            .text
            li   r1, 0x40000
            lw   r2, 0(r1)
            lh   r3, 2(r1)
            halt
        ");
        assert_eq!(s.final_regs[2], 0x1122_3344);
        assert_eq!(s.final_regs[3], 0x1122);
    }

    #[test]
    fn zero_trip_guard_skips_loop() {
        // The canonical pre-skip guard: with r2 = 0 the beq jumps past
        // the latch, so the zero-trip latch is never entered.
        let (_, s) = ok(r"
            li   r10, 0
            beq  r10, r0, after
    top:    nop
            addi r10, r10, -1
            bne  r10, r0, top
    after:  li   r2, 3
            halt
        ");
        assert_eq!(s.final_regs[2], 3);
        assert_eq!(s.branches, 1);
        assert_eq!(s.taken_branches, 1);
    }

    #[test]
    fn refuses_dbnz_latch() {
        let r = refused(
            r"
            li   r10, 3
    top:    nop
            dbnz r10, top
            halt
        ",
        );
        assert!(matches!(r, Reason::DbnzLatch { .. }), "{r:?}");
    }

    #[test]
    fn refuses_zolc_instructions() {
        let p = Program::from_parts(
            vec![
                Instr::Zctl {
                    op: zolc_isa::ZolcCtl::Activate { task: 0 },
                },
                Instr::Halt,
            ],
            vec![],
        );
        let r = summarize(&p, MEM).expect_err("must refuse").0;
        assert!(
            matches!(r, Reason::ZolcInstr { pc } if pc == TEXT_BASE),
            "{r:?}"
        );
    }

    #[test]
    fn refuses_counter_escape() {
        let r = refused(
            r"
            li   r10, 5
            li   r2, 0
    top:    slt  r3, r10, r2
            addi r10, r10, -1
            bne  r10, r0, top
            halt
        ",
        );
        assert!(matches!(r, Reason::CounterEscape { .. }), "{r:?}");
    }

    #[test]
    fn settling_register_read_before_write_folds() {
        // `xor` reads r2's stale (previous-iteration) value, but r2 is
        // rewritten with a constant every trip: the stabilization retry
        // peels one iteration and folds the steady remainder.
        let (_, s) = ok(r"
            li   r4, 77
            li   r10, 5
    top:    xor  r3, r2, r4
            addi r2, r0, 12
            addi r10, r10, -1
            bne  r10, r0, top
            halt
        ");
        assert_eq!(s.final_regs[3], 12 ^ 77);
        assert_eq!(s.final_regs[2], 12);
        assert_eq!(s.final_regs[10], 0);
        assert_eq!(s.retired, 2 + 5 * 4 + 1);
        assert_eq!(s.branches, 5);
        assert_eq!(s.taken_branches, 4);
    }

    #[test]
    fn settling_chain_feeds_an_affine_accumulator() {
        // r6 settles in one trip, r5 (reading r6's stale value) in two;
        // the accumulator r2 still folds affinely in the steady state.
        let (_, s) = ok(r"
            li   r4, 5
            li   r10, 6
    top:    or   r5, r6, r4
            addi r6, r0, 3
            add  r2, r2, r6
            addi r10, r10, -1
            bne  r10, r0, top
            halt
        ");
        assert_eq!(s.final_regs[5], 3 | 5);
        assert_eq!(s.final_regs[6], 3);
        assert_eq!(s.final_regs[2], 6 * 3);
        assert_eq!(s.retired, 2 + 6 * 5 + 1);
        assert_eq!(s.branches, 6);
        assert_eq!(s.taken_branches, 5);
    }

    #[test]
    fn settling_register_resolves_a_guarding_branch() {
        // The guard reads r3, loop-variant only on the first trip: the
        // peeled iteration takes the fall-through path once, the steady
        // iterations branch over the increment.
        let (_, s) = ok(r"
            li   r10, 5
    top:    bgtz r3, skip
            addi r2, r2, 1
    skip:   addi r3, r0, 1
            addi r10, r10, -1
            bne  r10, r0, top
            halt
        ");
        assert_eq!(s.final_regs[2], 1);
        assert_eq!(s.final_regs[3], 1);
        assert_eq!(s.retired, 1 + 5 + 4 * 4 + 1);
        assert_eq!(s.branches, 10);
        assert_eq!(s.taken_branches, 8);
    }

    #[test]
    fn non_settling_escape_still_refuses() {
        // r2 accumulates — it never settles — so the non-affine `and`
        // on it keeps its original refusal through the retry.
        let r = refused(
            r"
            li   r4, 9
            li   r10, 4
    top:    add  r2, r2, r4
            and  r3, r2, r4
            addi r10, r10, -1
            bne  r10, r0, top
            halt
        ",
        );
        assert!(matches!(r, Reason::CounterEscape { .. }), "{r:?}");
    }

    #[test]
    fn refuses_data_dependent_branch() {
        let r = refused(
            r"
            li   r10, 4
            li   r2, 0
    top:    addi r2, r2, 1
            beq  r2, r10, done
            addi r10, r10, -1
            bne  r10, r0, top
    done:   halt
        ",
        );
        assert!(matches!(r, Reason::DataDependentBranch { .. }), "{r:?}");
    }

    #[test]
    fn refuses_memory_carried_accumulator() {
        let r = refused(&format!(
            r"
            li   r1, {DATA_BASE}
            li   r10, 5
    top:    lw   r2, 0(r1)
            addi r2, r2, 1
            sw   r2, 0(r1)
            addi r10, r10, -1
            bne  r10, r0, top
            halt
        "
        ));
        assert!(matches!(r, Reason::MemoryCarried { .. }), "{r:?}");
    }

    #[test]
    fn refuses_variant_address() {
        let r = refused(&format!(
            r"
            li   r1, {DATA_BASE}
            li   r10, 4
    top:    sll  r2, r10, 2
            add  r2, r2, r1
            lw   r3, 0(r2)
            addi r10, r10, -1
            bne  r10, r0, top
            halt
        "
        ));
        assert!(matches!(r, Reason::VariantAddress { .. }), "{r:?}");
    }

    #[test]
    fn refuses_variant_trip_count() {
        let r = refused(
            r"
            li   r10, 3
            li   r11, 2
    outer:  addi r11, r11, 1
    inner:  nop
            addi r11, r11, -1
            bne  r11, r0, inner
            addi r10, r10, -1
            bne  r10, r0, outer
            halt
        ",
        );
        assert!(matches!(r, Reason::VariantTripCount { .. }), "{r:?}");
    }

    #[test]
    fn refuses_counter_mutation() {
        let r = refused(
            r"
            li   r10, 4
    top:    addi r10, r10, 1
            addi r10, r10, -1
            bne  r10, r0, top
            halt
        ",
        );
        assert!(matches!(r, Reason::CounterMutation { .. }), "{r:?}");
    }

    #[test]
    fn refuses_zero_trip_latch() {
        let r = refused(
            r"
            li   r10, 0
    top:    nop
            addi r10, r10, -1
            bne  r10, r0, top
            halt
        ",
        );
        assert!(matches!(r, Reason::ZeroTripLatch { .. }), "{r:?}");
    }

    #[test]
    fn refuses_unstructured_backward_jump() {
        let r = refused(
            r"
    top:    nop
            j    top
        ",
        );
        assert!(matches!(r, Reason::UnstructuredControl { .. }), "{r:?}");
    }

    #[test]
    fn refuses_fetch_runoff() {
        let p = Program::from_parts(vec![Instr::Nop], vec![]);
        let r = summarize(&p, MEM).expect_err("must refuse").0;
        assert!(
            matches!(r, Reason::FetchFault { pc } if pc == TEXT_BASE + 4),
            "{r:?}"
        );
    }

    #[test]
    fn refuses_misaligned_access() {
        let r = refused(
            r"
            li   r1, 3
            lw   r2, 0(r1)
            halt
        ",
        );
        assert!(matches!(r, Reason::MemFault { .. }), "{r:?}");
    }

    #[test]
    fn refuses_infinite_walk_with_budget() {
        // A huge analyzable nest: 6 levels of 40 iterations is fine,
        // but a straight-line walk of 2^20 counted iterations at the
        // top level is summarized, not walked — so exhaust the budget
        // with a long *unsummarizable* chain instead: a counted loop
        // whose trip count forces more walk steps than the budget
        // cannot exist (bodies are walked once), so use deep nesting.
        let mut src = String::new();
        for d in 0..40 {
            src.push_str(&format!("        li r{}, 2\nl{d}:\n", 10 + d % 20));
        }
        // Not a real latch structure — just confirm the analyzer
        // terminates with *some* refusal rather than hanging.
        src.push_str("        j l0\n");
        let p = assemble(&src).expect("assembles");
        assert!(summarize(&p, MEM).is_err());
    }

    #[test]
    fn unanalyzable_display_names_reason_and_pc() {
        let e = Unanalyzable(Reason::DbnzLatch { pc: 0x40 });
        assert_eq!(e.to_string(), "unanalyzable: dbnz-latch at pc 0x40");
        assert_eq!(Reason::DbnzLatch { pc: 0x40 }.pc(), 0x40);
    }

    #[test]
    fn summarize_state_carries_initial_registers() {
        let p = assemble(
            r"
            addi r3, r2, 5
            halt
        ",
        )
        .unwrap();
        let mut mem = vec![0u8; MEM];
        let text = p.text_bytes();
        mem[..text.len()].copy_from_slice(&text);
        let mut regs = [0u32; 32];
        regs[2] = 37;
        let s = summarize_state(&p, regs, &mem).unwrap();
        assert_eq!(s.final_regs[3], 42);
        assert_eq!(s.final_regs[2], 37);
    }
}
