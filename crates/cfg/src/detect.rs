//! Counted-loop detection and task-chain planning.
//!
//! This is the analysis direction of the compiler support the paper
//! assumes: given *software-loop* machine code (the `XRdefault` form), it
//! recognizes the down-counter pattern
//!
//! ```text
//!       li    cnt, N          ; preheader (trip count)
//! top:  ...body...
//!       addi  cnt, cnt, -1    ; latch
//!       bne   cnt, r0, top
//! ```
//!
//! (or the `dbnz` equivalent of `XRhrdwil` code), extracts the loop
//! parameters, and plans the task-switching successors a ZOLC port of
//! the same program would use. [`crate::retarget`] turns both into an
//! executable program/overlay pair: it removes the software loop control
//! and synthesizes the [`ZolcImage`](zolc_core::ZolcImage) against the
//! relocated addresses.

use crate::graph::Cfg;
use crate::loops::{LoopForest, NaturalLoop};
use zolc_core::TASK_NONE;
use zolc_isa::{Instr, Program, Reg, INSTR_BYTES};

/// A register-sourced trip count found in a loop preheader
/// (`add cnt, rX, r0` — the `Trips::Reg` form of the baseline lowering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegLimit {
    /// The register holding the trip count when the preheader executes.
    pub reg: Reg,
    /// Byte address of the copy instruction (`add cnt, rX, r0`).
    pub addr: u32,
}

/// A recognized counted loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountedLoop {
    /// The underlying natural loop id in the [`LoopForest`].
    pub loop_id: usize,
    /// Byte address of the first body instruction (the header).
    pub start: u32,
    /// Byte address of the latch branch.
    pub branch_addr: u32,
    /// The down-counter register.
    pub counter: Reg,
    /// Trip count when the preheader load is visible (`li cnt, N`).
    pub trips: Option<u32>,
    /// Byte address of the preheader `li cnt, N`, when [`Self::trips`]
    /// was found there.
    pub init_addr: Option<u32>,
    /// Register-sourced trip count (`add cnt, rX, r0` preheader), when
    /// the bound is data-dependent rather than a visible constant.
    pub limit_reg: Option<RegLimit>,
    /// Whether the latch is a `dbnz` (XRhrdwil code) rather than an
    /// `addi`+`bne` pair.
    pub via_dbnz: bool,
}

impl CountedLoop {
    /// Byte address of the first loop-control instruction of the latch
    /// (the decrement for `addi`+`bne` latches, the branch for `dbnz`).
    pub fn latch_start(&self) -> u32 {
        if self.via_dbnz {
            self.branch_addr
        } else {
            self.branch_addr - INSTR_BYTES
        }
    }

    /// Byte address of the last *body* instruction — the instruction
    /// right before the counting code.
    ///
    /// A degenerate loop whose latch opens the text segment has no body
    /// at all; the result saturates to the latch start in that case.
    pub fn body_end(&self) -> u32 {
        self.latch_start().saturating_sub(INSTR_BYTES)
    }
}

/// Scans a program's loop forest for counted loops.
///
/// Loops whose latch does not match the pattern are skipped (they remain
/// in the forest; [`crate::retarget`] reports them as unhandled).
///
/// # Examples
///
/// ```
/// use zolc_cfg::{detect_counted_loops, Cfg, Dominators, LoopForest};
///
/// let program = zolc_isa::assemble("
///     li   r11, 10
/// top: add  r2, r2, r3
///     addi r11, r11, -1
///     bne  r11, r0, top
///     halt
/// ").unwrap();
/// let cfg = Cfg::build(&program);
/// let dom = Dominators::compute(&cfg);
/// let forest = LoopForest::analyze(&cfg, &dom);
/// let counted = detect_counted_loops(&program, &cfg, &forest);
/// assert_eq!(counted.len(), 1);
/// assert_eq!(counted[0].trips, Some(10));
/// assert_eq!(counted[0].counter, zolc_isa::reg(11));
/// ```
pub fn detect_counted_loops(program: &Program, cfg: &Cfg, forest: &LoopForest) -> Vec<CountedLoop> {
    let mut found = Vec::new();
    for l in &forest.loops {
        if let Some(c) = match_counted(program, cfg, l) {
            found.push(c);
        }
    }
    found
}

fn match_counted(program: &Program, cfg: &Cfg, l: &NaturalLoop) -> Option<CountedLoop> {
    // single latch whose block ends with the counting branch
    let &latch = l.latches.first()?;
    if l.latches.len() != 1 {
        return None;
    }
    let latch_block = &cfg.blocks()[latch];
    let branch_addr = latch_block.end - INSTR_BYTES;
    let branch = *program.instr_at(branch_addr)?;
    let header_start = cfg.blocks()[l.header].start;

    let (counter, via_dbnz) = match branch {
        Instr::Dbnz { rs, .. } => (rs, true),
        Instr::Bne { rs, rt, .. } if rt.is_zero() => {
            // preceding instruction must be the decrement of rs
            let dec_addr = branch_addr.checked_sub(INSTR_BYTES)?;
            match program.instr_at(dec_addr)? {
                Instr::Addi {
                    rt: d,
                    rs: s,
                    imm: -1,
                } if *d == rs && *s == rs => (rs, false),
                _ => return None,
            }
        }
        _ => return None,
    };
    // the branch must target the header
    if branch.branch_target(branch_addr) != Some(header_start) {
        return None;
    }
    // trip count: look backwards from the header for the counter's
    // producer in the preheader straight-line code — either a constant
    // load (`li counter, N`, i.e. `addi counter, r0, N`) or a register
    // copy (`add counter, rX, r0`, the data-dependent-bound form)
    let mut trips = None;
    let mut init_addr = None;
    let mut limit_reg = None;
    let mut pc = header_start;
    for _ in 0..4 {
        let Some(prev) = pc.checked_sub(INSTR_BYTES) else {
            break;
        };
        match program.instr_at(prev) {
            Some(&Instr::Addi { rt, rs, imm }) if rt == counter && rs.is_zero() && imm > 0 => {
                trips = Some(imm as u32);
                init_addr = Some(prev);
                break;
            }
            Some(&Instr::Add { rd, rs, rt })
                if rd == counter && rt.is_zero() && rs != counter && !rs.is_zero() =>
            {
                limit_reg = Some(RegLimit {
                    reg: rs,
                    addr: prev,
                });
                break;
            }
            Some(i) if i.dst() == Some(counter) => break, // other producer
            Some(_) => pc = prev,
            None => break,
        }
    }
    Some(CountedLoop {
        loop_id: l.id,
        start: header_start,
        branch_addr,
        counter,
        trips,
        init_addr,
        limit_reg,
        via_dbnz,
    })
}

/// The task-switching successors of a counted-loop set, in `counted`
/// order (the graph is address-independent, so the retargeter plans it
/// on the original program and records relocated addresses).
#[derive(Debug, Clone)]
pub(crate) struct TaskChain {
    /// Successor task when the loop iterates.
    pub next_iter: Vec<u8>,
    /// Successor task when the loop completes ([`TASK_NONE`] at the end).
    pub next_fallthru: Vec<u8>,
    /// Task current at activation: the innermost first task of the first
    /// top-level loop in *execution* (address) order.
    pub initial_task: u8,
}

/// Plans iterate/fall-through successors exactly as the forward lowering
/// would: entering a loop descends to its innermost first-starting
/// counted descendant; completion falls through to the next counted
/// sibling's first task, else to the nearest counted ancestor's task.
pub(crate) fn plan_task_chain(
    cfg: &Cfg,
    forest: &LoopForest,
    counted: &[CountedLoop],
) -> TaskChain {
    let idx_of = |lid: usize| counted.iter().position(|c| c.loop_id == lid);
    let start_of = |lid: usize| cfg.blocks()[forest.loops[lid].header].start;
    // innermost first-starting counted descendant (inclusive of `lid`)
    let first_task = |lid: usize| -> usize {
        let mut cur = lid;
        loop {
            let child = forest
                .loops
                .iter()
                .filter(|x| x.parent == Some(cur) && idx_of(x.id).is_some())
                .min_by_key(|x| start_of(x.id))
                .map(|x| x.id);
            match child {
                Some(c) => cur = c,
                None => break,
            }
        }
        cur
    };

    let mut next_iter = Vec::with_capacity(counted.len());
    let mut next_fallthru = Vec::with_capacity(counted.len());
    for c in counted {
        let l = &forest.loops[c.loop_id];
        next_iter.push(idx_of(first_task(c.loop_id)).expect("counted loop has a task") as u8);
        // next counted sibling (same parent, later start), entered at its
        // first task
        let sibling = forest
            .loops
            .iter()
            .filter(|x| x.parent == l.parent && x.id != l.id && idx_of(x.id).is_some())
            .filter(|x| start_of(x.id) > start_of(l.id))
            .min_by_key(|x| start_of(x.id))
            .map(|x| first_task(x.id));
        // else the nearest counted ancestor's own task
        let mut ancestor = l.parent;
        while let Some(a) = ancestor {
            if idx_of(a).is_some() {
                break;
            }
            ancestor = forest.loops[a].parent;
        }
        next_fallthru.push(
            sibling
                .or(ancestor)
                .and_then(idx_of)
                .map_or(TASK_NONE, |k| k as u8),
        );
    }
    // initial task: descend from the first (by address) counted loop with
    // no counted ancestor
    let initial_task = counted
        .iter()
        .filter(|c| {
            let mut anc = forest.loops[c.loop_id].parent;
            while let Some(a) = anc {
                if idx_of(a).is_some() {
                    return false;
                }
                anc = forest.loops[a].parent;
            }
            true
        })
        .min_by_key(|c| c.start)
        .and_then(|c| idx_of(first_task(c.loop_id)))
        .map_or(TASK_NONE, |k| k as u8);

    TaskChain {
        next_iter,
        next_fallthru,
        initial_task,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::Dominators;
    use zolc_isa::{assemble, reg};

    fn analyze(src: &str) -> (Program, Cfg, LoopForest) {
        let p = assemble(src).unwrap();
        let cfg = Cfg::build(&p);
        let dom = Dominators::compute(&cfg);
        let forest = LoopForest::analyze(&cfg, &dom);
        (p, cfg, forest)
    }

    #[test]
    fn detects_baseline_down_counter() {
        let (p, cfg, f) = analyze(
            "
            li   r11, 10
      top:  add  r2, r2, r3
            addi r11, r11, -1
            bne  r11, r0, top
            halt
        ",
        );
        let c = detect_counted_loops(&p, &cfg, &f);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].counter, reg(11));
        assert_eq!(c[0].trips, Some(10));
        assert_eq!(c[0].init_addr, Some(0));
        assert!(c[0].limit_reg.is_none());
        assert!(!c[0].via_dbnz);
        assert_eq!(c[0].start, 4);
        // latch geometry: addi at 8, bne at 12, body end back at 4
        assert_eq!(c[0].branch_addr, 12);
        assert_eq!(c[0].latch_start(), 8);
        assert_eq!(c[0].body_end(), 4);
    }

    #[test]
    fn detects_dbnz_loop() {
        let (p, cfg, f) = analyze(
            "
            li   r12, 7
      top:  add  r2, r2, r3
            dbnz r12, top
            halt
        ",
        );
        let c = detect_counted_loops(&p, &cfg, &f);
        assert_eq!(c.len(), 1);
        assert!(c[0].via_dbnz);
        assert_eq!(c[0].trips, Some(7));
        assert_eq!(c[0].latch_start(), c[0].branch_addr);
        assert_eq!(c[0].body_end(), c[0].branch_addr - 4);
    }

    #[test]
    fn register_trip_counts_detected_as_reg_limit() {
        let (p, cfg, f) = analyze(
            "
            add  r11, r9, r0
      top:  add  r2, r2, r3
            addi r11, r11, -1
            bne  r11, r0, top
            halt
        ",
        );
        let c = detect_counted_loops(&p, &cfg, &f);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].trips, None);
        assert_eq!(c[0].init_addr, None);
        assert_eq!(
            c[0].limit_reg,
            Some(RegLimit {
                reg: reg(9),
                addr: 0
            })
        );
    }

    #[test]
    fn latch_at_text_start_does_not_underflow() {
        // degenerate: the latch opens the text segment (no preheader, no
        // body) — detection must not panic, and the body end saturates
        let (p, cfg, f) = analyze(
            "
      top:  addi r11, r11, -1
            bne  r11, r0, top
            halt
        ",
        );
        let c = detect_counted_loops(&p, &cfg, &f);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].body_end(), 0);
    }

    #[test]
    fn non_counted_loops_reported_unhandled() {
        // data-dependent while-loop (no counter pattern)
        let (p, cfg, f) = analyze(
            "
      top:  lw   r1, 0(r2)
            bne  r1, r0, top
            halt
        ",
        );
        assert!(detect_counted_loops(&p, &cfg, &f).is_empty());
        assert_eq!(f.loops.len(), 1, "the loop stays in the forest");
        let r = crate::retarget(&p, &zolc_core::ZolcConfig::lite()).unwrap();
        assert!(r.counted.is_empty());
        assert_eq!(r.unhandled.len(), 1);
    }

    #[test]
    fn nest_maps_with_chained_tasks() {
        let (p, cfg, f) = analyze(
            "
            li   r11, 3
      oth:  li   r12, 4
      inh:  add  r2, r2, r3
            addi r12, r12, -1
            bne  r12, r0, inh
            addi r11, r11, -1
            bne  r11, r0, oth
            halt
        ",
        );
        let c = detect_counted_loops(&p, &cfg, &f);
        assert_eq!(c.len(), 2);
        // outer first (forest orders by body size)
        assert_eq!(c[0].trips, Some(3));
        assert_eq!(c[1].trips, Some(4));
        let chain = plan_task_chain(&cfg, &f, &c);
        // outer's next_iter descends into the inner task
        assert_eq!(chain.next_iter[0], 1);
        assert_eq!(chain.next_fallthru[1], 0);
        assert_eq!(chain.initial_task, 1);
        // the retargeted image validates against the lite configuration
        let lite = zolc_core::ZolcConfig::lite();
        let r = crate::retarget(&p, &lite).unwrap();
        assert!(r.unhandled.is_empty());
        r.image.validate(&lite).unwrap();
    }

    #[test]
    fn sequential_nests_chain_in_execution_order() {
        // two top-level nests; the second has a *larger* body, so forest
        // order (body size) disagrees with execution order — the initial
        // task and the fall-through chain must follow execution order
        let (p, cfg, f) = analyze(
            "
            li   r11, 2
      a:    add  r2, r2, r3
            addi r11, r11, -1
            bne  r11, r0, a
            li   r12, 3
      b:    li   r13, 4
      bi:   add  r2, r2, r3
            add  r2, r2, r3
            addi r13, r13, -1
            bne  r13, r0, bi
            addi r12, r12, -1
            bne  r12, r0, b
            halt
        ",
        );
        let c = detect_counted_loops(&p, &cfg, &f);
        assert_eq!(c.len(), 3);
        // task order is forest order (biggest first): b, bi, a
        let a = (0..3).find(|&k| c[k].start == 4).unwrap();
        let b_outer = (0..3).find(|&k| c[k].trips == Some(3)).unwrap();
        let b_inner = (0..3).find(|&k| c[k].trips == Some(4)).unwrap();
        let chain = plan_task_chain(&cfg, &f, &c);
        // activation starts at the first nest in address order
        assert_eq!(chain.initial_task, a as u8);
        // `a` falls through to the *inner* task of the second nest
        assert_eq!(chain.next_fallthru[a], b_inner as u8);
        assert_eq!(chain.next_fallthru[b_inner], b_outer as u8);
        assert_eq!(chain.next_fallthru[b_outer], TASK_NONE);
    }
}
