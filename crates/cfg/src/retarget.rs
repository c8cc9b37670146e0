//! Automatic ZOLC retargeting: software-loop binary → excised program +
//! synthesized overlay.
//!
//! This module closes the loop the paper's §2 workflow assumes. Starting
//! from an `XRdefault`- (or `XRhrdwil`-) lowered [`Program`], [`retarget`]
//!
//! 1. runs the CFG / dominator / loop-forest analyses and
//!    [`detect_counted_loops`](crate::detect_counted_loops);
//! 2. **excises** the software loop control of every handled loop — the
//!    preheader trip-count load, the latch decrement and backward branch
//!    (or the fused `dbnz`) — while leaving unhandled loops entirely in
//!    software;
//! 3. **compacts and relocates** the surviving text, re-linking every
//!    surviving branch and jump through assembler labels;
//! 4. **synthesizes** the [`ZolcImage`] against the relocated addresses
//!    and prepends its initialization-mode sequence, yielding a runnable,
//!    self-initializing program whose loop control now lives in the
//!    controller.
//!
//! The result is *architecturally equivalent* to the input: final data
//! memory and every register except the freed down-counters (and the
//! init-sequence scratch register) are bit-identical to a run of the
//! original program (the root `prop_exec_equiv` and `auto_retarget`
//! suites enforce this on random programs and on every benchmark kernel,
//! on both executors).
//!
//! # What is (deliberately) left in software
//!
//! * **Index maintenance** — preheader index loads and latch index steps
//!   are kept verbatim, so the synthesized image uses no hardware index
//!   registers. The controller contributes only the zero-overhead back
//!   edges and task switching; everything else stays byte-comparable to
//!   the input.
//! * **Unhandled loops** — loops whose latch is not a recognizable
//!   down-counter, whose bound is not visible, or whose body branches out
//!   of the loop keep their software control and simply run under an
//!   (address-disjoint) active controller. An unhandled loop also forces
//!   every loop nested inside it back to software: the controller's task
//!   chaining cannot re-enter hardware loops from an untracked software
//!   back edge.
//!
//! # Unsupported inputs
//!
//! Programs containing `jal`/`jr` (relocation would change link values
//! and indirect targets) or pre-existing `zwr`/`zctl` instructions are
//! rejected with [`RetargetError::Unsupported`].

use crate::detect::{detect_counted_loops, plan_task_chain, CountedLoop};
use crate::dom::Dominators;
use crate::graph::Cfg;
use crate::loops::LoopForest;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use zolc_analyze::{reachable_blocks, solve, Liveness, RegSet};
use zolc_core::{ImageError, LimitSrc, LoopSpec, TaskSpec, ZolcConfig, ZolcImage};
use zolc_isa::{
    loop_field, Asm, AsmError, Instr, Label, Program, Reg, ZolcRegion, DATA_BASE, INSTR_BYTES,
    TEXT_BASE,
};

/// Errors raised while retargeting a program.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RetargetError {
    /// The program uses a construct relocation cannot preserve.
    Unsupported(String),
    /// The synthesized image does not fit the configuration.
    Image(ImageError),
    /// Re-assembly of the relocated text failed.
    Asm(String),
}

impl fmt::Display for RetargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetargetError::Unsupported(msg) => write!(f, "unsupported input: {msg}"),
            RetargetError::Image(e) => write!(f, "synthesized image invalid: {e}"),
            RetargetError::Asm(e) => write!(f, "relocation failed: {e}"),
        }
    }
}

impl std::error::Error for RetargetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RetargetError::Image(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ImageError> for RetargetError {
    fn from(e: ImageError) -> Self {
        RetargetError::Image(e)
    }
}

impl From<AsmError> for RetargetError {
    fn from(e: AsmError) -> Self {
        RetargetError::Asm(e.to_string())
    }
}

/// The runnable result of [`retarget`].
#[derive(Debug, Clone)]
pub struct Retargeted {
    /// The excised, relocated, self-initializing program, behind an
    /// `Arc` so callers (kernel builders, sweep harnesses, the `zolcd`
    /// daemon caches) can share it without copying the text.
    pub program: Arc<Program>,
    /// The synthesized table image, resolved against the new addresses
    /// (the same image the prepended initialization sequence writes).
    pub image: ZolcImage,
    /// The handled counted loops (original addresses), in image order.
    pub counted: Vec<CountedLoop>,
    /// Forest ids of loops left entirely in software.
    pub unhandled: Vec<usize>,
    /// Down-counter registers freed by the excision (their final values
    /// are the only architectural difference to the original program,
    /// besides [`Self::scratch`]).
    pub counter_regs: Vec<Reg>,
    /// The register the prepended initialization sequence clobbers —
    /// chosen so no surviving instruction reads or writes it.
    pub scratch: Reg,
    /// Original instructions removed (excised loop control).
    pub excised: usize,
    /// Instructions in the prepended initialization sequence.
    pub init_instructions: usize,
    /// Non-fatal remarks (unhandled loops, capacity trims, inserted
    /// `nop` loop ends).
    pub notes: Vec<String>,
}

/// Per-original-instruction relocation action.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Em {
    /// Copied (branches/jumps re-linked).
    Keep,
    /// Excised.
    Drop,
    /// Substituted by this sequence (in-loop `zwr` limit updates with
    /// their lead padding, or an inserted `nop` loop end).
    Replace(Vec<Instr>),
}

impl Em {
    fn len(&self) -> usize {
        match self {
            Em::Keep => 1,
            Em::Drop => 0,
            Em::Replace(v) => v.len(),
        }
    }
}

fn text_idx(addr: u32) -> usize {
    ((addr - TEXT_BASE) / INSTR_BYTES) as usize
}

/// The byte addresses one handled loop's excision removes: the latch
/// branch, the pre-decrement (`addi`+`bne` form), the constant
/// trip-count load, and the register-limit copy (the last is *replaced*
/// by an in-loop `zwr` rather than dropped outright). Single source of
/// truth for both the counter-liveness filter and the emission plan.
fn excised_addrs(c: &CountedLoop) -> impl Iterator<Item = u32> + '_ {
    [
        Some(c.branch_addr),
        (!c.via_dbnz).then(|| c.branch_addr - INSTR_BYTES),
        c.init_addr,
        c.limit_reg.map(|rl| rl.addr),
    ]
    .into_iter()
    .flatten()
}

/// The (conditional or unconditional) control-transfer target of an
/// instruction, if statically known.
fn static_target(instr: &Instr, pc: u32) -> Option<u32> {
    match instr {
        Instr::J { target } | Instr::Jal { target } => Some(target << 2),
        _ => instr.branch_target(pc),
    }
}

/// Retargets a software-loop program onto a ZOLC of the given
/// configuration (see the crate docs for the pipeline).
///
/// # Errors
///
/// Returns [`RetargetError::Unsupported`] for programs using `jal`/`jr`
/// or pre-existing ZOLC instructions, [`RetargetError::Image`] if the
/// synthesized overlay fails validation, and [`RetargetError::Asm`] if
/// the relocated text cannot be re-linked.
///
/// # Examples
///
/// ```
/// use zolc_cfg::retarget;
/// use zolc_core::ZolcConfig;
///
/// let program = zolc_isa::assemble("
///     li   r11, 10
/// top: add  r2, r2, r3
///     addi r11, r11, -1
///     bne  r11, r0, top
///     halt
/// ").unwrap();
/// let r = retarget(&program, &ZolcConfig::lite()).unwrap();
/// assert_eq!(r.image.loops.len(), 1);
/// assert!(r.unhandled.is_empty());
/// assert_eq!(r.excised, 3); // li + addi + bne
/// // the excised text has no branches left at all
/// let tail = &r.program.text()[r.init_instructions..];
/// assert!(!tail.iter().any(|i| i.is_cond_branch()));
/// ```
pub fn retarget(program: &Program, config: &ZolcConfig) -> Result<Retargeted, RetargetError> {
    let text = program.text();
    let n = text.len();
    if n == 0 {
        return Err(RetargetError::Unsupported("empty text segment".into()));
    }
    for (i, instr) in text.iter().enumerate() {
        let what = match instr {
            Instr::Jal { .. } | Instr::Jr { .. } => "jal/jr (relocation changes link values)",
            Instr::Zwr { .. } | Instr::Zctl { .. } => "pre-existing ZOLC instructions",
            _ => continue,
        };
        return Err(RetargetError::Unsupported(format!(
            "{what} at {:#x}",
            TEXT_BASE + INSTR_BYTES * i as u32
        )));
    }

    let cfg = Cfg::build(program);
    let dom = Dominators::compute(&cfg);
    let forest = LoopForest::analyze(&cfg, &dom);
    let all = detect_counted_loops(program, &cfg, &forest);
    let mut notes = Vec::new();

    let mut handled = filter_handled(program, &cfg, &forest, &all, config, &mut notes);
    let unhandled: Vec<usize> = forest
        .loops
        .iter()
        .map(|l| l.id)
        .filter(|id| handled.iter().all(|c| c.loop_id != *id))
        .collect();
    for &id in &unhandled {
        let l = &forest.loops[id];
        notes.push(format!(
            "loop at {:#x} (depth {}) left in software",
            cfg.blocks()[l.header].start,
            l.depth
        ));
    }
    // keep image order deterministic: forest order (detection order)
    handled.sort_by_key(|c| c.loop_id);

    // ---- emission plan -------------------------------------------------
    let mut em: Vec<Em> = vec![Em::Keep; n];
    for (k, c) in handled.iter().enumerate() {
        for a in excised_addrs(c) {
            em[text_idx(a)] = Em::Drop;
        }
        if let Some(rl) = c.limit_reg {
            // the preheader counter copy becomes the in-loop limit update
            em[text_idx(rl.addr)] = Em::Replace(vec![Instr::Zwr {
                region: ZolcRegion::Loop,
                index: k as u8,
                field: loop_field::LIMIT,
                rs: rl.reg,
            }]);
        }
    }

    let resolve_end = |em: &[Em], c: &CountedLoop| -> usize {
        (0..=text_idx(c.branch_addr))
            .rev()
            .find(|&i| em[i].len() > 0)
            .expect("loop end resolves: the loop start emission is never empty")
    };

    // Decide which loops need an inserted `nop` end, innermost-first so
    // outer resolutions see inner decisions. A fetched *end* instruction
    // is what iterates a hardware loop, so the end must (a) exist, (b) be
    // reached on every path — branches into the excised latch would
    // otherwise skip it — and (c) be a single plain instruction (a
    // control transfer or `zwr` at the end address would race the
    // fetch-time decision).
    for c in handled.iter().rev() {
        let start_i = text_idx(c.start);
        let latch_i = text_idx(c.latch_start());
        let body_len: usize = (start_i..latch_i).map(|i| em[i].len()).sum();
        // Surviving branches may target the (dropped) latch start — the
        // if-at-loop-end pattern; they must land on a fetchable loop end.
        // (Branches targeting the latch *branch* of an `addi`+`bne` form
        // were rejected by the handledness filter: they skip the
        // decrement, which a hardware counter cannot reproduce.)
        let targeted = em[latch_i] == Em::Drop
            && (0..n).any(|i| {
                em[i] == Em::Keep
                    && static_target(&text[i], TEXT_BASE + INSTR_BYTES * i as u32)
                        == Some(c.latch_start())
            });
        let mut need_nop = body_len == 0 || targeted;
        if !need_nop {
            let end_i = resolve_end(&em, c);
            let ok = match &em[end_i] {
                Em::Keep => {
                    let i = text[end_i];
                    !i.is_control_flow() && !matches!(i, Instr::Zwr { .. })
                }
                Em::Replace(v) => v.len() == 1 && v[0] == Instr::Nop,
                Em::Drop => unreachable!("resolve_end skips empty emissions"),
            };
            need_nop = !ok;
        }
        if need_nop {
            // the latch position is where branches into the latch land
            em[latch_i] = Em::Replace(vec![Instr::Nop]);
            notes.push(format!("loop at {:#x}: inserted nop loop end", c.start));
        }
    }

    // Pad in-loop `zwr` limit updates so the write retires at least 3
    // instructions before the loop end is fetched (the forward lowering's
    // lead rule). The static emission count equals the dynamic path only
    // for straight-line ranges; if a branch inside the range can shorten
    // the path, assume the worst case — only the range's entry
    // instruction and the end itself are guaranteed to execute.
    for c in &handled {
        let Some(rl) = c.limit_reg else { continue };
        let zwr_i = text_idx(rl.addr);
        let end_i = resolve_end(&em, c);
        let lead: usize = ((zwr_i + 1)..=end_i).map(|i| em[i].len()).sum();
        let branchy = ((zwr_i + 1)..=end_i).any(|i| em[i] == Em::Keep && text[i].is_control_flow());
        let min_path = if branchy { lead.min(2) } else { lead };
        let pads = 3usize.saturating_sub(min_path);
        if let Em::Replace(v) = &mut em[zwr_i] {
            v.extend(std::iter::repeat_n(Instr::Nop, pads));
        }
    }

    // Choose the scratch register the initialization sequence clobbers:
    // it must be invisible to the surviving program, so take the lowest
    // register no emitted instruction touches (a read could observe the
    // leftover init value — even a read of the architected reset value
    // counts — and a write-only register may still be checked as an
    // output). Freed counters typically qualify.
    let scratch = if handled.is_empty() {
        // no init sequence will be emitted; the value is nominal
        Reg::new(1).expect("r1 is a valid register")
    } else {
        let mut touched = [false; 32];
        let mut mark = |instr: &Instr| {
            for s in instr.srcs().into_iter().flatten() {
                touched[s.index()] = true;
            }
            if let Some(d) = instr.dst() {
                touched[d.index()] = true;
            }
        };
        for (i, e) in em.iter().enumerate() {
            match e {
                Em::Keep => mark(&text[i]),
                Em::Replace(v) => v.iter().for_each(&mut mark),
                Em::Drop => {}
            }
        }
        (1..32)
            .filter_map(Reg::new)
            .find(|r| !touched[r.index()])
            .ok_or_else(|| {
                RetargetError::Unsupported(
                    "no free scratch register for the initialization sequence".into(),
                )
            })?
    };

    // ---- relocation ----------------------------------------------------
    let fwd = |em: &[Em], addr: u32| -> Result<usize, RetargetError> {
        let i0 = text_idx(addr);
        (i0..n).find(|&i| em[i].len() > 0).ok_or_else(|| {
            RetargetError::Unsupported(format!(
                "control transfer to {addr:#x} relocates past the end of text"
            ))
        })
    };

    let mut label_points: BTreeSet<usize> = BTreeSet::new();
    let mut start_points: BTreeSet<usize> = BTreeSet::new();
    let mut loop_points: Vec<(usize, usize)> = Vec::new(); // (start_i, end_i) per handled loop
    for c in &handled {
        let s = fwd(&em, c.start)?;
        let e = resolve_end(&em, c);
        debug_assert_eq!(em[e].len(), 1, "loop ends are single-instruction");
        label_points.insert(s);
        label_points.insert(e);
        start_points.insert(s);
        loop_points.push((s, e));
    }
    let mut branch_dests: BTreeMap<usize, usize> = BTreeMap::new(); // instr idx -> dest point
    for i in 0..n {
        if em[i] != Em::Keep || !text[i].is_control_flow() {
            continue;
        }
        let pc = TEXT_BASE + INSTR_BYTES * i as u32;
        let t = static_target(&text[i], pc).ok_or_else(|| {
            RetargetError::Unsupported(format!("indirect control transfer at {pc:#x}"))
        })?;
        if text_idx(t) >= n {
            return Err(RetargetError::Unsupported(format!(
                "control transfer at {pc:#x} targets {t:#x}, outside text"
            )));
        }
        let p = fwd(&em, t)?;
        label_points.insert(p);
        branch_dests.insert(i, p);
    }

    let mut asm = Asm::new();
    let labels: BTreeMap<usize, Label> =
        label_points.iter().map(|&p| (p, asm.new_label())).collect();

    // data segment and data symbols carry over unchanged; text symbols
    // would be stale after relocation and are dropped
    asm.bytes(program.data());
    for (name, &addr) in program.symbols() {
        if addr >= DATA_BASE {
            asm.global_at(name, addr);
        } else {
            notes.push(format!("text symbol `{name}` dropped by relocation"));
        }
    }

    // ---- overlay synthesis --------------------------------------------
    let chain = plan_task_chain(&cfg, &forest, &handled);
    let image = ZolcImage {
        loops: handled
            .iter()
            .enumerate()
            .map(|(k, c)| LoopSpec {
                init: 0,
                step: 0,
                limit: match (c.trips, c.limit_reg) {
                    (Some(t), _) => LimitSrc::Const(t),
                    (None, Some(rl)) => LimitSrc::Reg(rl.reg),
                    (None, None) => unreachable!("handled loops have a known bound"),
                },
                index_reg: None,
                start: labels[&loop_points[k].0].into(),
                end: labels[&loop_points[k].1].into(),
            })
            .collect(),
        tasks: if config.tasks() == 0 {
            Vec::new()
        } else {
            handled
                .iter()
                .enumerate()
                .map(|(k, _)| TaskSpec {
                    end: labels[&loop_points[k].1].into(),
                    loop_id: k as u8,
                    next_iter: chain.next_iter[k],
                    next_fallthru: chain.next_fallthru[k],
                })
                .collect()
        },
        entries: vec![],
        exits: vec![],
        initial_task: chain.initial_task,
    };

    let (init_instructions, after_activate) = if handled.is_empty() {
        (0, None)
    } else {
        let stats = image.emit_init(&mut asm, scratch);
        (stats.instructions, Some(asm.here()))
    };

    // ---- emission ------------------------------------------------------
    for i in 0..n {
        if em[i].len() == 0 {
            continue;
        }
        // a loop body must not start immediately after `zctl.on`: the
        // activation becomes visible at the post-sync refetch, which
        // would miss the entry at this start address (same rule as the
        // forward lowering)
        if start_points.contains(&i) && Some(asm.here()) == after_activate {
            asm.emit(Instr::Nop);
        }
        if let Some(&l) = labels.get(&i) {
            asm.bind(l)?;
        }
        match &em[i] {
            Em::Keep => {
                let instr = text[i];
                if let Some(&dest) = branch_dests.get(&i) {
                    match instr {
                        Instr::J { .. } => {
                            asm.jump(labels[&dest]);
                        }
                        _ => {
                            asm.branch(instr, labels[&dest]);
                        }
                    }
                } else {
                    asm.emit(instr);
                }
            }
            Em::Replace(v) => {
                asm.emit_all(v.iter().copied());
            }
            Em::Drop => unreachable!("empty emissions are skipped"),
        }
    }

    let resolved = image.resolve(|l| asm.label_addr(l))?;
    resolved.validate(config)?;
    let excised = em.iter().filter(|e| **e != Em::Keep).count();
    let counter_regs: Vec<Reg> = {
        let mut regs: Vec<Reg> = handled.iter().map(|c| c.counter).collect();
        regs.sort_by_key(|r| r.index());
        regs.dedup();
        regs
    };
    let program = Arc::new(asm.finish()?);

    Ok(Retargeted {
        program,
        image: resolved,
        counted: handled,
        unhandled,
        counter_regs,
        scratch,
        excised,
        init_instructions,
        notes,
    })
}

/// Filters the detected counted loops down to the ones the retargeter can
/// safely move into hardware (see the module docs for the rules).
fn filter_handled(
    program: &Program,
    cfg: &Cfg,
    forest: &LoopForest,
    all: &[CountedLoop],
    config: &ZolcConfig,
    notes: &mut Vec<String>,
) -> Vec<CountedLoop> {
    let text = program.text();
    let n = text.len();

    // baseline eligibility: a visible bound and a contiguous body
    let mut handled: Vec<CountedLoop> = all
        .iter()
        .filter(|c| c.trips.is_some() || c.limit_reg.is_some())
        .filter(|c| {
            let l = &forest.loops[c.loop_id];
            l.body.iter().all(|&b| {
                let blk = &cfg.blocks()[b];
                blk.start >= c.start && blk.end <= c.branch_addr + INSTR_BYTES
            })
        })
        .cloned()
        .collect();

    // fixpoint: software ancestors pull their descendants back to
    // software, surviving control flow must stay compatible with every
    // hardware loop region, and loops whose counter is still used by
    // surviving code cannot lose their counter updates
    loop {
        let ids: BTreeSet<usize> = handled.iter().map(|c| c.loop_id).collect();
        let before = handled.len();
        handled.retain(|c| {
            let mut anc = forest.loops[c.loop_id].parent;
            while let Some(a) = anc {
                if !ids.contains(&a) {
                    return false;
                }
                anc = forest.loops[a].parent;
            }
            true
        });

        let mut dropped = vec![false; n];
        for c in &handled {
            for a in excised_addrs(c) {
                dropped[text_idx(a)] = true;
            }
        }

        // The *virtual post-excision program*: the text the surviving
        // software plus the controller's contribution amounts to, with
        // every address preserved 1:1 so dataflow facts map straight
        // back. Excised latch branches keep their control flow — the
        // hardware back edge still iterates the body — as operand-free
        // always-taken branches; register-limit copies become the
        // `zwr` that replaces them (still reading the bound source);
        // every other excised instruction becomes `nop`. Liveness and
        // reachability over this program answer exactly the questions
        // the excised machine poses.
        let mut vtext = text.to_vec();
        for (i, d) in dropped.iter().enumerate() {
            if *d {
                vtext[i] = Instr::Nop;
            }
        }
        for c in &handled {
            let i = text_idx(c.branch_addr);
            if let Instr::Beq { off, .. }
            | Instr::Bne { off, .. }
            | Instr::Blez { off, .. }
            | Instr::Bgtz { off, .. }
            | Instr::Bltz { off, .. }
            | Instr::Bgez { off, .. }
            | Instr::Dbnz { off, .. } = text[i]
            {
                vtext[i] = Instr::Beq {
                    rs: Reg::ZERO,
                    rt: Reg::ZERO,
                    off,
                };
            }
            if let Some(rl) = c.limit_reg {
                vtext[text_idx(rl.addr)] = Instr::Zwr {
                    region: ZolcRegion::Loop,
                    index: 0,
                    field: loop_field::LIMIT,
                    rs: rl.reg,
                };
            }
        }
        let vprog = Program::from_parts(vtext.clone(), Vec::new());
        let vflow = Cfg::build(&vprog).flow(&vprog);
        let live = solve(
            &vflow,
            &Liveness {
                at_exit: RegSet::EMPTY,
            },
        );
        let reachable = reachable_blocks(&vflow);
        let reachable_pc = |pc: u32| vflow.block_of(pc).map(|b| reachable[b]).unwrap_or(false);

        // Control-flow compatibility: the controller visits hardware
        // loops strictly in task-chain order, one end-fetch per
        // iteration, so every surviving *reachable* control transfer
        // must either stay entirely inside a loop's region or entirely
        // on one side of it — a branch *into*, *out of*, or *over* the
        // region would desync the chain (the loop's end would be
        // skipped or re-entered out of order), while a branch the
        // excised program can never execute cannot. Additionally, for
        // `addi`+`bne` latches a branch targeting the latch branch
        // itself skips the decrement in the original, which no pure
        // hardware counter can reproduce.
        let cf_compatible = |c: &CountedLoop, dropped: &[bool]| -> bool {
            (0..n).all(|i| {
                if dropped[i] {
                    return true;
                }
                let pc = TEXT_BASE + INSTR_BYTES * i as u32;
                if !reachable_pc(pc) {
                    return true;
                }
                let Some(t) = static_target(&text[i], pc) else {
                    return !text[i].is_control_flow();
                };
                if !c.via_dbnz && t == c.branch_addr {
                    return false;
                }
                let region = c.start..=c.branch_addr;
                let (in_s, in_t) = (region.contains(&pc), region.contains(&t));
                in_s == in_t && (in_s || !(pc.min(t) < c.start && pc.max(t) > c.branch_addr))
            })
        };
        handled.retain(|c| {
            let ok = cf_compatible(c, &dropped);
            if !ok {
                notes.push(format!(
                    "loop at {:#x}: surviving control flow crosses the loop region",
                    c.start
                ));
            }
            ok
        });

        // A handled loop's counter must be *unobservable* after
        // excision. Two liveness-grade queries over the virtual
        // program replace the old whole-text syntactic scan, each a
        // strict widening of it:
        //
        // 1. no reachable surviving instruction inside the region may
        //    read or write the counter — a body read would observe a
        //    value the hardware no longer materializes, a body write
        //    would have changed the original's trip count. Scanning
        //    the *virtual* text makes the substituted `zwr` limit
        //    updates count as surviving reads of their bound source —
        //    a triangular nest whose inner bound is the outer's live
        //    counter still falls back to software;
        //
        // 2. the counter must be dead on the loop's fall-through exit
        //    — a later read reached before any redefinition would
        //    observe the freed counter. The virtual latch branches
        //    keep every hardware back edge, so reads re-reached
        //    through an enclosing hardware loop's next iteration are
        //    seen. Code that merely *redefines* the counter after the
        //    loop (the old scan's false positive) no longer
        //    disqualifies it.
        let counter_free = |c: &CountedLoop| -> bool {
            let region = c.start..=c.branch_addr;
            let region_clean = vtext.iter().enumerate().all(|(i, instr)| {
                let pc = TEXT_BASE + INSTR_BYTES * i as u32;
                !region.contains(&pc)
                    || !reachable_pc(pc)
                    || (instr.dst() != Some(c.counter)
                        && !instr.srcs().iter().flatten().any(|&s| s == c.counter))
            });
            let live_at_exit = vflow
                .block_of(c.branch_addr + INSTR_BYTES)
                .is_some_and(|b| live.block_in[b].contains(c.counter));
            region_clean && !live_at_exit
        };
        handled.retain(|c| {
            let ok = counter_free(c);
            if !ok {
                notes.push(format!(
                    "loop at {:#x}: counter {} still observable by surviving code",
                    c.start, c.counter
                ));
            }
            ok
        });
        if handled.len() == before {
            break;
        }
    }

    // capacity: whole top-level trees are trimmed (last in execution
    // order first) until the configuration fits
    let top_trees = |handled: &[CountedLoop]| -> Vec<usize> {
        let ids: BTreeSet<usize> = handled.iter().map(|c| c.loop_id).collect();
        let mut tops: Vec<usize> = handled
            .iter()
            .filter(|c| {
                forest.loops[c.loop_id]
                    .parent
                    .is_none_or(|p| !ids.contains(&p))
            })
            .map(|c| c.loop_id)
            .collect();
        tops.sort_by_key(|&id| cfg.blocks()[forest.loops[id].header].start);
        tops
    };
    let subtree_of = |root: usize, handled: &[CountedLoop]| -> BTreeSet<usize> {
        handled
            .iter()
            .map(|c| c.loop_id)
            .filter(|&id| {
                let mut cur = Some(id);
                while let Some(x) = cur {
                    if x == root {
                        return true;
                    }
                    cur = forest.loops[x].parent;
                }
                false
            })
            .collect()
    };
    let capacity = if config.tasks() == 0 {
        1
    } else {
        config.loops().min(config.tasks())
    };
    while handled.len() > capacity {
        let tops = top_trees(&handled);
        let Some(&last) = tops.last() else { break };
        if tops.len() == 1 && config.tasks() > 0 {
            // a single nest deeper than the configuration: give it up
            // entirely rather than hardware-mapping a partial nest
            notes.push(format!(
                "nest at {:#x} exceeds the {config} capacity; left in software",
                cfg.blocks()[forest.loops[last].header].start
            ));
            handled.clear();
            break;
        }
        let victims = subtree_of(last, &handled);
        notes.push(format!(
            "capacity: nest at {:#x} left in software ({} loops over {capacity})",
            cfg.blocks()[forest.loops[last].header].start,
            handled.len()
        ));
        handled.retain(|c| !victims.contains(&c.loop_id));
    }
    if config.tasks() == 0 {
        // uZOLC has no task LUT: only a lone single-loop tree fits
        let sole_ok = handled.len() == 1 && {
            let c = &handled[0];
            forest.loops[c.loop_id].parent.is_none()
        };
        if !handled.is_empty() && !sole_ok {
            notes.push("uZOLC supports a single top-level loop; structure left in software".into());
            handled.clear();
        }
    }
    handled
}

#[cfg(test)]
mod tests {
    use super::*;
    use zolc_core::Zolc;
    use zolc_isa::{assemble, reg};
    use zolc_sim::{run_session, CompiledProgram, ExecutorKind, NullEngine};

    const BUDGET: u64 = 1_000_000;

    /// Runs the original on a bare core and the retargeted program under a
    /// fresh controller; asserts bit-identical data memory and registers
    /// (minus the freed counters and the init scratch register).
    fn assert_retarget_equiv(src: &str, config: &ZolcConfig) -> Retargeted {
        let program = assemble(src).unwrap();
        let r = retarget(&program, config).unwrap();
        let base = run_session(
            ExecutorKind::Functional,
            &CompiledProgram::compile(program.clone()),
            &mut NullEngine,
            BUDGET,
        )
        .expect("original runs");
        let mut z = Zolc::new(*config);
        let auto = run_session(
            ExecutorKind::Functional,
            &CompiledProgram::compile(r.program.clone()),
            &mut z,
            BUDGET,
        )
        .expect("retargeted runs");
        z.assert_consistent();
        for reg in Reg::all() {
            if (r.init_instructions > 0 && reg == r.scratch) || r.counter_regs.contains(&reg) {
                continue;
            }
            assert_eq!(
                base.cpu.regs().read(reg),
                auto.cpu.regs().read(reg),
                "{reg} differs"
            );
        }
        let len = base.cpu.mem().size() - DATA_BASE as usize;
        assert_eq!(
            base.cpu.mem().read_bytes(DATA_BASE, len).unwrap(),
            auto.cpu.mem().read_bytes(DATA_BASE, len).unwrap(),
            "data memory differs"
        );
        r
    }

    #[test]
    fn single_const_loop_retargets() {
        let src = "
            li   r11, 10
      top:  add  r2, r2, r3
            add  r3, r3, r2
            addi r11, r11, -1
            bne  r11, r0, top
            halt
        ";
        let r = assert_retarget_equiv(src, &ZolcConfig::lite());
        assert!(r.unhandled.is_empty());
        // ten iterations amortize the one-time init: the dynamic stream
        // must be strictly shorter than the original's
        let program = assemble(src).unwrap();
        let base = run_session(
            ExecutorKind::Functional,
            &CompiledProgram::compile(program.clone()),
            &mut NullEngine,
            BUDGET,
        )
        .unwrap()
        .stats;
        let mut z = Zolc::new(ZolcConfig::lite());
        let auto = run_session(
            ExecutorKind::Functional,
            &CompiledProgram::compile(r.program.clone()),
            &mut z,
            BUDGET,
        )
        .unwrap()
        .stats;
        assert!(
            auto.retired < base.retired,
            "no dynamic savings: {} vs {}",
            auto.retired,
            base.retired
        );
        assert_eq!(r.excised, 3);
        assert_eq!(r.counter_regs, vec![reg(11)]);
        assert!(matches!(r.image.loops[0].limit, LimitSrc::Const(10)));
        let findings = crate::verify_image(&r.program, &r.image);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn dbnz_input_retargets() {
        let r = assert_retarget_equiv(
            "
            li   r12, 7
      top:  add  r2, r2, r3
            dbnz r12, top
            halt
        ",
            &ZolcConfig::lite(),
        );
        assert!(r.unhandled.is_empty());
        assert_eq!(r.excised, 2); // li + dbnz
    }

    #[test]
    fn nested_loops_share_chained_ends() {
        let r = assert_retarget_equiv(
            "
            li   r11, 3
      oth:  li   r12, 4
      inh:  add  r2, r2, r3
            add  r4, r4, r2
            addi r12, r12, -1
            bne  r12, r0, inh
            addi r11, r11, -1
            bne  r11, r0, oth
            halt
        ",
            &ZolcConfig::lite(),
        );
        assert_eq!(r.counted.len(), 2);
        // perfect nest after excision: both loops end at the same address
        let ends: Vec<u32> = r.image.loops.iter().map(|l| l.end.abs().unwrap()).collect();
        assert_eq!(ends[0], ends[1]);
    }

    #[test]
    fn sequential_nests_retarget() {
        assert_retarget_equiv(
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
            &ZolcConfig::lite(),
        );
    }

    #[test]
    fn register_limit_becomes_in_loop_zwr() {
        let r = assert_retarget_equiv(
            "
            li   r9, 6
            add  r11, r9, r0
      top:  add  r2, r2, r3
            addi r11, r11, -1
            bne  r11, r0, top
            halt
        ",
            &ZolcConfig::lite(),
        );
        assert!(r.unhandled.is_empty());
        assert!(matches!(r.image.loops[0].limit, LimitSrc::Reg(x) if x == reg(9)));
        // the preheader copy was replaced by a limit update (+ lead pads)
        let tail = &r.program.text()[r.init_instructions..];
        assert!(tail
            .iter()
            .any(|i| matches!(i, Instr::Zwr { field, .. } if *field == loop_field::LIMIT)));
    }

    #[test]
    fn branch_into_latch_gets_nop_end() {
        // a forward branch (if-style) that lands on the latch decrement:
        // the excised program must still fetch a loop end on that path
        let r = assert_retarget_equiv(
            "
            li   r11, 5
      top:  add  r2, r2, r3
            beq  r3, r0, skip
            add  r4, r4, r2
      skip: addi r11, r11, -1
            bne  r11, r0, top
            halt
        ",
            &ZolcConfig::lite(),
        );
        assert!(r.unhandled.is_empty());
        let end = r.image.loops[0].end.abs().unwrap();
        assert_eq!(r.program.instr_at(end), Some(&Instr::Nop));
    }

    #[test]
    fn empty_body_loop_gets_nop_body() {
        // pure-counter delay loop: the whole body is the latch
        let r = assert_retarget_equiv(
            "
            li   r11, 4
      top:  addi r11, r11, -1
            bne  r11, r0, top
            add  r2, r2, r3
            halt
        ",
            &ZolcConfig::lite(),
        );
        assert!(r.unhandled.is_empty());
        let l = &r.image.loops[0];
        assert_eq!(l.start.abs(), l.end.abs());
        assert_eq!(r.program.instr_at(l.end.abs().unwrap()), Some(&Instr::Nop));
    }

    #[test]
    fn while_loop_stays_in_software() {
        let r = assert_retarget_equiv(
            "
            li   r2, 5
      top:  addi r2, r2, -2
            bgtz r2, top
            li   r11, 3
      cnt:  add  r3, r3, r2
            addi r11, r11, -1
            bne  r11, r0, cnt
            halt
        ",
            &ZolcConfig::lite(),
        );
        // the data-dependent while-loop survives verbatim, the counted
        // loop is excised
        assert_eq!(r.unhandled.len(), 1);
        assert_eq!(r.counted.len(), 1);
        let tail = &r.program.text()[r.init_instructions..];
        assert_eq!(
            tail.iter().filter(|i| i.is_cond_branch()).count(),
            1,
            "exactly the while-loop branch survives"
        );
    }

    #[test]
    fn software_outer_forces_inner_to_software() {
        // outer while-loop (unhandled) around a counted inner: the inner
        // must stay in software too — the controller cannot re-enter it
        let r = assert_retarget_equiv(
            "
            li   r2, 3
      out:  li   r11, 4
      inn:  add  r3, r3, r2
            addi r11, r11, -1
            bne  r11, r0, inn
            addi r2, r2, -1
            bgtz r2, out
            halt
        ",
            &ZolcConfig::lite(),
        );
        assert_eq!(r.counted.len(), 0);
        assert_eq!(r.unhandled.len(), 2);
        assert_eq!(r.excised, 0);
    }

    #[test]
    fn program_reading_reset_values_keeps_scratch_invisible() {
        // reads r1's architected reset value (0) before ever writing it:
        // the init sequence must pick a scratch register the program
        // cannot observe, or the copied value would change
        let r = assert_retarget_equiv(
            "
            add  r2, r1, r0
            li   r11, 3
      top:  add  r3, r3, r2
            addi r11, r11, -1
            bne  r11, r0, top
            halt
        ",
            &ZolcConfig::lite(),
        );
        assert_eq!(r.counted.len(), 1);
        assert_ne!(r.scratch, reg(1), "r1 is read by surviving code");
    }

    #[test]
    fn counter_written_by_body_stays_software() {
        // the body overwrites the counter, changing the loop's real trip
        // count (here: the rewrite makes it exit after one iteration);
        // excision would 'restore' the counted behavior and diverge
        let r = assert_retarget_equiv(
            "
            li   r11, 5
      top:  add  r2, r2, r3
            addi r11, r0, 1
            addi r11, r11, -1
            bne  r11, r0, top
            halt
        ",
            &ZolcConfig::lite(),
        );
        assert_eq!(r.counted.len(), 0);
        assert_eq!(r.unhandled.len(), 1);
    }

    #[test]
    fn branch_skipping_a_loop_forces_it_to_software() {
        // a conditional branch over loop `a` would desync the task chain
        // (a's end address is never fetched, so the controller would
        // keep waiting on a's task); `a` must stay in software while the
        // untouched sibling `b` still maps to hardware
        let r = assert_retarget_equiv(
            "
            beq  r3, r0, skip
            li   r11, 2
      a:    add  r2, r2, r3
            addi r11, r11, -1
            bne  r11, r0, a
      skip: li   r13, 2
      b:    addi r2, r2, 1
            addi r13, r13, -1
            bne  r13, r0, b
            halt
        ",
            &ZolcConfig::lite(),
        );
        assert_eq!(r.counted.len(), 1, "{:?}", r.notes);
        assert_eq!(r.unhandled.len(), 1);
        // the hardware-mapped loop is `b`
        assert_eq!(r.counter_regs, vec![reg(13)]);
    }

    #[test]
    fn branch_skipping_the_decrement_stays_software() {
        // a branch into the latch *branch* (not the decrement) means the
        // original sometimes skips the decrement — not expressible as a
        // pure hardware counter, so the loop must stay in software
        let r = assert_retarget_equiv(
            "
            li   r11, 5
      top:  add  r2, r2, r3
            addi r4, r0, 1
            addi r11, r11, -1
      lat:  bne  r11, r0, top
            halt
        ",
            &ZolcConfig::lite(),
        );
        // make the skip real: a branch targeting `lat` from the body
        assert!(r.counted.len() <= 1); // without the skip it may map
        let p = assemble(
            "
            li   r11, 5
      top:  add  r2, r2, r3
            beq  r4, r0, lat
            addi r4, r0, 1
            addi r11, r11, -1
      lat:  bne  r11, r0, top
            halt
        ",
        )
        .unwrap();
        // the original never decrements on the first pass (r4 == 0) and
        // loops forever-ish; what matters here is only the structural
        // decision: the loop must be left in software
        let rt = retarget(&p, &ZolcConfig::lite()).unwrap();
        assert!(rt.counted.is_empty(), "{:?}", rt.notes);
        assert_eq!(rt.unhandled.len(), 1);
        assert_eq!(rt.excised, 0);
        assert_eq!(rt.program.text(), p.text(), "program must be unchanged");
    }

    #[test]
    fn inner_bound_from_outer_counter_stays_software() {
        // triangular nest where the inner trip count IS the outer's live
        // counter: excising the outer would leave the substituted inner
        // `zwr` reading a freed register — both must stay in software
        let r = assert_retarget_equiv(
            "
            li   r3, 1
            li   r11, 3
      out:  add  r12, r11, r0
      inn:  add  r2, r2, r3
            addi r12, r12, -1
            bne  r12, r0, inn
            addi r11, r11, -1
            bne  r11, r0, out
            halt
        ",
            &ZolcConfig::lite(),
        );
        assert!(r.counted.is_empty());
        assert_eq!(r.unhandled.len(), 2);
        assert_eq!(r.excised, 0);
    }

    #[test]
    fn counter_read_by_body_stays_software() {
        // the body uses the counter value: excision would change results
        let r = assert_retarget_equiv(
            "
            li   r11, 5
      top:  add  r2, r2, r11
            addi r11, r11, -1
            bne  r11, r0, top
            halt
        ",
            &ZolcConfig::lite(),
        );
        assert_eq!(r.counted.len(), 0);
        assert_eq!(r.unhandled.len(), 1);
    }

    #[test]
    fn counter_redefined_before_later_read_still_maps() {
        // the counter register is *reused* after the loop — redefined
        // first, then read. The old whole-text syntactic scan rejected
        // any surviving touch of the counter; the liveness filter sees
        // the redefinition kills the freed value before the read, so
        // the loop maps to hardware.
        let r = assert_retarget_equiv(
            "
            li   r11, 3
      top:  add  r2, r2, r3
            addi r11, r11, -1
            bne  r11, r0, top
            li   r11, 7
            add  r4, r4, r11
            halt
        ",
            &ZolcConfig::lite(),
        );
        assert_eq!(r.counted.len(), 1, "{:?}", r.notes);
        assert!(r.unhandled.is_empty());
    }

    #[test]
    fn counter_live_after_loop_stays_software() {
        // same shape without the redefinition: the read after the loop
        // observes the counter's final value, so it is live on the
        // loop's exit and the loop must keep its software control
        let r = assert_retarget_equiv(
            "
            li   r11, 3
      top:  add  r2, r2, r3
            addi r11, r11, -1
            bne  r11, r0, top
            add  r4, r4, r11
            halt
        ",
            &ZolcConfig::lite(),
        );
        assert_eq!(r.counted.len(), 0, "{:?}", r.notes);
        assert_eq!(r.unhandled.len(), 1);
    }

    #[test]
    fn counter_read_in_dead_code_still_maps() {
        // an unreachable block both reads the counter and branches into
        // the loop region; code the excised program can never execute
        // disqualifies nothing
        let r = assert_retarget_equiv(
            "
            j    start
            add  r4, r4, r11
            bne  r4, r0, top
     start: li   r11, 3
      top:  add  r2, r2, r3
            addi r11, r11, -1
            bne  r11, r0, top
            halt
        ",
            &ZolcConfig::lite(),
        );
        assert_eq!(r.counted.len(), 1, "{:?}", r.notes);
    }

    #[test]
    fn counter_reread_by_enclosing_hardware_loop_stays_software() {
        // the inner counter r12 is read *before* the inner loop, inside
        // the outer body: each outer iteration re-reaches the read via
        // the hardware back edge, observing the freed counter. The
        // virtual latch branches keep that back edge, so exit-liveness
        // catches it even though no read follows the nest in program
        // order.
        let r = assert_retarget_equiv(
            "
            li   r11, 3
      out:  add  r4, r4, r12
            li   r12, 2
      inn:  add  r2, r2, r3
            addi r12, r12, -1
            bne  r12, r0, inn
            addi r11, r11, -1
            bne  r11, r0, out
            halt
        ",
            &ZolcConfig::lite(),
        );
        assert!(
            !r.counted.iter().any(|c| c.counter == reg(12)),
            "inner loop must stay in software: {:?}",
            r.notes
        );
    }

    #[test]
    fn break_out_of_loop_stays_software() {
        let r = assert_retarget_equiv(
            "
            li   r11, 9
      top:  addi r2, r2, 1
            beq  r2, r11, done
            addi r11, r11, -1
            bne  r11, r0, top
      done: halt
        ",
            &ZolcConfig::lite(),
        );
        assert_eq!(r.counted.len(), 0);
    }

    #[test]
    fn micro_takes_single_loop_only() {
        let single = "
            li   r11, 10
      top:  add  r2, r2, r3
            addi r11, r11, -1
            bne  r11, r0, top
            halt
        ";
        let r = assert_retarget_equiv(single, &ZolcConfig::micro());
        assert_eq!(r.counted.len(), 1);
        assert!(r.image.tasks.is_empty());

        let nest = "
            li   r11, 3
      oth:  li   r12, 4
      inh:  add  r2, r2, r3
            addi r12, r12, -1
            bne  r12, r0, inh
            addi r11, r11, -1
            bne  r11, r0, oth
            halt
        ";
        let r = assert_retarget_equiv(nest, &ZolcConfig::micro());
        assert!(r.counted.is_empty(), "nests do not fit uZOLC");
    }

    #[test]
    fn jr_and_zolc_instructions_rejected() {
        let p = assemble("jr r31\nhalt").unwrap();
        assert!(matches!(
            retarget(&p, &ZolcConfig::lite()),
            Err(RetargetError::Unsupported(_))
        ));
        let p = assemble("zctl.rst\nhalt").unwrap();
        assert!(matches!(
            retarget(&p, &ZolcConfig::lite()),
            Err(RetargetError::Unsupported(_))
        ));
    }

    #[test]
    fn both_executors_agree_on_retargeted_programs() {
        let program = assemble(
            "
            li   r11, 3
      oth:  li   r12, 4
      inh:  add  r2, r2, r3
            add  r3, r3, r2
            addi r12, r12, -1
            bne  r12, r0, inh
            addi r11, r11, -1
            bne  r11, r0, oth
            halt
        ",
        )
        .unwrap();
        let r = retarget(&program, &ZolcConfig::lite()).unwrap();
        let mut z1 = Zolc::new(ZolcConfig::lite());
        let slow = run_session(
            ExecutorKind::CycleAccurate,
            &CompiledProgram::compile(r.program.clone()),
            &mut z1,
            BUDGET,
        )
        .unwrap();
        z1.assert_consistent();
        let mut z2 = Zolc::new(ZolcConfig::lite());
        let fast = run_session(
            ExecutorKind::Functional,
            &CompiledProgram::compile(r.program.clone()),
            &mut z2,
            BUDGET,
        )
        .unwrap();
        z2.assert_consistent();
        assert_eq!(slow.cpu.regs().snapshot(), fast.cpu.regs().snapshot());
        assert_eq!(slow.stats.retired, fast.stats.retired);
        assert!(slow.stats.cycles > 0);
    }
}
