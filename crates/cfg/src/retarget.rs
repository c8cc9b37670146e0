//! Automatic ZOLC retargeting: software-loop binary → excised program +
//! synthesized overlay.
//!
//! This module closes the loop the paper's §2 workflow assumes. Starting
//! from an `XRdefault`- (or `XRhrdwil`-) lowered [`Program`], [`retarget`]
//! works in two halves.
//!
//! **Analysis**, [`RetargetPlan::new`], reads no configuration, so one
//! plan serves every ZOLC configuration the binary is retargeted onto:
//!
//! 1. rejects unsupported instructions, then runs the CFG / dominator /
//!    loop-forest analyses and
//!    [`detect_counted_loops`](crate::detect_counted_loops);
//! 2. runs the handledness fixpoint over the *virtual post-excision
//!    program* — software ancestors, region-crossing control flow and
//!    observable counters pull loops back to software (see
//!    `filter_handled`).
//!
//! **Synthesis**, [`RetargetPlan::retarget`], instantiates the plan for
//! one configuration:
//!
//! 3. trims whole nests to the configuration's capacity (and uZOLC's
//!    single-loop rule);
//! 4. **excises** the software loop control of every handled loop — the
//!    preheader trip-count load, the latch decrement and backward branch
//!    (or the fused `dbnz`) — while leaving unhandled loops entirely in
//!    software;
//! 5. **compacts and relocates** the surviving text, re-linking every
//!    surviving branch and jump through assembler labels;
//! 6. **synthesizes** the [`ZolcImage`] against the relocated addresses
//!    and prepends its initialization-mode sequence, yielding a runnable,
//!    self-initializing program whose loop control now lives in the
//!    controller, and validates it against the configuration.
//!
//! The task chain is `zolc-core`'s one rule, [`ZolcImage::chained`], the
//! forward lowering's too: image order is the loop forest's, so each
//! loop's header address is its execution-order key. In-loop `zwr` limit
//! updates are padded to the controller's [`ZWR_LEAD`](zolc_core::ZWR_LEAD).
//!
//! Both halves work over dense arrays indexed by text position: one
//! emission action, label and register mask per original instruction,
//! and the plan's control transfers in address order. The fixpoint
//! builds the virtual program's text and flow graph once and patches
//! them in place from round to round.
//!
//! [`retarget`] is exactly `RetargetPlan::new` followed by one
//! synthesis; a synthesis reads the plan and never changes it, so a
//! plan reused across configurations gives the same results as fresh
//! one-shot calls (the root `auto_retarget` suite holds this). A
//! synthesis reads the configuration only through its capacity trim and
//! whether it has a task table, so configurations fall into synthesis
//! classes ([`RetargetPlan::synthesis_key`]); one whose trim leaves
//! every loop in software gets the plan's own binary back, unrelinked.
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

use crate::detect::{detect_counted_loops, CountedLoop};
use crate::dom::Dominators;
use crate::graph::Cfg;
use crate::loops::LoopForest;
use std::fmt;
use std::sync::Arc;
use zolc_analyze::{solve, FlowGraph, Liveness, RegSet, Solution};
use zolc_core::{ImageError, LimitSrc, LoopSpec, ZolcConfig, ZolcImage, ZWR_LEAD};
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Em {
    /// Copied (branches/jumps re-linked).
    Keep,
    /// Excised.
    Drop,
    /// Substituted by an inserted `nop` loop end.
    Nop,
    /// Substituted by handled loop `index`'s in-loop `zwr` limit update
    /// (reading `rs`), then `pads` `nop`s of lead padding.
    Zwr { index: u8, rs: Reg, pads: usize },
}

impl Em {
    fn len(self) -> usize {
        match self {
            Em::Keep | Em::Nop => 1,
            Em::Drop => 0,
            Em::Zwr { pads, .. } => 1 + pads,
        }
    }

    /// The substituted instructions (none for `Keep` and `Drop`).
    fn substitute(self) -> impl Iterator<Item = Instr> {
        let (first, pads) = match self {
            Em::Keep | Em::Drop => (None, 0),
            Em::Nop => (Some(Instr::Nop), 0),
            Em::Zwr { index, rs, pads } => (
                Some(Instr::Zwr {
                    region: ZolcRegion::Loop,
                    index,
                    field: loop_field::LIMIT,
                    rs,
                }),
                pads,
            ),
        };
        first
            .into_iter()
            .chain(std::iter::repeat_n(Instr::Nop, pads))
    }
}

/// The scratch register a synthesis with no initialization sequence
/// reports; no instruction clobbers it.
fn nominal_scratch() -> Reg {
    Reg::new(1).expect("r1 is a valid register")
}

fn text_idx(addr: u32) -> usize {
    ((addr - TEXT_BASE) / INSTR_BYTES) as usize
}

fn text_addr(idx: usize) -> u32 {
    TEXT_BASE + INSTR_BYTES * idx as u32
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

/// The registers an instruction reads or writes (`r0` aside).
fn touches(instr: Instr) -> RegSet {
    let (def, uses) = instr.def_use();
    let mut regs = RegSet::from_mask(uses);
    if let Some(d) = def {
        regs.insert(d);
    }
    regs
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
    RetargetPlan::new(program.clone())?.retarget(config)
}

/// The configuration-independent half of [`retarget`]: the binary's
/// CFG, loop forest and counted loops, and the handledness fixpoint's
/// verdict (see the module docs). Build it once per binary, then call
/// [`RetargetPlan::retarget`] for each configuration; each call equals a
/// fresh [`retarget`] of the same binary.
///
/// # Examples
///
/// ```
/// use zolc_cfg::{retarget, RetargetPlan};
/// use zolc_core::ZolcConfig;
///
/// let program = zolc_isa::assemble("
///     li   r11, 3
/// oth: li   r12, 4
/// inh: add  r2, r2, r3
///     addi r12, r12, -1
///     bne  r12, r0, inh
///     addi r11, r11, -1
///     bne  r11, r0, oth
///     halt
/// ").unwrap();
/// let plan = RetargetPlan::new(program.clone()).unwrap();
/// for config in [ZolcConfig::micro(), ZolcConfig::lite()] {
///     assert_eq!(plan.retarget(&config), retarget(&program, &config));
/// }
/// // the nest does not fit uZOLC, ZOLClite takes both loops
/// assert!(plan.retarget(&ZolcConfig::micro()).unwrap().counted.is_empty());
/// assert_eq!(plan.retarget(&ZolcConfig::lite()).unwrap().counted.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RetargetPlan {
    program: Arc<Program>,
    cfg: Cfg,
    forest: LoopForest,
    /// Loops the fixpoint kept, before any capacity trim.
    handled: Vec<CountedLoop>,
    /// The fixpoint's notes; every synthesis starts from these.
    notes: Vec<String>,
    facts: TextFacts,
    /// Whether relinking the text with nothing excised rebuilds the
    /// binary exactly: it has no text symbol (relocation drops those),
    /// every control transfer lands inside the text (relocation refuses
    /// the others), and no jump's target field carries bits its target
    /// address drops.
    relinks_to_itself: bool,
}

/// The synthesis class of a configuration under one [`RetargetPlan`]
/// ([`RetargetPlan::synthesis_key`]). Configurations with equal keys
/// get the same program, and runs of it on their controllers are the
/// same run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SynthesisKey {
    /// The configuration's capacity trim leaves every loop in software.
    /// The synthesis emits no initialization sequence, excises nothing
    /// and relinks every transfer to its own target, so a run of it
    /// never touches the controller: it is the run of the binary with
    /// no controller at all. Its program is the plan's own binary
    /// whenever relinking would rebuild it exactly. (The notes still
    /// name each configuration's trim.)
    Software,
    /// A configuration with a task table whose capacity, `min(loops,
    /// tasks)`, holds every handled loop. The trim keeps every loop,
    /// and the synthesis then reads the configuration only through
    /// whether it has a task table, so every such configuration gets an
    /// equal [`Retargeted`]. Its text writes only loop and task records
    /// below the handled-loop count `n`, names only loops and tasks
    /// below `n` (or no task), and writes no entry or exit record: a
    /// run of it cannot tell the configurations apart.
    Whole,
    /// Any other configuration (uZOLC keeping its loop, a trimmed task
    /// table): a synthesis of its own.
    Own(ZolcConfig),
}

/// Per-instruction facts of a plan's text, gathered in one pass.
#[derive(Debug, Clone)]
struct TextFacts {
    /// Every control transfer as (text index, target), in address
    /// order. A plan holds no `jr`, so every target is static.
    transfers: Vec<(usize, u32)>,
    /// The registers each instruction touches.
    touch: Vec<RegSet>,
}

impl RetargetPlan {
    /// Analyzes `program`: rejects unsupported instructions, builds the
    /// CFG, dominators and loop forest, detects counted loops and runs
    /// the handledness fixpoint. Nothing here depends on a ZOLC
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RetargetError::Unsupported`] for an empty text segment
    /// and for programs using `jal`/`jr` or pre-existing ZOLC
    /// instructions.
    pub fn new(program: impl Into<Arc<Program>>) -> Result<RetargetPlan, RetargetError> {
        let program = program.into();
        let text = program.text();
        if text.is_empty() {
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
                text_addr(i)
            )));
        }

        let cfg = Cfg::build(&program);
        let dom = Dominators::compute(&cfg);
        let forest = LoopForest::natural(&cfg, &dom);
        let all = detect_counted_loops(&program, &cfg, &forest);
        let mut facts = TextFacts {
            // every transfer ends a block
            transfers: Vec::with_capacity(cfg.blocks().len()),
            touch: Vec::with_capacity(text.len()),
        };
        for (i, &instr) in text.iter().enumerate() {
            facts.touch.push(touches(instr));
            if let Some(t) = instr.static_target(text_addr(i)) {
                facts.transfers.push((i, t));
            }
        }
        let mut notes = Vec::new();
        let handled = filter_handled(&program, &cfg, &dom, &forest, &all, &facts, &mut notes);
        // relinking re-encodes every transfer from its target, and a
        // jump names its target's word
        let relinks_to_itself = program.symbols().values().all(|&a| a >= DATA_BASE)
            && facts.transfers.iter().all(|&(i, t)| {
                text_idx(t) < text.len()
                    && !matches!(text[i], Instr::J { target } if target != t >> 2)
            });
        Ok(RetargetPlan {
            program,
            cfg,
            forest,
            handled,
            notes,
            facts,
            relinks_to_itself,
        })
    }

    /// The analyzed binary.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The synthesis class of `config` (see [`SynthesisKey`]): two
    /// configurations with equal keys get equal syntheses, except that
    /// the notes of [`SynthesisKey::Software`] members name their own
    /// trims.
    ///
    /// # Examples
    ///
    /// ```
    /// use zolc_cfg::{RetargetPlan, SynthesisKey};
    /// use zolc_core::ZolcConfig;
    ///
    /// let program = zolc_isa::assemble("
    ///     li   r11, 3
    /// oth: li   r12, 4
    /// inh: add  r2, r2, r3
    ///     addi r12, r12, -1
    ///     bne  r12, r0, inh
    ///     addi r11, r11, -1
    ///     bne  r11, r0, oth
    ///     halt
    /// ").unwrap();
    /// let plan = RetargetPlan::new(program).unwrap();
    /// let key = |c: ZolcConfig| plan.synthesis_key(&c);
    /// // both loops fit every task table of two or more entries
    /// assert_eq!(key(ZolcConfig::lite()), SynthesisKey::Whole);
    /// assert_eq!(key(ZolcConfig::custom(2, 8, 0, 0).unwrap()), SynthesisKey::Whole);
    /// // the nest does not fit uZOLC or one task entry
    /// assert_eq!(key(ZolcConfig::micro()), SynthesisKey::Software);
    /// assert_eq!(key(ZolcConfig::custom(1, 1, 0, 0).unwrap()), SynthesisKey::Software);
    /// ```
    pub fn synthesis_key(&self, config: &ZolcConfig) -> SynthesisKey {
        let n = self.handled.len();
        if n == 0 {
            return SynthesisKey::Software;
        }
        if config.tasks() > 0 && n <= config.loops().min(config.tasks()) {
            return SynthesisKey::Whole;
        }
        let kept = trim_capacity(
            &self.cfg,
            &self.forest,
            self.handled.clone(),
            config,
            &mut Vec::new(),
        );
        if kept.is_empty() {
            SynthesisKey::Software
        } else {
            SynthesisKey::Own(*config)
        }
    }

    /// Synthesizes the plan for a ZOLC of configuration `config`: trims
    /// the handled loops to its capacity, excises, relocates, and
    /// synthesizes and validates the overlay. Reads the plan only, so
    /// any number of configurations can share one plan.
    ///
    /// # Errors
    ///
    /// Returns [`RetargetError::Unsupported`] if no scratch register is
    /// free or a surviving control transfer cannot be relocated,
    /// [`RetargetError::Image`] if the synthesized overlay fails
    /// validation, and [`RetargetError::Asm`] if the relocated text
    /// cannot be re-linked.
    pub fn retarget(&self, config: &ZolcConfig) -> Result<Retargeted, RetargetError> {
        let (cfg, forest) = (&self.cfg, &self.forest);
        let mut notes = self.notes.clone();
        let handled = trim_capacity(cfg, forest, self.handled.clone(), config, &mut notes);
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
        if handled.is_empty() && self.relinks_to_itself {
            // nothing to excise, and relinking would rebuild the binary
            return Ok(Retargeted {
                program: Arc::clone(&self.program),
                image: ZolcImage::chained(config, Vec::new(), &[]),
                counted: handled,
                unhandled,
                counter_regs: Vec::new(),
                scratch: nominal_scratch(),
                excised: 0,
                init_instructions: 0,
                notes,
            });
        }
        self.synthesize(config, handled, unhandled, notes)
    }

    /// Excises, relocates and relinks the text for the trimmed loops
    /// `handled`, and synthesizes and validates the overlay (the rest
    /// of [`RetargetPlan::retarget`]).
    fn synthesize(
        &self,
        config: &ZolcConfig,
        mut handled: Vec<CountedLoop>,
        unhandled: Vec<usize>,
        mut notes: Vec<String>,
    ) -> Result<Retargeted, RetargetError> {
        let program = &*self.program;
        let forest = &self.forest;
        let text = program.text();
        let n = text.len();
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
                em[text_idx(rl.addr)] = Em::Zwr {
                    index: k as u8,
                    rs: rl.reg,
                    pads: 0,
                };
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
                && self
                    .facts
                    .transfers
                    .iter()
                    .any(|&(i, t)| em[i] == Em::Keep && t == c.latch_start());
            let mut need_nop = body_len == 0 || targeted;
            if !need_nop {
                let end_i = resolve_end(&em, c);
                let ok = match em[end_i] {
                    Em::Keep => {
                        let i = text[end_i];
                        !i.is_control_flow() && !matches!(i, Instr::Zwr { .. })
                    }
                    Em::Nop => true,
                    Em::Zwr { .. } => false,
                    Em::Drop => unreachable!("resolve_end skips empty emissions"),
                };
                need_nop = !ok;
            }
            if need_nop {
                // the latch position is where branches into the latch land
                em[latch_i] = Em::Nop;
                notes.push(format!("loop at {:#x}: inserted nop loop end", c.start));
            }
        }

        // Pad in-loop `zwr` limit updates to the controller's `ZWR_LEAD`,
        // so the write retires before the loop end is fetched. The static
        // emission count equals the dynamic path only for straight-line
        // ranges; if a branch inside the range can shorten the path, assume
        // the worst case — only the range's entry instruction and the end
        // itself are guaranteed to execute.
        for c in &handled {
            let Some(rl) = c.limit_reg else { continue };
            let zwr_i = text_idx(rl.addr);
            let end_i = resolve_end(&em, c);
            let lead: usize = ((zwr_i + 1)..=end_i).map(|i| em[i].len()).sum();
            let branchy =
                ((zwr_i + 1)..=end_i).any(|i| em[i] == Em::Keep && text[i].is_control_flow());
            let min_path = if branchy { lead.min(2) } else { lead };
            if let Em::Zwr { pads, .. } = &mut em[zwr_i] {
                *pads += ZWR_LEAD.saturating_sub(min_path);
            }
        }

        // Choose the scratch register the initialization sequence clobbers:
        // it must be invisible to the surviving program, so take the lowest
        // register no emitted instruction touches (a read could observe the
        // leftover init value — even a read of the architected reset value
        // counts — and a write-only register may still be checked as an
        // output). Freed counters typically qualify.
        let scratch = if handled.is_empty() {
            nominal_scratch()
        } else {
            let mut touched = RegSet::EMPTY;
            for (i, &e) in em.iter().enumerate() {
                touched = match e {
                    Em::Keep => touched.union(self.facts.touch[i]),
                    e => e.substitute().map(touches).fold(touched, RegSet::union),
                };
            }
            (1..32)
                .filter_map(Reg::new)
                .find(|&r| !touched.contains(r))
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

        // Room for the text, its lead pads and the init sequence (about
        // 18 instructions per loop), and for a label at every relocation
        // point — each loop's start and end, each transfer's destination
        // — plus the init sequence's references to them.
        let transfers = &self.facts.transfers;
        let mut asm =
            Asm::with_capacity(n + 24 * handled.len(), 3 * handled.len() + transfers.len());
        // the label bound where each original instruction is emitted
        let mut labels: Vec<Option<Label>> = vec![None; n];
        let mut label_at =
            |asm: &mut Asm, p: usize| *labels[p].get_or_insert_with(|| asm.new_label());

        let first_emitted = em.iter().position(|e| e.len() > 0);
        let mut loop_labels: Vec<(Label, Label)> = Vec::with_capacity(handled.len());
        // whether the relocated body opens with a loop start
        let mut opens_with_loop = false;
        for c in &handled {
            let s = fwd(&em, c.start)?;
            let e = resolve_end(&em, c);
            debug_assert_eq!(em[e].len(), 1, "loop ends are single-instruction");
            opens_with_loop |= Some(s) == first_emitted;
            loop_labels.push((label_at(&mut asm, s), label_at(&mut asm, e)));
        }
        // (instr idx, destination label) of every surviving transfer, in order
        let mut branch_dests: Vec<(usize, Label)> = Vec::with_capacity(transfers.len());
        for &(i, t) in transfers {
            if em[i] != Em::Keep {
                continue;
            }
            if text_idx(t) >= n {
                return Err(RetargetError::Unsupported(format!(
                    "control transfer at {:#x} targets {t:#x}, outside text",
                    text_addr(i)
                )));
            }
            let p = fwd(&em, t)?;
            branch_dests.push((i, label_at(&mut asm, p)));
        }

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
        // Image order is forest order (body size), so the header address
        // is the execution-order key of the task chain. A handled loop's
        // forest parent is handled too: software ancestors pull their
        // descendants back, and capacity trims whole nests.
        let tree: Vec<(Option<usize>, u32)> = handled
            .iter()
            .map(|c| {
                let parent = forest.loops[c.loop_id].parent;
                let parent = parent.and_then(|p| handled.iter().position(|h| h.loop_id == p));
                (parent, c.start)
            })
            .collect();
        let specs = handled
            .iter()
            .zip(&loop_labels)
            .map(|(c, &(start, end))| LoopSpec {
                init: 0,
                step: 0,
                limit: match (c.trips, c.limit_reg) {
                    (Some(t), _) => LimitSrc::Const(t),
                    (None, Some(rl)) => LimitSrc::Reg(rl.reg),
                    (None, None) => unreachable!("handled loops have a known bound"),
                },
                index_reg: None,
                start: start.into(),
                end: end.into(),
            })
            .collect();
        let image = ZolcImage::chained(config, specs, &tree);

        let init_instructions = if handled.is_empty() {
            0
        } else {
            image.emit_init(&mut asm, scratch).instructions
        };

        // ---- emission ------------------------------------------------------
        // a loop body must not start immediately after `zctl.on`: the
        // activation becomes visible at the post-sync refetch, which
        // would miss the entry at this start address (same rule as the
        // forward lowering)
        if opens_with_loop {
            asm.emit(Instr::Nop);
        }
        let mut dests = branch_dests.iter().peekable();
        for (i, &e) in em.iter().enumerate() {
            if e.len() == 0 {
                continue;
            }
            if let Some(l) = labels[i] {
                asm.bind(l)?;
            }
            match e {
                Em::Keep => match dests.next_if(|&&(b, _)| b == i) {
                    Some(&(_, dest)) if matches!(text[i], Instr::J { .. }) => {
                        asm.jump(dest);
                    }
                    Some(&(_, dest)) => {
                        asm.branch(text[i], dest);
                    }
                    None => {
                        asm.emit(text[i]);
                    }
                },
                e => {
                    asm.emit_all(e.substitute());
                }
            }
        }

        let resolved = image.resolve(|l| asm.label_addr(l))?;
        resolved.validate(config)?;
        let excised = em.iter().filter(|&&e| e != Em::Keep).count();
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
}

/// Filters the detected counted loops down to the ones the retargeter can
/// safely move into hardware on any configuration (see the module docs
/// for the rules); [`trim_capacity`] then fits them to one.
fn filter_handled(
    program: &Program,
    cfg: &Cfg,
    dom: &Dominators,
    forest: &LoopForest,
    all: &[CountedLoop],
    facts: &TextFacts,
    notes: &mut Vec<String>,
) -> Vec<CountedLoop> {
    let text = program.text();
    let n = text.len();

    // Reachability is a property of the CFG alone, and every virtual
    // program below has this CFG, so it is computed once.
    let mut reachable = vec![false; n];
    for blk in cfg.blocks().iter().filter(|b| dom.is_reachable(b.id)) {
        reachable[text_idx(blk.start)..text_idx(blk.end)].fill(true);
    }
    // the registers each reachable virtual instruction touches
    let reached = |i: usize, regs: RegSet| if reachable[i] { regs } else { RegSet::EMPTY };
    let mut vtouch: Vec<RegSet> = (0..n).map(|i| reached(i, facts.touch[i])).collect();

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
    //
    // Excision swaps only non-control instructions (for `nop` or
    // `zwr`) and latch branches (for a branch with the same offset),
    // so the virtual program's blocks and edges are the input's. Its
    // text (`vtext`) carries from round to round: each round writes
    // the text it wants at the positions some eligible loop's
    // excision touches (the sites) into `next`, and patches what
    // changed.
    let mut vtext = text.to_vec();
    let mut next = vtext.clone();
    let mut sites: Vec<usize> = handled
        .iter()
        .flat_map(excised_addrs)
        .map(text_idx)
        .collect();
    sites.sort_unstable();
    sites.dedup();
    // the registers the text outside the sites touches
    let mut outside = RegSet::EMPTY;
    let mut site = sites.iter().peekable();
    for (i, &regs) in facts.touch.iter().enumerate() {
        if site.next_if_eq(&&i).is_none() {
            outside = outside.union(regs);
        }
    }
    let mut dropped = vec![false; n];
    let mut in_hw = vec![false; forest.len()];
    // Liveness is a per-register problem over a graph that never
    // changes. A counter no virtual instruction touches is dead
    // everywhere, and a register's facts can move only where a patched
    // instruction touches it. So the flow graph is built, and liveness
    // solved, only for a counter that is touched and has no valid
    // facts yet; both are kept and patched across rounds.
    let mut flow: Option<FlowGraph> = None;
    let mut live: Option<Solution<RegSet>> = None;
    let mut stale = RegSet::EMPTY;
    let patch = |flow: &mut FlowGraph, i: usize, instr: Instr| {
        let b = cfg
            .block_containing(text_addr(i))
            .expect("text indices lie inside blocks");
        flow.instrs_mut(b.id)[i - text_idx(b.start)] = instr;
    };

    // fixpoint: software ancestors pull their descendants back to
    // software, surviving control flow must stay compatible with every
    // hardware loop region, and loops whose counter is still used by
    // surviving code cannot lose their counter updates
    loop {
        in_hw.fill(false);
        for c in &handled {
            in_hw[c.loop_id] = true;
        }
        let before = handled.len();
        handled.retain(|c| {
            let mut anc = forest.loops[c.loop_id].parent;
            while let Some(a) = anc {
                if !in_hw[a] {
                    return false;
                }
                anc = forest.loops[a].parent;
            }
            true
        });

        for &i in &sites {
            dropped[i] = false;
            next[i] = text[i];
        }
        for c in &handled {
            for i in excised_addrs(c).map(text_idx) {
                dropped[i] = true;
                next[i] = Instr::Nop;
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
                next[i] = Instr::Beq {
                    rs: Reg::ZERO,
                    rt: Reg::ZERO,
                    off,
                };
            }
            if let Some(rl) = c.limit_reg {
                next[text_idx(rl.addr)] = Instr::Zwr {
                    region: ZolcRegion::Loop,
                    index: 0,
                    field: loop_field::LIMIT,
                    rs: rl.reg,
                };
            }
        }
        // carry the sites that changed since the last round over
        let mut touched = outside;
        for &i in &sites {
            if next[i] != vtext[i] {
                // a substitute touches no register its original does not
                stale = stale.union(facts.touch[i]);
                vtext[i] = next[i];
                vtouch[i] = reached(i, touches(vtext[i]));
                if let Some(flow) = &mut flow {
                    patch(flow, i, vtext[i]);
                }
            }
            touched = touched.union(touches(vtext[i]));
        }
        debug_assert_eq!(
            Cfg::build(&Program::from_parts(vtext.clone(), Vec::new())),
            *cfg,
            "excision keeps the CFG"
        );
        let queried = |c: &CountedLoop| touched.contains(c.counter);
        if handled
            .iter()
            .any(|c| queried(c) && (live.is_none() || stale.contains(c.counter)))
        {
            let flow = flow.get_or_insert_with(|| {
                let mut flow = cfg.flow(program);
                for &i in &sites {
                    if vtext[i] != text[i] {
                        patch(&mut flow, i, vtext[i]);
                    }
                }
                flow
            });
            live = Some(solve(
                flow,
                &Liveness {
                    at_exit: RegSet::EMPTY,
                },
            ));
            stale = RegSet::EMPTY;
        }

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
        let cf_compatible = |c: &CountedLoop| -> bool {
            facts.transfers.iter().all(|&(i, t)| {
                if dropped[i] || !reachable[i] {
                    return true;
                }
                if !c.via_dbnz && t == c.branch_addr {
                    return false;
                }
                let pc = text_addr(i);
                let region = c.start..=c.branch_addr;
                let (in_s, in_t) = (region.contains(&pc), region.contains(&t));
                in_s == in_t && (in_s || !(pc.min(t) < c.start && pc.max(t) > c.branch_addr))
            })
        };
        handled.retain(|c| {
            let ok = cf_compatible(c);
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
            let region_clean = (text_idx(c.start)..=text_idx(c.branch_addr))
                .all(|i| !vtouch[i].contains(c.counter));
            let live_at_exit = queried(c)
                && cfg
                    .block_containing(c.branch_addr + INSTR_BYTES)
                    .zip(live.as_ref())
                    .is_some_and(|(b, live)| live.block_in[b.id].contains(c.counter));
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
    handled
}

/// Fits the fixpoint's handled loops to `config`: whole top-level trees
/// are trimmed (last in execution order first) until the configuration
/// fits, and uZOLC keeps only a lone single-loop tree.
fn trim_capacity(
    cfg: &Cfg,
    forest: &LoopForest,
    mut handled: Vec<CountedLoop>,
    config: &ZolcConfig,
    notes: &mut Vec<String>,
) -> Vec<CountedLoop> {
    let header = |id: usize| cfg.blocks()[forest.loops[id].header].start;
    // whether `root` is `id` or one of its forest ancestors
    let within = |mut id: usize, root: usize| loop {
        if id == root {
            return true;
        }
        match forest.loops[id].parent {
            Some(p) => id = p,
            None => return false,
        }
    };
    let capacity = if config.tasks() == 0 {
        1
    } else {
        config.loops().min(config.tasks())
    };
    let mut in_hw = Vec::new();
    while handled.len() > capacity {
        in_hw.clear();
        in_hw.resize(forest.len(), false);
        for c in &handled {
            in_hw[c.loop_id] = true;
        }
        // top-level trees: handled loops whose parent is not handled
        let mut tops = handled
            .iter()
            .map(|c| c.loop_id)
            .filter(|&id| forest.loops[id].parent.is_none_or(|p| !in_hw[p]));
        let Some(first) = tops.next() else { break };
        // the last tree in execution order
        let (last, more) = tops.fold((first, false), |(last, _), id| {
            (if header(id) >= header(last) { id } else { last }, true)
        });
        if !more && config.tasks() > 0 {
            // a single nest deeper than the configuration: give it up
            // entirely rather than hardware-mapping a partial nest
            notes.push(format!(
                "nest at {:#x} exceeds the {config} capacity; left in software",
                header(last)
            ));
            handled.clear();
            break;
        }
        notes.push(format!(
            "capacity: nest at {:#x} left in software ({} loops over {capacity})",
            header(last),
            handled.len()
        ));
        handled.retain(|c| !within(c.loop_id, last));
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
        let report = crate::lint_program(&r.program, Some(&r.image));
        assert!(report.is_clean(), "{report}");
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

    /// A binary that relinking would change gets the relinked program
    /// even when every loop stays in software: here the text symbol is
    /// dropped, and so is the high bit of the jump's target field.
    #[test]
    fn software_synthesis_relinks_what_relinking_changes() {
        let labelled = assemble(
            "
            li   r1, 1
      here: add  r2, r2, r1
            halt
        ",
        )
        .unwrap();
        let jump = Program::from_parts(
            vec![
                Instr::J {
                    target: 1 << 30 | 2,
                },
                Instr::Nop,
                Instr::Halt,
            ],
            Vec::new(),
        );
        for program in [labelled, jump] {
            let plan = RetargetPlan::new(program.clone()).unwrap();
            let config = ZolcConfig::lite();
            assert_eq!(plan.synthesis_key(&config), SynthesisKey::Software);
            let r = plan.retarget(&config).unwrap();
            assert!(!Arc::ptr_eq(&r.program, plan.program()));
            assert_ne!(*r.program, program);
            assert_eq!(r.program.text().len(), program.text().len());
        }
    }

    /// The synthesis classes over seeds 1–400 of the default generator
    /// and the Fig. 2 kernels' baseline binaries, on the standard E7
    /// points and custom points around them. Every configuration's
    /// synthesis equals a fresh one-shot [`retarget`]; every member of
    /// a class gets its first member's synthesis (in `Software`, all
    /// but the notes); and a `Software` synthesis is the plan's own
    /// binary, equal to what relinking it would build.
    #[test]
    fn synthesis_classes_hold_equal_syntheses() {
        let custom = |loops, tasks| ZolcConfig::custom(loops, tasks, 0, 0).unwrap();
        let configs = [
            ZolcConfig::micro(),
            ZolcConfig::lite(),
            ZolcConfig::full(),
            custom(2, 8),
            custom(1, 1),
            custom(3, 2),
            custom(8, 4),
            custom(1, 0),
            ZolcConfig::custom(4, 16, 2, 1).unwrap(),
        ];
        let gen = zolc_gen::GenConfig::default();
        let generated = (1..=400).map(|seed| {
            let spec = zolc_gen::ProgramSpec::generate(seed, &gen);
            (format!("gen{seed}"), spec.assemble().unwrap().program)
        });
        let kernels = zolc_kernels::kernels().iter().map(|k| {
            let built = (k.build)(&zolc_ir::Target::Baseline).unwrap();
            (k.name.to_owned(), Program::clone(built.program.source()))
        });
        let (mut software, mut whole, mut own) = (0, 0, 0);
        for (name, program) in generated.chain(kernels) {
            let plan = RetargetPlan::new(program.clone()).unwrap();
            let mut firsts: Vec<(SynthesisKey, Retargeted)> = Vec::new();
            for config in &configs {
                let ctx = format!("{name} on {config}");
                let key = plan.synthesis_key(config);
                let r = plan.retarget(config).unwrap();
                assert_eq!(r, retarget(&program, config).unwrap(), "{ctx}: one-shot");
                match key {
                    SynthesisKey::Software => {
                        software += 1;
                        assert!(r.counted.is_empty(), "{ctx}");
                        assert!(Arc::ptr_eq(&r.program, plan.program()), "{ctx}");
                        let (unhandled, notes) = (r.unhandled.clone(), r.notes.clone());
                        let relinked = plan.synthesize(config, Vec::new(), unhandled, notes);
                        assert_eq!(relinked.as_ref(), Ok(&r), "{ctx}: relinked");
                    }
                    SynthesisKey::Whole => {
                        whole += 1;
                        assert_eq!(r.counted, plan.handled, "{ctx}");
                    }
                    SynthesisKey::Own(c) => {
                        own += 1;
                        assert_eq!(c, *config, "{ctx}");
                    }
                }
                match firsts.iter().find(|(k, _)| *k == key) {
                    Some((_, first)) if key == SynthesisKey::Software => {
                        let notes = first.notes.clone();
                        assert_eq!(Retargeted { notes, ..r }, *first, "{ctx}: class");
                    }
                    Some((_, first)) => assert_eq!(r, *first, "{ctx}: class"),
                    None => firsts.push((key, r)),
                }
            }
        }
        eprintln!("software {software}, whole {whole}, own {own}");
        // every class is reached
        assert!(software >= 400 && whole >= 400 && own >= 400);
    }
}
