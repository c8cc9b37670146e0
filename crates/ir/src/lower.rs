//! Lowering the structured IR to the three machine-code forms.
//!
//! * [`Target::Baseline`] — `XRdefault`: a software down-counter per loop
//!   (`addi counter, -1; bne counter, r0, top`) plus software index
//!   maintenance; every taken back edge pays the 2-cycle branch penalty.
//! * [`Target::HwLoop`] — `XRhrdwil`: the branch-decrement `dbnz` fuses
//!   the decrement and the compare-and-branch into one instruction whose
//!   dedicated zero-detect resolves in ID (one overhead instruction plus
//!   a single taken bubble per iteration).
//! * [`Target::Zolc`] — bodies only: no loop-control instructions at all.
//!   The lowering builds the image through `zolc-core`'s one task-chain
//!   rule, [`ZolcImage::chained`] (one task per loop in pre-order, chained
//!   ends for shared last instructions), emits the initialization
//!   sequence, and schedules in-loop `zwr` limit updates for
//!   data-dependent bounds with the controller's [`ZWR_LEAD`]. `break_if`
//!   uses exit records on ZOLCfull and a software fixup stub on
//!   configurations without records.
//!
//! All three lowerings share the body code verbatim, so measured cycle
//! differences are attributable to loop control alone — the property the
//! paper's Fig. 2 comparison relies on.

use crate::ir::{Cond, LoopIr, LoopNode, Node, Trips};
use std::fmt;
use zolc_core::{
    ExitSpec, ImageError, LimitSrc, LoopSpec, TaskSpec, ZolcConfig, ZolcImage, TASK_NONE, ZWR_LEAD,
};
use zolc_isa::{loop_field, Asm, AsmError, Instr, Label, Reg, ZolcCtl, ZolcRegion};

/// The processor configuration code is generated for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// `XRdefault`: software loops.
    Baseline,
    /// `XRhrdwil`: branch-decrement loops.
    HwLoop,
    /// ZOLC of the given hardware configuration.
    Zolc(ZolcConfig),
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Baseline => f.write_str("XRdefault"),
            Target::HwLoop => f.write_str("XRhrdwil"),
            Target::Zolc(c) => write!(f, "{}", c.variant()),
        }
    }
}

/// What the lowering produced beyond the emitted code.
#[derive(Debug, Clone, Default)]
pub struct LoweredInfo {
    /// The resolved table image (ZOLC targets with at least one loop).
    pub image: Option<ZolcImage>,
    /// Instructions in the emitted initialization sequence.
    pub init_instructions: usize,
    /// Non-fatal remarks (e.g. exit-record exhaustion fallbacks).
    pub notes: Vec<String>,
}

/// Errors raised by lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// `break_if` outside any loop, or deeper than the nesting.
    BreakTooDeep {
        /// Requested levels.
        levels: u8,
        /// Available nesting depth at that point.
        depth: usize,
    },
    /// A loop appears inside an `if` arm (conditionally-executed loops are
    /// not expressible in the ZOLC task graph).
    LoopInsideIf,
    /// Body code writes a register owned by loop control.
    RegisterConflict(String),
    /// An index step outside the 16-bit immediate range.
    StepOutOfRange {
        /// The offending step.
        step: i32,
    },
    /// The loop structure does not fit the ZOLC configuration.
    Image(ImageError),
    /// Assembler-level failure (label/branch range).
    Asm(String),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::BreakTooDeep { levels, depth } => {
                write!(f, "break_if({levels}) with only {depth} enclosing loops")
            }
            LowerError::LoopInsideIf => {
                write!(
                    f,
                    "loops inside if arms are not supported by the task graph"
                )
            }
            LowerError::RegisterConflict(msg) => write!(f, "register conflict: {msg}"),
            LowerError::StepOutOfRange { step } => {
                write!(f, "index step {step} exceeds the 16-bit immediate range")
            }
            LowerError::Image(e) => write!(f, "structure does not fit configuration: {e}"),
            LowerError::Asm(e) => write!(f, "assembly error: {e}"),
        }
    }
}

impl std::error::Error for LowerError {}

impl From<ImageError> for LowerError {
    fn from(e: ImageError) -> Self {
        LowerError::Image(e)
    }
}

impl From<AsmError> for LowerError {
    fn from(e: AsmError) -> Self {
        LowerError::Asm(e.to_string())
    }
}

/// Lowers `ir` into `asm` for `target`.
///
/// The caller typically emits data/setup beforehand and a `halt`
/// afterwards. For ZOLC targets the emitted code *self-initializes* the
/// controller: running it on a fresh [`zolc_core::Zolc`] of the matching
/// configuration needs no external table loading.
///
/// # Errors
///
/// Returns a [`LowerError`] when the structure is malformed (breaks
/// deeper than the nesting, loops inside `if` arms, body code writing
/// loop-control registers) or does not fit the ZOLC configuration.
pub fn lower_into(asm: &mut Asm, ir: &LoopIr, target: &Target) -> Result<LoweredInfo, LowerError> {
    check_structure(&ir.nodes)?;
    match target {
        Target::Baseline | Target::HwLoop => {
            check_register_conflicts(&ir.nodes, false)?;
            let mut sw = SwLower {
                asm,
                hw: *target == Target::HwLoop,
                exits: Vec::new(),
            };
            sw.nodes(&ir.nodes)?;
            Ok(LoweredInfo::default())
        }
        Target::Zolc(config) => {
            check_register_conflicts(&ir.nodes, true)?;
            lower_zolc(asm, ir, *config)
        }
    }
}

/// Rejects loops inside `if` arms and out-of-range steps.
fn check_structure(nodes: &[Node]) -> Result<(), LowerError> {
    fn walk(nodes: &[Node], in_if: bool) -> Result<(), LowerError> {
        for n in nodes {
            match n {
                Node::Loop(l) => {
                    if in_if {
                        return Err(LowerError::LoopInsideIf);
                    }
                    if let Some(ix) = l.index {
                        if i16::try_from(ix.step).is_err() {
                            return Err(LowerError::StepOutOfRange { step: ix.step });
                        }
                    }
                    walk(&l.body, false)?;
                }
                Node::If { then, els, .. } => {
                    walk(then, true)?;
                    walk(els, true)?;
                }
                // A `while` subtree is lowered entirely in software (its
                // counted loops never enter the task graph), so the
                // conditional-loop restriction resets inside it.
                Node::While { body, .. } => walk(body, false)?,
                _ => {}
            }
        }
        Ok(())
    }
    walk(nodes, false)
}

/// Rejects body code writing loop-control registers. Under ZOLC the index
/// registers belong to the index calculation unit; under the software
/// lowerings the counter and index registers belong to the loop latch.
fn check_register_conflicts(nodes: &[Node], zolc: bool) -> Result<(), LowerError> {
    fn check_instrs(instrs: &[Instr], protected: &[Reg]) -> Result<(), LowerError> {
        for i in instrs {
            if let Some(d) = i.dst() {
                if protected.contains(&d) {
                    return Err(LowerError::RegisterConflict(format!(
                        "body instruction `{i}` writes loop-control register {d}"
                    )));
                }
            }
        }
        Ok(())
    }
    // `sw` = loops here lower as software loops even on ZOLC targets
    // (inside a `while` subtree), so their counters are live.
    fn walk(
        nodes: &[Node],
        protected: &mut Vec<Reg>,
        zolc: bool,
        sw: bool,
    ) -> Result<(), LowerError> {
        for n in nodes {
            match n {
                Node::Code(instrs) => check_instrs(instrs, protected)?,
                Node::Loop(l) => {
                    let mut added = 0;
                    if let Some(ix) = l.index {
                        protected.push(ix.reg);
                        added += 1;
                    }
                    if !zolc || sw {
                        protected.push(l.counter);
                        added += 1;
                    }
                    walk(&l.body, protected, zolc, sw)?;
                    for _ in 0..added {
                        protected.pop();
                    }
                }
                Node::If { then, els, .. } => {
                    walk(then, protected, zolc, sw)?;
                    walk(els, protected, zolc, sw)?;
                }
                Node::BreakIf { .. } => {}
                Node::While { header, body, .. } => {
                    check_instrs(header, protected)?;
                    walk(body, protected, zolc, true)?;
                }
            }
        }
        Ok(())
    }
    walk(nodes, &mut Vec::new(), zolc, false)
}

// ====================== software lowerings ==============================

struct SwLower<'a> {
    asm: &'a mut Asm,
    hw: bool,
    /// Exit labels of enclosing loops, innermost last.
    exits: Vec<Label>,
}

impl SwLower<'_> {
    fn nodes(&mut self, nodes: &[Node]) -> Result<(), LowerError> {
        for n in nodes {
            match n {
                Node::Code(instrs) => {
                    self.asm.emit_all(instrs.iter().copied());
                }
                Node::Loop(l) => self.lower_loop(l)?,
                Node::If { cond, then, els } => self.lower_if(*cond, then, els)?,
                Node::BreakIf { cond, levels } => {
                    let idx = self
                        .exits
                        .len()
                        .checked_sub(usize::from(*levels))
                        .filter(|_| *levels >= 1)
                        .ok_or(LowerError::BreakTooDeep {
                            levels: *levels,
                            depth: self.exits.len(),
                        })?;
                    let target = self.exits[idx];
                    self.asm.branch(cond.branch_if(), target);
                }
                Node::While { header, cond, body } => self.lower_while(header, *cond, body)?,
            }
        }
        Ok(())
    }

    /// A data-dependent loop: header, conditional exit, body, back-jump.
    /// Identical on every target; counts as one breakable level.
    fn lower_while(
        &mut self,
        header: &[Instr],
        cond: Cond,
        body: &[Node],
    ) -> Result<(), LowerError> {
        let top = self.asm.label_here();
        self.asm.emit_all(header.iter().copied());
        let exit = self.asm.new_label();
        self.asm.branch(cond.branch_unless(), exit);
        self.exits.push(exit);
        self.nodes(body)?;
        self.exits.pop();
        self.asm.jump(top);
        self.asm.bind(exit)?;
        Ok(())
    }

    fn lower_loop(&mut self, l: &LoopNode) -> Result<(), LowerError> {
        // Preheader: index init and trip counter load (per activation).
        if let Some(ix) = l.index {
            self.asm.li(ix.reg, ix.init);
        }
        match l.trips {
            Trips::Const(n) => {
                self.asm.li(l.counter, n as i32);
            }
            Trips::Reg(r) => {
                self.asm.emit(Instr::Add {
                    rd: l.counter,
                    rs: r,
                    rt: Reg::ZERO,
                });
            }
        }
        let top = self.asm.label_here();
        let exit = self.asm.new_label();
        self.exits.push(exit);
        self.nodes(&l.body)?;
        self.exits.pop();
        // Latch: index step, then count down.
        if let Some(ix) = l.index {
            if ix.step != 0 {
                self.asm.emit(Instr::Addi {
                    rt: ix.reg,
                    rs: ix.reg,
                    imm: ix.step as i16,
                });
            }
        }
        if self.hw {
            self.asm.branch(
                Instr::Dbnz {
                    rs: l.counter,
                    off: 0,
                },
                top,
            );
        } else {
            self.asm.emit(Instr::Addi {
                rt: l.counter,
                rs: l.counter,
                imm: -1,
            });
            self.asm.branch(
                Instr::Bne {
                    rs: l.counter,
                    rt: Reg::ZERO,
                    off: 0,
                },
                top,
            );
        }
        self.asm.bind(exit)?;
        Ok(())
    }

    fn lower_if(&mut self, cond: Cond, then: &[Node], els: &[Node]) -> Result<(), LowerError> {
        let else_l = self.asm.new_label();
        self.asm.branch(cond.branch_unless(), else_l);
        self.nodes(then)?;
        if els.is_empty() {
            self.asm.bind(else_l)?;
        } else {
            let join = self.asm.new_label();
            self.asm.jump(join);
            self.asm.bind(else_l)?;
            self.nodes(els)?;
            self.asm.bind(join)?;
        }
        Ok(())
    }
}

// ========================= ZOLC lowering ================================

/// The counted loops of `nodes` in pre-order (their ZOLC loop ids), each
/// with the id of its enclosing loop. Loops never sit inside `if` arms,
/// and `while` subtrees stay in software.
fn preorder(nodes: &[Node]) -> Vec<(&LoopNode, Option<usize>)> {
    fn walk<'a>(
        nodes: &'a [Node],
        parent: Option<usize>,
        out: &mut Vec<(&'a LoopNode, Option<usize>)>,
    ) {
        for n in nodes {
            if let Node::Loop(l) = n {
                let id = out.len();
                out.push((l, parent));
                walk(&l.body, Some(id), out);
            }
        }
    }
    let mut out = Vec::new();
    walk(nodes, None, &mut out);
    out
}

/// A conservative lower bound of the instructions a body will emit.
fn min_len(nodes: &[Node]) -> u32 {
    nodes
        .iter()
        .map(|n| match n {
            Node::Code(instrs) => instrs.len() as u32,
            Node::Loop(l) => min_len(&l.body).max(1),
            Node::If { .. } => 1,
            Node::BreakIf { .. } => 1,
            // header + exit branch + body + back-jump
            Node::While { header, body, .. } => header.len() as u32 + 2 + min_len(body),
        })
        .sum()
}

struct LoopLabels {
    start: Label,
    end: Label,
    after: Label,
}

#[derive(Clone)]
struct StubInfo {
    label: Label,
    /// Loops whose counters must clear.
    clear: Vec<u8>,
    /// Task to re-target (TASK_NONE allowed).
    task: u8,
    /// Where execution resumes.
    resume: Label,
}

/// How one `break_if` will be realized (decided before emission so exit
/// records can be part of the up-front initialization sequence).
enum PlannedBreak {
    /// A ZOLCfull exit record handles the bookkeeping; the branch jumps
    /// straight to the resume point.
    Record {
        /// Label bound at the exit branch instruction.
        branch: Label,
        /// The branch target (code after the broken loop).
        resume: Label,
    },
    /// Software fixup: the branch jumps to a stub that clears counters
    /// and re-targets the current task.
    Stub(StubInfo),
}

/// Walks the IR in emission order and plans every `break_if`, allocating
/// exit-record slots (ZOLCfull) or fixup stubs. Returns the plans plus the
/// exit records to include in the initialization image.
type BreakPlans = (Vec<PlannedBreak>, Vec<ExitSpec>, Vec<String>);

fn plan_breaks(
    asm: &mut Asm,
    nodes: &[Node],
    tasks: &[TaskSpec],
    labels: &[LoopLabels],
    config: &ZolcConfig,
) -> Result<BreakPlans, LowerError> {
    struct Walker<'a> {
        asm: &'a mut Asm,
        tasks: &'a [TaskSpec],
        labels: &'a [LoopLabels],
        config: &'a ZolcConfig,
        cursor: usize,
        stack: Vec<u8>,
        out: Vec<PlannedBreak>,
        exits: Vec<ExitSpec>,
        slots_used: Vec<u8>,
        notes: Vec<String>,
    }
    impl Walker<'_> {
        fn walk(&mut self, nodes: &[Node]) -> Result<(), LowerError> {
            for n in nodes {
                match n {
                    Node::Code(_) => {}
                    // `while` subtrees are software-lowered wholesale:
                    // their loops/breaks never touch the ZOLC plans.
                    Node::While { .. } => {}
                    Node::Loop(l) => {
                        let id = self.cursor as u8;
                        self.cursor += 1;
                        self.stack.push(id);
                        self.walk(&l.body)?;
                        self.stack.pop();
                    }
                    Node::If { then, els, .. } => {
                        self.walk(then)?;
                        self.walk(els)?;
                    }
                    Node::BreakIf { levels, .. } => {
                        let idx = self
                            .stack
                            .len()
                            .checked_sub(usize::from(*levels))
                            .filter(|_| *levels >= 1)
                            .ok_or(LowerError::BreakTooDeep {
                                levels: *levels,
                                depth: self.stack.len(),
                            })?;
                        let broken = self.stack[idx];
                        let exited: Vec<u8> = self.stack[idx..].to_vec();
                        let innermost = *self.stack.last().expect("inside a loop");
                        let resume = self.labels[usize::from(broken)].after;
                        // no task table (uZOLC): nothing to re-target
                        let target_task = self
                            .tasks
                            .get(usize::from(broken))
                            .map_or(TASK_NONE, |t| t.next_fallthru);
                        let slot = self.slots_used[usize::from(innermost)];
                        if self.config.exit_slots() > usize::from(slot) {
                            let branch = self.asm.new_label();
                            self.slots_used[usize::from(innermost)] += 1;
                            let clear_mask = exited.iter().fold(0u8, |m, k| m | (1 << k));
                            self.exits.push(ExitSpec {
                                loop_id: innermost,
                                slot,
                                branch: branch.into(),
                                target_task,
                                clear_mask,
                                target: Some(resume.into()),
                            });
                            self.out.push(PlannedBreak::Record { branch, resume });
                        } else {
                            if self.config.exit_slots() > 0 {
                                self.notes.push(format!(
                                    "loop {innermost}: exit records exhausted, using software fixup"
                                ));
                            } else {
                                self.notes.push(format!(
                                    "loop {innermost}: no exit records in {}, using software fixup",
                                    self.config
                                ));
                            }
                            let label = self.asm.new_label();
                            self.out.push(PlannedBreak::Stub(StubInfo {
                                label,
                                clear: exited,
                                task: target_task,
                                resume,
                            }));
                        }
                    }
                }
            }
            Ok(())
        }
    }
    // One slot counter per planned loop: a structure with more loops
    // than the configuration is refused by the capacity check later,
    // not here.
    let loops = labels.len().max(config.loops()).max(1);
    let mut w = Walker {
        asm,
        tasks,
        labels,
        config,
        cursor: 0,
        stack: Vec::new(),
        out: Vec::new(),
        exits: Vec::new(),
        slots_used: vec![0; loops],
        notes: Vec::new(),
    };
    w.walk(nodes)?;
    Ok((w.out, w.exits, w.notes))
}

struct ZolcLower<'a> {
    asm: &'a mut Asm,
    config: ZolcConfig,
    labels: Vec<LoopLabels>,
    /// Pre-order cursor matching `labels`.
    cursor: usize,
    /// Enclosing loop ids, innermost last.
    stack: Vec<u8>,
    /// Pre-planned breaks, consumed in emission order.
    breaks: Vec<PlannedBreak>,
    break_cursor: usize,
    stubs: Vec<StubInfo>,
    /// Address right after `zctl.on` (loop starts must not collide).
    after_activate: Option<u32>,
    notes: Vec<String>,
}

fn lower_zolc(asm: &mut Asm, ir: &LoopIr, config: ZolcConfig) -> Result<LoweredInfo, LowerError> {
    let loops = preorder(&ir.nodes);
    if loops.is_empty() {
        // No loops: plain code, no controller involvement.
        let mut sw = SwLower {
            asm,
            hw: false,
            exits: Vec::new(),
        };
        sw.nodes(&ir.nodes)?;
        return Ok(LoweredInfo::default());
    }

    let labels: Vec<LoopLabels> = loops
        .iter()
        .map(|_| LoopLabels {
            start: asm.new_label(),
            end: asm.new_label(),
            after: asm.new_label(),
        })
        .collect();

    // Build the (label-addressed) image and emit the init sequence before
    // the first loop; top-level code preceding it runs in inactive mode.
    // Labels are not bound yet, so pre-order is the execution-order key.
    let specs = loops
        .iter()
        .zip(&labels)
        .map(|(&(l, _), labels)| LoopSpec {
            init: l.index.map_or(0, |ix| ix.init),
            step: l.index.map_or(0, |ix| ix.step),
            limit: match l.trips {
                Trips::Const(n) => LimitSrc::Const(n),
                // data-dependent: written by an in-loop zwr at the
                // preheader; the init-time value is a placeholder
                Trips::Reg(r) => LimitSrc::Reg(r),
            },
            index_reg: l.index.map(|ix| ix.reg),
            start: labels.start.into(),
            end: labels.end.into(),
        })
        .collect();
    let tree: Vec<(Option<usize>, u32)> = loops
        .iter()
        .enumerate()
        .map(|(k, &(_, parent))| (parent, k as u32))
        .collect();
    let mut image = ZolcImage::chained(&config, specs, &tree);

    // Plan every break before emission so the exit records are written by
    // the initialization sequence (the branch addresses use label fixups).
    let (breaks, exit_specs, notes) = plan_breaks(asm, &ir.nodes, &image.tasks, &labels, &config)?;
    image.exits = exit_specs;
    image.validate(&config)?;

    let mut lower = ZolcLower {
        asm,
        config,
        labels,
        cursor: 0,
        stack: Vec::new(),
        breaks,
        break_cursor: 0,
        stubs: Vec::new(),
        after_activate: None,
        notes,
    };

    // Emit top-level nodes; init goes right before the first loop.
    let first_loop_pos = ir
        .nodes
        .iter()
        .position(|n| matches!(n, Node::Loop(_)))
        .expect("plans nonempty implies a loop");
    let (before, rest) = ir.nodes.split_at(first_loop_pos);
    lower.nodes(before, &[])?;
    let init_stats = image.emit_init(lower.asm, Reg::new(1).expect("r1"));
    lower.after_activate = Some(lower.asm.here());
    lower.nodes(rest, &[])?;

    // Fixup stubs (reached only by taken exit branches).
    if !lower.stubs.is_empty() {
        let done = lower.asm.new_label();
        lower.asm.jump(done);
        let stubs = std::mem::take(&mut lower.stubs);
        for stub in stubs {
            lower.asm.bind(stub.label)?;
            for k in &stub.clear {
                lower.asm.emit(Instr::Zwr {
                    region: ZolcRegion::Loop,
                    index: *k,
                    field: loop_field::COUNT,
                    rs: Reg::ZERO,
                });
            }
            if lower.config.tasks() > 0 {
                lower.asm.emit(Instr::Zctl {
                    op: ZolcCtl::Activate { task: stub.task },
                });
            }
            lower.asm.jump(stub.resume);
        }
        lower.asm.bind(done)?;
    }

    // Resolve the final image (labels are all bound now). Resolving
    // changes only addresses, which `validate` does not read, so the
    // check before emission already stands.
    let ZolcLower { asm, notes, .. } = lower;
    let resolved = image.resolve(|l| asm.label_addr(l))?;

    Ok(LoweredInfo {
        image: Some(resolved),
        init_instructions: init_stats.instructions,
        notes,
    })
}

impl ZolcLower<'_> {
    /// Emits `nodes`; if `end_labels` is non-empty they are bound exactly
    /// at the final instruction emitted (appending a `nop` when the last
    /// node cannot serve as a unique final instruction).
    fn nodes(&mut self, nodes: &[Node], end_labels: &[Label]) -> Result<(), LowerError> {
        // Drop empty code blocks so "last node" reasoning is sound.
        let effective: Vec<&Node> = nodes
            .iter()
            .filter(|n| !matches!(n, Node::Code(v) if v.is_empty()))
            .collect();
        if effective.is_empty() {
            if !end_labels.is_empty() {
                self.bind_all(end_labels)?;
                self.asm.emit(Instr::Nop);
            }
            return Ok(());
        }
        let last = effective.len() - 1;
        for (pos, n) in effective.iter().enumerate() {
            let tail = if pos == last { end_labels } else { &[] };
            match n {
                Node::Code(instrs) => {
                    if tail.is_empty() {
                        self.asm.emit_all(instrs.iter().copied());
                    } else {
                        let (head, final_i) = instrs.split_at(instrs.len() - 1);
                        self.asm.emit_all(head.iter().copied());
                        self.bind_all(tail)?;
                        self.asm.emit(final_i[0]);
                    }
                }
                Node::Loop(l) => self.lower_loop(l, tail)?,
                Node::If { cond, then, els } => {
                    self.lower_if(*cond, then, els)?;
                    if !tail.is_empty() {
                        self.bind_all(tail)?;
                        self.asm.emit(Instr::Nop);
                    }
                }
                Node::BreakIf { cond, levels } => {
                    self.lower_break(*cond, *levels)?;
                    if !tail.is_empty() {
                        self.bind_all(tail)?;
                        self.asm.emit(Instr::Nop);
                    }
                }
                Node::While { header, cond, body } => {
                    // The whole subtree is software: counted loops inside
                    // it use ordinary down-counters and breaks resolve
                    // against software exit labels. Branches stay within
                    // the current task body, so an active controller
                    // never sees them.
                    let mut sw = SwLower {
                        asm: &mut *self.asm,
                        hw: false,
                        exits: Vec::new(),
                    };
                    sw.lower_while(header, *cond, body)?;
                    if !tail.is_empty() {
                        self.bind_all(tail)?;
                        self.asm.emit(Instr::Nop);
                    }
                }
            }
        }
        Ok(())
    }

    fn bind_all(&mut self, labels: &[Label]) -> Result<(), LowerError> {
        for l in labels {
            self.asm.bind(*l)?;
        }
        Ok(())
    }

    fn lower_loop(&mut self, l: &LoopNode, chain_ends: &[Label]) -> Result<(), LowerError> {
        let id = self.cursor;
        self.cursor += 1;

        // Data-dependent limit: write it here (the preheader), padding so
        // the write retires before the loop's end address is fetched.
        if let Trips::Reg(r) = l.trips {
            self.asm.emit(Instr::Zwr {
                region: ZolcRegion::Loop,
                index: id as u8,
                field: loop_field::LIMIT,
                rs: r,
            });
            let lead = min_len(&l.body).max(1) as usize;
            for _ in lead..ZWR_LEAD {
                self.asm.emit(Instr::Nop);
            }
        }

        // A loop body must not start immediately after `zctl.on`: the
        // activation only becomes visible at the post-sync refetch, which
        // would skip the entry-initialization rule for this start address.
        if self.after_activate == Some(self.asm.here()) {
            self.asm.emit(Instr::Nop);
        }

        let labels_start = self.labels[id].start;
        let labels_end = self.labels[id].end;
        let labels_after = self.labels[id].after;
        self.asm.bind(labels_start)?;
        self.stack.push(id as u8);
        let mut ends: Vec<Label> = vec![labels_end];
        ends.extend_from_slice(chain_ends);
        self.nodes(&l.body, &ends)?;
        self.stack.pop();
        self.asm.bind(labels_after)?;
        Ok(())
    }

    fn lower_if(&mut self, cond: Cond, then: &[Node], els: &[Node]) -> Result<(), LowerError> {
        let else_l = self.asm.new_label();
        self.asm.branch(cond.branch_unless(), else_l);
        self.nodes(then, &[])?;
        if els.is_empty() {
            self.asm.bind(else_l)?;
        } else {
            let join = self.asm.new_label();
            self.asm.jump(join);
            self.asm.bind(else_l)?;
            self.nodes(els, &[])?;
            self.asm.bind(join)?;
        }
        Ok(())
    }

    fn lower_break(&mut self, cond: Cond, levels: u8) -> Result<(), LowerError> {
        // Validity was established by the pre-pass; re-derive for the
        // error message if the cursor ran dry (cannot happen when the
        // pre-pass walked the same tree).
        if self.break_cursor >= self.breaks.len() {
            return Err(LowerError::BreakTooDeep {
                levels,
                depth: self.stack.len(),
            });
        }
        let plan = &self.breaks[self.break_cursor];
        self.break_cursor += 1;
        match plan {
            PlannedBreak::Record { branch, resume } => {
                // Bind the pre-allocated label at the branch so the exit
                // record written at initialization matches this address.
                let (branch, resume) = (*branch, *resume);
                self.asm.bind(branch)?;
                self.asm.branch(cond.branch_if(), resume);
            }
            PlannedBreak::Stub(stub) => {
                self.asm.branch(cond.branch_if(), stub.label);
                self.stubs.push(stub.clone());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IndexSpec;
    use zolc_isa::reg;

    fn simple_loop(trips: u32, body: Vec<Node>) -> LoopIr {
        LoopIr {
            name: "t".into(),
            nodes: vec![Node::Loop(LoopNode {
                trips: Trips::Const(trips),
                index: Some(IndexSpec {
                    reg: reg(20),
                    init: 0,
                    step: 1,
                }),
                counter: reg(11),
                body,
            })],
        }
    }

    #[test]
    fn baseline_emits_counter_and_branch() {
        let ir = simple_loop(5, vec![Node::code([Instr::Nop])]);
        let mut asm = Asm::new();
        lower_into(&mut asm, &ir, &Target::Baseline).unwrap();
        asm.emit(Instr::Halt);
        let p = asm.finish().unwrap();
        let text = p.text();
        assert!(text.iter().any(|i| matches!(i, Instr::Bne { .. })));
        assert!(text
            .iter()
            .any(|i| matches!(i, Instr::Addi { imm: -1, .. })));
    }

    #[test]
    fn hwloop_emits_dbnz() {
        let ir = simple_loop(5, vec![Node::code([Instr::Nop])]);
        let mut asm = Asm::new();
        lower_into(&mut asm, &ir, &Target::HwLoop).unwrap();
        asm.emit(Instr::Halt);
        let p = asm.finish().unwrap();
        assert!(p.text().iter().any(|i| matches!(i, Instr::Dbnz { .. })));
        assert!(!p.text().iter().any(|i| matches!(i, Instr::Bne { .. })));
    }

    #[test]
    fn zolc_body_has_no_loop_control() {
        let ir = simple_loop(5, vec![Node::code([Instr::Nop, Instr::Nop])]);
        let mut asm = Asm::new();
        let info = lower_into(&mut asm, &ir, &Target::Zolc(ZolcConfig::lite())).unwrap();
        asm.emit(Instr::Halt);
        let p = asm.finish().unwrap();
        // no branches at all: loop control is in hardware
        assert!(!p.text().iter().any(|i| i.is_cond_branch()));
        let image = info.image.expect("image");
        assert_eq!(image.loops.len(), 1);
        assert_eq!(image.tasks.len(), 1);
        assert!(info.init_instructions > 2);
        // start/end resolved and ordered
        let (s, e) = (
            image.loops[0].start.abs().unwrap(),
            image.loops[0].end.abs().unwrap(),
        );
        assert!(s <= e);
    }

    #[test]
    fn zolc_nested_tasks_chain() {
        // perfect 2-nest: outer body is exactly the inner loop
        let inner = Node::Loop(LoopNode {
            trips: Trips::Const(3),
            index: None,
            counter: reg(12),
            body: vec![Node::code([Instr::Nop, Instr::Nop])],
        });
        let ir = LoopIr {
            name: "nest".into(),
            nodes: vec![Node::Loop(LoopNode {
                trips: Trips::Const(2),
                index: None,
                counter: reg(11),
                body: vec![inner],
            })],
        };
        let mut asm = Asm::new();
        let info = lower_into(&mut asm, &ir, &Target::Zolc(ZolcConfig::lite())).unwrap();
        let image = info.image.unwrap();
        assert_eq!(image.tasks.len(), 2);
        // outer = loop 0, inner = loop 1 (pre-order); both end at the same
        // address; initial task is the inner one
        let outer_end = image.tasks[0].end.abs().unwrap();
        let inner_end = image.tasks[1].end.abs().unwrap();
        assert_eq!(outer_end, inner_end);
        assert_eq!(image.initial_task, 1);
        // inner falls through to the outer task, outer re-enters the inner
        assert_eq!(image.tasks[1].next_fallthru, 0);
        assert_eq!(image.tasks[0].next_iter, 1);
        assert_eq!(image.tasks[0].next_fallthru, TASK_NONE);
    }

    #[test]
    fn zolc_loop_sequence_links_fallthrough() {
        let mk = |ctr: u8| {
            Node::Loop(LoopNode {
                trips: Trips::Const(2),
                index: None,
                counter: reg(ctr),
                body: vec![Node::code([Instr::Nop, Instr::Nop])],
            })
        };
        let ir = LoopIr {
            name: "seq".into(),
            nodes: vec![mk(11), Node::code([Instr::Nop]), mk(12)],
        };
        let mut asm = Asm::new();
        let info = lower_into(&mut asm, &ir, &Target::Zolc(ZolcConfig::lite())).unwrap();
        let image = info.image.unwrap();
        assert_eq!(image.tasks[0].next_fallthru, 1);
        assert_eq!(image.tasks[1].next_fallthru, TASK_NONE);
    }

    #[test]
    fn break_too_deep_rejected() {
        let ir = LoopIr {
            name: "b".into(),
            nodes: vec![Node::BreakIf {
                cond: Cond::Gtz(reg(1)),
                levels: 1,
            }],
        };
        let mut asm = Asm::new();
        assert!(matches!(
            lower_into(&mut asm, &ir, &Target::Baseline),
            Err(LowerError::BreakTooDeep { .. })
        ));
    }

    #[test]
    fn loop_inside_if_rejected() {
        let ir = LoopIr {
            name: "bad".into(),
            nodes: vec![Node::If {
                cond: Cond::Gtz(reg(1)),
                then: vec![Node::Loop(LoopNode {
                    trips: Trips::Const(1),
                    index: None,
                    counter: reg(11),
                    body: vec![],
                })],
                els: vec![],
            }],
        };
        let mut asm = Asm::new();
        assert!(matches!(
            lower_into(&mut asm, &ir, &Target::Zolc(ZolcConfig::lite())),
            Err(LowerError::LoopInsideIf)
        ));
    }

    #[test]
    fn body_writing_index_register_rejected() {
        let ir = simple_loop(
            3,
            vec![Node::code([Instr::Addi {
                rt: reg(20),
                rs: reg(20),
                imm: 1,
            }])],
        );
        let mut asm = Asm::new();
        assert!(matches!(
            lower_into(&mut asm, &ir, &Target::Zolc(ZolcConfig::lite())),
            Err(LowerError::RegisterConflict(_))
        ));
        // the software targets also protect the counter
        let ir2 = simple_loop(
            3,
            vec![Node::code([Instr::Addi {
                rt: reg(11),
                rs: reg(11),
                imm: 1,
            }])],
        );
        let mut asm2 = Asm::new();
        assert!(matches!(
            lower_into(&mut asm2, &ir2, &Target::Baseline),
            Err(LowerError::RegisterConflict(_))
        ));
    }

    #[test]
    fn micro_config_rejects_nests() {
        let inner = Node::Loop(LoopNode {
            trips: Trips::Const(3),
            index: None,
            counter: reg(12),
            body: vec![Node::code([Instr::Nop])],
        });
        let ir = LoopIr {
            name: "nest".into(),
            nodes: vec![Node::Loop(LoopNode {
                trips: Trips::Const(2),
                index: None,
                counter: reg(11),
                body: vec![inner],
            })],
        };
        let mut asm = Asm::new();
        assert!(matches!(
            lower_into(&mut asm, &ir, &Target::Zolc(ZolcConfig::micro())),
            Err(LowerError::Image(_))
        ));
    }

    #[test]
    fn break_uses_exit_record_on_full_and_stub_on_lite() {
        let ir = LoopIr {
            name: "brk".into(),
            nodes: vec![Node::Loop(LoopNode {
                trips: Trips::Const(10),
                index: None,
                counter: reg(11),
                body: vec![
                    Node::code([Instr::Nop]),
                    Node::BreakIf {
                        cond: Cond::Gtz(reg(2)),
                        levels: 1,
                    },
                    Node::code([Instr::Nop]),
                ],
            })],
        };
        let mut asm_full = Asm::new();
        let info_full = lower_into(&mut asm_full, &ir, &Target::Zolc(ZolcConfig::full())).unwrap();
        let image = info_full.image.unwrap();
        assert_eq!(image.exits.len(), 1);
        assert!(info_full.notes.is_empty());

        let mut asm_lite = Asm::new();
        let info_lite = lower_into(&mut asm_lite, &ir, &Target::Zolc(ZolcConfig::lite())).unwrap();
        assert!(info_lite.image.unwrap().exits.is_empty());
        assert_eq!(info_lite.notes.len(), 1);
        // the stub exists: a zctl activate beyond the init sequence
        asm_lite.emit(Instr::Halt);
        let p = asm_lite.finish().unwrap();
        let activates = p
            .text()
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Instr::Zctl {
                        op: ZolcCtl::Activate { .. }
                    }
                )
            })
            .count();
        assert_eq!(activates, 2);
    }

    #[test]
    fn data_dependent_limit_gets_preheader_zwr_with_lead() {
        let ir = LoopIr {
            name: "dyn".into(),
            nodes: vec![
                Node::code([Instr::Addi {
                    rt: reg(9),
                    rs: Reg::ZERO,
                    imm: 7,
                }]),
                Node::Loop(LoopNode {
                    trips: Trips::Reg(reg(9)),
                    index: None,
                    counter: reg(11),
                    // 1-instruction body: needs 2 pad nops for the ≥3 lead
                    body: vec![Node::code([Instr::Nop])],
                }),
            ],
        };
        let mut asm = Asm::new();
        let info = lower_into(&mut asm, &ir, &Target::Zolc(ZolcConfig::lite())).unwrap();
        asm.emit(Instr::Halt);
        let p = asm.finish().unwrap();
        let image = info.image.unwrap();
        let start = image.loops[0].start.abs().unwrap();
        let end = image.loops[0].end.abs().unwrap();
        // find the in-loop zwr (the one right before the body)
        let zwr_pos = (0..p.text().len())
            .rev()
            .find(
                |&k| matches!(p.text()[k], Instr::Zwr { field, .. } if field == loop_field::LIMIT),
            )
            .unwrap() as u32
            * 4;
        assert!(zwr_pos < start);
        assert!(
            (end - zwr_pos) / 4 >= 3,
            "zwr at {zwr_pos:#x} too close to end {end:#x}"
        );
    }

    #[test]
    fn while_lowers_to_branch_code_on_every_target() {
        let ir = LoopIr {
            name: "w".into(),
            nodes: vec![
                Node::code([Instr::Addi {
                    rt: reg(2),
                    rs: Reg::ZERO,
                    imm: 5,
                }]),
                Node::While {
                    header: vec![Instr::Nop],
                    cond: Cond::Gtz(reg(2)),
                    body: vec![Node::code([Instr::Addi {
                        rt: reg(2),
                        rs: reg(2),
                        imm: -1,
                    }])],
                },
            ],
        };
        for target in [
            Target::Baseline,
            Target::HwLoop,
            Target::Zolc(ZolcConfig::lite()),
        ] {
            let mut asm = Asm::new();
            let info = lower_into(&mut asm, &ir, &target).unwrap();
            // a while is not a counted loop: no controller involvement
            assert!(info.image.is_none(), "{target}");
            asm.emit(Instr::Halt);
            let p = asm.finish().unwrap();
            assert!(
                p.text().iter().any(|i| matches!(i, Instr::Blez { .. })),
                "{target}: exit branch missing"
            );
            assert!(
                p.text().iter().any(|i| matches!(i, Instr::J { .. })),
                "{target}: back-jump missing"
            );
        }
    }

    #[test]
    fn counted_loop_inside_while_stays_software_under_zolc() {
        let inner = Node::Loop(LoopNode {
            trips: Trips::Const(3),
            index: None,
            counter: reg(11),
            body: vec![Node::code([Instr::Addi {
                rt: reg(3),
                rs: reg(3),
                imm: 1,
            }])],
        });
        let ir = LoopIr {
            name: "wl".into(),
            nodes: vec![
                Node::code([Instr::Addi {
                    rt: reg(2),
                    rs: Reg::ZERO,
                    imm: 2,
                }]),
                Node::Loop(LoopNode {
                    trips: Trips::Const(2),
                    index: None,
                    counter: reg(12),
                    body: vec![
                        Node::While {
                            header: vec![Instr::Nop],
                            cond: Cond::Gtz(reg(2)),
                            body: vec![
                                inner,
                                Node::code([Instr::Addi {
                                    rt: reg(2),
                                    rs: reg(2),
                                    imm: -1,
                                }]),
                            ],
                        },
                        Node::code([Instr::Nop]),
                    ],
                }),
            ],
        };
        let mut asm = Asm::new();
        let info = lower_into(&mut asm, &ir, &Target::Zolc(ZolcConfig::lite())).unwrap();
        let image = info.image.expect("outer counted loop maps to hardware");
        // only the outer loop enters the task graph; the counted loop
        // inside the while keeps its software down-counter latch
        assert_eq!(image.loops.len(), 1);
        asm.emit(Instr::Halt);
        let p = asm.finish().unwrap();
        assert!(p.text().iter().any(|i| matches!(i, Instr::Bne { .. })));
    }

    #[test]
    fn break_inside_while_targets_the_while_exit() {
        // while (r2 > 0) { if (r3 == r4) break; r2 -= 1 } — on every target
        let ir = LoopIr {
            name: "wb".into(),
            nodes: vec![Node::While {
                header: vec![Instr::Nop],
                cond: Cond::Gtz(reg(2)),
                body: vec![
                    Node::BreakIf {
                        cond: Cond::Eq(reg(3), reg(4)),
                        levels: 1,
                    },
                    Node::code([Instr::Addi {
                        rt: reg(2),
                        rs: reg(2),
                        imm: -1,
                    }]),
                ],
            }],
        };
        for target in [Target::Baseline, Target::Zolc(ZolcConfig::lite())] {
            let mut asm = Asm::new();
            lower_into(&mut asm, &ir, &target).unwrap();
        }
        // a break deeper than the software nesting is still rejected
        let too_deep = LoopIr {
            name: "wb2".into(),
            nodes: vec![Node::While {
                header: vec![],
                cond: Cond::Gtz(reg(2)),
                body: vec![Node::BreakIf {
                    cond: Cond::Eq(reg(3), reg(4)),
                    levels: 2,
                }],
            }],
        };
        let mut asm = Asm::new();
        assert!(matches!(
            lower_into(&mut asm, &too_deep, &Target::Baseline),
            Err(LowerError::BreakTooDeep { .. })
        ));
    }

    #[test]
    fn zolc_falls_back_to_plain_code_without_loops() {
        let ir = LoopIr {
            name: "noloop".into(),
            nodes: vec![Node::code([Instr::Nop, Instr::Nop])],
        };
        let mut asm = Asm::new();
        let info = lower_into(&mut asm, &ir, &Target::Zolc(ZolcConfig::lite())).unwrap();
        assert!(info.image.is_none());
        assert_eq!(info.init_instructions, 0);
    }
}
