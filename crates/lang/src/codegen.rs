//! AST → [`zolc_ir::LoopIr`] code generation.
//!
//! The interesting decision is per-`for` loop: a loop whose shape the
//! generator can prove counted — `v` starts at a loop-invariant value,
//! strictly advances by a constant toward a loop-invariant bound, and
//! is never written in the body — becomes a [`LoopNode`] (hardware-
//! mappable under ZOLC, `dbnz` under HwLoop); everything else demotes
//! to the explicit-branch [`Node::While`] form, exactly the shape
//! `retarget`'s handledness filters leave in software when they meet
//! it in a binary. Proofs about runtime-valued bounds come from a
//! small interval analysis over the scalar environment.
//!
//! Register convention (documented in `LANGUAGE.md`):
//!
//! | registers  | role                                              |
//! |------------|---------------------------------------------------|
//! | `r0`       | zero                                              |
//! | `r1`       | never touched (left for `retarget`'s init scratch)|
//! | `r2..r13`  | scalar variables, in declaration order            |
//! | `r14..r21` | counted-loop counter/bound pairs, by nest depth   |
//! | `r22..r30` | expression temporaries                            |
//! | `r31`      | never touched                                     |

use crate::ast::{BinOp, Diagnostic, Expr, ExprKind, Pos, Stmt, StmtKind, UnOp};
use crate::check::Symbols;
use crate::interval::Interval;
use std::collections::HashMap;
use zolc_ir::{Cond, IndexSpec, LoopNode, Node, Trips};
use zolc_isa::{reg, Instr, Reg};

/// First expression temporary (`r22`).
const TEMP_BASE: u8 = 22;
/// Temporaries `r22..=r30`.
const MAX_TEMPS: usize = 9;
/// Counted nests deeper than this demote to `while` form (counter and
/// bound registers are drawn from the `r14..r21` pool pairwise).
const MAX_COUNTED_DEPTH: usize = 4;

fn temp(slot: usize) -> Reg {
    reg(TEMP_BASE + slot as u8)
}

/// `%hi`/`%lo` decomposition compensating for the sign-extended 16-bit
/// offset of loads/stores: `(hi << 16) + sign_extend(lo) == addr`.
fn hi_lo(addr: u32) -> (u16, i16) {
    let hi = (addr.wrapping_add(0x8000) >> 16) as u16;
    let lo = addr as u16 as i16;
    (hi, lo)
}

fn fits_i16(v: i64) -> bool {
    i64::from(i16::MIN) <= v && v <= i64::from(i16::MAX)
}

// ========================= interval analysis ============================

const TOP: Interval = Interval::TOP;

type Env = HashMap<String, Interval>;

/// Abstract evaluation of `e` over the scalar environment.
fn ieval(e: &Expr, env: &Env) -> Interval {
    match &e.kind {
        ExprKind::Num(n) => Interval::point(*n),
        ExprKind::Var(name) => env.get(name).copied().unwrap_or(TOP),
        ExprKind::Index(..) => TOP,
        ExprKind::Unary(op, operand) => {
            let v = ieval(operand, env);
            match op {
                UnOp::Neg => -v,
                UnOp::Not | UnOp::BitNot => match (*op, v.as_const()) {
                    (UnOp::Not, Some(c)) => Interval::point(i32::from(c == 0)),
                    (UnOp::BitNot, Some(c)) => Interval::point(!c),
                    (UnOp::Not, None) => Interval { lo: 0, hi: 1 },
                    _ => TOP,
                },
            }
        }
        ExprKind::Binary(op, lhs, rhs) => {
            let a = ieval(lhs, env);
            let b = ieval(rhs, env);
            match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::Eq
                | BinOp::Ne
                | BinOp::LogAnd
                | BinOp::LogOr => Interval { lo: 0, hi: 1 },
                BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr => {
                    match (a.as_const(), b.as_const()) {
                        (Some(x), Some(y)) => Interval::point(match op {
                            BinOp::And => x & y,
                            BinOp::Or => x | y,
                            BinOp::Xor => x ^ y,
                            BinOp::Shl => x.wrapping_shl(y as u32 & 31),
                            _ => x.wrapping_shr(y as u32 & 31),
                        }),
                        _ => TOP,
                    }
                }
            }
        }
    }
}

// ========================= AST walks ====================================

/// Does `stmts` (at any depth) assign scalar `name`? `for` init/step
/// clauses count as assignments.
fn assigns(stmts: &[Stmt], name: &str) -> bool {
    stmts.iter().any(|s| stmt_assigns(s, name))
}

fn stmt_assigns(s: &Stmt, name: &str) -> bool {
    match &s.kind {
        StmtKind::Assign {
            name: n,
            index: None,
            ..
        } => n == name,
        StmtKind::Assign { .. } | StmtKind::Break | StmtKind::DeclArray { .. } => false,
        StmtKind::DeclScalar { name: n, init } => n == name && init.is_some(),
        StmtKind::If { then, els, .. } => assigns(then, name) || assigns(els, name),
        StmtKind::While { body, .. } => assigns(body, name),
        StmtKind::For {
            init, step, body, ..
        } => stmt_assigns(init, name) || stmt_assigns(step, name) || assigns(body, name),
    }
}

/// Collects every scalar assigned anywhere in `stmts`.
fn assigned_names(stmts: &[Stmt], out: &mut Vec<String>) {
    for s in stmts {
        match &s.kind {
            StmtKind::Assign {
                name, index: None, ..
            } => out.push(name.clone()),
            StmtKind::DeclScalar {
                name,
                init: Some(_),
            } => out.push(name.clone()),
            StmtKind::If { then, els, .. } => {
                assigned_names(then, out);
                assigned_names(els, out);
            }
            StmtKind::While { body, .. } => assigned_names(body, out),
            StmtKind::For {
                init, step, body, ..
            } => {
                assigned_names(std::slice::from_ref(init), out);
                assigned_names(std::slice::from_ref(step), out);
                assigned_names(body, out);
            }
            _ => {}
        }
    }
}

/// Number of occurrences of scalar `name` in an expression.
fn expr_uses(e: &Expr, name: &str) -> usize {
    match &e.kind {
        ExprKind::Num(_) => 0,
        ExprKind::Var(n) => usize::from(n == name),
        ExprKind::Index(_, index) => expr_uses(index, name),
        ExprKind::Unary(_, operand) => expr_uses(operand, name),
        ExprKind::Binary(_, lhs, rhs) => expr_uses(lhs, name) + expr_uses(rhs, name),
    }
}

/// Number of occurrences of scalar `name` (reads and writes) in
/// `stmts`.
fn stmt_list_uses(stmts: &[Stmt], name: &str) -> usize {
    stmts.iter().map(|s| stmt_uses(s, name)).sum()
}

fn stmt_uses(s: &Stmt, name: &str) -> usize {
    match &s.kind {
        // A bare declaration reserves a register but is not a use; an
        // initialized one assigns, which is.
        StmtKind::DeclScalar { name: n, init } => {
            usize::from(n == name && init.is_some())
                + init.as_ref().map_or(0, |e| expr_uses(e, name))
        }
        StmtKind::DeclArray { .. } | StmtKind::Break => 0,
        StmtKind::Assign {
            name: n,
            index,
            value,
        } => {
            usize::from(n == name)
                + index.as_ref().map_or(0, |e| expr_uses(e, name))
                + expr_uses(value, name)
        }
        StmtKind::If { cond, then, els } => {
            expr_uses(cond, name) + stmt_list_uses(then, name) + stmt_list_uses(els, name)
        }
        StmtKind::While { cond, body } => expr_uses(cond, name) + stmt_list_uses(body, name),
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            stmt_uses(init, name)
                + expr_uses(cond, name)
                + stmt_uses(step, name)
                + stmt_list_uses(body, name)
        }
    }
}

/// Every scalar the expression mentions.
fn expr_vars(e: &Expr, out: &mut Vec<String>) {
    match &e.kind {
        ExprKind::Num(_) => {}
        ExprKind::Var(n) => out.push(n.clone()),
        ExprKind::Index(_, index) => expr_vars(index, out),
        ExprKind::Unary(_, operand) => expr_vars(operand, out),
        ExprKind::Binary(_, lhs, rhs) => {
            expr_vars(lhs, out);
            expr_vars(rhs, out);
        }
    }
}

fn expr_has_load(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Num(_) | ExprKind::Var(_) => false,
        ExprKind::Index(..) => true,
        ExprKind::Unary(_, operand) => expr_has_load(operand),
        ExprKind::Binary(_, lhs, rhs) => expr_has_load(lhs) || expr_has_load(rhs),
    }
}

// ========================= the generator ================================

/// Code-generation result.
pub(crate) struct Generated {
    /// Top-level IR nodes.
    pub nodes: Vec<Node>,
    /// Scalars whose value lives only in the hardware index unit under
    /// ZOLC (excluded from the expectation).
    pub index_only: Vec<String>,
    /// `for` loops emitted as counted [`LoopNode`]s.
    pub counted_loops: usize,
    /// Loops emitted in explicit-branch form (`while`s, demoted `for`s).
    pub while_loops: usize,
}

struct Gen<'a> {
    syms: &'a Symbols,
    program: &'a [Stmt],
    env: Env,
    in_if: bool,
    counted_depth: usize,
    counted_loops: usize,
    while_loops: usize,
    index_only: Vec<String>,
}

impl Gen<'_> {
    fn scalar_reg(&self, name: &str) -> Reg {
        self.syms.scalar(name).expect("checked").reg
    }

    // ---- expressions -------------------------------------------------

    fn need_slot(&self, slot: usize, pos: Pos) -> Result<(), Diagnostic> {
        if slot >= MAX_TEMPS {
            Err(Diagnostic::new(
                pos,
                "expression too complex for the temporary register pool (split it into \
                 intermediate assignments)",
            ))
        } else {
            Ok(())
        }
    }

    fn load_imm(&self, dst: Reg, value: i32, out: &mut Vec<Instr>) {
        if fits_i16(i64::from(value)) {
            out.push(Instr::Addi {
                rt: dst,
                rs: Reg::ZERO,
                imm: value as i16,
            });
        } else {
            out.push(Instr::Lui {
                rt: dst,
                imm: (value as u32 >> 16) as u16,
            });
            if value as u16 != 0 {
                out.push(Instr::Ori {
                    rt: dst,
                    rs: dst,
                    imm: value as u16,
                });
            }
        }
    }

    /// Materializes `e` as a readable register without committing to a
    /// destination: scalar variables come back as their home register
    /// (no code), everything else is evaluated into `temp(slot)`.
    fn operand(&self, e: &Expr, slot: usize, out: &mut Vec<Instr>) -> Result<Reg, Diagnostic> {
        match &e.kind {
            ExprKind::Var(name) => Ok(self.scalar_reg(name)),
            ExprKind::Num(0) => Ok(Reg::ZERO),
            _ => {
                self.need_slot(slot, e.pos)?;
                self.eval_into(temp(slot), e, slot + 1, out)?;
                Ok(temp(slot))
            }
        }
    }

    /// Evaluates `e` into `dst`, using temporaries `slot..` for
    /// intermediates. `dst` is written only by the final instruction,
    /// so it may alias a register the expression reads.
    fn eval_into(
        &self,
        dst: Reg,
        e: &Expr,
        slot: usize,
        out: &mut Vec<Instr>,
    ) -> Result<(), Diagnostic> {
        match &e.kind {
            ExprKind::Num(n) => {
                self.load_imm(dst, *n, out);
                Ok(())
            }
            ExprKind::Var(name) => {
                let src = self.scalar_reg(name);
                if src != dst {
                    out.push(Instr::Add {
                        rd: dst,
                        rs: src,
                        rt: Reg::ZERO,
                    });
                }
                Ok(())
            }
            ExprKind::Index(name, index) => {
                let addr_reg = self.element_addr(e.pos, name, index, slot, out)?;
                out.push(Instr::Lw {
                    rt: dst,
                    rs: addr_reg.0,
                    off: addr_reg.1,
                });
                Ok(())
            }
            ExprKind::Unary(op, operand) => {
                let r = self.operand(operand, slot, out)?;
                out.push(match op {
                    UnOp::Neg => Instr::Sub {
                        rd: dst,
                        rs: Reg::ZERO,
                        rt: r,
                    },
                    UnOp::Not => Instr::Sltiu {
                        rt: dst,
                        rs: r,
                        imm: 1,
                    },
                    UnOp::BitNot => Instr::Nor {
                        rd: dst,
                        rs: r,
                        rt: Reg::ZERO,
                    },
                });
                Ok(())
            }
            ExprKind::Binary(op, lhs, rhs) => self.binary_into(dst, *op, lhs, rhs, slot, out),
        }
    }

    fn binary_into(
        &self,
        dst: Reg,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        slot: usize,
        out: &mut Vec<Instr>,
    ) -> Result<(), Diagnostic> {
        // Immediate forms for the common `x ± const` and const shifts.
        if let ExprKind::Num(n) = rhs.kind {
            let imm = match op {
                BinOp::Add => Some(i64::from(n)),
                BinOp::Sub => Some(-i64::from(n)),
                _ => None,
            };
            if let Some(imm) = imm.filter(|&v| fits_i16(v)) {
                let ra = self.operand(lhs, slot, out)?;
                out.push(Instr::Addi {
                    rt: dst,
                    rs: ra,
                    imm: imm as i16,
                });
                return Ok(());
            }
            if matches!(op, BinOp::Shl | BinOp::Shr) {
                let ra = self.operand(lhs, slot, out)?;
                let sh = (n as u32 & 31) as u8;
                out.push(match op {
                    BinOp::Shl => Instr::Sll {
                        rd: dst,
                        rt: ra,
                        sh,
                    },
                    _ => Instr::Sra {
                        rd: dst,
                        rt: ra,
                        sh,
                    },
                });
                return Ok(());
            }
        }
        let ra = self.operand(lhs, slot, out)?;
        let rb = self.operand(rhs, slot + 1, out)?;
        match op {
            BinOp::Add => out.push(Instr::Add {
                rd: dst,
                rs: ra,
                rt: rb,
            }),
            BinOp::Sub => out.push(Instr::Sub {
                rd: dst,
                rs: ra,
                rt: rb,
            }),
            BinOp::Mul => out.push(Instr::Mul {
                rd: dst,
                rs: ra,
                rt: rb,
            }),
            BinOp::And => out.push(Instr::And {
                rd: dst,
                rs: ra,
                rt: rb,
            }),
            BinOp::Or => out.push(Instr::Or {
                rd: dst,
                rs: ra,
                rt: rb,
            }),
            BinOp::Xor => out.push(Instr::Xor {
                rd: dst,
                rs: ra,
                rt: rb,
            }),
            BinOp::Shl => out.push(Instr::Sllv {
                rd: dst,
                rt: ra,
                rs: rb,
            }),
            BinOp::Shr => out.push(Instr::Srav {
                rd: dst,
                rt: ra,
                rs: rb,
            }),
            BinOp::Lt => out.push(Instr::Slt {
                rd: dst,
                rs: ra,
                rt: rb,
            }),
            BinOp::Gt => out.push(Instr::Slt {
                rd: dst,
                rs: rb,
                rt: ra,
            }),
            BinOp::Le => {
                // a <= b  ⇔  !(b < a)
                out.push(Instr::Slt {
                    rd: dst,
                    rs: rb,
                    rt: ra,
                });
                out.push(Instr::Xori {
                    rt: dst,
                    rs: dst,
                    imm: 1,
                });
            }
            BinOp::Ge => {
                out.push(Instr::Slt {
                    rd: dst,
                    rs: ra,
                    rt: rb,
                });
                out.push(Instr::Xori {
                    rt: dst,
                    rs: dst,
                    imm: 1,
                });
            }
            BinOp::Eq => {
                out.push(Instr::Sub {
                    rd: dst,
                    rs: ra,
                    rt: rb,
                });
                out.push(Instr::Sltiu {
                    rt: dst,
                    rs: dst,
                    imm: 1,
                });
            }
            BinOp::Ne => {
                out.push(Instr::Sub {
                    rd: dst,
                    rs: ra,
                    rt: rb,
                });
                out.push(Instr::Sltu {
                    rd: dst,
                    rs: Reg::ZERO,
                    rt: dst,
                });
            }
            BinOp::LogAnd => {
                // Normalize b first: dst may alias ra *or* rb, and the
                // final `and` must read both normalized values.
                self.need_slot(slot + 1, rhs.pos)?;
                out.push(Instr::Sltu {
                    rd: temp(slot + 1),
                    rs: Reg::ZERO,
                    rt: rb,
                });
                out.push(Instr::Sltu {
                    rd: dst,
                    rs: Reg::ZERO,
                    rt: ra,
                });
                out.push(Instr::And {
                    rd: dst,
                    rs: dst,
                    rt: temp(slot + 1),
                });
            }
            BinOp::LogOr => {
                out.push(Instr::Or {
                    rd: dst,
                    rs: ra,
                    rt: rb,
                });
                out.push(Instr::Sltu {
                    rd: dst,
                    rs: Reg::ZERO,
                    rt: dst,
                });
            }
        }
        Ok(())
    }

    /// Computes the address of `name[index]` and returns `(base, off)`
    /// for the load/store. Uses `temp(slot)` and `temp(slot + 1)`.
    fn element_addr(
        &self,
        pos: Pos,
        name: &str,
        index: &Expr,
        slot: usize,
        out: &mut Vec<Instr>,
    ) -> Result<(Reg, i16), Diagnostic> {
        let base = self.syms.array(name).expect("checked").addr;
        if let ExprKind::Num(k) = index.kind {
            let addr = base.wrapping_add((k as u32).wrapping_mul(4));
            let (hi, lo) = hi_lo(addr);
            self.need_slot(slot, pos)?;
            out.push(Instr::Lui {
                rt: temp(slot),
                imm: hi,
            });
            return Ok((temp(slot), lo));
        }
        self.need_slot(slot + 1, pos)?;
        let ri = self.operand(index, slot, out)?;
        out.push(Instr::Sll {
            rd: temp(slot),
            rt: ri,
            sh: 2,
        });
        let (hi, lo) = hi_lo(base);
        out.push(Instr::Lui {
            rt: temp(slot + 1),
            imm: hi,
        });
        out.push(Instr::Add {
            rd: temp(slot),
            rs: temp(slot),
            rt: temp(slot + 1),
        });
        Ok((temp(slot), lo))
    }

    /// Lowers a boolean context: emits any needed setup code into `out`
    /// and returns the [`Cond`] that holds when `e` is nonzero.
    fn cond(&self, e: &Expr, out: &mut Vec<Instr>) -> Result<Cond, Diagnostic> {
        let zero = |x: &Expr| matches!(x.kind, ExprKind::Num(0));
        match &e.kind {
            ExprKind::Num(n) => Ok(if *n != 0 {
                Cond::Eq(Reg::ZERO, Reg::ZERO)
            } else {
                Cond::Ne(Reg::ZERO, Reg::ZERO)
            }),
            ExprKind::Binary(BinOp::Eq, lhs, rhs) => {
                let ra = self.operand(lhs, 0, out)?;
                let rb = self.operand(rhs, 1, out)?;
                Ok(Cond::Eq(ra, rb))
            }
            ExprKind::Binary(BinOp::Ne, lhs, rhs) => {
                let ra = self.operand(lhs, 0, out)?;
                let rb = self.operand(rhs, 1, out)?;
                Ok(Cond::Ne(ra, rb))
            }
            // Sign tests against zero map straight onto branch kinds.
            ExprKind::Binary(BinOp::Lt, lhs, rhs) if zero(rhs) => {
                Ok(Cond::Ltz(self.operand(lhs, 0, out)?))
            }
            ExprKind::Binary(BinOp::Le, lhs, rhs) if zero(rhs) => {
                Ok(Cond::Lez(self.operand(lhs, 0, out)?))
            }
            ExprKind::Binary(BinOp::Gt, lhs, rhs) if zero(rhs) => {
                Ok(Cond::Gtz(self.operand(lhs, 0, out)?))
            }
            ExprKind::Binary(BinOp::Ge, lhs, rhs) if zero(rhs) => {
                Ok(Cond::Gez(self.operand(lhs, 0, out)?))
            }
            ExprKind::Binary(BinOp::Lt, lhs, rhs) if zero(lhs) => {
                Ok(Cond::Gtz(self.operand(rhs, 0, out)?))
            }
            ExprKind::Binary(BinOp::Gt, lhs, rhs) if zero(lhs) => {
                Ok(Cond::Ltz(self.operand(rhs, 0, out)?))
            }
            _ => {
                self.eval_into(temp(0), e, 1, out)?;
                Ok(Cond::Ne(temp(0), Reg::ZERO))
            }
        }
    }

    // ---- statements --------------------------------------------------

    fn block(&mut self, stmts: &[Stmt]) -> Result<Vec<Node>, Diagnostic> {
        let mut nodes = Vec::new();
        let mut pending = Vec::new();
        for s in stmts {
            self.stmt(s, &mut nodes, &mut pending)?;
        }
        flush(&mut nodes, &mut pending);
        Ok(nodes)
    }

    fn stmt(
        &mut self,
        s: &Stmt,
        nodes: &mut Vec<Node>,
        pending: &mut Vec<Instr>,
    ) -> Result<(), Diagnostic> {
        match &s.kind {
            StmtKind::DeclArray { .. } => Ok(()),
            StmtKind::DeclScalar { name, init } => {
                if let Some(e) = init {
                    self.assign_scalar(name, e, pending)?;
                }
                Ok(())
            }
            StmtKind::Assign {
                name,
                index: None,
                value,
            } => self.assign_scalar(name, value, pending),
            StmtKind::Assign {
                name,
                index: Some(ix),
                value,
            } => {
                let rv = self.operand(value, 0, pending)?;
                let (base, off) = self.element_addr(s.pos, name, ix, 1, pending)?;
                pending.push(Instr::Sw {
                    rt: rv,
                    rs: base,
                    off,
                });
                Ok(())
            }
            StmtKind::Break => {
                flush(nodes, pending);
                nodes.push(Node::BreakIf {
                    cond: Cond::Eq(Reg::ZERO, Reg::ZERO),
                    levels: 1,
                });
                Ok(())
            }
            StmtKind::If { cond, then, els } => {
                // `if (c) { break; }` maps to the IR's guarded break.
                if els.is_empty()
                    && matches!(then.as_slice(), [one] if matches!(one.kind, StmtKind::Break))
                {
                    let c = self.cond(cond, pending)?;
                    flush(nodes, pending);
                    nodes.push(Node::BreakIf { cond: c, levels: 1 });
                    return Ok(());
                }
                let c = self.cond(cond, pending)?;
                flush(nodes, pending);
                let entry_env = self.env.clone();
                let saved_in_if = self.in_if;
                self.in_if = true;
                let then_nodes = self.block(then)?;
                let then_env = std::mem::replace(&mut self.env, entry_env);
                let els_nodes = self.block(els)?;
                self.in_if = saved_in_if;
                let els_env = std::mem::take(&mut self.env);
                self.env = join_envs(&then_env, &els_env);
                nodes.push(Node::If {
                    cond: c,
                    then: then_nodes,
                    els: els_nodes,
                });
                Ok(())
            }
            StmtKind::While { cond, body } => self.while_loop(cond, body, nodes, pending),
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => self.for_loop(s.pos, init, cond, step, body, nodes, pending),
        }
    }

    fn assign_scalar(
        &mut self,
        name: &str,
        value: &Expr,
        pending: &mut Vec<Instr>,
    ) -> Result<(), Diagnostic> {
        let dst = self.scalar_reg(name);
        // `v = v ± const` is the canonical induction idiom; emit the
        // single `addi` the retargeter and oracle pattern-match.
        let mut done = false;
        if let ExprKind::Binary(op @ (BinOp::Add | BinOp::Sub), lhs, rhs) = &value.kind {
            if let (ExprKind::Var(l), ExprKind::Num(n)) = (&lhs.kind, &rhs.kind) {
                let imm = if *op == BinOp::Add {
                    i64::from(*n)
                } else {
                    -i64::from(*n)
                };
                if l == name && fits_i16(imm) {
                    pending.push(Instr::Addi {
                        rt: dst,
                        rs: dst,
                        imm: imm as i16,
                    });
                    done = true;
                }
            }
        }
        if !done {
            self.eval_into(dst, value, 0, pending)?;
        }
        let iv = ieval(value, &self.env);
        self.env.insert(name.to_owned(), iv);
        Ok(())
    }

    fn while_loop(
        &mut self,
        cond: &Expr,
        body: &[Stmt],
        nodes: &mut Vec<Node>,
        pending: &mut Vec<Instr>,
    ) -> Result<(), Diagnostic> {
        flush(nodes, pending);
        // Everything the body can assign is unknown from here on (the
        // condition and body run an unknown number of times).
        let mut killed = Vec::new();
        assigned_names(body, &mut killed);
        for name in &killed {
            self.env.insert(name.clone(), TOP);
        }
        let mut header = Vec::new();
        let c = self.cond(cond, &mut header)?;
        let saved_in_if = self.in_if;
        self.in_if = false;
        let body_nodes = self.block(body)?;
        self.in_if = saved_in_if;
        for name in &killed {
            self.env.insert(name.clone(), TOP);
        }
        self.while_loops += 1;
        nodes.push(Node::While {
            header,
            cond: c,
            body: body_nodes,
        });
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn for_loop(
        &mut self,
        pos: Pos,
        init: &Stmt,
        cond: &Expr,
        step: &Stmt,
        body: &[Stmt],
        nodes: &mut Vec<Node>,
        pending: &mut Vec<Instr>,
    ) -> Result<(), Diagnostic> {
        let _ = pos;
        if let Some(shape) = self.counted_shape(init, cond, step, body) {
            return self.counted_loop(shape, body, nodes, pending);
        }
        // Demote: `for (init; c; step) B` ≡ `init; while (c) { B; step }`
        // (`break` correctly skips the appended step).
        self.stmt(init, nodes, pending)?;
        let mut while_body: Vec<Stmt> = body.to_vec();
        while_body.push(step.clone());
        self.while_loop(cond, &while_body, nodes, pending)
    }

    fn counted_loop(
        &mut self,
        shape: CountedShape,
        body: &[Stmt],
        nodes: &mut Vec<Node>,
        pending: &mut Vec<Instr>,
    ) -> Result<(), Diagnostic> {
        let CountedShape {
            var,
            init_e,
            bound_e,
            inclusive,
            up,
            step_c,
            trips,
            iter,
            after,
            index_hw,
        } = shape;
        let var_reg = self.scalar_reg(&var);
        let counter = reg(14 + 2 * self.counted_depth as u8);
        let bound_reg = reg(15 + 2 * self.counted_depth as u8);

        // Preheader: trip-count register for runtime bounds, and the
        // index variable's initial value when it is software-maintained.
        let trips = match trips {
            TripSource::Const(n) => Trips::Const(n),
            TripSource::Runtime => {
                let step_abs = step_c.unsigned_abs();
                if up {
                    if matches!(init_e.kind, ExprKind::Num(0)) {
                        self.eval_into(bound_reg, &bound_e, 0, pending)?;
                    } else {
                        let rb = self.operand(&bound_e, 0, pending)?;
                        let ra = self.operand(&init_e, 1, pending)?;
                        pending.push(Instr::Sub {
                            rd: bound_reg,
                            rs: rb,
                            rt: ra,
                        });
                    }
                } else {
                    let ra = self.operand(&init_e, 0, pending)?;
                    let rb = self.operand(&bound_e, 1, pending)?;
                    pending.push(Instr::Sub {
                        rd: bound_reg,
                        rs: ra,
                        rt: rb,
                    });
                }
                if inclusive {
                    pending.push(Instr::Addi {
                        rt: bound_reg,
                        rs: bound_reg,
                        imm: 1,
                    });
                }
                if step_abs > 1 {
                    // trips = (span + |c| - 1) >> log2(|c|); span ≥ 1 was
                    // proved, so the rounding add cannot go negative.
                    pending.push(Instr::Addi {
                        rt: bound_reg,
                        rs: bound_reg,
                        imm: (step_abs - 1) as i16,
                    });
                    pending.push(Instr::Sra {
                        rd: bound_reg,
                        rt: bound_reg,
                        sh: step_abs.trailing_zeros() as u8,
                    });
                }
                Trips::Reg(bound_reg)
            }
        };

        let index = if index_hw {
            self.index_only.push(var.clone());
            Some(IndexSpec {
                reg: var_reg,
                init: match init_e.kind {
                    ExprKind::Num(n) => n,
                    _ => unreachable!("index_hw requires a constant init"),
                },
                step: step_c,
            })
        } else {
            self.assign_scalar(&var, &init_e, pending)?;
            None
        };
        flush(nodes, pending);

        // Body, with the environment scoped to one iteration.
        let mut killed = Vec::new();
        assigned_names(body, &mut killed);
        for name in &killed {
            self.env.insert(name.clone(), TOP);
        }
        self.env.insert(var.clone(), iter);
        self.counted_depth += 1;
        let mut body_nodes = self.block(body)?;
        self.counted_depth -= 1;
        if !index_hw {
            // Software index maintenance at the body tail (a `break`
            // skips it, matching C `for` semantics).
            let mut tail = Vec::new();
            if fits_i16(i64::from(step_c)) {
                tail.push(Instr::Addi {
                    rt: var_reg,
                    rs: var_reg,
                    imm: step_c as i16,
                });
            } else {
                self.load_imm(temp(0), step_c, &mut tail);
                tail.push(Instr::Add {
                    rd: var_reg,
                    rs: var_reg,
                    rt: temp(0),
                });
            }
            body_nodes.push(Node::Code(tail));
        }
        for name in &killed {
            self.env.insert(name.clone(), TOP);
        }
        self.env.insert(var.clone(), after);

        self.counted_loops += 1;
        nodes.push(Node::Loop(LoopNode {
            trips,
            index,
            counter,
            body: body_nodes,
        }));
        Ok(())
    }

    /// Decides whether a `for` loop is counted, and packages everything
    /// the emitter needs if so. Returns `None` to demote.
    fn counted_shape(
        &self,
        init: &Stmt,
        cond: &Expr,
        step: &Stmt,
        body: &[Stmt],
    ) -> Option<CountedShape> {
        if self.in_if || self.counted_depth >= MAX_COUNTED_DEPTH {
            return None;
        }
        let StmtKind::Assign {
            name: var,
            index: None,
            value: init_e,
        } = &init.kind
        else {
            return None;
        };
        // Step: `v = v ± const`, nonzero, expressible as an i16 `addi`
        // (the IR's software latch and IndexSpec both require it).
        let StmtKind::Assign {
            name: step_var,
            index: None,
            value: step_e,
        } = &step.kind
        else {
            return None;
        };
        if step_var != var {
            return None;
        }
        let ExprKind::Binary(step_op @ (BinOp::Add | BinOp::Sub), step_lhs, step_rhs) =
            &step_e.kind
        else {
            return None;
        };
        if !matches!(&step_lhs.kind, ExprKind::Var(v) if v == var) {
            return None;
        }
        let ExprKind::Num(step_n) = step_rhs.kind else {
            return None;
        };
        let step_c = if *step_op == BinOp::Add {
            step_n
        } else {
            step_n.checked_neg()?
        };
        if step_c == 0 || !fits_i16(i64::from(step_c)) {
            return None;
        }
        // Condition: `v < bound`, `v <= bound`, `v > bound`, `v >= bound`.
        let ExprKind::Binary(
            cmp @ (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge),
            cond_lhs,
            bound_e,
        ) = &cond.kind
        else {
            return None;
        };
        if !matches!(&cond_lhs.kind, ExprKind::Var(v) if v == var) {
            return None;
        }
        let up = matches!(cmp, BinOp::Lt | BinOp::Le);
        let inclusive = matches!(cmp, BinOp::Le | BinOp::Ge);
        if up != (step_c > 0) {
            return None;
        }
        // Loop invariance: `v` is never written in the body, the bound
        // reads no memory and no scalar the body writes, and the init
        // expression likewise (it is re-evaluated in the preheader for
        // runtime trip counts, which re-runs per outer iteration).
        if assigns(body, var) {
            return None;
        }
        for e in [bound_e.as_ref(), init_e] {
            if expr_has_load(e) {
                return None;
            }
            let mut vars = Vec::new();
            expr_vars(e, &mut vars);
            if vars.iter().any(|n| n == var || assigns(body, n)) {
                return None;
            }
        }
        // Trip count: ceil(span / |c|) where span counts from init to
        // bound in the direction of travel.
        let ia = ieval(init_e, &self.env);
        let ib = ieval(bound_e, &self.env);
        let adj = i64::from(inclusive);
        let step_abs = i64::from(step_c.unsigned_abs());
        let (span_lo, span_hi) = if up {
            (ib.lo - ia.hi + adj, ib.hi - ia.lo + adj)
        } else {
            (ia.lo - ib.hi + adj, ia.hi - ib.lo + adj)
        };
        let trips = match (ia.as_const(), ib.as_const()) {
            (Some(_), Some(_)) => {
                debug_assert_eq!(span_lo, span_hi);
                if span_lo < 1 {
                    return None; // zero-trip: the while form handles it
                }
                let trips = (span_lo + step_abs - 1) / step_abs;
                TripSource::Const(u32::try_from(trips).ok()?)
            }
            _ => {
                // Runtime bound: must prove ≥ 1 trip, keep the rounding
                // add in range, and divide by a power of two.
                if span_lo < 1 || span_hi + step_abs - 1 > i64::from(i32::MAX) {
                    return None;
                }
                if !step_abs.unsigned_abs().is_power_of_two() || !fits_i16(step_abs - 1) {
                    return None;
                }
                TripSource::Runtime
            }
        };
        // Value range of `v` during an iteration, and after the loop.
        let iter = if up {
            Interval {
                lo: ia.lo,
                hi: ib.hi - 1 + adj,
            }
        } else {
            Interval {
                lo: ib.lo + 1 - adj,
                hi: ia.hi,
            }
        }
        .normalize();
        let after = match trips {
            TripSource::Const(n) => {
                let fin = ia
                    .as_const()
                    .map(|a| i64::from(a) + i64::from(n) * i64::from(step_c));
                match fin {
                    Some(f) if (i64::from(i32::MIN)..=i64::from(i32::MAX)).contains(&f) => {
                        Interval::point(f as i32)
                    }
                    _ => TOP,
                }
            }
            TripSource::Runtime => TOP,
        };
        // Hardware index: constant init, and `v` appears nowhere outside
        // this `for` statement (its final value is then unobservable, so
        // the ZOLC index unit may own the register outright).
        let total_uses = stmt_list_uses(self.program, var);
        let loop_uses = stmt_uses(
            &Stmt {
                kind: StmtKind::For {
                    init: Box::new(init.clone()),
                    cond: cond.clone(),
                    step: Box::new(step.clone()),
                    body: body.to_vec(),
                },
                pos: init.pos,
            },
            var,
        );
        let index_hw = matches!(init_e.kind, ExprKind::Num(_)) && total_uses == loop_uses;
        Some(CountedShape {
            var: var.clone(),
            init_e: init_e.clone(),
            bound_e: bound_e.as_ref().clone(),
            inclusive,
            up,
            step_c,
            trips,
            iter,
            after,
            index_hw,
        })
    }
}

enum TripSource {
    Const(u32),
    Runtime,
}

struct CountedShape {
    var: String,
    init_e: Expr,
    bound_e: Expr,
    inclusive: bool,
    up: bool,
    step_c: i32,
    trips: TripSource,
    iter: Interval,
    after: Interval,
    index_hw: bool,
}

fn flush(nodes: &mut Vec<Node>, pending: &mut Vec<Instr>) {
    if !pending.is_empty() {
        nodes.push(Node::Code(std::mem::take(pending)));
    }
}

fn join_envs(a: &Env, b: &Env) -> Env {
    let mut out = Env::new();
    for (name, &iv) in a {
        let joined = b.get(name).map_or(TOP, |&other| iv.join(other));
        out.insert(name.clone(), joined);
    }
    out
}

/// Generates IR for a checked program.
pub(crate) fn generate(program: &[Stmt], syms: &Symbols) -> Result<Generated, Diagnostic> {
    let mut generator = Gen {
        syms,
        program,
        env: syms
            .scalars
            .iter()
            .map(|s| (s.name.clone(), Interval::point(0)))
            .collect(),
        in_if: false,
        counted_depth: 0,
        counted_loops: 0,
        while_loops: 0,
        index_only: Vec::new(),
    };
    let nodes = generator.block(program)?;
    Ok(Generated {
        nodes,
        index_only: generator.index_only,
        counted_loops: generator.counted_loops,
        while_loops: generator.while_loops,
    })
}
