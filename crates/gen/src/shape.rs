//! The declarative loop-shape model and its feature taxonomy.

use std::fmt;
use zolc_isa::Instr;

/// Where a loop's trip count comes from in the baseline program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BoundKind {
    /// A visible constant: the preheader loads `li counter, trips`.
    #[default]
    Const,
    /// A data-dependent register bound: the preheader loads the bound
    /// register and copies it into the counter (`add counter, bound,
    /// r0`) — the form the retargeter rewrites into an in-loop `zwr`
    /// limit update.
    Reg,
}

/// How a loop's latch decrements and branches in the baseline program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LatchKind {
    /// Software down-counter: `addi counter, counter, -1` followed by
    /// `bne counter, r0, top` (the `XRdefault` idiom).
    #[default]
    Counter,
    /// The fused branch-decrement `dbnz counter, top` (the `XRhrdwil`
    /// idiom).
    Dbnz,
}

/// One counted loop in a shape tree: trip count, bound and latch style,
/// straight-line body code around a sequence of inner loops, and
/// optional loop-crossing control flow.
///
/// Body instructions (in [`LoopShape::pre`] and [`LoopShape::post`])
/// must be straight-line and confined to registers `r0`–`r9`
/// (`r1` read-only — it holds the data base pointer); the counter and
/// bound registers `r10`–`r31` are allocated by
/// [`ProgramSpec::assemble`] and must stay untouched so excising a
/// loop's counter can never change body results. [`GenError`] reports
/// violations.
///
/// [`GenError`]: crate::GenError
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LoopShape {
    /// Trip count (≥ 1; zero-trip loops are outside the down-counter
    /// contract this generator emits).
    pub trips: u32,
    /// Constant or register-sourced bound.
    pub bound: BoundKind,
    /// Software-counter or `dbnz` latch.
    pub latch: LatchKind,
    /// Straight-line body code before the inner loops.
    pub pre: Vec<Instr>,
    /// Inner loops, executed in sequence each iteration (two or more
    /// make a *sibling* structure, one nested inside code makes the
    /// nest *imperfect*).
    pub children: Vec<LoopShape>,
    /// Straight-line body code after the inner loops.
    pub post: Vec<Instr>,
    /// Emit a data-dependent forward branch *over* the whole loop
    /// (`beq r2, r0, after`) — control flow that crosses the loop
    /// region, which the retargeter must push back to software.
    pub pre_skip: bool,
    /// Emit a data-dependent forward branch from the body start to the
    /// latch (`bgtz r3, latch`) — the if-at-loop-end shape. The loop
    /// itself stays hardware-mappable via an inserted `nop` end, but
    /// the branch crosses every inner loop's region and forces the
    /// children to software. Only emitted when the body is non-empty
    /// (see [`LoopShape::emits_tail_skip`]).
    pub tail_skip: bool,
}

impl LoopShape {
    /// A plain constant-bound, software-latch counted loop with an
    /// empty body — the smallest handled shape; extend it with struct
    /// update syntax.
    ///
    /// ```
    /// use zolc_gen::{BoundKind, LatchKind, LoopShape};
    ///
    /// let l = LoopShape { tail_skip: true, ..LoopShape::counted(5) };
    /// assert_eq!(l.trips, 5);
    /// assert_eq!(l.bound, BoundKind::Const);
    /// assert_eq!(l.latch, LatchKind::Counter);
    /// assert!(!l.emits_tail_skip(), "empty body emits no tail branch");
    /// ```
    pub fn counted(trips: u32) -> LoopShape {
        LoopShape {
            trips,
            ..LoopShape::default()
        }
    }

    /// Number of loops in this subtree (including this one).
    pub fn loop_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(LoopShape::loop_count)
            .sum::<usize>()
    }

    /// Nesting depth of this subtree (a leaf is 1).
    pub fn depth(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(LoopShape::depth)
            .max()
            .unwrap_or(0)
    }

    /// Whether the loop body is completely empty (no code, no inner
    /// loops) — the pure-counter delay-loop shape.
    pub fn body_is_empty(&self) -> bool {
        self.pre.is_empty() && self.children.is_empty() && self.post.is_empty()
    }

    /// Whether [`Self::tail_skip`] actually emits a branch: a tail skip
    /// over an empty body would be a branch to the next instruction, so
    /// it is suppressed.
    pub fn emits_tail_skip(&self) -> bool {
        self.tail_skip && !self.body_is_empty()
    }

    /// The shape features this single loop exhibits at nesting `depth`
    /// (1-based), for coverage bucketing.
    pub fn features(&self, depth: usize) -> Vec<Feature> {
        let mut f = vec![match depth {
            0 | 1 => Feature::Depth1,
            2 => Feature::Depth2,
            _ => Feature::Depth3Plus,
        }];
        f.push(match self.bound {
            BoundKind::Const => Feature::ConstBound,
            BoundKind::Reg => Feature::RegBound,
        });
        f.push(match self.latch {
            LatchKind::Counter => Feature::CounterLatch,
            LatchKind::Dbnz => Feature::DbnzLatch,
        });
        if self.body_is_empty() {
            f.push(Feature::PureCounter);
        }
        if !self.children.is_empty() && (!self.pre.is_empty() || !self.post.is_empty()) {
            f.push(Feature::ImperfectBody);
        }
        if self.children.len() >= 2 {
            f.push(Feature::SiblingInners);
        }
        if self.pre_skip {
            f.push(Feature::PreSkip);
        }
        if self.emits_tail_skip() {
            f.push(Feature::TailSkip);
        }
        f
    }
}

/// A whole generated program: a sequence of top-level loop structures
/// (assembled with the canonical baseline preheader/latch idioms, a
/// `r1 = DATA_BASE` prologue and a final `halt`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProgramSpec {
    /// The top-level loop structures, in program order.
    pub loops: Vec<LoopShape>,
}

impl ProgramSpec {
    /// Wraps a sequence of top-level shapes.
    pub fn new(loops: Vec<LoopShape>) -> ProgramSpec {
        ProgramSpec { loops }
    }

    /// Total number of loops across all structures.
    pub fn loop_count(&self) -> usize {
        self.loops.iter().map(LoopShape::loop_count).sum()
    }

    /// Maximum nesting depth across all structures (0 for an empty
    /// spec).
    pub fn max_depth(&self) -> usize {
        self.loops.iter().map(LoopShape::depth).max().unwrap_or(0)
    }

    /// Every loop of the spec in depth-first pre-order (the order
    /// [`ProgramSpec::assemble`] emits them, and the order of
    /// [`Assembled::loop_starts`]), paired with its 1-based nesting
    /// depth.
    ///
    /// [`Assembled::loop_starts`]: crate::Assembled::loop_starts
    pub fn flatten(&self) -> Vec<(usize, &LoopShape)> {
        fn walk<'a>(shape: &'a LoopShape, depth: usize, out: &mut Vec<(usize, &'a LoopShape)>) {
            out.push((depth, shape));
            for c in &shape.children {
                walk(c, depth + 1, out);
            }
        }
        let mut out = Vec::with_capacity(self.loop_count());
        for l in &self.loops {
            walk(l, 1, &mut out);
        }
        out
    }

    /// How many loops the automatic retargeter (`zolc_cfg::retarget`)
    /// is expected to leave in software for this spec, *capacity
    /// aside*: a [`LoopShape::pre_skip`] branch crosses the loop's own
    /// region (the loop and every descendant fall back), and an emitted
    /// [`LoopShape::tail_skip`] branch crosses every child's region
    /// (the child subtrees fall back while the loop itself stays
    /// mappable through an inserted `nop` end).
    ///
    /// The root `prop_exec_equiv` suite holds `retarget` to exactly
    /// this prediction on `ZOLClite` (whose capacity generated specs
    /// never exceed).
    ///
    /// ```
    /// use zolc_gen::{LoopShape, ProgramSpec};
    ///
    /// // skipped outer + nested inner: both fall back
    /// let spec = ProgramSpec::new(vec![LoopShape {
    ///     pre_skip: true,
    ///     children: vec![LoopShape::counted(2)],
    ///     ..LoopShape::counted(3)
    /// }]);
    /// assert_eq!(spec.predicted_unhandled(), 2);
    /// ```
    pub fn predicted_unhandled(&self) -> usize {
        fn walk(shape: &LoopShape, forced: bool) -> usize {
            let software = forced || shape.pre_skip;
            let children_forced = software || shape.emits_tail_skip();
            usize::from(software)
                + shape
                    .children
                    .iter()
                    .map(|c| walk(c, children_forced))
                    .sum::<usize>()
        }
        self.loops.iter().map(|l| walk(l, false)).sum()
    }

    /// An upper bound on the instructions a run of the assembled
    /// baseline program retires, saturating at `u64::MAX`: every `li`
    /// counted as two instructions and no skip branch taken (a taken
    /// skip only shortens the run). Callers with a fuel budget check a
    /// spec against it before running anything.
    pub fn max_retired(&self) -> u64 {
        fn activation(shape: &LoopShape) -> u64 {
            let preheader = match shape.bound {
                BoundKind::Const => 2,
                BoundKind::Reg => 3,
            };
            let latch = match shape.latch {
                LatchKind::Counter => 2,
                LatchKind::Dbnz => 1,
            };
            let body = shape.children.iter().map(activation).fold(
                u64::from(shape.emits_tail_skip())
                    + (shape.pre.len() + shape.post.len()) as u64
                    + latch,
                u64::saturating_add,
            );
            // the down-counter wraps: a zero trip count runs 2^32 times
            let trips = u64::from(shape.trips.wrapping_sub(1)) + 1;
            (u64::from(shape.pre_skip) + preheader).saturating_add(trips.saturating_mul(body))
        }
        // the `r1` prologue and the final `halt`
        self.loops
            .iter()
            .map(activation)
            .fold(3, u64::saturating_add)
    }

    /// Counts, for every [`Feature`], how many loops of the spec
    /// exhibit it (one loop can exhibit several).
    pub fn feature_counts(&self) -> Vec<(Feature, usize)> {
        let mut counts = vec![0usize; Feature::ALL.len()];
        for (depth, shape) in self.flatten() {
            for f in shape.features(depth) {
                counts[f as usize] += 1;
            }
        }
        Feature::ALL.into_iter().zip(counts).collect()
    }
}

/// A shape feature a single loop can exhibit, for coverage bucketing in
/// design-space sweeps (see [`LoopShape::features`]).
///
/// ```
/// use zolc_gen::Feature;
///
/// assert_eq!(Feature::ALL.len(), 12);
/// assert_eq!(Feature::RegBound.to_string(), "register bound");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Feature {
    /// Top-level loop (depth 1).
    Depth1,
    /// Second-level loop (depth 2).
    Depth2,
    /// Loop at depth 3 or deeper.
    Depth3Plus,
    /// Constant trip count visible in the preheader.
    ConstBound,
    /// Register-sourced (data-dependent) trip count.
    RegBound,
    /// `addi` + `bne` software latch.
    CounterLatch,
    /// Fused `dbnz` latch.
    DbnzLatch,
    /// Completely empty body (pure-counter delay loop).
    PureCounter,
    /// Inner loops with body code before or after them (imperfect
    /// nest).
    ImperfectBody,
    /// Two or more sibling inner loops.
    SiblingInners,
    /// Data-dependent branch over the whole loop.
    PreSkip,
    /// Data-dependent branch from body start to the latch.
    TailSkip,
}

impl Feature {
    /// Every feature, in [`ProgramSpec::feature_counts`] order.
    pub const ALL: [Feature; 12] = [
        Feature::Depth1,
        Feature::Depth2,
        Feature::Depth3Plus,
        Feature::ConstBound,
        Feature::RegBound,
        Feature::CounterLatch,
        Feature::DbnzLatch,
        Feature::PureCounter,
        Feature::ImperfectBody,
        Feature::SiblingInners,
        Feature::PreSkip,
        Feature::TailSkip,
    ];

    /// Human-readable label (used in sweep report tables).
    pub fn label(self) -> &'static str {
        match self {
            Feature::Depth1 => "depth 1",
            Feature::Depth2 => "depth 2",
            Feature::Depth3Plus => "depth >= 3",
            Feature::ConstBound => "constant bound",
            Feature::RegBound => "register bound",
            Feature::CounterLatch => "counter latch",
            Feature::DbnzLatch => "dbnz latch",
            Feature::PureCounter => "pure counter",
            Feature::ImperfectBody => "imperfect body",
            Feature::SiblingInners => "sibling inners",
            Feature::PreSkip => "pre-skip branch",
            Feature::TailSkip => "tail-skip branch",
        }
    }
}

impl fmt::Display for Feature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zolc_isa::{reg, Instr};

    fn body() -> Vec<Instr> {
        vec![Instr::Add {
            rd: reg(2),
            rs: reg(2),
            rt: reg(3),
        }]
    }

    #[test]
    fn max_retired_counts_every_iteration() {
        // prologue 2 + (li 2 + 10 × (nested li 2 + 3 × latch 2 + latch 2)) + halt
        let spec = ProgramSpec::new(vec![LoopShape {
            children: vec![LoopShape::counted(3)],
            ..LoopShape::counted(10)
        }]);
        assert_eq!(spec.max_retired(), 2 + 2 + 10 * (2 + 3 * 2 + 2) + 1);
        // a zero trip count wraps the down-counter
        let wraps = ProgramSpec::new(vec![LoopShape::counted(0)]);
        assert_eq!(wraps.max_retired(), 2 + 2 + (1 << 32) * 2 + 1);
        let huge = LoopShape::counted(u32::MAX);
        let nest = LoopShape {
            children: vec![LoopShape {
                children: vec![huge.clone()],
                ..huge.clone()
            }],
            ..huge
        };
        assert_eq!(ProgramSpec::new(vec![nest]).max_retired(), u64::MAX);
    }

    #[test]
    fn counts_and_depth() {
        let spec = ProgramSpec::new(vec![
            LoopShape {
                children: vec![
                    LoopShape::counted(2),
                    LoopShape {
                        children: vec![LoopShape::counted(2)],
                        ..LoopShape::counted(2)
                    },
                ],
                ..LoopShape::counted(3)
            },
            LoopShape::counted(4),
        ]);
        assert_eq!(spec.loop_count(), 5);
        assert_eq!(spec.max_depth(), 3);
        assert_eq!(spec.flatten().len(), 5);
        let depths: Vec<usize> = spec.flatten().iter().map(|(d, _)| *d).collect();
        assert_eq!(depths, vec![1, 2, 2, 3, 1]);
    }

    #[test]
    fn tail_skip_suppressed_on_empty_body() {
        let l = LoopShape {
            tail_skip: true,
            ..LoopShape::counted(3)
        };
        assert!(!l.emits_tail_skip());
        let l = LoopShape {
            tail_skip: true,
            pre: body(),
            ..LoopShape::counted(3)
        };
        assert!(l.emits_tail_skip());
        let l = LoopShape {
            tail_skip: true,
            children: vec![LoopShape::counted(2)],
            ..LoopShape::counted(3)
        };
        assert!(l.emits_tail_skip(), "children count as body");
    }

    #[test]
    fn predicted_unhandled_rules() {
        // plain nest: everything handled
        let nest = |outer: LoopShape| ProgramSpec::new(vec![outer]);
        assert_eq!(
            nest(LoopShape {
                children: vec![LoopShape::counted(2)],
                ..LoopShape::counted(3)
            })
            .predicted_unhandled(),
            0
        );
        // tail skip forces the whole child subtree back
        assert_eq!(
            nest(LoopShape {
                tail_skip: true,
                children: vec![LoopShape {
                    children: vec![LoopShape::counted(2)],
                    ..LoopShape::counted(2)
                }],
                ..LoopShape::counted(3)
            })
            .predicted_unhandled(),
            2
        );
        // pre-skip on a child: only that subtree falls back
        assert_eq!(
            nest(LoopShape {
                children: vec![
                    LoopShape {
                        pre_skip: true,
                        ..LoopShape::counted(2)
                    },
                    LoopShape::counted(2),
                ],
                ..LoopShape::counted(3)
            })
            .predicted_unhandled(),
            1
        );
    }

    #[test]
    fn feature_census_counts_each_loop() {
        let spec = ProgramSpec::new(vec![LoopShape {
            pre: body(),
            bound: BoundKind::Reg,
            latch: LatchKind::Dbnz,
            children: vec![LoopShape::counted(2), LoopShape::counted(2)],
            ..LoopShape::counted(3)
        }]);
        let counts: std::collections::HashMap<Feature, usize> =
            spec.feature_counts().into_iter().collect();
        assert_eq!(counts[&Feature::Depth1], 1);
        assert_eq!(counts[&Feature::Depth2], 2);
        assert_eq!(counts[&Feature::RegBound], 1);
        assert_eq!(counts[&Feature::DbnzLatch], 1);
        assert_eq!(counts[&Feature::CounterLatch], 2);
        assert_eq!(counts[&Feature::PureCounter], 2);
        assert_eq!(counts[&Feature::ImperfectBody], 1);
        assert_eq!(counts[&Feature::SiblingInners], 1);
        assert_eq!(counts[&Feature::TailSkip], 0);
    }
}
