//! The [`LoopEngine`] trait: how a loop controller plugs into the pipeline.
//!
//! Paper Fig. 1 connects the ZOLC to three points of the processor: the
//! *PC decode* unit (task-end detection and next-PC selection), the
//! *instruction decoder* (the `zwr`/`zctl` initialization instructions) and
//! the *register file* (the index calculation unit's dedicated write port).
//! `LoopEngine` exposes exactly those integration points:
//!
//! * [`LoopEngine::on_fetch`] — called for every instruction fetch; the
//!   engine may **redirect the next fetch** (zero-overhead task switch) and
//!   attach a **register write rider** to the fetched instruction (the
//!   index-register update, which then flows through the pipeline and is
//!   forwardable like any result).
//! * [`LoopEngine::on_execute`] — called when an instruction *retires* in
//!   EX (it can no longer be squashed); the engine commits architectural
//!   loop state here and handles registered exit branches.
//! * [`LoopEngine::exec_zwr`] / [`LoopEngine::exec_zctl`] — execution of
//!   the ZOLC coprocessor instructions.
//! * [`LoopEngine::on_flush`] — any pipeline flush; fetch-time decisions
//!   made for squashed instructions must be rolled back (speculative state
//!   returns to architectural state).
//!
//! # Hook footprint
//!
//! [`LoopEngine::hook_pcs`] names the static set of pcs where `on_fetch`
//! and `on_execute` can do anything at all — for the ZOLC, the task
//! ends, loop-entry points and entry/exit records its tables hold. The
//! set must be a **superset**: at every other pc, whatever the engine's
//! dynamic state, `on_fetch` must return [`FetchDecision::none`], and a
//! call to either hook (`on_execute` with any event) must be
//! indistinguishable from no call. Every executor reads the set when a
//! run starts and again after each `exec_zwr`/`exec_zctl` (the only
//! calls that may change it), keeps it as a dense per-instruction flag
//! map, and skips both hooks outside it. The nest tier goes further:
//! footprint pcs, not an active engine, are what end its superblocks
//! and send instructions to the step core. `None` — the default — means
//! "every pc", which keeps an engine on the per-instruction hook
//! schedule everywhere.

use zolc_isa::{Reg, ZolcCtl, ZolcRegion, TEXT_BASE};

/// A small fixed-capacity set of register writes riding on one instruction.
///
/// When several nested loops finish on the same instruction (the paper's
/// "successive last iterations ... in a single cycle" behaviour), the index
/// calculation unit updates several index registers at one task boundary;
/// the capacity equals the maximum loop nesting depth of the largest ZOLC
/// configuration (8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegWrites {
    len: u8,
    items: [(Reg, u32); 8],
}

impl RegWrites {
    /// No writes.
    pub fn new() -> RegWrites {
        RegWrites::default()
    }

    /// Adds a write. Writes apply in insertion order (a later write to the
    /// same register wins).
    ///
    /// # Panics
    ///
    /// Panics if more than 8 writes are added.
    pub fn push(&mut self, reg: Reg, value: u32) {
        assert!(
            (self.len as usize) < self.items.len(),
            "too many rider writes"
        );
        self.items[self.len as usize] = (reg, value);
        self.len += 1;
    }

    /// Drops the latest write to `reg` and appends `(reg, value)`: for a
    /// write that supersedes an earlier one to the same register, so the
    /// capacity in use does not grow. Every register's final value is
    /// what pushing the write would give. Pushes when no write to `reg`
    /// is present.
    pub fn supersede(&mut self, reg: Reg, value: u32) {
        let n = self.len as usize;
        match self.items[..n].iter().rposition(|(r, _)| *r == reg) {
            Some(i) => {
                self.items.copy_within(i + 1..n, i);
                self.items[n - 1] = (reg, value);
            }
            None => self.push(reg, value),
        }
    }

    /// Number of writes.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether there are no writes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the writes in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Reg, u32)> + '_ {
        self.items[..self.len as usize].iter().copied()
    }

    /// The value written to `r`, if any (last write wins).
    pub fn value_for(&self, r: Reg) -> Option<u32> {
        self.items[..self.len as usize]
            .iter()
            .rev()
            .find(|(reg, _)| *reg == r)
            .map(|(_, v)| *v)
    }
}

/// What the engine decided at instruction fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FetchDecision {
    /// Override for the *next* fetch address (instead of `pc + 4`).
    ///
    /// This is the zero-overhead redirect: it costs no bubble because it is
    /// known combinationally while the current instruction is fetched.
    pub redirect: Option<u32>,
    /// Register writes attached to the fetched instruction (the index
    /// calculation unit's dedicated register-file port). The writes commit
    /// when the instruction retires and are forwardable from then on; they
    /// die with the instruction if the instruction is squashed.
    pub index_writes: RegWrites,
}

impl FetchDecision {
    /// The default decision: fall through, no register writes.
    pub fn none() -> FetchDecision {
        FetchDecision::default()
    }
}

/// What happened when an instruction retired in EX.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecEvent {
    /// An ordinary instruction (or an untaken branch's fall-through side
    /// effect already folded in).
    Plain,
    /// A control-flow instruction that redirected the PC to `target`.
    Taken {
        /// Byte address execution continues at.
        target: u32,
    },
    /// A conditional branch that fell through.
    NotTaken,
}

/// A loop controller attached to the pipeline.
///
/// All hooks have no-op defaults so simple engines only override what
/// they need; the conservative queries default to "not passive" and
/// "hooks at every pc" (see the module docs). [`NullEngine`] overrides
/// only those two queries and models the plain `XRdefault`/`XRhrdwil`
/// cores (which have no loop controller).
pub trait LoopEngine {
    /// Observe the fetch of the instruction at `pc`; optionally redirect
    /// the next fetch and/or attach an index-register write.
    fn on_fetch(&mut self, pc: u32) -> FetchDecision {
        let _ = pc;
        FetchDecision::none()
    }

    /// Observe an instruction retiring in EX (no longer squashable).
    fn on_execute(&mut self, pc: u32, event: ExecEvent) {
        let _ = (pc, event);
    }

    /// Execute a `zwr` table write (value already read from the register
    /// file with normal forwarding).
    fn exec_zwr(&mut self, region: ZolcRegion, index: u8, field: u8, value: u32) {
        let _ = (region, index, field, value);
    }

    /// Execute a `zctl` control operation. The pipeline issues a
    /// context-synchronizing flush after it, so state changes become
    /// visible to the very next fetch.
    fn exec_zctl(&mut self, op: ZolcCtl) {
        let _ = op;
    }

    /// A pipeline flush occurred: any speculative fetch-time state must be
    /// rolled back to the architectural state.
    fn on_flush(&mut self) {}

    /// Whether every hook of this engine is a no-op.
    ///
    /// A passive engine never redirects, never attaches index writes and
    /// keeps no state, so executors may skip its hooks entirely on hot
    /// paths (the functional and nest tiers do). Defaults to `false`;
    /// only return `true` when *all* hooks are behaviorally no-ops.
    fn is_passive(&self) -> bool {
        false
    }

    /// The static set of pcs where `on_fetch`/`on_execute` may act (see
    /// the module docs for the superset contract); `None`, the default,
    /// means every pc.
    ///
    /// Executors re-read it only after `exec_zwr`/`exec_zctl`, so it may
    /// change only there. Because the nest tier runs the instructions
    /// between footprint pcs without calling any hook, an engine that
    /// returns `Some` must also keep `on_flush` a no-op under strict
    /// `on_fetch`/`on_execute` alternation (the functional schedule,
    /// where speculative and architectural state never diverge).
    fn hook_pcs(&self) -> Option<&[u32]> {
        None
    }
}

/// An executor's dense view of an engine's [`LoopEngine::hook_pcs`]:
/// one flag per text instruction, rebuilt only when the set changes.
#[derive(Debug, Default)]
pub(crate) struct HookMap {
    /// The set last read from the engine (`None` = every pc).
    set: Option<Vec<u32>>,
    /// Per instruction index: whether the hooks must run there.
    bits: Vec<bool>,
    /// The text indices flagged in `bits`, ascending (empty for `None`).
    indices: Vec<u32>,
    /// Bumped on every rebuild, so dependants can tell the set changed.
    epoch: u64,
}

impl HookMap {
    /// Re-reads `engine`'s footprint for a text of `len` instructions,
    /// rebuilding the flags only when the set (or `len`) changed.
    pub(crate) fn refresh(&mut self, engine: &dyn LoopEngine, len: usize) {
        let pcs = engine.hook_pcs();
        if self.bits.len() == len && pcs == self.set.as_deref() {
            return;
        }
        self.set = pcs.map(<[u32]>::to_vec);
        self.bits.clear();
        self.bits.resize(len, pcs.is_none());
        self.indices.clear();
        for &pc in pcs.unwrap_or_default() {
            let ix = pc.wrapping_sub(TEXT_BASE) / 4;
            if pc.is_multiple_of(4) && (ix as usize) < len && !self.bits[ix as usize] {
                self.bits[ix as usize] = true;
                self.indices.push(ix);
            }
        }
        self.indices.sort_unstable();
        self.epoch += 1;
    }

    /// Whether the hooks must run at instruction index `ix` (which must
    /// be in text, and the map refreshed for it).
    #[inline]
    pub(crate) fn at(&self, ix: usize) -> bool {
        self.bits[ix]
    }

    /// Whether the footprint is every pc (`hook_pcs` returned `None`).
    pub(crate) fn is_all(&self) -> bool {
        self.set.is_none()
    }

    /// The per-instruction flags.
    pub(crate) fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// The flagged text indices, ascending.
    pub(crate) fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The rebuild counter (0 until the first refresh).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// The engine of a core without any loop controller.
///
/// ZOLC instructions executed against it are ignored (our code generators
/// never emit them for the baseline configurations).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullEngine;

impl LoopEngine for NullEngine {
    fn is_passive(&self) -> bool {
        true
    }

    fn hook_pcs(&self) -> Option<&[u32]> {
        Some(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_engine_never_redirects() {
        let mut e = NullEngine;
        assert_eq!(e.on_fetch(0x100), FetchDecision::none());
        e.on_execute(0x100, ExecEvent::Plain);
        e.on_flush();
        e.exec_zctl(ZolcCtl::Reset);
        e.exec_zwr(ZolcRegion::Loop, 0, 0, 7);
    }

    #[test]
    fn only_null_engine_is_passive() {
        assert!(NullEngine.is_passive());
        struct Custom;
        impl LoopEngine for Custom {}
        assert!(!Custom.is_passive());
    }

    #[test]
    fn supersede_keeps_final_values_and_capacity() {
        let (a, b) = (Reg::new(4).unwrap(), Reg::new(5).unwrap());
        let mut w = RegWrites::new();
        w.push(a, 1);
        w.push(b, 2);
        w.supersede(a, 3);
        assert_eq!(w.iter().collect::<Vec<_>>(), [(b, 2), (a, 3)]);
        w.supersede(Reg::new(6).unwrap(), 7);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn hook_map_tracks_the_footprint() {
        struct Fp(Option<Vec<u32>>);
        impl LoopEngine for Fp {
            fn hook_pcs(&self) -> Option<&[u32]> {
                self.0.as_deref()
            }
        }
        let mut m = HookMap::default();
        assert_eq!(m.epoch(), 0);
        m.refresh(&Fp(None), 4);
        assert!(m.is_all() && (0..4).all(|i| m.at(i)));
        // Misaligned and out-of-text pcs are dropped; duplicates collapse.
        let e = Fp(Some(vec![
            TEXT_BASE + 8,
            TEXT_BASE + 2,
            TEXT_BASE + 8,
            TEXT_BASE + 64,
        ]));
        m.refresh(&e, 4);
        assert_eq!(m.epoch(), 2);
        assert_eq!(m.indices(), &[2]);
        assert_eq!(m.bits(), &[false, false, true, false]);
        // An unchanged set does not rebuild.
        m.refresh(&e, 4);
        assert_eq!(m.epoch(), 2);
        m.refresh(&NullEngine, 4);
        assert!(!m.is_all() && m.indices().is_empty() && m.epoch() == 3);
    }

    #[test]
    fn fetch_decision_default_is_empty() {
        let d = FetchDecision::none();
        assert!(d.redirect.is_none());
        assert!(d.index_writes.is_empty());
    }
}
