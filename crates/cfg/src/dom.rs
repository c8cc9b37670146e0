//! Dominator analysis (iterative data-flow over the CFG).

use crate::graph::Cfg;

/// Immediate-dominator tree of the reachable part of a [`Cfg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dominators {
    /// `idom[b]` = immediate dominator of block `b` (`idom[entry] = entry`);
    /// `usize::MAX` for unreachable blocks.
    idom: Vec<usize>,
    entry: usize,
}

impl Dominators {
    /// Computes dominators with the classic Cooper–Harvey–Kennedy
    /// iterative algorithm over a reverse-postorder walk.
    pub fn compute(cfg: &Cfg) -> Dominators {
        let n = cfg.blocks().len();
        let entry = cfg.entry();
        // reverse postorder; `rpo_index` doubles as the DFS's seen mark
        // (`usize::MAX` until a block is first reached)
        let mut order = Vec::with_capacity(n);
        let mut rpo_index = vec![usize::MAX; n];
        let mut stack = vec![(entry, 0usize)];
        while let Some((b, ci)) = stack.pop() {
            if ci == 0 {
                if rpo_index[b] != usize::MAX {
                    continue;
                }
                rpo_index[b] = 0;
            }
            if let Some(&s) = cfg.succs(b).get(ci) {
                stack.push((b, ci + 1));
                if rpo_index[s] == usize::MAX {
                    stack.push((s, 0));
                }
            } else {
                order.push(b);
            }
        }
        order.reverse();
        for (k, &b) in order.iter().enumerate() {
            rpo_index[b] = k;
        }

        let mut idom = vec![usize::MAX; n];
        idom[entry] = entry;
        let intersect = |idom: &[usize], rpo: &[usize], mut a: usize, mut b: usize| {
            while a != b {
                while rpo[a] > rpo[b] {
                    a = idom[a];
                }
                while rpo[b] > rpo[a] {
                    b = idom[b];
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in order.iter().skip(1) {
                let mut new_idom = usize::MAX;
                for &p in cfg.preds(b) {
                    if idom[p] == usize::MAX {
                        // Skip `p`: either it is unreachable (its slot
                        // stays MAX forever — e.g. dead code branching
                        // into a live header), or it sits later in RPO
                        // and this first pass has not reached it yet (a
                        // back edge). Skipping is sound because every
                        // reachable non-entry block also has its DFS
                        // tree parent among its predecessors, which RPO
                        // orders (and therefore processes) before `b` —
                        // so `new_idom` never stays MAX for a reachable
                        // block (asserted below).
                        continue;
                    }
                    new_idom = if new_idom == usize::MAX {
                        p
                    } else {
                        intersect(&idom, &rpo_index, new_idom, p)
                    };
                }
                if new_idom != usize::MAX && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }
        debug_assert!(
            order.iter().all(|&b| idom[b] != usize::MAX),
            "fixpoint left a reachable block without an immediate dominator"
        );
        Dominators { idom, entry }
    }

    /// The immediate dominator of `b` (`None` for the entry or
    /// unreachable blocks).
    pub fn idom(&self, b: usize) -> Option<usize> {
        match self.idom.get(b).copied() {
            Some(usize::MAX) => None,
            Some(d) if b == self.entry => {
                debug_assert_eq!(d, self.entry);
                None
            }
            d => d,
        }
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        if self.idom.get(b).copied() == Some(usize::MAX) {
            return false;
        }
        let mut x = b;
        loop {
            if x == a {
                return true;
            }
            if x == self.entry {
                return a == self.entry;
            }
            x = self.idom[x];
        }
    }

    /// Whether `b` is reachable from the entry.
    ///
    /// # Examples
    ///
    /// ```
    /// use zolc_cfg::{Cfg, Dominators};
    ///
    /// let program = zolc_isa::assemble("j end\nnop\nend: halt").unwrap();
    /// let cfg = Cfg::build(&program);
    /// let dom = Dominators::compute(&cfg);
    /// let reachable = (0..cfg.blocks().len()).filter(|&b| dom.is_reachable(b));
    /// assert_eq!(reachable.count(), 2, "the nop block is unreachable");
    /// ```
    pub fn is_reachable(&self, b: usize) -> bool {
        self.idom.get(b).copied() != Some(usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zolc_isa::assemble;

    fn doms(src: &str) -> (Cfg, Dominators) {
        let cfg = Cfg::build(&assemble(src).unwrap());
        let d = Dominators::compute(&cfg);
        (cfg, d)
    }

    #[test]
    fn diamond_dominance() {
        let (cfg, d) = doms(
            "
            beq  r1, r0, else
            nop
            j    join
      else: nop
      join: halt
        ",
        );
        let entry = cfg.entry();
        let join = cfg.block_at(16).unwrap().id;
        // entry dominates everything; neither arm dominates the join
        for b in 0..cfg.blocks().len() {
            assert!(d.dominates(entry, b));
        }
        assert_eq!(d.idom(join), Some(entry));
        assert!(d.dominates(entry, join));
        assert!(!d.dominates(join, entry));
    }

    #[test]
    fn loop_header_dominates_body() {
        let (cfg, d) = doms(
            "
            li   r1, 3
      top:  addi r1, r1, -1
            nop
            bne  r1, r0, top
            halt
        ",
        );
        let header = cfg.block_at(4).unwrap().id;
        let exit = cfg.block_at(16).unwrap().id;
        assert!(d.dominates(header, exit));
        assert_eq!(d.idom(header), Some(cfg.entry()));
    }

    #[test]
    fn unreachable_blocks_have_no_idom() {
        let (cfg, d) = doms(
            "
            j    end
            nop
      end:  halt
        ",
        );
        let nop_block = cfg.block_at(4).unwrap().id;
        assert!(!d.is_reachable(nop_block));
        assert_eq!(d.idom(nop_block), None);
        assert!(!d.dominates(nop_block, cfg.entry()));
    }

    #[test]
    fn entry_has_no_idom() {
        let (cfg, d) = doms("halt\n");
        assert_eq!(d.idom(cfg.entry()), None);
        assert!(d.dominates(cfg.entry(), cfg.entry()));
    }

    #[test]
    fn unreachable_predecessor_of_a_live_header_is_skipped() {
        // `dead` is never executed but still appears among `top`'s CFG
        // predecessors; its idom slot stays MAX through the fixpoint and
        // must be skipped without ever leaving `top` undominated
        let (cfg, d) = doms(
            "
            j     start
      dead: bne   r2, r0, top
     start: li    r1, 3
      top:  addi  r1, r1, -1
            bne   r1, r0, top
            halt
        ",
        );
        let dead = cfg.block_at(4).unwrap().id;
        let top = cfg.block_at(12).unwrap().id;
        assert!(!d.is_reachable(dead));
        assert_eq!(d.idom(dead), None);
        assert!(d.is_reachable(top));
        assert!(d.idom(top).is_some(), "live header must get an idom");
        assert!(d.dominates(cfg.entry(), top));
        assert!(!d.dominates(dead, top));
    }
}
