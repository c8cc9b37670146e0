//! Natural-loop detection and the loop nesting forest.
//!
//! A *natural loop* is induced by a back edge `latch -> header` where the
//! header dominates the latch; its body is every block that can reach the
//! latch without passing through the header. Loops sharing a header are
//! merged. Edges into a loop body that bypass the header make the loop
//! *multiple-entry* (the structure ZOLCfull's entry records exist for).

use crate::dom::Dominators;
use crate::graph::Cfg;

/// One natural loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// Loop id (index into [`LoopForest::loops`]).
    pub id: usize,
    /// Header block.
    pub header: usize,
    /// Latch blocks (sources of back edges into the header).
    pub latches: Vec<usize>,
    /// All body blocks including header and latches (sorted).
    pub body: Vec<usize>,
    /// Immediately enclosing loop, if any.
    pub parent: Option<usize>,
    /// Nesting depth (outermost = 1).
    pub depth: usize,
}

impl NaturalLoop {
    /// Whether `block` belongs to the loop body.
    pub fn contains(&self, block: usize) -> bool {
        self.body.binary_search(&block).is_ok()
    }
}

/// A cyclic region with more than one entry block.
///
/// Multiple-entry loops are *irreducible*: no header dominates the whole
/// cycle, so natural-loop analysis cannot represent them. They are the
/// structures ZOLCfull's multiple-entry records exist for; software
/// producing them needs either those records or restructuring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrreducibleRegion {
    /// The blocks of the strongly connected component (sorted).
    pub blocks: Vec<usize>,
    /// Blocks with predecessors outside the region (the entries).
    pub entries: Vec<usize>,
}

/// The loop nesting forest of a CFG.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LoopForest {
    /// All natural loops, outermost-first within each nest.
    pub loops: Vec<NaturalLoop>,
    /// Multiple-entry (irreducible) cyclic regions, detected separately.
    pub irreducible: Vec<IrreducibleRegion>,
}

impl LoopForest {
    /// Detects natural loops and their nesting.
    ///
    /// # Examples
    ///
    /// ```
    /// use zolc_cfg::{Cfg, Dominators, LoopForest};
    ///
    /// let program = zolc_isa::assemble("
    ///     li   r1, 3
    /// oth: li   r2, 4
    /// inh: addi r2, r2, -1
    ///     bne  r2, r0, inh
    ///     addi r1, r1, -1
    ///     bne  r1, r0, oth
    ///     halt
    /// ").unwrap();
    /// let cfg = Cfg::build(&program);
    /// let dom = Dominators::compute(&cfg);
    /// let forest = LoopForest::analyze(&cfg, &dom);
    /// assert_eq!(forest.len(), 2);
    /// assert_eq!(forest.max_depth(), 2);
    /// let inner = forest.loops.iter().find(|l| l.depth == 2).unwrap();
    /// assert!(inner.parent.is_some());
    /// assert!(!forest.has_irreducible());
    /// ```
    pub fn analyze(cfg: &Cfg, dom: &Dominators) -> LoopForest {
        LoopForest {
            irreducible: find_irreducible(cfg),
            ..LoopForest::natural(cfg, dom)
        }
    }

    /// The natural loops and their nesting alone, without the
    /// irreducible-region scan (`irreducible` is left empty).
    pub(crate) fn natural(cfg: &Cfg, dom: &Dominators) -> LoopForest {
        // collect back edges per header
        let mut per_header: Vec<(usize, Vec<usize>)> = Vec::with_capacity(cfg.blocks().len());
        for b in cfg.blocks() {
            for &s in cfg.succs(b.id) {
                if dom.is_reachable(b.id) && dom.dominates(s, b.id) {
                    match per_header.iter_mut().find(|(h, _)| *h == s) {
                        Some((_, latches)) => latches.push(b.id),
                        None => per_header.push((s, vec![b.id])),
                    }
                }
            }
        }

        // natural-loop body: reverse reachability from latches up to
        // header, marked in one per-block array shared by every loop
        let n = cfg.blocks().len();
        let mut in_body = vec![false; n];
        let mut stack: Vec<usize> = Vec::with_capacity(n);
        let mut loops = Vec::with_capacity(per_header.len());
        for (header, latches) in per_header {
            in_body.fill(false);
            in_body[header] = true;
            let mut size = 1;
            stack.extend_from_slice(&latches);
            while let Some(b) = stack.pop() {
                if !std::mem::replace(&mut in_body[b], true) {
                    size += 1;
                    stack.extend_from_slice(cfg.preds(b));
                }
            }
            let mut body = Vec::with_capacity(size);
            body.extend((0..n).filter(|&b| in_body[b]));
            loops.push(NaturalLoop {
                id: 0,
                header,
                latches,
                body,
                parent: None,
                depth: 1,
            });
        }

        // nesting: sort by body size descending so parents precede children
        loops.sort_by_key(|l| std::cmp::Reverse(l.body.len()));
        for (k, l) in loops.iter_mut().enumerate() {
            l.id = k;
        }
        for k in 0..loops.len() {
            // the smallest strictly-enclosing loop
            let mut parent: Option<usize> = None;
            for j in 0..k {
                if loops[j].contains(loops[k].header)
                    && loops[j].header != loops[k].header
                    && loops[k].body.iter().all(|b| loops[j].contains(*b))
                {
                    parent = Some(j);
                }
            }
            loops[k].parent = parent;
            loops[k].depth = parent.map_or(1, |p| loops[p].depth + 1);
        }
        LoopForest {
            loops,
            irreducible: Vec::new(),
        }
    }

    /// Number of loops.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// Whether no loops were found.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// Maximum nesting depth.
    pub fn max_depth(&self) -> usize {
        self.loops.iter().map(|l| l.depth).max().unwrap_or(0)
    }

    /// The innermost loop containing `block`, if any.
    pub fn innermost_containing(&self, block: usize) -> Option<&NaturalLoop> {
        self.loops
            .iter()
            .filter(|l| l.contains(block))
            .max_by_key(|l| l.depth)
    }

    /// Whether the CFG contains multiple-entry (irreducible) cycles.
    pub fn has_irreducible(&self) -> bool {
        !self.irreducible.is_empty()
    }
}

/// Finds cyclic strongly connected components with more than one entry
/// block (Tarjan's algorithm, iterative). Each component is examined
/// where it is popped, so only multiple-entry regions allocate.
fn find_irreducible(cfg: &Cfg) -> Vec<IrreducibleRegion> {
    let n = cfg.blocks().len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut regions = Vec::new();
    let mut counter = 0usize;

    // iterative Tarjan
    #[derive(Clone, Copy)]
    struct Frame {
        v: usize,
        child: usize,
    }
    let mut call: Vec<Frame> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        call.push(Frame { v: root, child: 0 });
        index[root] = counter;
        low[root] = counter;
        counter += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(frame) = call.last_mut() {
            let v = frame.v;
            if let Some(&w) = cfg.succs(v).get(frame.child) {
                frame.child += 1;
                if index[w] == usize::MAX {
                    index[w] = counter;
                    low[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push(Frame { v: w, child: 0 });
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    // the component is the stack above `v`, inclusive
                    let at = stack.iter().rposition(|&w| w == v).expect("tarjan stack");
                    let scc = &stack[at..];
                    for &w in scc {
                        on_stack[w] = false;
                    }
                    let cyclic = scc.len() > 1 || cfg.succs(v).contains(&v);
                    // entries: members with a predecessor outside
                    let entries = || {
                        scc.iter()
                            .copied()
                            .filter(|&b| cfg.preds(b).iter().any(|p| !scc.contains(p)))
                    };
                    if cyclic && entries().nth(1).is_some() {
                        let mut members = scc.to_vec();
                        members.sort_unstable();
                        let mut entries: Vec<usize> = entries().collect();
                        entries.sort_unstable();
                        regions.push(IrreducibleRegion {
                            blocks: members,
                            entries,
                        });
                    }
                    stack.truncate(at);
                }
                let l = low[v];
                call.pop();
                if let Some(parent) = call.last() {
                    low[parent.v] = low[parent.v].min(l);
                }
            }
        }
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;
    use zolc_isa::assemble;

    fn forest(src: &str) -> (Cfg, LoopForest) {
        let cfg = Cfg::build(&assemble(src).unwrap());
        let dom = Dominators::compute(&cfg);
        let f = LoopForest::analyze(&cfg, &dom);
        (cfg, f)
    }

    #[test]
    fn single_loop_detected() {
        let (cfg, f) = forest(
            "
            li   r1, 5
      top:  addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
        );
        assert_eq!(f.len(), 1);
        let l = &f.loops[0];
        assert_eq!(l.header, cfg.block_at(4).unwrap().id);
        assert_eq!(l.depth, 1);
        assert_eq!(l.latches, vec![l.header]); // self-loop block
    }

    #[test]
    fn nested_loops_have_depths() {
        let (_, f) = forest(
            "
            li   r1, 3
      oth:  li   r2, 4
      inh:  addi r2, r2, -1
            bne  r2, r0, inh
            addi r1, r1, -1
            bne  r1, r0, oth
            halt
        ",
        );
        assert_eq!(f.len(), 2);
        assert_eq!(f.max_depth(), 2);
        let outer = f.loops.iter().find(|l| l.depth == 1).unwrap();
        let inner = f.loops.iter().find(|l| l.depth == 2).unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.body.len() > inner.body.len());
    }

    #[test]
    fn loop_sequence_not_nested() {
        let (_, f) = forest(
            "
            li   r1, 3
      a:    addi r1, r1, -1
            bne  r1, r0, a
            li   r2, 3
      b:    addi r2, r2, -1
            bne  r2, r0, b
            halt
        ",
        );
        assert_eq!(f.len(), 2);
        assert_eq!(f.max_depth(), 1);
        assert!(f.loops.iter().all(|l| l.parent.is_none()));
    }

    #[test]
    fn multi_entry_cycle_detected_as_irreducible() {
        // a jump into the middle of the cycle, bypassing `top`: no header
        // dominates the cycle, so no natural loop exists; the SCC has two
        // entry blocks
        let (_, f) = forest(
            "
            beq  r3, r0, side
      top:  addi r1, r1, -1
      mid:  addi r2, r2, 1
            bne  r1, r0, top
            halt
      side: j    mid
        ",
        );
        assert!(f.loops.is_empty());
        assert!(f.has_irreducible());
        assert_eq!(f.irreducible.len(), 1);
        assert_eq!(f.irreducible[0].entries.len(), 2);
    }

    #[test]
    fn reducible_loops_are_not_flagged_irreducible() {
        let (_, f) = forest(
            "
            li   r1, 3
      oth:  li   r2, 4
      inh:  addi r2, r2, -1
            bne  r2, r0, inh
            addi r1, r1, -1
            bne  r1, r0, oth
            halt
        ",
        );
        assert!(!f.has_irreducible());
    }

    #[test]
    fn innermost_containing_picks_deepest() {
        let (cfg, f) = forest(
            "
            li   r1, 3
      oth:  li   r2, 4
      inh:  addi r2, r2, -1
            bne  r2, r0, inh
            addi r1, r1, -1
            bne  r1, r0, oth
            halt
        ",
        );
        let inner_header_block = cfg.block_at(8).unwrap().id;
        let l = f.innermost_containing(inner_header_block).unwrap();
        assert_eq!(l.depth, 2);
    }

    #[test]
    fn no_loops_in_straight_line() {
        let (_, f) = forest("nop\nnop\nhalt\n");
        assert!(f.is_empty());
        assert_eq!(f.max_depth(), 0);
    }
}
