//! Fixed-point dataflow over the workspace call graph.
//!
//! Two propagation shapes cover the reachability rules:
//!
//! * [`reach`] — multi-source BFS over *reverse* edges: given functions
//!   that locally contain a hazard site, compute for every function the
//!   nearest reachable site, with enough breadcrumbs to reconstruct the
//!   shortest witness call path (entry → … → site). Panic-reach reports
//!   this at public planner entry points.
//! * [`raw_producers`] — the same BFS gated at every hop by "returns
//!   `f64`": a function launders units if it returns raw `f64` and either
//!   unwraps a unit itself or calls another launderer. Unit-flow flags
//!   un-wrapped calls to launderers outside the perf-critical modules.
//!
//! Everything is deterministic: sources are seeded in node-index order,
//! the BFS queue is FIFO, and the first writer to a node wins, so witness
//! paths are stable across runs and platforms (the `--json` goldens rely
//! on this).

use crate::callgraph::CallGraph;

/// Per-node reachability record.
#[derive(Clone, Debug)]
pub struct ReachInfo<P: Clone> {
    /// Call-chain hops from this node to the source site (0 = the site
    /// is local).
    pub dist: usize,
    /// Next node on the shortest path toward the source (`None` when the
    /// site is local to this node).
    pub next: Option<usize>,
    /// Node that contains the source site.
    pub source: usize,
    /// Rule-specific payload describing the site.
    pub payload: P,
}

/// Multi-source BFS over reverse call edges. `sources` seeds nodes that
/// locally contain a hazard; the result gives every node its nearest
/// reachable source (ties broken by seeding order, then FIFO order).
pub fn reach<P: Clone>(g: &CallGraph, sources: &[(usize, P)]) -> Vec<Option<ReachInfo<P>>> {
    let mut out: Vec<Option<ReachInfo<P>>> = vec![None; g.nodes.len()];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for (n, payload) in sources {
        if out[*n].is_none() {
            out[*n] = Some(ReachInfo {
                dist: 0,
                next: None,
                source: *n,
                payload: payload.clone(),
            });
            queue.push_back(*n);
        }
    }
    while let Some(n) = queue.pop_front() {
        let Some(info) = out[n].clone() else { continue };
        for &caller in &g.callers[n] {
            if out[caller].is_none() {
                out[caller] = Some(ReachInfo {
                    dist: info.dist + 1,
                    next: Some(n),
                    source: info.source,
                    payload: info.payload.clone(),
                });
                queue.push_back(caller);
            }
        }
    }
    out
}

/// Reconstructs the witness call path from `from` to the source, as node
/// indices `[from, …, source]`. Capped defensively; the BFS structure
/// guarantees termination but a cap keeps a future bug from hanging.
pub fn witness_path<P: Clone>(reach: &[Option<ReachInfo<P>>], from: usize) -> Vec<usize> {
    let mut path = vec![from];
    let mut cur = from;
    for _ in 0..reach.len() {
        match reach.get(cur).and_then(|r| r.as_ref()).and_then(|r| r.next) {
            Some(next) => {
                path.push(next);
                cur = next;
            }
            None => break,
        }
    }
    path
}

/// Unit-laundering fixed point: `Some(info)` when the node returns raw
/// `f64` and (transitively) sources it from a `.value()` / `Unit(..).0`
/// escape. `payload` is the line of the originating escape.
pub fn raw_producers(g: &CallGraph) -> Vec<Option<ReachInfo<usize>>> {
    let mut out: Vec<Option<ReachInfo<usize>>> = vec![None; g.nodes.len()];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for (n, node) in g.nodes.iter().enumerate() {
        if node.returns_f64 {
            if let Some(line) = node.unit_escape {
                out[n] = Some(ReachInfo {
                    dist: 0,
                    next: None,
                    source: n,
                    payload: line,
                });
                queue.push_back(n);
            }
        }
    }
    while let Some(n) = queue.pop_front() {
        let Some(info) = out[n].clone() else { continue };
        for &caller in &g.callers[n] {
            // The raw value only keeps flowing if the caller itself
            // hands back bare f64.
            if out[caller].is_none() && g.nodes[caller].returns_f64 {
                out[caller] = Some(ReachInfo {
                    dist: info.dist + 1,
                    next: Some(n),
                    source: info.source,
                    payload: info.payload,
                });
                queue.push_back(caller);
            }
        }
    }
    out
}
