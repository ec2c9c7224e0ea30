//! Reusable, epoch-tagged scratch buffers for routing searches.
//!
//! Every Dijkstra/BFS call used to allocate fresh `dist`/`prev`/
//! `visited` vectors and a fresh priority queue, then drop them —
//! millions of short-lived allocations per sweep. [`RoutingScratch`]
//! keeps those buffers alive and *epoch-stamps* entries instead of
//! clearing them: a slot's `dist`/`prev` value is valid only when its
//! stamp equals the current search epoch, so starting a new search is a
//! single counter bump plus queue `clear()`s — no zeroing, no
//! allocation once the buffers have grown to the network size.
//!
//! One scratch hosts the working state of both search families: the
//! weighted Dijkstra kernel's distances, predecessors and binary heap
//! ([`super::heap`]), and an independent BFS epoch so breadth-first
//! rings may interleave with weighted searches.
//!
//! Long-lived owners ([`crate::OracleSession`], the oracle's tree
//! cache, Yen's spur loop, Steiner rounds) hold an explicit scratch and
//! pass it to the `*_in` routing entry points. Legacy entry points
//! without a scratch parameter borrow a thread-local instance via
//! [`with_thread_scratch`], falling back to a fresh scratch if the
//! thread-local is already borrowed (e.g. a filter closure that
//! recursively routes), so no code path can panic on a double borrow.

use super::heap::MinHeap;
use crate::ids::{LinkId, NodeId};
use crate::path::Path;
use std::cell::RefCell;

/// Sentinel predecessor meaning "search source / no predecessor".
const NO_PREV: u32 = u32::MAX;

/// Reusable search state for the routing kernels.
///
/// See the [module docs](self) for the epoch-stamping scheme. A single
/// scratch serves any number of sequential searches over networks of
/// any size; buffers grow monotonically to the largest network seen.
#[derive(Debug, Default)]
pub struct RoutingScratch {
    /// Current search epoch; `stamp[v] == epoch` marks slot validity.
    epoch: u32,
    stamp: Vec<u32>,
    settled: Vec<u32>,
    dist: Vec<f64>,
    /// `(prev_node, via_link)`; `prev_node == NO_PREV` marks the source.
    prev: Vec<(u32, u32)>,
    pub(crate) heap: MinHeap,
    /// Independent epoch/stamp pair for breadth-first searches, so a
    /// BFS may interleave with Dijkstra runs on the same scratch.
    bfs_epoch: u32,
    bfs_stamp: Vec<u32>,
    bfs_hops: Vec<u32>,
    pub(crate) queue: std::collections::VecDeque<NodeId>,
}

impl RoutingScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new weighted search over `n` nodes: bumps the epoch,
    /// grows buffers if needed, clears the heap. O(1) amortized.
    pub(crate) fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.settled.resize(n, 0);
            self.dist.resize(n, f64::INFINITY);
            self.prev.resize(n, (NO_PREV, NO_PREV));
        }
        if self.epoch == u32::MAX {
            // Epoch wrap: stale stamps could alias, so hard-reset once
            // every 2^32 searches.
            self.stamp.fill(0);
            self.settled.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.heap.clear();
    }

    /// Tentative distance of `v` in the current search.
    #[inline]
    pub(crate) fn dist(&self, v: NodeId) -> f64 {
        if self.stamp[v.index()] == self.epoch {
            self.dist[v.index()]
        } else {
            f64::INFINITY
        }
    }

    /// Records a relaxation: `v` reached at `d` via `prev`.
    #[inline]
    pub(crate) fn relax(&mut self, v: NodeId, d: f64, prev: Option<(NodeId, LinkId)>) {
        let i = v.index();
        self.stamp[i] = self.epoch;
        self.dist[i] = d;
        self.prev[i] = match prev {
            Some((p, l)) => (p.0, l.0),
            None => (NO_PREV, NO_PREV),
        };
    }

    /// Whether `v` is settled in the current search.
    #[inline]
    pub(crate) fn is_settled(&self, v: NodeId) -> bool {
        self.settled[v.index()] == self.epoch
    }

    /// Marks `v` settled in the current search.
    #[inline]
    pub(crate) fn settle(&mut self, v: NodeId) {
        self.settled[v.index()] = self.epoch;
    }

    /// Predecessor `(node, link)` of `v`, `None` at the source or when
    /// `v` was not reached this search.
    #[inline]
    pub(crate) fn prev_of(&self, v: NodeId) -> Option<(NodeId, LinkId)> {
        if self.stamp[v.index()] != self.epoch {
            return None;
        }
        let (p, l) = self.prev[v.index()];
        (p != NO_PREV).then_some((NodeId(p), LinkId(l)))
    }

    /// Extracts the found path `from -> to` from the predecessor chain
    /// of the current search, or `None` when `to` was not reached.
    pub(crate) fn extract_path(&self, from: NodeId, to: NodeId) -> Option<Path> {
        if !self.dist(to).is_finite() {
            return None;
        }
        let mut nodes = vec![to];
        let mut links = Vec::new();
        let mut cur = to;
        while let Some((p, l)) = self.prev_of(cur) {
            nodes.push(p);
            links.push(l);
            cur = p;
        }
        debug_assert_eq!(cur, from);
        nodes.reverse();
        links.reverse();
        // Contiguity holds by construction of the predecessor chain.
        Some(Path::from_parts_unchecked(nodes, links))
    }

    /// Starts a new breadth-first search over `n` nodes.
    pub(crate) fn bfs_begin(&mut self, n: usize) {
        if self.bfs_stamp.len() < n {
            self.bfs_stamp.resize(n, 0);
            self.bfs_hops.resize(n, 0);
        }
        if self.bfs_epoch == u32::MAX {
            self.bfs_stamp.fill(0);
            self.bfs_epoch = 0;
        }
        self.bfs_epoch += 1;
        self.queue.clear();
    }

    /// Whether `v` has been visited in the current BFS.
    #[inline]
    pub(crate) fn bfs_visited(&self, v: NodeId) -> bool {
        self.bfs_stamp[v.index()] == self.bfs_epoch
    }

    /// Marks `v` visited at `hops` in the current BFS.
    #[inline]
    pub(crate) fn bfs_visit(&mut self, v: NodeId, hops: u32) {
        self.bfs_stamp[v.index()] = self.bfs_epoch;
        self.bfs_hops[v.index()] = hops;
    }

    /// Hop count of `v` in the current BFS, if visited.
    #[inline]
    pub(crate) fn bfs_hops(&self, v: NodeId) -> Option<u32> {
        self.bfs_visited(v).then(|| self.bfs_hops[v.index()])
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<RoutingScratch> = RefCell::new(RoutingScratch::new());
}

/// Runs `f` with the calling thread's shared [`RoutingScratch`].
///
/// Legacy scratch-less routing entry points route through here so
/// steady-state searches stay allocation-free without API churn. If the
/// thread-local is already borrowed (a filter that routes recursively),
/// `f` gets a fresh scratch instead of panicking.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut RoutingScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut RoutingScratch::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_invalidates_previous_search() {
        let mut s = RoutingScratch::new();
        s.begin(4);
        s.relax(NodeId(2), 1.5, Some((NodeId(0), LinkId(7))));
        s.settle(NodeId(2));
        assert_eq!(s.dist(NodeId(2)), 1.5);
        assert!(s.is_settled(NodeId(2)));
        assert_eq!(s.prev_of(NodeId(2)), Some((NodeId(0), LinkId(7))));

        s.begin(4);
        assert!(s.dist(NodeId(2)).is_infinite());
        assert!(!s.is_settled(NodeId(2)));
        assert_eq!(s.prev_of(NodeId(2)), None);
    }

    #[test]
    fn grows_to_larger_networks() {
        let mut s = RoutingScratch::new();
        s.begin(2);
        s.relax(NodeId(1), 3.0, None);
        s.begin(10);
        assert!(s.dist(NodeId(9)).is_infinite());
        s.relax(NodeId(9), 0.5, None);
        assert_eq!(s.dist(NodeId(9)), 0.5);
    }

    #[test]
    fn bfs_epochs_independent_of_dijkstra() {
        let mut s = RoutingScratch::new();
        s.begin(4);
        s.relax(NodeId(1), 1.0, None);
        s.bfs_begin(4);
        s.bfs_visit(NodeId(1), 2);
        assert_eq!(s.bfs_hops(NodeId(1)), Some(2));
        assert!(!s.bfs_visited(NodeId(3)));
        // The weighted-search view is untouched by the BFS.
        assert_eq!(s.dist(NodeId(1)), 1.0);
    }

    #[test]
    fn nested_thread_scratch_does_not_panic() {
        with_thread_scratch(|outer| {
            outer.begin(4);
            outer.relax(NodeId(0), 0.0, None);
            with_thread_scratch(|inner| {
                inner.begin(8);
                inner.relax(NodeId(7), 1.0, None);
                assert_eq!(inner.dist(NodeId(7)), 1.0);
            });
            // Outer borrow still valid and unclobbered.
            assert_eq!(outer.dist(NodeId(0)), 0.0);
        });
    }
}
