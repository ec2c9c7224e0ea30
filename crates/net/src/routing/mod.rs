//! Routing algorithms over the priced network.
//!
//! * [`dijkstra`] — min-*cost* (price) paths, the paper's "minimum cost
//!   path" primitive used by MBBE, RANV, MINV and the final hop of BBE.
//! * [`bfs`] — breadth-first hop distances, behind the hop diameter of
//!   the structural network metrics.
//! * [`ksp`] — Yen's k-shortest (cheapest) loopless paths, used by the
//!   exact solver and by path enumeration diagnostics.
//! * [`steiner`] — Takahashi–Matsuyama multicast trees, powering the
//!   `MBBE-ST` extension solver's shared inter-layer routing.
//! * [`disjoint`] — Bhandari link-disjoint path pairs, powering the
//!   1+1 protection extension in `dagsfc-core`.
//! * [`csp`] — delay-constrained cheapest paths: the LARAC Lagrangian
//!   relaxation plus an exact pareto-label reference, powering the
//!   QoS-constrained oracle mode.
//!
//! Every weighted search — price, delay or LARAC's `price + λ·delay` —
//! runs one kernel: the binary-heap Dijkstra loop in the private `heap`
//! module, which
//! pops the cheapest distance first and the smaller node id on ties.

pub mod bfs;
pub mod csp;
pub mod dijkstra;
pub mod disjoint;
pub(crate) mod heap;
pub mod ksp;
pub mod scratch;
pub mod steiner;

pub use bfs::hop_distances;
pub use csp::{
    constrained_min_cost_path, constrained_min_cost_path_exact, constrained_path,
    constrained_path_in, ConstrainedPath,
};
pub use dijkstra::{
    min_cost_path, min_cost_path_in, settle_within_in, ArcWeight, LockedTree, ShortestPathTree,
};
pub use disjoint::{disjoint_path_pair, DisjointPair};
pub use ksp::k_shortest_paths;
pub use scratch::{with_thread_scratch, RoutingScratch};
pub use steiner::{multicast_tree, MulticastTree};

use crate::ids::LinkId;
use crate::state::NetworkState;

/// Predicate deciding whether a link may be used by a routing query.
///
/// Blanket-implemented for closures; [`RateFilter`] adapts a residual
/// [`NetworkState`] and a flow rate into a filter.
pub trait LinkFilter {
    /// Whether `link` is usable.
    fn allows(&self, link: LinkId) -> bool;
}

impl<F: Fn(LinkId) -> bool> LinkFilter for F {
    #[inline]
    fn allows(&self, link: LinkId) -> bool {
        self(link)
    }
}

/// Allows every link.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFilter;

impl LinkFilter for NoFilter {
    #[inline]
    fn allows(&self, _link: LinkId) -> bool {
        true
    }
}

/// Allows links whose residual bandwidth fits a flow of `rate`.
#[derive(Clone, Copy)]
pub struct RateFilter<'a, 's> {
    state: &'s NetworkState<'a>,
    rate: f64,
}

impl<'a, 's> RateFilter<'a, 's> {
    /// Builds a filter admitting links with at least `rate` residual
    /// bandwidth in `state`.
    pub fn new(state: &'s NetworkState<'a>, rate: f64) -> Self {
        RateFilter { state, rate }
    }
}

impl LinkFilter for RateFilter<'_, '_> {
    #[inline]
    fn allows(&self, link: LinkId) -> bool {
        self.state.link_fits(link, self.rate)
    }
}
