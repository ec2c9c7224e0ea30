//! Zero-cost-when-disabled solver instrumentation.
//!
//! The BBE search core is generic over an [`Instrument`] sink: with
//! [`NoInstrument`] every recording call is an empty inlined body and
//! `ENABLED` is `false`, so timing code behind `if I::ENABLED` compiles
//! out entirely; with [`Counters`] the same calls accumulate into a
//! [`SolverStats`].

use super::SolverStats;
use std::time::Duration;

/// Sink for fine-grained search counters.
///
/// Every method has a no-op default so implementations record only what
/// they care about. `ENABLED` gates work that is expensive even to
/// *measure* (per-layer `Instant::now()` pairs): search code wraps such
/// probes in `if I::ENABLED { .. }`, which the optimizer removes when
/// the constant is `false`.
pub trait Instrument {
    /// Whether this sink records anything at all.
    const ENABLED: bool;

    /// `n` search-tree nodes were expanded.
    #[inline]
    fn nodes_expanded(&mut self, n: usize) {
        let _ = n;
    }

    /// `n` forward-search-tree placements were examined.
    #[inline]
    fn fst_nodes(&mut self, n: usize) {
        let _ = n;
    }

    /// `n` backward-search-tree placements were examined.
    #[inline]
    fn bst_nodes(&mut self, n: usize) {
        let _ = n;
    }

    /// `n` candidates were produced (before truncation).
    #[inline]
    fn candidates_generated(&mut self, n: usize) {
        let _ = n;
    }

    /// `n` candidates were discarded by a truncation point.
    #[inline]
    fn candidates_pruned(&mut self, n: usize) {
        let _ = n;
    }

    /// `n` candidates were rejected for blowing the delay budget
    /// (early tree pruning or the finals SLA filter) — the deadline
    /// half of the deadline-vs-capacity rejection split.
    #[inline]
    fn candidates_delay_rejected(&mut self, n: usize) {
        let _ = n;
    }

    /// `n` candidates were dropped from the search because their
    /// lineage already overloads a link or VNF instance of the residual.
    #[inline]
    fn candidates_overloaded(&mut self, n: usize) {
        let _ = n;
    }

    /// `n` delay-bounded final paths were searched (LARAC repairs of
    /// leaves whose min-cost final path blew the delay budget).
    #[inline]
    fn delay_repairs(&mut self, n: usize) {
        let _ = n;
    }

    /// One SFC layer finished after `wall` of work.
    #[inline]
    fn layer_wall(&mut self, wall: Duration) {
        let _ = wall;
    }

    /// Path-cache traffic: `hits` served from cache, `misses` computed.
    #[inline]
    fn cache(&mut self, hits: u64, misses: u64) {
        let _ = (hits, misses);
    }
}

/// The disabled sink: all methods no-ops, `ENABLED = false`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoInstrument;

impl Instrument for NoInstrument {
    const ENABLED: bool = false;
}

/// The recording sink: accumulates every event into [`SolverStats`].
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// The accumulated statistics.
    pub stats: SolverStats,
}

impl Instrument for Counters {
    const ENABLED: bool = true;

    #[inline]
    fn nodes_expanded(&mut self, n: usize) {
        self.stats.nodes_expanded += n;
    }

    #[inline]
    fn fst_nodes(&mut self, n: usize) {
        self.stats.fst_nodes += n;
    }

    #[inline]
    fn bst_nodes(&mut self, n: usize) {
        self.stats.bst_nodes += n;
    }

    #[inline]
    fn candidates_generated(&mut self, n: usize) {
        self.stats.candidates_generated += n;
    }

    #[inline]
    fn candidates_pruned(&mut self, n: usize) {
        self.stats.candidates_pruned += n;
    }

    #[inline]
    fn candidates_delay_rejected(&mut self, n: usize) {
        self.stats.candidates_delay_rejected += n;
    }

    #[inline]
    fn candidates_overloaded(&mut self, n: usize) {
        self.stats.candidates_overloaded += n;
    }

    #[inline]
    fn delay_repairs(&mut self, n: usize) {
        self.stats.delay_repairs += n;
    }

    #[inline]
    fn layer_wall(&mut self, wall: Duration) {
        self.stats.layer_wall.push(wall);
    }

    #[inline]
    fn cache(&mut self, hits: u64, misses: u64) {
        self.stats.cache_hits += hits;
        self.stats.cache_misses += misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut c = Counters::default();
        c.nodes_expanded(2);
        c.nodes_expanded(3);
        c.fst_nodes(4);
        c.bst_nodes(5);
        c.candidates_generated(10);
        c.candidates_pruned(6);
        c.candidates_delay_rejected(2);
        c.candidates_overloaded(3);
        c.delay_repairs(4);
        c.layer_wall(Duration::from_micros(7));
        c.cache(8, 9);
        assert_eq!(c.stats.nodes_expanded, 5);
        assert_eq!(c.stats.fst_nodes, 4);
        assert_eq!(c.stats.bst_nodes, 5);
        assert_eq!(c.stats.candidates_generated, 10);
        assert_eq!(c.stats.candidates_pruned, 6);
        assert_eq!(c.stats.candidates_delay_rejected, 2);
        assert_eq!(c.stats.candidates_overloaded, 3);
        assert_eq!(c.stats.delay_repairs, 4);
        assert_eq!(c.stats.layer_wall, vec![Duration::from_micros(7)]);
        assert_eq!((c.stats.cache_hits, c.stats.cache_misses), (8, 9));
        assert!(c.stats.cache_hit_rate() > 0.0);
    }

    #[test]
    fn no_instrument_is_disabled() {
        const {
            assert!(!NoInstrument::ENABLED);
            assert!(Counters::ENABLED);
        }
        let mut n = NoInstrument;
        n.nodes_expanded(100); // compiles to nothing; must not panic
        n.cache(1, 1);
    }
}
