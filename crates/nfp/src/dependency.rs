//! Pairwise order-dependency analysis over an NF catalog.
//!
//! NFP \[17\] reports that 53.8% of NF pairs in enterprise networks can
//! work in parallel and 41.5% can do so without extra resource overhead. This
//! module computes the same classification for any catalog of
//! [`NfSpec`]s, and is the oracle the chain transformation queries.

use crate::action::{parallelism, Parallelism};
use crate::catalog::NfSpec;
use serde::{Deserialize, Serialize};

/// Dense matrix of [`Parallelism`] verdicts for every *ordered* NF pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DependencyMatrix {
    n: usize,
    cells: Vec<Parallelism>,
}

impl DependencyMatrix {
    /// Analyzes every ordered pair in `catalog`.
    pub fn analyze(catalog: &[NfSpec]) -> Self {
        let n = catalog.len();
        let mut cells = Vec::with_capacity(n * n);
        for a in catalog {
            for b in catalog {
                cells.push(parallelism(&a.profile, &b.profile));
            }
        }
        DependencyMatrix { n, cells }
    }

    /// Number of NFs covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Verdict for the ordered pair `(first, second)`.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    #[inline]
    pub fn pair(&self, first: usize, second: usize) -> Parallelism {
        assert!(first < self.n && second < self.n, "NF index out of range");
        self.cells[first * self.n + second]
    }

    /// Whether the ordered pair may share a parallel layer.
    #[inline]
    pub fn parallelizable(&self, first: usize, second: usize) -> bool {
        self.pair(first, second).is_parallelizable()
    }

    /// Statistics over all ordered pairs (diagonal included, matching
    /// NFP's methodology of classifying every NF pair).
    pub fn stats(&self) -> PairStats {
        let mut full = 0usize;
        let mut copy = 0usize;
        let mut seq = 0usize;
        for &c in &self.cells {
            match c {
                Parallelism::Full => full += 1,
                Parallelism::WithCopyOverhead => copy += 1,
                Parallelism::Sequential => seq += 1,
            }
        }
        PairStats {
            pairs: self.cells.len(),
            full,
            with_copy: copy,
            sequential: seq,
        }
    }
}

/// Aggregate pair-classification counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairStats {
    /// Total ordered pairs classified.
    pub pairs: usize,
    /// Pairs parallelizable with no resource overhead.
    pub full: usize,
    /// Pairs parallelizable only with packet copying.
    pub with_copy: usize,
    /// Pairs that must stay sequential.
    pub sequential: usize,
}

impl PairStats {
    /// Fraction of pairs that can work in parallel (NFP's 53.8% figure).
    pub fn parallel_fraction(&self) -> f64 {
        if self.pairs == 0 {
            return 0.0;
        }
        (self.full + self.with_copy) as f64 / self.pairs as f64
    }

    /// Fraction parallelizable without extra overhead (NFP's 41.5%).
    pub fn overhead_free_fraction(&self) -> f64 {
        if self.pairs == 0 {
            return 0.0;
        }
        self.full as f64 / self.pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{enterprise_catalog, find};

    #[test]
    fn matrix_matches_direct_calls() {
        let cat = enterprise_catalog();
        let m = DependencyMatrix::analyze(&cat);
        assert_eq!(m.len(), cat.len());
        for i in 0..cat.len() {
            for j in 0..cat.len() {
                assert_eq!(
                    m.pair(i, j),
                    parallelism(&cat[i].profile, &cat[j].profile),
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn stats_sum_to_total() {
        let cat = enterprise_catalog();
        let s = DependencyMatrix::analyze(&cat).stats();
        assert_eq!(s.pairs, cat.len() * cat.len());
        assert_eq!(s.full + s.with_copy + s.sequential, s.pairs);
    }

    #[test]
    fn catalog_parallelism_in_nfp_ballpark() {
        // NFP measured 53.8% parallelizable and 41.5% overhead-free across
        // enterprise NF pairs; our synthetic catalog should land in the
        // same regime (a broad band — the exact NF mix differs).
        let s = DependencyMatrix::analyze(&enterprise_catalog()).stats();
        let p = s.parallel_fraction();
        let f = s.overhead_free_fraction();
        assert!((0.25..0.75).contains(&p), "parallel fraction {p}");
        assert!((0.2..0.7).contains(&f), "overhead-free fraction {f}");
        assert!(f <= p);
    }

    #[test]
    fn known_pairs() {
        let cat = enterprise_catalog();
        let m = DependencyMatrix::analyze(&cat);
        let fw = find(&cat, "firewall").unwrap().0;
        let ids = find(&cat, "ids").unwrap().0;
        let proxy = find(&cat, "proxy").unwrap().0;
        assert!(m.parallelizable(fw, ids));
        assert!(!m.parallelizable(proxy, ids));
        assert!(!m.parallelizable(ids, proxy));
    }

    #[test]
    fn empty_catalog() {
        let m = DependencyMatrix::analyze(&[]);
        assert!(m.is_empty());
        assert_eq!(m.stats().pairs, 0);
        assert_eq!(m.stats().parallel_fraction(), 0.0);
        assert_eq!(m.stats().overhead_free_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pair_panics() {
        let m = DependencyMatrix::analyze(&enterprise_catalog());
        m.pair(0, 99);
    }
}
