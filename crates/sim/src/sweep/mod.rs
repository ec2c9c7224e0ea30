//! Parameter sweeps regenerating every figure of the paper's evaluation
//! (Fig. 6(a)–(f)) plus the §4.5 runtime comparison.
//!
//! Each sweep varies one knob of the Table 2 basic configuration and
//! runs a full instance (new seeded network + `runs` SFC draws per
//! point) for every algorithm. Sub-modules hold the per-figure x-grids;
//! this module holds the shared machinery.

pub mod connectivity;
pub mod delay_budget;
pub mod deploy_ratio;
pub mod fluctuation;
pub mod network_size;
pub mod price_ratio;
pub mod quality;
pub mod runtime;
pub mod sfc_size;
pub mod topology;

pub use connectivity::fig6c;
pub use delay_budget::delay_sweep;
pub use deploy_ratio::fig6d;
pub use fluctuation::fig6f;
pub use network_size::fig6b;
pub use price_ratio::fig6e;
pub use quality::{quality_experiment, quality_table, QualityRow};
pub use runtime::runtime_sweep;
pub use sfc_size::fig6a;
pub use topology::{topology_sweep, topology_table, TopologyPoint};

use crate::config::SimConfig;
use crate::runner::{run_instance, run_instances_with_threads, Algo, AlgoResult, OracleSnapshot};
use serde::Serialize;

/// BBE's practical SFC-size limit: the paper stops plotting BBE at size
/// 5 because its complexity grows exponentially with the chain length.
pub const BBE_SFC_SIZE_LIMIT: usize = 5;

/// One evaluated x-point of a sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// The x value (e.g. SFC size, node count, ratio).
    pub x: f64,
    /// Per-algorithm aggregates at this point.
    pub algos: Vec<AlgoResult>,
    /// Shared path-oracle counters for this point's instance.
    pub oracle: OracleSnapshot,
}

impl SweepPoint {
    /// Mean cost of a named algorithm at this point, if it ran and
    /// succeeded at least once.
    pub fn mean_cost(&self, name: &str) -> Option<f64> {
        self.algos
            .iter()
            .find(|a| a.name == name && a.successes > 0)
            .map(|a| a.cost.mean)
    }
}

/// A complete sweep: the series behind one paper figure.
#[derive(Debug, Clone, Serialize)]
pub struct SweepResult {
    /// Experiment id ("fig6a", …).
    pub id: &'static str,
    /// Human-readable x-axis label.
    pub x_label: &'static str,
    /// Evaluated points in x order.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// The (x, mean cost) series of one algorithm, skipping points where
    /// it did not run or never succeeded.
    pub fn series(&self, name: &str) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .filter_map(|p| p.mean_cost(name).map(|c| (p.x, c)))
            .collect()
    }
}

/// Expands a sweep's x grid into per-point `(config, algorithms)` plans.
/// Both executors derive point seeds through this one function, which is
/// what keeps them interchangeable.
fn point_plans(
    base: &SimConfig,
    xs: &[f64],
    set: impl Fn(&mut SimConfig, f64),
    algos: impl Fn(f64) -> Vec<Algo>,
) -> Vec<(SimConfig, Vec<Algo>)> {
    xs.iter()
        .enumerate()
        .map(|(i, &x)| {
            let mut cfg = base.clone();
            // Decorrelate point seeds while keeping the sweep reproducible.
            cfg.seed = base.seed.wrapping_add(1 + i as u64);
            set(&mut cfg, x);
            let a = algos(x);
            (cfg, a)
        })
        .collect()
}

/// Generic sweep driver: for every `x`, clone the base config, apply
/// `set(cfg, x)`, pick the algorithm list via `algos(x)`, and run the
/// instance. Every point reseeds deterministically from the base seed.
///
/// Points execute on the deterministic parallel executor
/// ([`run_instances`]): every `(point, run)` pair goes through one
/// shared work queue and the reduction is index-ordered, so the result —
/// including the rendered CSV, byte for byte — is identical to the
/// serial reference [`sweep_serial`] regardless of thread interleaving.
pub fn sweep(
    id: &'static str,
    x_label: &'static str,
    base: &SimConfig,
    xs: &[f64],
    set: impl Fn(&mut SimConfig, f64),
    algos: impl Fn(f64) -> Vec<Algo>,
) -> SweepResult {
    sweep_with_threads(id, x_label, base, xs, set, algos, None)
}

/// [`sweep`] with an explicit worker count for the parallel executor
/// (`None` = available parallelism). The bench harness records scaling
/// curves by rerunning one sweep across thread counts; results are
/// bit-identical at every count.
#[allow(clippy::too_many_arguments)]
pub fn sweep_with_threads(
    id: &'static str,
    x_label: &'static str,
    base: &SimConfig,
    xs: &[f64],
    set: impl Fn(&mut SimConfig, f64),
    algos: impl Fn(f64) -> Vec<Algo>,
    threads: Option<usize>,
) -> SweepResult {
    let plans = point_plans(base, xs, set, algos);
    let points = run_instances_with_threads(&plans, threads)
        .into_iter()
        .zip(xs)
        .map(|(result, &x)| SweepPoint {
            x,
            algos: result.algos,
            oracle: result.oracle,
        })
        .collect();
    SweepResult {
        id,
        x_label,
        points,
    }
}

/// The serial reference executor: one instance at a time, in x order.
/// Kept as the differential baseline the parallel [`sweep`] is tested
/// against (bit-identical CSV output).
pub fn sweep_serial(
    id: &'static str,
    x_label: &'static str,
    base: &SimConfig,
    xs: &[f64],
    set: impl Fn(&mut SimConfig, f64),
    algos: impl Fn(f64) -> Vec<Algo>,
) -> SweepResult {
    let plans = point_plans(base, xs, set, algos);
    let points = plans
        .iter()
        .zip(xs)
        .map(|((cfg, a), &x)| {
            let result = run_instance(cfg, a);
            SweepPoint {
                x,
                algos: result.algos,
                oracle: result.oracle,
            }
        })
        .collect();
    SweepResult {
        id,
        x_label,
        points,
    }
}

/// The paper's four plotted algorithms.
pub fn paper_algos() -> Vec<Algo> {
    vec![Algo::Mbbe, Algo::Bbe, Algo::Minv, Algo::Ranv]
}

/// The paper's algorithms minus BBE (used beyond BBE's practical range).
pub fn paper_algos_no_bbe() -> Vec<Algo> {
    vec![Algo::Mbbe, Algo::Minv, Algo::Ranv]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SimConfig {
        SimConfig {
            network_size: 30,
            runs: 4,
            sfc_size: 3,
            ..SimConfig::default()
        }
    }

    #[test]
    fn sweep_driver_applies_knob_per_point() {
        let base = tiny();
        let r = sweep(
            "test",
            "sfc size",
            &base,
            &[2.0, 3.0],
            |cfg, x| cfg.sfc_size = x as usize,
            |_| vec![Algo::Minv],
        );
        assert_eq!(r.points.len(), 2);
        assert_eq!(r.points[0].algos.len(), 1);
        let series = r.series("MINV");
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, 2.0);
        // Longer chains cost more on average.
        assert!(series[1].1 > series[0].1);
    }

    #[test]
    fn series_skips_absent_algorithms() {
        let base = tiny();
        let r = sweep("test", "x", &base, &[1.0], |_, _| {}, |_| vec![Algo::Minv]);
        assert!(r.series("BBE").is_empty());
        assert!(r.points[0].mean_cost("MBBE").is_none());
    }

    #[test]
    fn thread_count_never_changes_results() {
        // The scaling-curve contract: any worker count (including the
        // auto-serial fallback at 1) yields the serial reference
        // bit-for-bit, so BENCH curves compare pure wall-time.
        let base = tiny();
        let xs = [2.0, 3.0, 4.0];
        let set = |cfg: &mut SimConfig, x: f64| cfg.sfc_size = x as usize;
        let algos = |_: f64| vec![Algo::Minv, Algo::Ranv];
        let reference = sweep_serial("t", "x", &base, &xs, set, algos);
        let want = crate::report::csv(&reference);
        for threads in [1, 2, 4] {
            let got = sweep_with_threads("t", "x", &base, &xs, set, algos, Some(threads));
            assert_eq!(
                crate::report::csv(&got),
                want,
                "threads={threads} diverged from serial"
            );
        }
    }

    #[test]
    fn algo_sets() {
        assert_eq!(paper_algos().len(), 4);
        assert_eq!(paper_algos_no_bbe().len(), 3);
        assert!(!paper_algos_no_bbe().contains(&Algo::Bbe));
    }
}
