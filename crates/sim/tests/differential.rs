//! Differential test over *randomized* instances: the parallel sweep
//! executor (`sweep`) must be observationally identical to its serial
//! reference (`sweep_serial`). Work-queue scheduling over whole
//! instances must not change any reported aggregate.
//!
//! What is deliberately *excluded* from the comparison, and why:
//!
//! * `mean_elapsed` — wall clock, the one thing parallelism is allowed
//!   to change;
//! * per-algorithm `cache_hits`/`cache_misses` — the instance runner
//!   shares one path oracle across concurrently scheduled runs, so which
//!   run pays a given miss is scheduling-dependent (totals are
//!   conserved, attribution is not).

use dagsfc_sim::report;
use dagsfc_sim::sweep::{paper_algos, sweep, sweep_serial};
use dagsfc_sim::SimConfig;

/// Randomized sweep bases: small but structurally diverse configs drawn
/// from fixed seeds (different substrate sizes, chain shapes, prices).
fn random_bases() -> Vec<SimConfig> {
    [0x05EE_D001u64, 0x05EE_D002, 0x05EE_D003]
        .iter()
        .enumerate()
        .map(|(i, &seed)| SimConfig {
            network_size: 24 + 8 * i,
            sfc_size: 3 + i,
            vnf_deploy_ratio: 0.4 + 0.1 * i as f64,
            avg_price_ratio: 0.1 + 0.1 * i as f64,
            runs: 6,
            seed,
            ..SimConfig::quick()
        })
        .collect()
}

#[test]
fn parallel_sweep_matches_serial_on_randomized_instances() {
    for (bi, base) in random_bases().iter().enumerate() {
        let xs = [3.0, 4.0];
        let set = |cfg: &mut SimConfig, x: f64| cfg.sfc_size = x as usize;
        let par = sweep("diff", "sfc size", base, &xs, set, |_| paper_algos());
        let ser = sweep_serial("diff", "sfc size", base, &xs, set, |_| paper_algos());

        // The rendered CSV (x, mean cost, successes) must match byte
        // for byte.
        assert_eq!(
            report::csv(&par),
            report::csv(&ser),
            "base {bi}: CSV diverged"
        );

        // And beyond the CSV: every deterministic aggregate field, bit
        // for bit.
        assert_eq!(par.points.len(), ser.points.len());
        for (pp, sp) in par.points.iter().zip(&ser.points) {
            assert_eq!(pp.x.to_bits(), sp.x.to_bits());
            assert_eq!(pp.algos.len(), sp.algos.len());
            for (pa, sa) in pp.algos.iter().zip(&sp.algos) {
                let tag = format!("base {bi}, x={}, algo {}", pp.x, pa.name);
                assert_eq!(pa.name, sa.name, "{tag}: algo order");
                assert_eq!(pa.successes, sa.successes, "{tag}: successes");
                assert_eq!(pa.failures, sa.failures, "{tag}: failures");
                assert_eq!(pa.cost.n, sa.cost.n, "{tag}: cost.n");
                assert_eq!(
                    pa.cost.mean.to_bits(),
                    sa.cost.mean.to_bits(),
                    "{tag}: cost.mean"
                );
                assert_eq!(
                    pa.cost.std_dev.to_bits(),
                    sa.cost.std_dev.to_bits(),
                    "{tag}: cost.std_dev"
                );
                assert_eq!(
                    pa.cost.min.to_bits(),
                    sa.cost.min.to_bits(),
                    "{tag}: cost.min"
                );
                assert_eq!(
                    pa.cost.max.to_bits(),
                    sa.cost.max.to_bits(),
                    "{tag}: cost.max"
                );
                assert_eq!(
                    pa.mean_vnf_cost.to_bits(),
                    sa.mean_vnf_cost.to_bits(),
                    "{tag}: mean_vnf_cost"
                );
                assert_eq!(
                    pa.mean_link_cost.to_bits(),
                    sa.mean_link_cost.to_bits(),
                    "{tag}: mean_link_cost"
                );
                assert_eq!(
                    pa.mean_explored.to_bits(),
                    sa.mean_explored.to_bits(),
                    "{tag}: mean_explored"
                );
                assert_eq!(
                    pa.mean_nodes_expanded.to_bits(),
                    sa.mean_nodes_expanded.to_bits(),
                    "{tag}: mean_nodes_expanded"
                );
                assert_eq!(
                    pa.mean_candidates_generated.to_bits(),
                    sa.mean_candidates_generated.to_bits(),
                    "{tag}: mean_candidates_generated"
                );
                assert_eq!(
                    pa.mean_candidates_pruned.to_bits(),
                    sa.mean_candidates_pruned.to_bits(),
                    "{tag}: mean_candidates_pruned"
                );
            }
        }
    }
}
