//! The instance runner: the paper's evaluation protocol.
//!
//! "For each simulation instance, we run 100 times with different SFCs
//! generated by \[the\] SFC generator with the same structure, then set
//! the average cost of those embedding solutions as the final result."
//!
//! One instance = one seeded random network + `runs` random (SFC, flow)
//! draws; every algorithm solves the *same* sequence of requests against
//! fresh residual state. Runs are distributed over worker threads
//! (crossbeam channel work queue) and every run's contribution is
//! recorded under its **run index**; the reduction then folds the slots
//! in index order, so float sums — and therefore every reported mean —
//! are bit-identical no matter how workers interleave. The same
//! record/reduce split powers [`run_instances`], the deterministic
//! parallel executor behind figure sweeps: it flattens `(instance, run)`
//! pairs into one work queue so many small instances load-balance across
//! all cores.

use crate::config::SimConfig;
use crate::sfcgen::{random_flow, random_rules, random_sfc_of_size};
use crate::stats::Summary;
use dagsfc_core::solvers::SolveCtx;
use dagsfc_core::{DagSfc, Flow};
use dagsfc_net::{generator, Network};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Duration;

/// The algorithms under evaluation (the one name→solver table lives
/// in `dagsfc_core::solvers`).
pub use dagsfc_core::solvers::Algo;

/// Aggregated per-algorithm outcome of one instance.
#[derive(Debug, Clone, Serialize)]
pub struct AlgoResult {
    /// Algorithm name.
    pub name: &'static str,
    /// Successful runs.
    pub successes: usize,
    /// Failed runs (no feasible embedding found).
    pub failures: usize,
    /// Failed runs classified as deadline-infeasible (best achievable
    /// delay blew the flow's budget); the rest of `failures` are
    /// capacity/topology-infeasible.
    pub deadline_failures: usize,
    /// Mean candidates rejected by the delay budget per run (early tree
    /// pruning + finals SLA filter).
    pub mean_candidates_delay_rejected: f64,
    /// Summary of total embedding cost over successful runs.
    pub cost: Summary,
    /// Mean VNF-term cost over successful runs.
    pub mean_vnf_cost: f64,
    /// Mean link-term cost over successful runs.
    pub mean_link_cost: f64,
    /// Mean wall-clock solve time over all runs.
    pub mean_elapsed: Duration,
    /// Mean candidates explored (solver-reported) over all runs.
    pub mean_explored: f64,
    /// Mean sub-solution-tree parents expanded per run (BBE/MBBE).
    pub mean_nodes_expanded: f64,
    /// Mean layer sub-solutions generated per run (BBE/MBBE).
    pub mean_candidates_generated: f64,
    /// Mean layer sub-solutions pruned per run (BBE/MBBE).
    pub mean_candidates_pruned: f64,
    /// Total shortest-path cache hits across all runs.
    pub cache_hits: u64,
    /// Total shortest-path cache misses across all runs.
    pub cache_misses: u64,
    /// Cache hit rate over all runs, 0.0 when the solver never routed.
    pub cache_hit_rate: f64,
}

/// A serializable snapshot of the shared path-oracle's counters after an
/// instance completes (all algorithms, all runs).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct OracleSnapshot {
    /// Shortest-path trees served from the cache.
    pub hits: u64,
    /// Shortest-path trees computed fresh.
    pub misses: u64,
    /// Trees evicted by the LRU bound.
    pub evictions: u64,
    /// Whole-cache invalidations.
    pub invalidations: u64,
    /// hits / (hits + misses), 0.0 when the oracle was never queried.
    pub hit_rate: f64,
}

/// Outcome of one simulation instance.
#[derive(Debug, Clone, Serialize)]
pub struct InstanceResult {
    /// The evaluated configuration.
    pub config: SimConfig,
    /// Per-algorithm aggregates, in the order requested.
    pub algos: Vec<AlgoResult>,
    /// Shared path-oracle counters for the whole instance.
    pub oracle: OracleSnapshot,
}

impl InstanceResult {
    /// The aggregate for a named algorithm, if present.
    pub fn algo(&self, name: &str) -> Option<&AlgoResult> {
        self.algos.iter().find(|a| a.name == name)
    }
}

/// One `(run, algorithm)` solve's contribution to the aggregates.
///
/// Records live in a run-indexed slot vector rather than an append-only
/// accumulator: the reduction walks the slots in run order, so the
/// floating-point fold order — and with it every reported mean — is
/// independent of worker completion order.
struct RunRecord {
    /// `(total, vnf, link)` cost on success, `None` on failure.
    cost: Option<(f64, f64, f64)>,
    /// On failure: was the error deadline-classified?
    deadline_failure: bool,
    elapsed: Duration,
    explored: usize,
    nodes_expanded: usize,
    candidates_generated: usize,
    candidates_pruned: usize,
    candidates_delay_rejected: usize,
    cache_hits: u64,
    cache_misses: u64,
}

/// Solves one `(run, algorithm)` pair against the shared solve context.
fn solve_run(
    ctx: &SolveCtx<'_>,
    cfg: &SimConfig,
    sfc: &DagSfc,
    flow: &Flow,
    run: usize,
    algo: Algo,
) -> RunRecord {
    let solver = algo.build(run_seed(cfg.seed, run) ^ 0xA160);
    let started = std::time::Instant::now();
    let outcome = solver.solve_in(ctx, sfc, flow);
    let elapsed = started.elapsed();
    match outcome {
        Ok(out) => RunRecord {
            cost: Some((out.cost.total(), out.cost.vnf, out.cost.link)),
            deadline_failure: false,
            elapsed,
            explored: out.stats.explored,
            nodes_expanded: out.stats.nodes_expanded,
            candidates_generated: out.stats.candidates_generated,
            candidates_pruned: out.stats.candidates_pruned,
            candidates_delay_rejected: out.stats.candidates_delay_rejected,
            cache_hits: out.stats.cache_hits,
            cache_misses: out.stats.cache_misses,
        },
        Err(e) => RunRecord {
            cost: None,
            deadline_failure: e.is_deadline_infeasible(),
            elapsed,
            explored: 0,
            nodes_expanded: 0,
            candidates_generated: 0,
            candidates_pruned: 0,
            candidates_delay_rejected: 0,
            cache_hits: 0,
            cache_misses: 0,
        },
    }
}

/// Folds one algorithm's run-indexed records (in run order) into the
/// reported aggregate.
fn reduce_algo(algo: Algo, slots: &[Option<RunRecord>]) -> AlgoResult {
    let mut costs = Vec::new();
    let mut vnf_costs = Vec::new();
    let mut link_costs = Vec::new();
    let mut failures = 0usize;
    let mut deadline_failures = 0usize;
    let mut elapsed = Duration::ZERO;
    let mut explored = 0usize;
    let mut nodes_expanded = 0usize;
    let mut candidates_generated = 0usize;
    let mut candidates_pruned = 0usize;
    let mut candidates_delay_rejected = 0usize;
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    let mut runs = 0usize;
    for rec in slots.iter().flatten() {
        runs += 1;
        elapsed += rec.elapsed;
        match rec.cost {
            Some((total, vnf, link)) => {
                costs.push(total);
                vnf_costs.push(vnf);
                link_costs.push(link);
                explored += rec.explored;
                nodes_expanded += rec.nodes_expanded;
                candidates_generated += rec.candidates_generated;
                candidates_pruned += rec.candidates_pruned;
                candidates_delay_rejected += rec.candidates_delay_rejected;
                cache_hits += rec.cache_hits;
                cache_misses += rec.cache_misses;
            }
            None => {
                failures += 1;
                if rec.deadline_failure {
                    deadline_failures += 1;
                }
            }
        }
    }
    let runs = runs.max(1);
    let lookups = cache_hits + cache_misses;
    AlgoResult {
        name: algo.name(),
        successes: costs.len(),
        failures,
        deadline_failures,
        mean_candidates_delay_rejected: candidates_delay_rejected as f64 / runs as f64,
        cost: Summary::of(&costs),
        mean_vnf_cost: mean(&vnf_costs),
        mean_link_cost: mean(&link_costs),
        mean_elapsed: elapsed / runs as u32,
        mean_explored: explored as f64 / runs as f64,
        mean_nodes_expanded: nodes_expanded as f64 / runs as f64,
        mean_candidates_generated: candidates_generated as f64 / runs as f64,
        mean_candidates_pruned: candidates_pruned as f64 / runs as f64,
        cache_hits,
        cache_misses,
        cache_hit_rate: if lookups == 0 {
            0.0
        } else {
            cache_hits as f64 / lookups as f64
        },
    }
}

/// Generates this instance's network (seeded by the config).
pub fn instance_network(cfg: &SimConfig) -> Network {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // lint:allow(expect) — invariant: valid generator config
    generator::generate(&cfg.net_gen(), &mut rng).expect("valid generator config")
}

/// The deterministic (SFC, flow) request of run `run`.
pub fn instance_request(cfg: &SimConfig, net: &Network, run: usize) -> (DagSfc, Flow) {
    let mut rng = StdRng::seed_from_u64(run_seed(cfg.seed, run));
    let sfc = random_sfc_of_size(cfg, cfg.sfc_size, &mut rng);
    let flow = random_flow(cfg, net, &mut rng);
    // Rules draw last so the (sfc, flow) stream is identical whether or
    // not a profile arms them — and rule-free profiles draw nothing.
    let sfc = random_rules(cfg, sfc, &mut rng);
    (sfc, flow)
}

fn run_seed(master: u64, run: usize) -> u64 {
    // SplitMix64 step decorrelates consecutive run seeds.
    let mut z = master ^ (run as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one simulation instance: one network, `cfg.runs` requests, every
/// algorithm in `algos` solving each request. Returns per-algorithm
/// aggregates. Parallelism: runs are spread over available cores.
pub fn run_instance(cfg: &SimConfig, algos: &[Algo]) -> InstanceResult {
    let net = instance_network(cfg);
    run_instance_on(cfg, &net, algos)
}

/// Like [`run_instance`] but over a caller-supplied network (used by the
/// structured-topology experiments, which bypass the §5.1 generator).
pub fn run_instance_on(cfg: &SimConfig, net: &Network, algos: &[Algo]) -> InstanceResult {
    // One path-oracle per instance: the network topology is fixed for
    // all runs and algorithms, so every worker shares the same tree
    // cache across the whole instance.
    let ctx = SolveCtx::new(net);
    let records: Vec<Mutex<Vec<Option<RunRecord>>>> = algos
        .iter()
        .map(|_| Mutex::new((0..cfg.runs).map(|_| None).collect()))
        .collect();

    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(cfg.runs.max(1));
    if workers <= 1 {
        // Auto-serial fallback: with a single worker the scoped-thread
        // executor can only lose (spawn + channel + lock overhead), so
        // run the identical loop inline. Slots and reduction are shared
        // with the parallel path, so results stay bit-identical.
        for run in 0..cfg.runs {
            let (sfc, flow) = instance_request(cfg, net, run);
            for (ai, &algo) in algos.iter().enumerate() {
                let rec = solve_run(&ctx, cfg, &sfc, &flow, run, algo);
                records[ai].lock()[run] = Some(rec);
            }
        }
    } else {
        let (tx, rx) = crossbeam::channel::unbounded::<usize>();
        for run in 0..cfg.runs {
            // lint:allow(expect) — scoped receiver outlives every sender by construction
            tx.send(run).expect("queue open");
        }
        drop(tx);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let rx = rx.clone();
                let records = &records;
                let ctx = &ctx;
                scope.spawn(move || {
                    while let Ok(run) = rx.recv() {
                        let (sfc, flow) = instance_request(cfg, net, run);
                        for (ai, &algo) in algos.iter().enumerate() {
                            let rec = solve_run(ctx, cfg, &sfc, &flow, run, algo);
                            records[ai].lock()[run] = Some(rec);
                        }
                    }
                });
            }
        });
    }

    let algo_results = algos
        .iter()
        .zip(records)
        .map(|(&algo, rec)| reduce_algo(algo, &rec.into_inner()))
        .collect();

    let ostats = ctx.oracle.stats();
    InstanceResult {
        config: cfg.clone(),
        algos: algo_results,
        oracle: OracleSnapshot {
            hits: ostats.hits,
            misses: ostats.misses,
            evictions: ostats.evictions,
            invalidations: ostats.invalidations,
            hit_rate: ostats.hit_rate(),
        },
    }
}

/// Deterministic parallel executor over many instances at once, with
/// the worker count resolved from the host
/// ([`run_instances_with_threads`] takes it explicitly).
pub fn run_instances(plans: &[(SimConfig, Vec<Algo>)]) -> Vec<InstanceResult> {
    run_instances_with_threads(plans, None)
}

/// Deterministic executor over many instances at once.
///
/// Every instance's runs are split into chunked `(point, run-range)`
/// tasks on one shared work queue, so a sweep of many small instances
/// load-balances across all cores instead of parallelizing only within
/// one instance at a time, while each dequeue amortizes the channel
/// round-trip over a batch of runs. Each instance still gets its own
/// network and shared [`SolveCtx`] (path-oracle), each record lands in
/// its `(instance, algo, run)` slot, and the reduction folds slots in
/// index order — the output is bit-identical to mapping
/// [`run_instance_on`] over the plans serially.
///
/// `threads` pins the worker count (`None` = available parallelism).
/// Whenever one worker results — a single-core host, `Some(1)`, or a
/// single-task plan — the executor never spawns: the identical loop
/// runs inline, so the parallel entry point can never lose to the
/// serial one by more than the cost of resolving the thread count.
pub fn run_instances_with_threads(
    plans: &[(SimConfig, Vec<Algo>)],
    threads: Option<usize>,
) -> Vec<InstanceResult> {
    let nets: Vec<Network> = plans.iter().map(|(cfg, _)| instance_network(cfg)).collect();
    let ctxs: Vec<SolveCtx<'_>> = nets.iter().map(SolveCtx::new).collect();
    let records: Vec<Vec<Mutex<Vec<Option<RunRecord>>>>> = plans
        .iter()
        .map(|(cfg, algos)| {
            algos
                .iter()
                .map(|_| Mutex::new((0..cfg.runs).map(|_| None).collect()))
                .collect()
        })
        .collect();

    let total_tasks: usize = plans.iter().map(|(cfg, _)| cfg.runs).sum();
    let workers = threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        })
        .max(1)
        .min(total_tasks.max(1));
    if workers <= 1 || total_tasks <= 1 {
        // Auto-serial fallback — see [`run_instance_on`].
        for (pi, (cfg, algos)) in plans.iter().enumerate() {
            for run in 0..cfg.runs {
                let (sfc, flow) = instance_request(cfg, &nets[pi], run);
                for (ai, &algo) in algos.iter().enumerate() {
                    let rec = solve_run(&ctxs[pi], cfg, &sfc, &flow, run, algo);
                    records[pi][ai].lock()[run] = Some(rec);
                }
            }
        }
    } else {
        // Chunk runs within each point: roughly four chunks per worker
        // per point keeps stealing granular enough to balance skewed
        // points without paying one channel round-trip per run.
        let (tx, rx) = crossbeam::channel::unbounded::<(usize, std::ops::Range<usize>)>();
        for (pi, (cfg, _)) in plans.iter().enumerate() {
            let chunk = (cfg.runs / (workers * 4)).max(1);
            let mut start = 0;
            while start < cfg.runs {
                let end = (start + chunk).min(cfg.runs);
                // lint:allow(expect) — scoped receiver outlives every sender by construction
                tx.send((pi, start..end)).expect("queue open");
                start = end;
            }
        }
        drop(tx);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let rx = rx.clone();
                let records = &records;
                let ctxs = &ctxs;
                let nets = &nets;
                scope.spawn(move || {
                    while let Ok((pi, runs)) = rx.recv() {
                        let (cfg, algos) = &plans[pi];
                        for run in runs {
                            let (sfc, flow) = instance_request(cfg, &nets[pi], run);
                            for (ai, &algo) in algos.iter().enumerate() {
                                let rec = solve_run(&ctxs[pi], cfg, &sfc, &flow, run, algo);
                                records[pi][ai].lock()[run] = Some(rec);
                            }
                        }
                    }
                });
            }
        });
    }

    plans
        .iter()
        .zip(records)
        .zip(&ctxs)
        .map(|(((cfg, algos), recs), ctx)| {
            let algo_results = algos
                .iter()
                .zip(recs)
                .map(|(&algo, rec)| reduce_algo(algo, &rec.into_inner()))
                .collect();
            let ostats = ctx.oracle.stats();
            InstanceResult {
                config: cfg.clone(),
                algos: algo_results,
                oracle: OracleSnapshot {
                    hits: ostats.hits,
                    misses: ostats.misses,
                    evictions: ostats.evictions,
                    invalidations: ostats.invalidations,
                    hit_rate: ostats.hit_rate(),
                },
            }
        })
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SimConfig {
        SimConfig {
            network_size: 40,
            runs: 6,
            sfc_size: 4,
            ..SimConfig::default()
        }
    }

    #[test]
    fn instance_is_deterministic() {
        let cfg = tiny_cfg();
        let a = run_instance(&cfg, &[Algo::Mbbe, Algo::Minv]);
        let b = run_instance(&cfg, &[Algo::Mbbe, Algo::Minv]);
        for (x, y) in a.algos.iter().zip(&b.algos) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.successes, y.successes);
            assert!((x.cost.mean - y.cost.mean).abs() < 1e-12);
        }
    }

    #[test]
    fn requests_are_deterministic_and_distinct() {
        let cfg = tiny_cfg();
        let net = instance_network(&cfg);
        let (s1, f1) = instance_request(&cfg, &net, 0);
        let (s1b, f1b) = instance_request(&cfg, &net, 0);
        assert_eq!(s1, s1b);
        assert_eq!(f1.src, f1b.src);
        let (s2, _) = instance_request(&cfg, &net, 1);
        assert_ne!(s1, s2);
    }

    #[test]
    fn all_four_paper_algorithms_run() {
        let cfg = tiny_cfg();
        let res = run_instance(&cfg, &[Algo::Bbe, Algo::Mbbe, Algo::Ranv, Algo::Minv]);
        assert_eq!(res.algos.len(), 4);
        for a in &res.algos {
            assert_eq!(a.successes + a.failures, cfg.runs, "{}", a.name);
            if a.successes > 0 {
                assert!(a.cost.mean > 0.0, "{} has zero mean cost", a.name);
                assert!((a.mean_vnf_cost + a.mean_link_cost - a.cost.mean).abs() < 1e-9);
            }
        }
        // The headline claim on any instance: MBBE no worse than MINV.
        let mbbe = res.algo("MBBE").unwrap();
        let minv = res.algo("MINV").unwrap();
        assert!(mbbe.cost.mean <= minv.cost.mean + 1e-9);
    }

    #[test]
    fn shared_oracle_hits_across_runs() {
        // Fig. 6-style workload: many runs against one network. The
        // shared tree cache must be exercised — and warm after run 1.
        let cfg = tiny_cfg();
        let res = run_instance(&cfg, &[Algo::Mbbe, Algo::Minv]);
        assert!(res.oracle.misses > 0, "oracle never consulted");
        assert!(
            res.oracle.hit_rate > 0.0,
            "expected cache hits across {} runs: {:?}",
            cfg.runs,
            res.oracle
        );
        let mbbe = res.algo("MBBE").unwrap();
        assert!(mbbe.cache_hits + mbbe.cache_misses > 0);
        assert!(mbbe.mean_nodes_expanded > 0.0);
        assert!(mbbe.mean_candidates_generated > 0.0);
    }

    #[test]
    fn algo_metadata() {
        assert_eq!(Algo::Bbe.name(), "BBE");
        assert_eq!(Algo::Exact.name(), "EXACT");
        assert_eq!(Algo::Ranv.build(1).name(), "RANV");
    }

    #[test]
    fn lookup_by_name() {
        let cfg = tiny_cfg();
        let res = run_instance(&cfg, &[Algo::Minv]);
        assert!(res.algo("MINV").is_some());
        assert!(res.algo("BBE").is_none());
    }
}
