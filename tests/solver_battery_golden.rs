//! Golden digest of the solver battery.
//!
//! Seeded 30–200-node instances — best-effort, capacity 1.5, delay
//! budgets over 10 µs links, and placement rules on top of both — each
//! solved by BBE, BBE at level width 7, MBBE, MBBE at level width 3,
//! MBBE without early delay pruning, MBBE-ST, MINV and RANV. One
//! `SolveCtx` per (instance, solver) carries the oracle across that
//! solver's requests, so cache reuse is part of what is pinned.
//!
//! Everything a solve decides folds into the decision digest (FNV-1a):
//! each embedding (every assignment node, every path's nodes and links),
//! its cost bits, each error string, and every `SolverStats` counter
//! except the wall-clock fields and `cache_hits`. `cache_misses` — how
//! many trees the oracle had to build — is folded for the BBE family
//! only: MINV/RANV route on per-solve residuals and their cache
//! accounting is not a decision.
//!
//! `cache_hits` counts lookups, not decisions: how often candidate
//! generation asks the oracle for a tree it already holds. It folds
//! into a second, cache-traffic digest, so a change to how often paths
//! are looked up moves that digest and leaves the decision digest
//! alone.
//!
//! The decision constant was recorded before the sub-solution tree
//! stored handles instead of cloned layers, before the residual-routing
//! session searches stopped at their target, and before candidate
//! generation looked each node's paths up once per merger and copied
//! paths for the kept candidates only, so it pins that those changes
//! kept every decision bit for bit. A deliberate behaviour change
//! re-derives it from the printed value and says why.

use dagsfc::core::solvers::{BbeConfig, BbeSolver, MbbeSolver, MbbeStSolver, SolveCtx};
use dagsfc::core::solvers::{MinvSolver, RanvSolver};
use dagsfc::core::{SolveError, SolveOutcome, Solver};
use dagsfc::net::Network;
use dagsfc::sim::runner::{instance_network, instance_request};
use dagsfc::sim::SimConfig;

/// Requests solved per instance.
const REQUESTS: usize = 8;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// One battery column: a label, whether it is a BBE-family solver, and
/// how to build it.
struct Column {
    label: &'static str,
    bbe_family: bool,
    build: fn(u64) -> Box<dyn Solver>,
}

const COLUMNS: [Column; 8] = [
    Column {
        label: "BBE",
        bbe_family: true,
        build: |_| Box::new(BbeSolver::new()),
    },
    Column {
        label: "BBE width 7",
        bbe_family: true,
        build: |_| {
            Box::new(BbeSolver {
                config: BbeConfig {
                    max_level_width: 7,
                    ..BbeConfig::default()
                },
            })
        },
    },
    Column {
        label: "MBBE",
        bbe_family: true,
        build: |_| Box::new(MbbeSolver::new()),
    },
    Column {
        label: "MBBE width 3",
        bbe_family: true,
        build: |_| {
            Box::new(MbbeSolver {
                config: BbeConfig {
                    max_level_width: 3,
                    ..BbeConfig::mbbe()
                },
            })
        },
    },
    Column {
        label: "MBBE lazy delay",
        bbe_family: true,
        build: |_| {
            Box::new(MbbeSolver {
                config: BbeConfig {
                    early_delay_pruning: false,
                    ..BbeConfig::mbbe()
                },
            })
        },
    },
    Column {
        label: "MBBE-ST",
        bbe_family: true,
        build: |_| Box::new(MbbeStSolver::new()),
    },
    Column {
        label: "MINV",
        bbe_family: false,
        build: |_| Box::new(MinvSolver::new()),
    },
    Column {
        label: "RANV",
        bbe_family: false,
        build: |seed| Box::new(RanvSolver::new(seed)),
    },
];

/// The instance profiles: every combination of tight capacity, a delay
/// budget and placement rules that the battery covers.
fn profiles() -> Vec<SimConfig> {
    let mut out = Vec::new();
    for (k, &size) in [30usize, 60, 120, 200].iter().enumerate() {
        let seed = 0xBA77_0000 + k as u64;
        let base = SimConfig {
            network_size: size,
            sfc_size: 4 + k % 2,
            seed,
            ..SimConfig::default()
        };
        let tight = SimConfig {
            vnf_capacity: 1.5,
            link_capacity: 1.5,
            ..base.clone()
        };
        let delayed = SimConfig {
            link_delay_us: Some(10.0),
            delay_budget_us: Some(60.0 + 20.0 * k as f64),
            ..base.clone()
        };
        let ruled = SimConfig {
            affinity_rate: Some(0.5),
            anti_affinity_rate: Some(0.4),
            ..tight.clone()
        };
        let ruled_delayed = SimConfig {
            affinity_rate: Some(0.5),
            anti_affinity_rate: Some(0.4),
            vnf_capacity: 1.5,
            link_capacity: 1.5,
            ..delayed.clone()
        };
        out.extend([base, tight, delayed, ruled, ruled_delayed]);
    }
    out
}

/// What the battery reached, so the digest is known to cover each
/// outcome class.
#[derive(Debug, Default)]
struct Tally {
    solves: usize,
    accepted: usize,
    deadline: usize,
    rule: usize,
    other_errors: usize,
}

/// The two digests of a battery run.
struct Digests {
    /// Every decision and counter except `cache_hits`.
    decisions: Fnv,
    /// BBE-family `cache_hits`, in solve order.
    cache_traffic: Fnv,
}

fn fold(
    d: &mut Digests,
    tally: &mut Tally,
    bbe_family: bool,
    out: &Result<SolveOutcome, SolveError>,
) {
    let h = &mut d.decisions;
    tally.solves += 1;
    match out {
        Ok(o) => {
            tally.accepted += 1;
            h.u64(1);
            for slots in o.embedding.assignments() {
                h.u64(slots.len() as u64);
                for n in slots {
                    h.u64(u64::from(n.0));
                }
            }
            for p in o.embedding.paths() {
                h.u64(p.nodes().len() as u64);
                for n in p.nodes() {
                    h.u64(u64::from(n.0));
                }
                for l in p.links() {
                    h.u64(u64::from(l.0));
                }
            }
            h.u64(o.cost.vnf.to_bits());
            h.u64(o.cost.link.to_bits());
            let s = &o.stats;
            for v in [
                s.explored,
                s.kept,
                s.nodes_expanded,
                s.fst_nodes,
                s.bst_nodes,
                s.candidates_generated,
                s.candidates_pruned,
                s.candidates_delay_rejected,
                s.candidates_rule_rejected,
                s.layer_wall.len(),
            ] {
                h.u64(v as u64);
            }
            if bbe_family {
                h.u64(s.cache_misses);
                d.cache_traffic.u64(s.cache_hits);
            }
        }
        Err(e) => {
            h.u64(0);
            h.bytes(e.to_string().as_bytes());
            if e.is_deadline_infeasible() {
                tally.deadline += 1;
            } else if e.is_rule_infeasible() {
                tally.rule += 1;
            } else {
                tally.other_errors += 1;
            }
        }
    }
}

/// Runs the battery, returning its decision and cache-traffic digests
/// and its tally.
fn battery() -> (u64, u64, Tally) {
    let mut d = Digests {
        decisions: Fnv::new(),
        cache_traffic: Fnv::new(),
    };
    let mut tally = Tally::default();
    for cfg in profiles() {
        let net: Network = instance_network(&cfg);
        let requests: Vec<_> = (0..REQUESTS)
            .map(|i| instance_request(&cfg, &net, i))
            .collect();
        for column in &COLUMNS {
            d.decisions.bytes(column.label.as_bytes());
            let solver = (column.build)(cfg.seed);
            let ctx = SolveCtx::new(&net);
            for (sfc, flow) in &requests {
                let out = solver.solve_in(&ctx, sfc, flow);
                fold(&mut d, &mut tally, column.bbe_family, &out);
            }
        }
    }
    (d.decisions.0, d.cache_traffic.0, tally)
}

#[test]
fn solver_battery_decisions_are_pinned() {
    let (digest, cache_traffic, tally) = battery();
    eprintln!(
        "solver battery: digest {digest:#018x}, cache traffic {cache_traffic:#018x}, {tally:?}"
    );
    assert!(tally.accepted > 0, "{tally:?}");
    assert!(tally.deadline > 0, "no deadline rejection: {tally:?}");
    assert!(tally.rule > 0, "no rule rejection: {tally:?}");
    assert!(tally.other_errors > 0, "no capacity rejection: {tally:?}");
    assert_eq!(digest, 0x143a_1886_5e75_0e24, "solver battery digest moved");
    assert_eq!(
        cache_traffic, 0xa723_cb30_e002_d9b1,
        "cache-traffic digest moved"
    );
}
