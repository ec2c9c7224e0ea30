//! Golden digests of the solver battery.
//!
//! Seeded 30–200-node instances — best-effort, capacity 1.5, delay
//! budgets over 10 µs links, and placement rules on top of both — each
//! solved by BBE, BBE at level width 7, MBBE, MBBE at level width 3,
//! MBBE without early delay pruning, MBBE-ST, MINV and RANV. One
//! `SolveCtx` per (instance, solver) carries the oracle across that
//! solver's requests, so cache reuse is part of what is pinned.
//!
//! Three FNV-1a digests, so that a change to how much a solver searches
//! moves only the digest that counts it:
//!
//! - The decision digest folds what a solve returns: whether it
//!   accepted, each embedding (every assignment node, every path's
//!   nodes and links), its cost bits and each error string.
//! - The search-work digest folds every `SolverStats` counter of an
//!   accepted solve except the wall-clock fields and `cache_hits`.
//!   `cache_misses` — how many trees the oracle had to build — is
//!   folded for the BBE family only: MINV/RANV route on per-solve
//!   residuals and their cache accounting is not search work.
//! - The cache-traffic digest folds BBE-family `cache_hits`: how often
//!   candidate generation asks the oracle for a tree it already holds.
//!
//! The decision constant was recorded when the digest was split in
//! three, before BBE dropped the lineages that already overload the
//! residual, so it pins that dropping them kept every decision bit for
//! bit. The single digest it replaced, which folded the counters too,
//! pinned the same for the sub-solution tree's handles, the
//! residual-routing searches that stop at their target, and candidate
//! generation's once-per-pair path lookups. A change that searches less
//! re-derives the work and cache-traffic digests and says why; a
//! deliberate behaviour change re-derives the decision digest from the
//! printed value and says why.

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

/// The three digests of a battery run.
struct Digests {
    /// Accept flags, embeddings, cost bits and error strings.
    decisions: Fnv,
    /// The search counters of every accepted solve.
    work: Fnv,
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
            let w = &mut d.work;
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
                s.candidates_overloaded,
                s.layer_wall.len(),
            ] {
                w.u64(v as u64);
            }
            if bbe_family {
                w.u64(s.cache_misses);
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

/// Runs the battery, returning its digests and its tally.
fn battery() -> (Digests, Tally) {
    let mut d = Digests {
        decisions: Fnv::new(),
        work: Fnv::new(),
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
    (d, tally)
}

#[test]
fn solver_battery_decisions_are_pinned() {
    let (d, tally) = battery();
    let (decisions, work, cache_traffic) = (d.decisions.0, d.work.0, d.cache_traffic.0);
    eprintln!(
        "solver battery: decisions {decisions:#018x}, work {work:#018x}, \
         cache traffic {cache_traffic:#018x}, {tally:?}"
    );
    assert!(tally.accepted > 0, "{tally:?}");
    assert!(tally.deadline > 0, "no deadline rejection: {tally:?}");
    assert!(tally.rule > 0, "no rule rejection: {tally:?}");
    assert!(tally.other_errors > 0, "no capacity rejection: {tally:?}");
    assert_eq!(
        decisions, 0x2466_804d_2d3b_09b1,
        "solver battery decision digest moved"
    );
    assert_eq!(work, 0x5c54_6b92_ce6b_8970, "search-work digest moved");
    assert_eq!(
        cache_traffic, 0x703e_4ac2_8644_0d81,
        "cache-traffic digest moved"
    );
}
