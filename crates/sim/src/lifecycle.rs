//! Request lifecycles: arrivals *and departures* — an extension of the
//! online simulation ([`crate::online`]) toward a real provisioning
//! system.
//!
//! Requests arrive at unit intervals, hold their resources for an
//! exponentially distributed number of intervals, then depart and
//! release exactly what they committed. Under a fixed offered load the
//! system reaches a steady state whose acceptance ratio measures how
//! much traffic an embedding algorithm can *sustain*, not just admit
//! once — the metric cloud operators actually tune for.
//!
//! The module is built around two serving-grade primitives that
//! `dagsfc-serve` shares verbatim, so the research path and the
//! daemon's serving path cannot drift apart:
//!
//! * [`embed_and_commit`] — the per-request kernel: solve over the
//!   residual network, account the loads, and commit them atomically to
//!   a [`CommitLedger`], yielding a lease;
//! * [`ReplayTrace`] — a solver-independent arrival/departure schedule.
//!   Holding times are drawn for **every** arrival up front (accepted
//!   or not), so the schedule depends only on the seed: an external
//!   replayer that learns acceptance per-request still produces the
//!   exact event order of the in-process simulation.

use crate::config::SimConfig;
use crate::departures::DepartureQueue;
use crate::runner::{instance_network, instance_request, Algo};
use dagsfc_audit::ConstraintAuditor;
use dagsfc_core::solvers::{SolveOutcome, SolverStats};
use dagsfc_core::{CostBreakdown, DagSfc, Flow, ModelError, SolveError};
use dagsfc_net::{CommitLedger, LeaseId, LinkId, NetError, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of a lifecycle simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LifecycleConfig {
    /// Network/chain/flow parameters (finite capacities make it
    /// interesting).
    pub base: SimConfig,
    /// Number of arrivals (one per time unit).
    pub arrivals: usize,
    /// Mean holding time in arrival intervals (exponential).
    pub mean_holding: f64,
    /// The embedding algorithm under test.
    pub algo: Algo,
}

/// Aggregate outcome of a lifecycle simulation.
#[derive(Debug, Clone, Serialize)]
pub struct LifecycleMetrics {
    /// Algorithm name.
    pub algo: &'static str,
    /// Requests embedded successfully.
    pub accepted: usize,
    /// Requests rejected.
    pub rejected: usize,
    /// Mean embedding cost over accepted requests.
    pub mean_cost: f64,
    /// Largest number of concurrently embedded requests.
    pub peak_concurrent: usize,
    /// Time-averaged number of concurrently embedded requests.
    pub mean_concurrent: f64,
    /// Residual committed load after every request departed — a leak
    /// detector; must be ~0.
    pub final_leak: f64,
    /// Accepted embeddings re-checked by the solver-independent
    /// constraint auditor (every [`AUDIT_SAMPLE_INTERVAL`]-th arrival).
    pub audited: usize,
    /// Sampled audits that reported at least one constraint violation —
    /// must be 0; anything else is a solver or accounting bug.
    pub audit_violations: usize,
}

impl LifecycleMetrics {
    /// Accepted / offered.
    pub fn acceptance_ratio(&self) -> f64 {
        let total = self.accepted + self.rejected;
        if total == 0 {
            0.0
        } else {
            self.accepted as f64 / total as f64
        }
    }
}

/// One arrival's fate, in arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalOutcome {
    /// Whether the request was embedded.
    pub accepted: bool,
    /// Its objective cost (`0.0` when rejected).
    pub cost: f64,
}

/// Full per-event record of a lifecycle run — everything the
/// replay-equivalence check compares bit-for-bit.
#[derive(Debug, Clone, Serialize)]
pub struct LifecycleOutcome {
    /// The aggregate metrics.
    pub metrics: LifecycleMetrics,
    /// Per-arrival acceptance and cost, in arrival order.
    pub per_arrival: Vec<ArrivalOutcome>,
    /// Arrival indices in the order their leases were released
    /// (including the final drain).
    pub departure_order: Vec<usize>,
}

impl LifecycleOutcome {
    /// Sum of accepted costs (bit-identical across runs: summation is
    /// in arrival order).
    pub fn total_cost(&self) -> f64 {
        self.per_arrival.iter().map(|a| a.cost).sum()
    }
}

/// Current trace format version (see [`ReplayTrace::format_version`]).
pub const TRACE_FORMAT_VERSION: u32 = 1;

/// Sampling stride of the lifecycle's constraint audits: every n-th
/// arrival's accepted embedding is re-checked against the paper's
/// integer program by `dagsfc-audit` (auditing every arrival would
/// roughly double the per-request cost for a check that should never
/// fire; use [`crate::audit_trace`] for exhaustive audits).
pub const AUDIT_SAMPLE_INTERVAL: usize = 8;

/// A solver-independent arrival/departure schedule: the offered load of
/// a lifecycle run, frozen so it can be replayed through an external
/// serving process.
///
/// `depart_at[i]` is the **absolute** departure time of arrival `i` in
/// fixed-point µ-intervals (see [`to_fixed`]), valid whether or not the
/// request ends up accepted — the replayer simply never schedules the
/// departure of a rejected request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayTrace {
    /// Version tag for forward compatibility.
    pub format_version: u32,
    /// Network/chain/flow parameters (the replayer regenerates the
    /// network and per-arrival requests from this).
    pub base: SimConfig,
    /// The embedding algorithm to run.
    pub algo: Algo,
    /// Number of arrivals (one per time unit).
    pub arrivals: usize,
    /// Mean holding time the schedule was drawn with (provenance).
    pub mean_holding: f64,
    /// Fixed-point absolute departure time per arrival.
    pub depart_at: Vec<u64>,
}

/// Time in fixed-point µ-intervals: the lifecycle's event clock.
/// Integer comparison keeps departure-vs-arrival ordering exact across
/// processes.
pub fn to_fixed(t: f64) -> u64 {
    (t * 1_000_000.0) as u64
}

/// The solver seed for arrival `i` under base seed `base` — shared by
/// the simulator and the daemon so both solve identically.
pub fn arrival_seed(base: u64, arrival: usize) -> u64 {
    base ^ ((arrival as u64) << 1)
}

/// Why [`embed_and_commit`] turned a request away.
#[derive(Debug, Clone)]
pub enum EmbedRejection {
    /// The solver found no feasible embedding.
    Solve(SolveError),
    /// The solver's embedding failed reuse accounting (references an
    /// undeployed instance) — should not happen, but never aborts.
    Account(ModelError),
    /// The ledger refused the commit (capacity raced away) — should not
    /// happen when solving over the ledger's own residual.
    Commit(NetError),
    /// The committed embedding failed its post-commit constraint audit
    /// and was rolled back (serve daemon's audit-on-commit gate). The
    /// payload is the audit summary.
    Audit(String),
}

impl std::fmt::Display for EmbedRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmbedRejection::Solve(e) => write!(f, "{e}"),
            EmbedRejection::Account(e) => write!(f, "accounting failed: {e}"),
            EmbedRejection::Commit(e) => write!(f, "commit failed: {e}"),
            EmbedRejection::Audit(summary) => write!(f, "audit failed: {summary}"),
        }
    }
}

impl EmbedRejection {
    /// Whether this rejection is deadline-classified: the solver proved
    /// the flow's delay budget unmeetable (as opposed to capacity or
    /// topology infeasibility, commit races, audit failures).
    pub fn is_deadline_infeasible(&self) -> bool {
        matches!(self, EmbedRejection::Solve(e) if e.is_deadline_infeasible())
    }

    /// Whether this rejection is rule-classified: the solver proved the
    /// request's placement rules (affinity / anti-affinity / precedence
    /// order) unsatisfiable, as opposed to capacity or deadline
    /// infeasibility.
    pub fn is_rule_infeasible(&self) -> bool {
        matches!(self, EmbedRejection::Solve(e) if e.is_rule_infeasible())
    }
}

impl std::error::Error for EmbedRejection {}

/// An accepted request: its lease plus the solve it came from.
#[derive(Debug)]
pub struct EmbedSuccess {
    /// Handle for the committed resources (release on departure).
    pub lease: LeaseId,
    /// Objective cost of the embedding.
    pub cost: CostBreakdown,
    /// The solver's instrumentation counters.
    pub stats: SolverStats,
    /// The full solve outcome (embedding included).
    pub outcome: SolveOutcome,
}

/// The per-request serving kernel: solve `(sfc, flow)` over `residual`
/// with `algo` seeded by `seed`, account the embedding's loads, and
/// commit them atomically to `ledger`.
///
/// `residual` must reflect `ledger`'s current state (callers either
/// pass `ledger.residual()` or an epoch-tagged cache of it); the commit
/// then cannot fail, but if it ever does the ledger is left untouched
/// and the request is merely rejected. Both `run_lifecycle` and the
/// `dagsfc-serve` daemon route every request through this function —
/// that shared path is what makes trace replay bit-for-bit equivalent.
pub fn embed_and_commit(
    ledger: &mut CommitLedger<'_>,
    residual: &Network,
    sfc: &DagSfc,
    flow: &Flow,
    algo: Algo,
    seed: u64,
) -> Result<EmbedSuccess, EmbedRejection> {
    let solver = algo.build(seed);
    let out = solver
        .solve(residual, sfc, flow)
        .map_err(EmbedRejection::Solve)?;
    let acct = out
        .embedding
        .try_account(residual, sfc, flow)
        .map_err(EmbedRejection::Account)?;
    let vnf_loads = acct
        .vnf_load
        .iter()
        .map(|(&(node, kind), &load)| (node, kind, load));
    let link_loads = acct
        .link_load
        .iter()
        .enumerate()
        .map(|(i, &load)| (LinkId(i as u32), load));
    let lease = ledger
        // lint:allow(raw-commit) — this *is* the sanctioned wrapper
        .commit(vnf_loads, link_loads)
        .map_err(EmbedRejection::Commit)?;
    Ok(EmbedSuccess {
        lease,
        cost: out.cost,
        stats: out.stats.clone(),
        outcome: out,
    })
}

/// Freezes the offered load of `cfg` into a replayable schedule.
///
/// Exponential holding: `-mean · ln(U)` with a floor of one interval so
/// every request occupies at least one slot. The draw happens for every
/// arrival — accepted or not — so the schedule is independent of which
/// solver runs and of what it decides.
pub fn export_trace(cfg: &LifecycleConfig) -> ReplayTrace {
    let mut holding_rng = StdRng::seed_from_u64(cfg.base.seed ^ 0x11FE_C7C1E);
    let depart_at = (0..cfg.arrivals)
        .map(|arrival| {
            let u: f64 = holding_rng.gen_range(1e-12..1.0);
            let holding = (-cfg.mean_holding * u.ln()).max(1.0);
            to_fixed(arrival as f64 + holding)
        })
        .collect();
    ReplayTrace {
        format_version: TRACE_FORMAT_VERSION,
        base: cfg.base.clone(),
        algo: cfg.algo,
        arrivals: cfg.arrivals,
        mean_holding: cfg.mean_holding,
        depart_at,
    }
}

/// Runs a frozen schedule in-process against `net`.
///
/// Event order: before arrival `i`, every scheduled departure with time
/// `≤ i` fires, ties broken by ascending arrival index; then arrival
/// `i` is offered. This is exactly the order an external replayer
/// produces over the wire, which is what makes the daemon's results
/// comparable bit-for-bit.
pub fn run_trace(net: &Network, trace: &ReplayTrace) -> LifecycleOutcome {
    let mut ledger = CommitLedger::new(net);
    let mut departures = DepartureQueue::new();
    let mut leases: Vec<Option<LeaseId>> = vec![None; trace.arrivals];

    let mut per_arrival = Vec::with_capacity(trace.arrivals);
    let mut departure_order = Vec::new();
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut total_cost = 0.0;
    let mut concurrent = 0usize;
    let mut peak = 0usize;
    let mut concurrent_integral = 0.0;
    let auditor = ConstraintAuditor::new();
    let mut audited = 0usize;
    let mut audit_violations = 0usize;

    for arrival in 0..trace.arrivals {
        let now = to_fixed(arrival as f64);
        while let Some(id) = departures.pop_due(now) {
            // lint:allow(expect) — invariant: departs once
            let lease = leases[id].take().expect("departs once");
            // lint:allow(expect) — invariant: lease is active
            ledger.release(lease).expect("lease is active");
            departure_order.push(id);
            concurrent -= 1;
        }
        concurrent_integral += concurrent as f64;

        let (sfc, flow) = instance_request(&trace.base, net, arrival);
        let residual = ledger.residual();
        match embed_and_commit(
            &mut ledger,
            &residual,
            &sfc,
            &flow,
            trace.algo,
            arrival_seed(trace.base.seed, arrival),
        ) {
            Ok(s) => {
                if arrival % AUDIT_SAMPLE_INTERVAL == 0 {
                    // Audit against the residual the solver saw, not the
                    // base network — capacity constraints are per-state.
                    let report = auditor.audit_outcome(&residual, &sfc, &flow, &s.outcome);
                    audited += 1;
                    if !report.is_clean() {
                        audit_violations += 1;
                    }
                }
                leases[arrival] = Some(s.lease);
                departures.schedule(trace.depart_at[arrival], arrival);
                concurrent += 1;
                peak = peak.max(concurrent);
                accepted += 1;
                let cost = s.cost.total();
                total_cost += cost;
                per_arrival.push(ArrivalOutcome {
                    accepted: true,
                    cost,
                });
            }
            Err(_) => {
                rejected += 1;
                per_arrival.push(ArrivalOutcome {
                    accepted: false,
                    cost: 0.0,
                });
            }
        }
    }

    // Drain all remaining departures to measure leakage.
    while let Some((_, id)) = departures.pop() {
        // lint:allow(expect) — invariant: departs once
        let lease = leases[id].take().expect("departs once");
        // lint:allow(expect) — invariant: lease is active
        ledger.release(lease).expect("lease is active");
        departure_order.push(id);
    }

    LifecycleOutcome {
        metrics: LifecycleMetrics {
            algo: trace.algo.name(),
            accepted,
            rejected,
            mean_cost: if accepted == 0 {
                0.0
            } else {
                total_cost / accepted as f64
            },
            peak_concurrent: peak,
            mean_concurrent: if trace.arrivals == 0 {
                0.0
            } else {
                concurrent_integral / trace.arrivals as f64
            },
            final_leak: ledger.outstanding_load(),
            audited,
            audit_violations,
        },
        per_arrival,
        departure_order,
    }
}

/// Runs the lifecycle simulation with full per-event detail.
pub fn run_lifecycle_detailed(cfg: &LifecycleConfig) -> LifecycleOutcome {
    let net = instance_network(&cfg.base);
    run_trace(&net, &export_trace(cfg))
}

/// Runs the lifecycle simulation (aggregate metrics only).
pub fn run_lifecycle(cfg: &LifecycleConfig) -> LifecycleMetrics {
    run_lifecycle_detailed(cfg).metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SimConfig {
        SimConfig {
            network_size: 30,
            sfc_size: 4,
            vnf_capacity: 6.0,
            link_capacity: 6.0,
            seed: 0xBEEF,
            ..SimConfig::default()
        }
    }

    #[test]
    fn no_resource_leaks() {
        let m = run_lifecycle(&LifecycleConfig {
            base: base(),
            arrivals: 60,
            mean_holding: 8.0,
            algo: Algo::Mbbe,
        });
        assert!(m.final_leak.abs() < 1e-6, "leaked {}", m.final_leak);
        assert_eq!(m.accepted + m.rejected, 60);
        assert!(m.peak_concurrent >= 1);
        assert!(m.mean_concurrent > 0.0);
        assert!(m.peak_concurrent as f64 >= m.mean_concurrent);
        assert!(m.audited > 0, "sampled audits must run");
        assert_eq!(m.audit_violations, 0, "sampled audits must be clean");
    }

    #[test]
    fn departures_raise_acceptance() {
        // Same offered sequence: short holding times free capacity and
        // must admit at least as many requests as near-infinite ones.
        let short = run_lifecycle(&LifecycleConfig {
            base: base(),
            arrivals: 80,
            mean_holding: 3.0,
            algo: Algo::Mbbe,
        });
        let long = run_lifecycle(&LifecycleConfig {
            base: base(),
            arrivals: 80,
            mean_holding: 1e9,
            algo: Algo::Mbbe,
        });
        assert!(
            short.accepted >= long.accepted,
            "short-holding accepted {} < long-holding {}",
            short.accepted,
            long.accepted
        );
        assert!(long.rejected > 0, "infinite holding must saturate");
    }

    #[test]
    fn deterministic_bit_for_bit() {
        // Same seed + config ⇒ identical acceptance, cost series, and
        // departure order — the property the trace-replay equivalence
        // acceptance criterion builds on.
        let cfg = LifecycleConfig {
            base: base(),
            arrivals: 40,
            mean_holding: 5.0,
            algo: Algo::Minv,
        };
        let a = run_lifecycle_detailed(&cfg);
        let b = run_lifecycle_detailed(&cfg);
        assert_eq!(a.metrics.accepted, b.metrics.accepted);
        assert_eq!(a.metrics.peak_concurrent, b.metrics.peak_concurrent);
        // Bit-for-bit: exact f64 equality, not tolerance.
        assert_eq!(a.per_arrival, b.per_arrival);
        assert_eq!(a.departure_order, b.departure_order);
        assert_eq!(a.total_cost(), b.total_cost());
        assert_eq!(a.metrics.mean_cost, b.metrics.mean_cost);
    }

    #[test]
    fn trace_schedule_is_solver_independent() {
        // The frozen schedule must not depend on which algorithm runs.
        let mk = |algo| LifecycleConfig {
            base: base(),
            arrivals: 30,
            mean_holding: 4.0,
            algo,
        };
        let a = export_trace(&mk(Algo::Minv));
        let b = export_trace(&mk(Algo::Mbbe));
        assert_eq!(a.depart_at, b.depart_at);
    }

    #[test]
    fn replaying_exported_trace_matches_direct_run() {
        let cfg = LifecycleConfig {
            base: base(),
            arrivals: 40,
            mean_holding: 5.0,
            algo: Algo::Mbbe,
        };
        let direct = run_lifecycle_detailed(&cfg);
        let net = instance_network(&cfg.base);
        let replayed = run_trace(&net, &export_trace(&cfg));
        assert_eq!(direct.per_arrival, replayed.per_arrival);
        assert_eq!(direct.departure_order, replayed.departure_order);
    }

    #[test]
    fn matches_online_when_nothing_departs() {
        // With effectively infinite holding, lifecycle == online.
        let b = base();
        let lc = run_lifecycle(&LifecycleConfig {
            base: b.clone(),
            arrivals: 50,
            mean_holding: 1e9,
            algo: Algo::Minv,
        });
        let ol = crate::online::run_online(&crate::online::OnlineConfig {
            base: b,
            requests: 50,
            algo: Algo::Minv,
        });
        assert_eq!(lc.accepted, ol.accepted);
        assert_eq!(lc.rejected, ol.rejected);
    }

    #[test]
    fn embed_and_commit_round_trips_through_ledger() {
        let cfg = base();
        let net = instance_network(&cfg);
        let mut ledger = CommitLedger::new(&net);
        let (sfc, flow) = instance_request(&cfg, &net, 0);
        let residual = ledger.residual();
        let s = embed_and_commit(
            &mut ledger,
            &residual,
            &sfc,
            &flow,
            Algo::Minv,
            arrival_seed(cfg.seed, 0),
        )
        .expect("fresh network admits the first request");
        assert!(ledger.is_active(s.lease));
        assert!(ledger.outstanding_load() > 0.0);
        assert!(s.cost.total() > 0.0);
        ledger.release(s.lease).unwrap();
        assert!(ledger.outstanding_load().abs() < 1e-12);
    }
}
