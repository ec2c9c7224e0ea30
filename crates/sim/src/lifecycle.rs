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
//! The module is built around three serving-grade primitives that
//! `dagsfc-serve` and `dagsfc-chaos` share verbatim, so the research
//! path and the daemon's serving path cannot drift apart:
//!
//! * [`embed_and_commit`] — the per-request kernel: solve over the
//!   residual network, account the loads, and commit them atomically to
//!   a [`CommitLedger`], yielding a lease;
//! * [`ReplayTrace`] — a solver-independent arrival/departure schedule.
//!   Holding times are drawn for **every** arrival up front (accepted
//!   or not), so the schedule depends only on the seed: an external
//!   replayer that learns acceptance per-request still produces the
//!   exact event order of the in-process simulation;
//! * [`drive`] — the one event loop. It replays a trace, with any
//!   scheduled faults and dropped releases, against a
//!   [`LifecycleBackend`] — the in-process [`LedgerBackend`] or a
//!   daemon behind a client — and records the same
//!   [`LifecycleOutcome`] for either.

use crate::audit::ArrivalAudit;
use crate::config::SimConfig;
use crate::departures::DepartureQueue;
use crate::runner::{instance_network, instance_request, Algo};
use dagsfc_audit::ConstraintAuditor;
use dagsfc_core::solvers::SolveOutcome;
use dagsfc_core::{DagSfc, Flow, ModelError, SolveError};
use dagsfc_net::{CommitLedger, FaultEvent, LeaseId, LinkId, NetError, Network};
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

/// Aggregate outcome of a lifecycle run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct LifecycleMetrics {
    /// Algorithm name.
    pub algo: &'static str,
    /// Requests embedded successfully.
    pub accepted: usize,
    /// Requests rejected.
    pub rejected: usize,
    /// Mean embedding cost over accepted requests.
    pub mean_cost: f64,
    /// Largest number of concurrently live leases.
    pub peak_concurrent: usize,
    /// Time-averaged number of concurrently live leases.
    pub mean_concurrent: f64,
    /// Departures whose release was dropped: their leases stayed live
    /// until the end-of-run reclaim.
    pub dropped_releases: usize,
    /// Scheduled faults that changed the substrate.
    pub faults_applied: u64,
    /// What only the in-process [`LedgerBackend`] measures; `None` for
    /// a replay through a daemon, whose own stats carry it.
    pub checks: Option<LedgerChecks>,
}

/// The in-process ledger's checks of a run ([`LedgerBackend::run`]).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LedgerChecks {
    /// Load still committed after the final drain and the reclaim of
    /// the dropped releases' leases — a leak detector; must be ~0.
    pub final_leak: f64,
    /// Commits re-checked by the solver-independent constraint
    /// auditor: every one.
    pub audited: usize,
    /// Audits that reported at least one constraint violation; each
    /// such commit was rolled back and its arrival rejected. Must be 0;
    /// anything else is a solver or accounting bug.
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
    /// (including the final drain; dropped releases excluded).
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

/// A solver-independent arrival/departure schedule: the offered load of
/// a lifecycle run, frozen so it can be replayed through an external
/// serving process.
///
/// `depart_at[i]` is the **absolute** departure time of arrival `i` in
/// fixed-point µ-intervals (see [`to_fixed`]), valid whether or not the
/// request ends up accepted — the replayer simply never schedules the
/// departure of a rejected request. The loaders require exactly one
/// time per arrival ([`crate::io::check_trace`]).
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

/// One fault event pinned to the lifecycle's fixed-point clock.
///
/// At each arrival boundary, every scheduled fault with `at ≤ now` fires
/// after due departures and before the arrival is offered; ties break on
/// ascending `seq` (the generation order), so the event sequence is
/// total-ordered and identical in every run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledFault {
    /// Absolute fire time in fixed-point µ-intervals (see [`to_fixed`]).
    pub at: u64,
    /// Tie-breaker: generation order.
    pub seq: u32,
    /// The substrate event itself.
    pub event: FaultEvent,
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
    /// The solve outcome: embedding, objective cost and the solver's
    /// instrumentation counters.
    pub outcome: SolveOutcome,
}

/// The per-request serving kernel: solve `(sfc, flow)` over `residual`
/// with `algo` seeded by `seed`, account the embedding's loads, and
/// commit them atomically to `ledger`.
///
/// `residual` must reflect `ledger`'s current state (callers pass
/// `ledger.residual()` or a view patched to it, with resources outside
/// a shard's scope zeroed); the commit then cannot fail, but if it ever
/// does the ledger is left untouched and the request is merely
/// rejected. Every commit goes through this function: the
/// [`LedgerBackend`] behind in-process runs, and the shard engine
/// behind the daemon. Both audit the outcome; at one shard they decide
/// alike, which is what makes trace replay bit-for-bit equivalent.
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
        outcome: out,
    })
}

/// Whatever serves a lifecycle run: the in-process [`LedgerBackend`],
/// or a daemon behind a client. [`drive`] owns the event order; a
/// backend carries out one event at a time.
pub trait LifecycleBackend {
    /// Why an event could not be carried out (a broken connection, an
    /// unknown lease). It aborts the run.
    type Error;

    /// Offers arrival `arrival`'s request, solved by `algo` under
    /// `seed`: the lease and total cost when committed, `None` when
    /// rejected.
    fn embed(
        &mut self,
        arrival: usize,
        sfc: &DagSfc,
        flow: &Flow,
        algo: Algo,
        seed: u64,
    ) -> Result<Option<(LeaseId, f64)>, Self::Error>;

    /// Releases a lease `embed` returned.
    fn release(&mut self, lease: LeaseId) -> Result<(), Self::Error>;

    /// Applies a substrate fault; whether it changed any state.
    fn fault(&mut self, event: &FaultEvent) -> Result<bool, Self::Error>;
}

/// The lifecycle event loop: every in-process run and every daemon
/// replay goes through this one copy.
///
/// Event order at arrival boundary `i` (time `now = to_fixed(i)`):
///
/// 1. every departure due by `now` fires, ascending `(time, arrival)`;
///    one whose arrival is listed in `dropped` is counted but never
///    released — its lease stays live (the client forgot);
/// 2. every fault due by `now` is applied, ascending `(at, seq)`;
/// 3. arrival `i`'s request, regenerated from `trace.base` over `net`,
///    is offered with its [`arrival_seed`].
///
/// After the last arrival the remaining departures fire in the same
/// order; faults due later never fire. With no faults and no drops
/// this is a plain lifecycle.
pub fn drive<B: LifecycleBackend>(
    backend: &mut B,
    net: &Network,
    trace: &ReplayTrace,
    faults: &[ScheduledFault],
    dropped: &[usize],
) -> Result<LifecycleOutcome, B::Error> {
    let mut faults: Vec<&ScheduledFault> = faults.iter().collect();
    faults.sort_by_key(|f| (f.at, f.seq));
    let mut faults = faults.into_iter().peekable();
    let mut departures = DepartureQueue::new();
    let mut leases: Vec<Option<LeaseId>> = vec![None; trace.arrivals];
    let mut metrics = LifecycleMetrics {
        algo: trace.algo.name(),
        ..LifecycleMetrics::default()
    };
    let mut per_arrival = Vec::with_capacity(trace.arrivals);
    let mut departure_order = Vec::new();
    let (mut live, mut live_sum) = (0usize, 0usize);

    // One pass per boundary; the extra last one is the final drain.
    for arrival in 0..=trace.arrivals {
        let drain = arrival == trace.arrivals;
        let now = to_fixed(arrival as f64);
        loop {
            let due = if drain {
                departures.pop().map(|(_, id)| id)
            } else {
                departures.pop_due(now)
            };
            let Some(id) = due else { break };
            // lint:allow(expect) — invariant: departs once
            let lease = leases[id].take().expect("departs once");
            if dropped.contains(&id) {
                metrics.dropped_releases += 1;
            } else {
                backend.release(lease)?;
                departure_order.push(id);
                live -= 1;
            }
        }
        if drain {
            break;
        }
        live_sum += live;

        while let Some(f) = faults.next_if(|f| f.at <= now) {
            metrics.faults_applied += u64::from(backend.fault(&f.event)?);
        }

        let (sfc, flow) = instance_request(&trace.base, net, arrival);
        let seed = arrival_seed(trace.base.seed, arrival);
        let fate = backend.embed(arrival, &sfc, &flow, trace.algo, seed)?;
        if let Some((lease, _)) = fate {
            leases[arrival] = Some(lease);
            departures.schedule(trace.depart_at[arrival], arrival);
            live += 1;
            metrics.peak_concurrent = metrics.peak_concurrent.max(live);
        }
        per_arrival.push(ArrivalOutcome {
            accepted: fate.is_some(),
            cost: fate.map_or(0.0, |(_, cost)| cost),
        });
    }

    metrics.accepted = per_arrival.iter().filter(|a| a.accepted).count();
    metrics.rejected = trace.arrivals - metrics.accepted;
    let mut out = LifecycleOutcome {
        metrics,
        per_arrival,
        departure_order,
    };
    if out.metrics.accepted > 0 {
        out.metrics.mean_cost = out.total_cost() / out.metrics.accepted as f64;
    }
    if trace.arrivals > 0 {
        out.metrics.mean_concurrent = live_sum as f64 / trace.arrivals as f64;
    }
    Ok(out)
}

/// The in-process backend: one [`CommitLedger`] behind the daemon's
/// audit-on-commit gate. Each arrival is solved over the ledger's
/// residual and committed by [`embed_and_commit`], owned by its arrival
/// index; the commit is then audited against that residual — the state
/// the solver saw, so capacity findings reflect the online constraints
/// — and rolled back, its arrival rejected, on any violation.
pub struct LedgerBackend<'a> {
    /// The ledger every arrival commits to.
    pub ledger: CommitLedger<'a>,
    auditor: ConstraintAuditor,
    /// Commits audited (every one).
    pub(crate) audited: usize,
    /// Largest |recomputed − reported| objective gap over clean audits —
    /// must stay within the auditor's cost tolerance.
    pub(crate) max_cost_drift: f64,
    /// Every audit that found a violation, in arrival order.
    pub(crate) findings: Vec<ArrivalAudit>,
}

impl<'a> LedgerBackend<'a> {
    /// A backend over a fresh ledger on `net`.
    pub fn new(net: &'a Network) -> Self {
        LedgerBackend {
            ledger: CommitLedger::new(net),
            auditor: ConstraintAuditor::new(),
            audited: 0,
            max_cost_drift: 0.0,
            findings: Vec::new(),
        }
    }

    /// [`drive`]s `trace` through this backend over the ledger's
    /// network, then reclaims by owner the leases of the arrivals in
    /// `dropped` — as the daemon's `reclaim` does — and records the
    /// [`LedgerChecks`]. Any other lease still live, one the run failed
    /// to release, shows in the leak.
    pub fn run(
        &mut self,
        trace: &ReplayTrace,
        faults: &[ScheduledFault],
        dropped: &[usize],
    ) -> LifecycleOutcome {
        let net = self.ledger.network();
        // The driver releases only live leases, and plan faults name
        // this network's links and nodes.
        // lint:allow(expect) — invariant: ledger events are valid
        let mut out = drive(self, net, trace, faults, dropped).expect("ledger events are valid");
        for &arrival in dropped {
            self.ledger.reclaim_owner(arrival as u64);
        }
        out.metrics.checks = Some(LedgerChecks {
            final_leak: self.ledger.outstanding_load(),
            audited: self.audited,
            audit_violations: self.findings.len(),
        });
        out
    }
}

impl LifecycleBackend for LedgerBackend<'_> {
    type Error = NetError;

    fn embed(
        &mut self,
        arrival: usize,
        sfc: &DagSfc,
        flow: &Flow,
        algo: Algo,
        seed: u64,
    ) -> Result<Option<(LeaseId, f64)>, NetError> {
        let residual = self.ledger.residual();
        self.ledger.set_default_owner(Some(arrival as u64));
        let Ok(s) = embed_and_commit(&mut self.ledger, &residual, sfc, flow, algo, seed) else {
            return Ok(None);
        };
        let report = self.auditor.audit_outcome(&residual, sfc, flow, &s.outcome);
        self.audited += 1;
        let cost = s.outcome.cost.total();
        if report.is_clean() {
            let drift = (report.recomputed.total() - cost).abs();
            self.max_cost_drift = self.max_cost_drift.max(drift);
            return Ok(Some((s.lease, cost)));
        }
        self.findings.push(ArrivalAudit {
            arrival,
            reported_cost: cost,
            violations: report.violations,
        });
        self.ledger.release(s.lease)?;
        Ok(None)
    }

    fn release(&mut self, lease: LeaseId) -> Result<(), NetError> {
        self.ledger.release(lease)
    }

    fn fault(&mut self, event: &FaultEvent) -> Result<bool, NetError> {
        self.ledger.apply_fault(event)
    }
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

/// Runs a frozen schedule in-process against `net`, every commit
/// audited ([`LedgerBackend`] through [`drive`]). The daemon replaying
/// the same trace sees exactly this event order, which is what makes
/// its results comparable bit-for-bit.
pub fn run_trace(net: &Network, trace: &ReplayTrace) -> LifecycleOutcome {
    LedgerBackend::new(net).run(trace, &[], &[])
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
        let checks = m.checks.unwrap();
        assert!(
            checks.final_leak.abs() < 1e-6,
            "leaked {}",
            checks.final_leak
        );
        assert_eq!(m.accepted + m.rejected, 60);
        assert!(m.peak_concurrent >= 1);
        assert!(m.mean_concurrent > 0.0);
        assert!(m.peak_concurrent as f64 >= m.mean_concurrent);
        assert_eq!(checks.audited, m.accepted, "every commit is audited");
        assert_eq!(checks.audit_violations, 0, "audits must be clean");
    }

    #[test]
    fn a_lease_the_run_never_releases_shows_as_a_leak() {
        // A lease committed outside the schedule stands in for a
        // release the run missed: the reclaim of the dropped releases'
        // leases must not sweep it.
        let cfg = LifecycleConfig {
            base: base(),
            arrivals: 30,
            mean_holding: 4.0,
            algo: Algo::Minv,
        };
        let net = instance_network(&cfg.base);
        let (sfc, flow) = instance_request(&cfg.base, &net, 0);
        for dropped in [vec![], vec![0, 1, 2]] {
            let mut backend = LedgerBackend::new(&net);
            let residual = backend.ledger.residual();
            embed_and_commit(&mut backend.ledger, &residual, &sfc, &flow, cfg.algo, 1).unwrap();
            let stray = backend.ledger.outstanding_load();
            let out = backend.run(&export_trace(&cfg), &[], &dropped);
            assert!(out.metrics.dropped_releases > 0 || dropped.is_empty());
            let leak = out.metrics.checks.unwrap().final_leak;
            assert!((leak - stray).abs() < 1e-6, "leak {leak}, stray {stray}");
        }
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
        assert!(s.outcome.cost.total() > 0.0);
        ledger.release(s.lease).unwrap();
        assert!(ledger.outstanding_load().abs() < 1e-12);
    }
}
