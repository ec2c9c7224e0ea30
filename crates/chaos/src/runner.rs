//! The in-process chaos run: the scenario's trace and fault plan
//! through the lifecycle driver ([`dagsfc_sim::drive`]) over a
//! [`LedgerBackend`] — the ground truth a daemon-driven chaos replay is
//! verified against.
//!
//! The driver fires due departures (dropping the plan's releases), then
//! due faults, then offers each arrival over the faulted residual; the
//! backend audits every commit and rolls a violating one back
//! (mirroring the daemon's audit-on-commit gate), then reclaims the
//! orphaned leases after the final drain. The run must end with zero
//! outstanding load and zero audit failures, no matter what the plan
//! threw at it.

use crate::scenario::ChaosScenario;
use dagsfc_net::Network;
use dagsfc_sim::{LedgerBackend, LifecycleOutcome};
use serde::Serialize;

/// What a chaos run observed, in process ([`run_chaos`]) or through a
/// daemon ([`crate::replay_chaos`]); the two compare bit-for-bit.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosOutcome {
    /// Fates, release order and counts. In process, its metrics also
    /// carry the ledger's checks: the audits and the leak.
    pub lifecycle: LifecycleOutcome,
    /// Orphaned leases the end-of-run reclaim swept.
    pub orphans_reclaimed: u64,
}

/// Runs `scenario` in-process against `net`.
pub fn run_chaos(net: &Network, scenario: &ChaosScenario) -> ChaosOutcome {
    let plan = &scenario.plan;
    let mut backend = LedgerBackend::new(net);
    let lifecycle = backend.run(&scenario.trace, &plan.faults, &plan.drop_release);
    ChaosOutcome {
        lifecycle,
        orphans_reclaimed: backend.ledger.orphans_reclaimed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ChaosIntensity;
    use dagsfc_sim::{Algo, LifecycleConfig, SimConfig};

    fn scenario(chaos_seed: u64) -> ChaosScenario {
        ChaosScenario::generate(
            &LifecycleConfig {
                base: SimConfig {
                    network_size: 30,
                    sfc_size: 4,
                    vnf_capacity: 6.0,
                    link_capacity: 6.0,
                    seed: 0xBEEF,
                    ..SimConfig::default()
                },
                arrivals: 50,
                mean_holding: 6.0,
                algo: Algo::Mbbe,
            },
            chaos_seed,
            &ChaosIntensity::default(),
        )
    }

    #[test]
    fn chaos_run_is_deterministic_and_certified() {
        let s = scenario(0xFA11);
        let net = s.network();
        let a = run_chaos(&net, &s);
        let b = run_chaos(&net, &s);
        assert_eq!(
            a.orphans_reclaimed,
            a.lifecycle.metrics.dropped_releases as u64
        );
        // Bit-for-bit: exact f64 equality, not tolerance.
        assert_eq!(a.lifecycle.per_arrival, b.lifecycle.per_arrival);
        assert_eq!(a.lifecycle.departure_order, b.lifecycle.departure_order);
        assert_eq!(a.lifecycle.total_cost(), b.lifecycle.total_cost());

        let (a, b) = (&a.lifecycle.metrics, &b.lifecycle.metrics);
        let checks = a.checks.unwrap();
        assert_eq!(a.faults_applied, b.faults_applied);
        assert_eq!(a.accepted + a.rejected, s.trace.arrivals);
        assert!(a.accepted > 0, "chaos must not kill every request");
        assert!(a.faults_applied > 0, "the plan must actually fire");
        assert_eq!(checks.audited, a.accepted + checks.audit_violations);
        assert_eq!(
            checks.audit_violations, 0,
            "never certify a violating embed"
        );
        assert!(a.dropped_releases > 0, "misbehavior must occur");
        assert!(
            checks.final_leak.abs() < 1e-6,
            "leaked {}",
            checks.final_leak
        );
    }

    #[test]
    fn faults_change_outcomes_but_never_correctness() {
        let s = scenario(0xFA11);
        let net = s.network();
        let chaotic = run_chaos(&net, &s).lifecycle;
        // The same offered load without faults (empty plan) is a plain
        // lifecycle.
        let mut calm = s.clone();
        calm.plan.faults.clear();
        calm.plan.drop_release.clear();
        let base = run_chaos(&net, &calm).lifecycle;
        assert_eq!(base.metrics.faults_applied, 0);
        let checks = base.metrics.checks.unwrap();
        assert_eq!(checks.audit_violations, 0);
        assert!(checks.final_leak.abs() < 1e-6);
        let plain = dagsfc_sim::run_trace(&net, &s.trace);
        assert_eq!(base.per_arrival, plain.per_arrival);
        assert_eq!(base.departure_order, plain.departure_order);
        // Chaos must actually perturb the run (else the plan is inert).
        // Note upward churn can make a faulted run accept MORE, so the
        // only safe claim is "different", not "worse".
        assert_ne!(
            chaotic.per_arrival, base.per_arrival,
            "fault plan changed nothing"
        );
    }

    #[test]
    fn delay_constrained_chaos_routes_around_down_links_within_budget() {
        // Every flow carries a delay budget; the fault plan takes links
        // and nodes down mid-run. Accepted embeddings must route around
        // the outages AND stay within budget — the auditor re-derives
        // the end-to-end delay from the substrate's per-link delays, so
        // a solver that leaked a down link or blew the SLA would show up
        // as an audit failure here.
        let mut s = scenario(0xFA11);
        s.trace.base.link_delay_us = Some(10.0);
        s.trace.base.delay_budget_us = Some(150.0);
        let net = s.network();
        let out = run_chaos(&net, &s).lifecycle;
        assert!(
            s.plan
                .faults
                .iter()
                .any(|f| matches!(f.event, dagsfc_net::FaultEvent::LinkDown { .. })),
            "plan must actually take links down"
        );
        assert!(out.metrics.faults_applied > 0);
        assert!(
            out.metrics.accepted > 0,
            "budget 150 us must admit some requests"
        );
        assert_eq!(
            out.metrics.checks.unwrap().audit_violations,
            0,
            "an accepted embedding crossed a down link or blew its delay budget"
        );
        // Determinism holds for the delay-constrained run too.
        let again = run_chaos(&net, &s).lifecycle;
        assert_eq!(out.per_arrival, again.per_arrival);

        // Tightening the budget to the impossible rejects everything —
        // and cleanly (no audit failures, no leaks), proving rejections
        // flow through the deadline path rather than panicking mid-run.
        let mut strict = s.clone();
        strict.trace.base.delay_budget_us = Some(0.001);
        let out = run_chaos(&net, &strict).lifecycle.metrics;
        let checks = out.checks.unwrap();
        assert_eq!(out.accepted, 0);
        assert_eq!(checks.audit_violations, 0);
        assert!(checks.final_leak.abs() < 1e-6);
    }

    #[test]
    fn drop_release_orphans_are_fully_reclaimed() {
        let mut s = scenario(0x0DD);
        // Drop every release: every accepted lease becomes an orphan.
        s.plan.drop_release = (0..s.trace.arrivals).collect();
        let net = s.network();
        let out = run_chaos(&net, &s);
        let m = &out.lifecycle.metrics;
        assert_eq!(out.lifecycle.departure_order, Vec::<usize>::new());
        assert_eq!(m.dropped_releases, m.accepted);
        assert_eq!(out.orphans_reclaimed, m.accepted as u64);
        assert!(m.checks.unwrap().final_leak.abs() < 1e-6);
    }
}
