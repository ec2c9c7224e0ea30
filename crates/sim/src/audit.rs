//! Exhaustive trace auditing: the report of a [`run_trace`]-identical
//! replay whose every commit the [`LedgerBackend`] audits against the
//! residual the solver saw — the network state it actually faced — so
//! capacity findings reflect the online constraints, not the empty
//! network. A commit that fails its audit is rolled back and its
//! arrival rejected, exactly as the daemon's audit-on-commit gate does.
//!
//! [`run_trace`]: crate::lifecycle::run_trace

use crate::lifecycle::{LedgerBackend, ReplayTrace};
use dagsfc_audit::Violation;
use dagsfc_net::Network;
use serde::Serialize;

/// The auditor's findings for one committed arrival.
#[derive(Debug, Clone, Serialize)]
pub struct ArrivalAudit {
    /// Arrival index within the trace.
    pub arrival: usize,
    /// Objective cost the solver reported for this embedding.
    pub reported_cost: f64,
    /// The constraint violations found (non-empty by construction).
    pub violations: Vec<Violation>,
}

/// Aggregate outcome of an exhaustive trace audit.
#[derive(Debug, Clone, Serialize)]
pub struct TraceAuditOutcome {
    /// Algorithm the trace ran.
    pub algo: &'static str,
    /// Arrivals offered.
    pub arrivals: usize,
    /// Requests the solver embedded and committed (each one audited).
    pub accepted: usize,
    /// Requests the solver rejected (nothing to audit).
    pub rejected: usize,
    /// Audited embeddings with zero violations.
    pub clean: usize,
    /// Largest |recomputed − reported| objective gap over clean audits —
    /// must stay within the auditor's cost tolerance.
    pub max_cost_drift: f64,
    /// Per-arrival findings for every audit that was *not* clean.
    pub findings: Vec<ArrivalAudit>,
}

impl TraceAuditOutcome {
    /// True when every accepted embedding passed every constraint check.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Replays `trace` against `net` as [`run_trace`] does and reports the
/// audit of every commit — a clean audit certifies the very embeddings
/// a lifecycle run (or the serve daemon replaying the same trace)
/// commits.
///
/// [`run_trace`]: crate::lifecycle::run_trace
pub fn audit_trace(net: &Network, trace: &ReplayTrace) -> TraceAuditOutcome {
    let mut backend = LedgerBackend::new(net);
    backend.run(trace, &[], &[]);
    TraceAuditOutcome {
        algo: trace.algo.name(),
        arrivals: trace.arrivals,
        accepted: backend.audited,
        rejected: trace.arrivals - backend.audited,
        clean: backend.audited - backend.findings.len(),
        max_cost_drift: backend.max_cost_drift,
        findings: backend.findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::lifecycle::{export_trace, run_trace, LifecycleConfig};
    use crate::runner::{instance_network, Algo};

    fn cfg() -> LifecycleConfig {
        LifecycleConfig {
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
        }
    }

    #[test]
    fn full_audit_of_a_lifecycle_trace_is_clean() {
        let cfg = cfg();
        let net = instance_network(&cfg.base);
        let trace = export_trace(&cfg);
        let out = audit_trace(&net, &trace);
        assert!(out.accepted > 0, "trace must admit something");
        assert!(out.is_clean(), "findings: {:?}", out.findings);
        assert_eq!(out.clean, out.accepted);
        assert!(
            out.max_cost_drift <= dagsfc_audit::COST_TOLERANCE,
            "cost drift {}",
            out.max_cost_drift
        );
    }

    #[test]
    fn audit_replay_matches_lifecycle_acceptance() {
        let cfg = cfg();
        let net = instance_network(&cfg.base);
        let trace = export_trace(&cfg);
        let audit = audit_trace(&net, &trace);
        let lifecycle = run_trace(&net, &trace);
        assert_eq!(audit.accepted, lifecycle.metrics.accepted);
        assert_eq!(audit.rejected, lifecycle.metrics.rejected);
    }

    #[test]
    fn outcome_serializes_for_cli_reports() {
        let cfg = cfg();
        let net = instance_network(&cfg.base);
        let out = audit_trace(&net, &export_trace(&cfg));
        let json = serde_json::to_string(&out).unwrap();
        assert!(json.contains("max_cost_drift"), "{json}");
    }
}
