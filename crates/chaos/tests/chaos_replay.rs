//! End-to-end chaos equivalence: a scenario replayed through a live
//! daemon — faults, dropped releases, slow clients, disconnect probes
//! and all — must match the in-process chaos runner bit for bit, at any
//! worker-pool size, and must never serve an uncertified embedding.

use dagsfc_chaos::{replay_chaos, run_chaos, ChaosIntensity, ChaosScenario};
use dagsfc_serve::{spawn_batched, BatchConfig, Client, ServerHandle};
use dagsfc_sim::{Algo, LifecycleConfig, SimConfig};

/// A 1-shard daemon over `net` with `workers` workers.
fn spawn(net: &dagsfc_net::Network, workers: usize) -> ServerHandle {
    let cfg = BatchConfig {
        workers_per_shard: workers,
        ..BatchConfig::default()
    };
    spawn_batched(net.clone(), 1, cfg, "127.0.0.1:0").expect("bind")
}

fn scenario() -> ChaosScenario {
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
            arrivals: 40,
            mean_holding: 6.0,
            algo: Algo::Mbbe,
        },
        0xFA11,
        &ChaosIntensity::default(),
    )
}

#[test]
fn daemon_chaos_replay_matches_runner_for_any_worker_count() {
    let s = scenario();
    let net = s.network();
    let truth = run_chaos(&net, &s);
    let m = &truth.lifecycle.metrics;
    assert!(m.accepted > 0, "scenario must accept something");
    assert!(m.rejected > 0, "scenario must reject something");
    assert!(m.faults_applied > 0, "the plan must fire");
    assert!(m.dropped_releases > 0, "misbehavior must occur");
    assert_eq!(m.checks.unwrap().audit_violations, 0);

    for workers in [1usize, 4] {
        let handle = spawn(&net, workers);
        let addr = handle.addr();
        let mut client = Client::connect(addr).expect("connect");
        let report = replay_chaos(&mut client, addr, &s).expect("chaos replay");
        drop(client);
        let stats = handle.join();

        let (got, want) = (&report.lifecycle, &truth.lifecycle);
        assert_eq!(
            got.per_arrival, want.per_arrival,
            "per-arrival fates diverged at workers={workers}"
        );
        assert_eq!(
            got.departure_order, want.departure_order,
            "departure order diverged at workers={workers}"
        );
        assert_eq!(got.total_cost(), want.total_cost());
        assert_eq!(got.metrics.dropped_releases, m.dropped_releases);
        assert_eq!(got.metrics.faults_applied, m.faults_applied);
        assert!(
            got.metrics.checks.is_none(),
            "a daemon replay runs no ledger checks"
        );
        assert_eq!(report.orphans_reclaimed, truth.orphans_reclaimed);
        assert_eq!(stats.faults_applied, m.faults_applied);
        assert_eq!(stats.orphans_reclaimed, truth.orphans_reclaimed);
        // Every accepted embedding was audited; none failed.
        assert_eq!(stats.audits_run, stats.accepted + stats.audits_failed);
        assert_eq!(stats.audits_failed, 0, "uncertified embedding served");
        // The ledger balances: drain + reclaim leaves nothing behind.
        assert_eq!(stats.active_leases, 0);
        assert!(
            stats.outstanding_load.abs() < 1e-9,
            "leaked {} at workers={workers}",
            stats.outstanding_load
        );
    }
}

#[test]
fn two_daemon_runs_print_identical_final_state() {
    // The CI chaos-smoke determinism check, in miniature: run the same
    // scenario twice at different worker counts and require the
    // deterministic slice of the final stats to be identical.
    let s = scenario();
    let net = s.network();
    let mut finals = Vec::new();
    for workers in [1usize, 3] {
        let handle = spawn(&net, workers);
        let addr = handle.addr();
        let mut client = Client::connect(addr).expect("connect");
        let report = replay_chaos(&mut client, addr, &s).expect("chaos replay");
        drop(client);
        let stats = handle.join();
        finals.push((
            stats.accepted,
            stats.rejected,
            stats.released,
            stats.epoch,
            stats.faults_applied,
            stats.orphans_reclaimed,
            stats.outstanding_load.to_bits(),
            report.lifecycle.total_cost().to_bits(),
        ));
    }
    assert_eq!(finals[0], finals[1], "final state depends on worker count");
}
