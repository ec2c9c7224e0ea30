//! `dagsfc chaos`: freeze and run deterministic fault-injection
//! scenarios.
//!
//! ```text
//! dagsfc chaos gen --out FILE [--arrivals 50] [--mean-holding 8] [--algo mbbe]
//!                  [--seed S] [--chaos-seed C] [--nodes N --capacity C ...]
//!                  [--link-failures 4] [--node-failures 2] [--churn 6]
//!                  [--drop-every 5] [--slow-every 7] [--probes 2]
//! dagsfc chaos run --scenario FILE [--queue 64] [--verify]
//! ```
//!
//! `run` spawns an in-process 1-shard daemon, replays the scenario
//! through a real socket, and prints a one-line JSON summary as its
//! **last** stdout line. The summary contains only deterministic
//! fields, so two runs of the same scenario must print byte-identical
//! summaries; CI diffs them.

use crate::plan::ChaosIntensity;
use crate::replay::replay_chaos;
use crate::runner::run_chaos;
use crate::scenario::{load_scenario, save_scenario, ChaosScenario};
use dagsfc_serve::cli::{queue_capacity, Flags};
use dagsfc_serve::{spawn_batched, BatchConfig, Client};
use dagsfc_sim::{Algo, LifecycleConfig, SimConfig};
use std::path::PathBuf;

/// The deterministic end-of-run summary `chaos run` prints as its last
/// stdout line. Wall-clock metrics are deliberately excluded: two runs
/// of one scenario must print byte-identical summaries.
#[derive(Debug, serde::Serialize)]
struct ChaosSummary {
    accepted: u64,
    rejected: u64,
    rejected_deadline: u64,
    rejected_capacity: u64,
    acceptance_ratio: f64,
    total_cost: f64,
    audits_run: u64,
    audits_failed: u64,
    faults_applied: u64,
    orphans_reclaimed: u64,
    dropped_releases: u64,
    released: u64,
    active_leases: u64,
    outstanding_load: f64,
    epoch: u64,
}

/// Entry point for `dagsfc chaos` / the chaos harness.
pub fn chaos_main(args: &[String]) -> Result<(), String> {
    match args.split_first() {
        Some((op, rest)) if op == "gen" => gen_main(&Flags::parse(rest, &[], GEN_FLAGS)?),
        Some((op, rest)) if op == "run" => {
            run_main(&Flags::parse(rest, &["verify"], &["scenario", "queue"])?)
        }
        other => Err(format!(
            "chaos requires an operation (gen|run), got {:?}",
            other.map(|(op, _)| op)
        )),
    }
}

/// The valued flags `chaos gen` reads.
const GEN_FLAGS: &[&str] = &[
    "out",
    "algo",
    "nodes",
    "kinds",
    "sfc-size",
    "seed",
    "capacity",
    "arrivals",
    "mean-holding",
    "link-failures",
    "node-failures",
    "churn",
    "churn-min",
    "churn-max",
    "drop-every",
    "slow-every",
    "probes",
    "chaos-seed",
];

fn gen_main(flags: &Flags) -> Result<(), String> {
    let out = flags
        .str("out")
        .ok_or("chaos gen requires --out FILE".to_string())?;
    let algo = flags.algo_or("algo", Algo::Mbbe)?;
    let cfg = LifecycleConfig {
        base: SimConfig {
            network_size: flags.usize_or("nodes", 30)?,
            vnf_kinds: flags.usize_or("kinds", 12)?,
            sfc_size: flags.usize_or("sfc-size", 4)?,
            seed: flags.u64_or("seed", SimConfig::default().seed)?,
            vnf_capacity: flags.f64_or("capacity", 6.0)?,
            link_capacity: flags.f64_or("capacity", 6.0)?,
            ..SimConfig::default()
        },
        arrivals: flags.usize_or("arrivals", 50)?,
        mean_holding: flags.f64_or("mean-holding", 8.0)?,
        algo,
    };
    cfg.base.validate().map_err(|e| e.to_string())?;
    let intensity = ChaosIntensity {
        link_failures: flags.usize_or("link-failures", 4)?,
        node_failures: flags.usize_or("node-failures", 2)?,
        churn_events: flags.usize_or("churn", 6)?,
        churn_min: flags.f64_or("churn-min", 0.5)?,
        churn_max: flags.f64_or("churn-max", 1.5)?,
        drop_release_every: flags.usize_or("drop-every", 5)?,
        slow_request_every: flags.usize_or("slow-every", 7)?,
        disconnect_probes: flags.usize_or("probes", 2)?,
    };
    let chaos_seed = flags.u64_or("chaos-seed", 0xC4A05)?;
    let scenario = ChaosScenario::generate(&cfg, chaos_seed, &intensity);
    save_scenario(&PathBuf::from(out), &scenario).map_err(|e| e.to_string())?;
    println!(
        "chaos scenario: {} arrivals, {} fault events, {} dropped releases, \
         {} slow requests, {} probes -> {out}",
        scenario.trace.arrivals,
        scenario.plan.faults.len(),
        scenario.plan.drop_release.len(),
        scenario.plan.slow_request.len(),
        scenario.plan.disconnect_before.len(),
    );
    Ok(())
}

fn run_main(flags: &Flags) -> Result<(), String> {
    let path = flags
        .str("scenario")
        .ok_or("chaos run requires --scenario FILE".to_string())?;
    let scenario = load_scenario(&PathBuf::from(path)).map_err(|e| e.to_string())?;
    let cfg = BatchConfig {
        queue_capacity: queue_capacity(flags)?,
        algo: scenario.trace.algo,
        ..BatchConfig::default()
    };
    let net = scenario.network();
    let handle = spawn_batched(net.clone(), 1, cfg, "127.0.0.1:0")
        .map_err(|e| format!("spawn server: {e}"))?;
    let addr = handle.addr();
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let report = replay_chaos(&mut client, addr, &scenario).map_err(|e| e.to_string())?;
    drop(client);
    let stats = handle.join();
    let replayed = &report.lifecycle;

    println!(
        "chaos replayed {} arrivals over TCP: {} accepted, {} rejected (ratio {:.3}); \
         {} faults applied, {} releases dropped, {} orphans reclaimed",
        scenario.trace.arrivals,
        replayed.metrics.accepted,
        replayed.metrics.rejected,
        replayed.metrics.acceptance_ratio(),
        stats.faults_applied,
        replayed.metrics.dropped_releases,
        report.orphans_reclaimed,
    );
    if stats.audits_failed != 0 {
        return Err(format!(
            "{} accepted embeddings FAILED their constraint audit",
            stats.audits_failed
        ));
    }

    if flags.has("verify") {
        let truth = run_chaos(&net, &scenario);
        let t = &truth.lifecycle;
        let diverged = t.per_arrival != replayed.per_arrival
            || t.departure_order != replayed.departure_order
            || t.metrics.faults_applied != stats.faults_applied
            || truth.orphans_reclaimed != report.orphans_reclaimed
            || t.metrics.dropped_releases != replayed.metrics.dropped_releases
            || t.metrics.checks.is_none_or(|c| c.audit_violations != 0);
        if diverged {
            return Err(format!(
                "chaos replay DIVERGED from the in-process runner: \
                 in-process accepted {} (cost {:.6}), replay accepted {} (cost {:.6})",
                t.metrics.accepted,
                t.total_cost(),
                replayed.metrics.accepted,
                replayed.total_cost()
            ));
        }
        println!(
            "verified: bit-for-bit equal to the in-process chaos runner \
             ({} accepted, total cost {:.6})",
            t.metrics.accepted,
            t.total_cost()
        );
    }

    let summary = ChaosSummary {
        accepted: stats.accepted,
        rejected: stats.rejected,
        rejected_deadline: stats.rejected_deadline,
        rejected_capacity: stats.rejected_capacity,
        acceptance_ratio: replayed.metrics.acceptance_ratio(),
        total_cost: replayed.total_cost(),
        audits_run: stats.audits_run,
        audits_failed: stats.audits_failed,
        faults_applied: stats.faults_applied,
        orphans_reclaimed: stats.orphans_reclaimed,
        dropped_releases: replayed.metrics.dropped_releases as u64,
        released: stats.released,
        active_leases: stats.active_leases,
        outstanding_load: stats.outstanding_load,
        epoch: stats.epoch,
    };
    // The machine-readable line CI greps and diffs: keep it last.
    println!(
        "{}",
        serde_json::to_string(&summary).map_err(|e| e.to_string())?
    );
    Ok(())
}
