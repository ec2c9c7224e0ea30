//! Golden decisions on lifecycle traces.
//!
//! Two congested traces from fixed seeds, both on substrates large
//! enough (200 nodes) that MBBE's forward-search cap `X_max = 40` binds
//! and rejected requests reach the solver's adaptive-`X_max` retry
//! rule:
//!
//! * a best-effort, capacity-2 trace through `dagsfc_sim::run_trace`;
//! * a delay-budgeted trace through a 4-shard
//!   `dagsfc_shard::ShardedEngine`.
//!
//! Each run is pinned by an FNV-1a digest of every arrival's
//! (accepted, cost bits) and the departure order, plus its
//! accepted/rejected counts and how the rejections split into
//! deadline, capacity and rule ones. The digests and counts were
//! recorded before the retry rule was gated on the cap having cut a
//! forward search, so they pin that every decision survived it bit for
//! bit. The split moved once on purpose: since budgeted MBBE solves
//! track lineage loads, a request is a deadline rejection only if a
//! lineage that does not overload the residual blew the budget.
//!
//! The same digest pins `run_trace` over the four committed lifecycle
//! traces and `run_chaos` over the committed chaos scenario. Those
//! values were recorded before the five copies of the lifecycle event
//! loop became one driver. The daemon replays and their in-process
//! references now share that driver, so these pins are what catches a
//! change in its event order.
//!
//! A deliberate behaviour change re-derives the constants from the
//! printed actual values and says why in its commit message.

use dagsfc::chaos::{load_scenario, run_chaos};
use dagsfc::sim::io::load_trace;
use dagsfc::sim::runner::{instance_network, instance_request};
use dagsfc::sim::{
    arrival_seed, export_trace, run_trace, Algo, ArrivalOutcome, DepartureQueue, LifecycleConfig,
    SimConfig,
};
use dagsfc_shard::{RoutePolicy, ShardPlan, ShardRouter, ShardedEngine, StitchId};

/// Arrivals per trace: enough for both traces to fill their substrate
/// and spend most of the run rejecting.
const ARRIVALS: usize = 240;

/// What a replay decided, reduced to the pinned figures.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    digest: u64,
    accepted: usize,
    rejected: usize,
    rejected_deadline: usize,
    rejected_capacity: usize,
    rejected_rule: usize,
}

/// 64-bit FNV-1a over per-arrival (accepted, cost bits), then the
/// departure order.
fn digest(per_arrival: &[(bool, u64)], departures: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for &(accepted, bits) in per_arrival {
        write(&[u8::from(accepted)]);
        write(&bits.to_le_bytes());
    }
    for &d in departures {
        write(&(d as u64).to_le_bytes());
    }
    h
}

/// The congested best-effort profile: 200 nodes, every VNF instance
/// and link able to carry two unit flows.
fn capacity_cfg() -> SimConfig {
    SimConfig {
        network_size: 200,
        vnf_capacity: 2.0,
        link_capacity: 2.0,
        seed: 0xC0_2E57,
        ..SimConfig::default()
    }
}

/// The delay-budgeted profile: the same congestion plus an 80 µs
/// end-to-end budget over links of 10 µs mean delay.
fn sla_cfg() -> SimConfig {
    SimConfig {
        delay_budget_us: Some(80.0),
        seed: 0x5_1A5,
        ..capacity_cfg()
    }
}

fn lifecycle(base: SimConfig, arrivals: usize) -> LifecycleConfig {
    LifecycleConfig {
        base,
        arrivals,
        mean_holding: 60.0,
        algo: Algo::Mbbe,
    }
}

#[test]
fn capacity_trace_decisions_are_pinned() {
    let cfg = lifecycle(capacity_cfg(), ARRIVALS);
    let net = instance_network(&cfg.base);
    let out = run_trace(&net, &export_trace(&cfg));
    let got = Golden {
        digest: fates_digest(&out.per_arrival, &out.departure_order),
        accepted: out.metrics.accepted,
        rejected: out.metrics.rejected,
        // Best-effort flows carry no budget and no placement rules, so
        // every rejection is a capacity one.
        rejected_deadline: 0,
        rejected_capacity: out.metrics.rejected,
        rejected_rule: 0,
    };
    assert_eq!(out.metrics.checks.unwrap().audit_violations, 0);
    assert_eq!(
        got,
        Golden {
            digest: 0x8a85_bdc8_284f_f094,
            accepted: 142,
            rejected: 98,
            rejected_deadline: 0,
            rejected_capacity: 98,
            rejected_rule: 0,
        }
    );
}

#[test]
fn sharded_sla_trace_decisions_are_pinned() {
    let cfg = lifecycle(sla_cfg(), ARRIVALS);
    let trace = export_trace(&cfg);
    let net = instance_network(&cfg.base);
    let plan = ShardPlan::partition(&net, 4).expect("partition");
    let mut engine = ShardedEngine::new(&net, plan, ShardRouter::new(RoutePolicy::SourceAffinity));
    let mut departures = DepartureQueue::new();
    let mut leases: Vec<Option<StitchId>> = vec![None; trace.arrivals];
    let mut per_arrival = Vec::with_capacity(trace.arrivals);
    let mut departure_order = Vec::new();
    let release = |engine: &mut ShardedEngine<'_>, lease: Option<StitchId>| {
        engine
            .release(lease.expect("departs once"))
            .expect("lease is active");
    };
    for arrival in 0..trace.arrivals {
        let now = dagsfc::sim::lifecycle::to_fixed(arrival as f64);
        while let Some(id) = departures.pop_due(now) {
            release(&mut engine, leases[id].take());
            departure_order.push(id);
        }
        let (sfc, flow) = instance_request(&trace.base, &net, arrival);
        let seed = arrival_seed(trace.base.seed, arrival);
        match engine.embed(&sfc, &flow, trace.algo, seed) {
            Ok(acc) => {
                leases[arrival] = Some(acc.lease);
                departures.schedule(trace.depart_at[arrival], arrival);
                per_arrival.push((true, acc.cost.total().to_bits()));
            }
            Err(_) => per_arrival.push((false, 0)),
        }
    }
    while let Some((_, id)) = departures.pop() {
        release(&mut engine, leases[id].take());
        departure_order.push(id);
    }
    let stats = engine.stats();
    assert_eq!(stats.audits_failed, 0);
    assert!(stats.outstanding_load.abs() < 1e-9, "leaked load");
    let got = Golden {
        digest: digest(&per_arrival, &departure_order),
        accepted: stats.accepted as usize,
        rejected: stats.rejected as usize,
        rejected_deadline: stats.rejected_deadline as usize,
        rejected_capacity: stats.rejected_capacity as usize,
        rejected_rule: stats.rejected_rule as usize,
    };
    assert_eq!(
        got,
        Golden {
            digest: 0xa28f_1da5_2060_191b,
            accepted: 62,
            rejected: 178,
            rejected_deadline: 23,
            rejected_capacity: 155,
            rejected_rule: 0,
        }
    );
}

/// A committed fixture under `traces/`.
fn committed(name: &str) -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(name)
}

/// [`digest`] of a run's fates and departure order.
fn fates_digest(per_arrival: &[ArrivalOutcome], departures: &[usize]) -> u64 {
    let fates: Vec<(bool, u64)> = per_arrival
        .iter()
        .map(|a| (a.accepted, a.cost.to_bits()))
        .collect();
    digest(&fates, departures)
}

#[test]
fn committed_lifecycle_traces_are_pinned() {
    // (trace, digest, accepted, rejected)
    const PINS: [(&str, u64, usize, usize); 4] = [
        ("smoke-50.json", 0x95f8_3d4b_e78f_2f6d, 50, 0),
        ("delay-smoke.json", 0xfc3f_eb87_cfb0_f26f, 38, 2),
        ("affinity-smoke.json", 0x747d_9d65_1adb_e894, 39, 21),
        ("shard-smoke.json", 0x9d9a_12d5_0d42_368a, 60, 0),
    ];
    for (name, pinned, accepted, rejected) in PINS {
        let trace = load_trace(&committed(name)).expect("committed trace");
        let out = run_trace(&instance_network(&trace.base), &trace);
        let got = (
            fates_digest(&out.per_arrival, &out.departure_order),
            out.metrics.accepted,
            out.metrics.rejected,
        );
        assert_eq!(got, (pinned, accepted, rejected), "{name}");
    }
}

#[test]
fn chaos_smoke_decisions_are_pinned() {
    let scenario = load_scenario(&committed("chaos-smoke.json")).expect("committed scenario");
    let out = run_chaos(&scenario.network(), &scenario).lifecycle;
    let got = (
        fates_digest(&out.per_arrival, &out.departure_order),
        out.metrics.accepted,
        out.metrics.rejected,
        out.metrics.dropped_releases,
    );
    // (digest, accepted, rejected, dropped releases)
    assert_eq!(got, (0x70cf_4ef3_9254_8023, 37, 3, 8));
}
