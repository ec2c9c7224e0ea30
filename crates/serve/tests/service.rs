//! End-to-end tests for a 1-shard `dagsfc-serve` daemon: trace-replay
//! equivalence against the in-process lifecycle simulation, admission
//! control, backpressure, lease bookkeeping, stats, and graceful
//! shutdown — all over real sockets.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dagsfc_net::{FaultEvent, LeaseId, NodeId};
use dagsfc_serve::{
    fault_event_to_wire, replay, spawn_batched, BatchConfig, Client, ClientError, EmbedReply,
    ServerHandle, StatsReport, WireRequest,
};
use dagsfc_sim::runner::{instance_network, instance_request};
use dagsfc_sim::{export_trace, run_lifecycle_detailed, Algo, LifecycleConfig, SimConfig};

/// A small network the lifecycle saturates, so traces mix accepts and
/// rejects (same shape as `sim::lifecycle`'s own tests).
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

/// A 1-shard daemon over the network `sim` generates.
fn spawn(cfg: BatchConfig, sim: &SimConfig) -> ServerHandle {
    spawn_batched(instance_network(sim), 1, cfg, "127.0.0.1:0").expect("bind")
}

/// Polls `client`'s stats until `done` holds, failing after 5 s —
/// for effects that ride the job queue behind the caller's back.
fn wait_for_stats(client: &mut Client, done: impl Fn(&StatsReport) -> bool) -> StatsReport {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = client.stats().expect("stats");
        if done(&stats) {
            return stats;
        }
        assert!(Instant::now() < deadline, "condition never held: {stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The headline acceptance criterion: replaying a frozen trace through
/// the daemon matches the in-process simulation bit for bit — per-flow
/// fates, exact f64 costs, departure order — for any worker-pool size.
#[test]
fn replay_matches_lifecycle_for_any_worker_count() {
    let cfg = LifecycleConfig {
        base: SimConfig {
            vnf_capacity: 3.0,
            link_capacity: 3.0,
            ..base()
        },
        arrivals: 40,
        mean_holding: 8.0,
        algo: Algo::Mbbe,
    };
    let truth = run_lifecycle_detailed(&cfg);
    assert!(truth.metrics.accepted > 0, "trace must accept something");
    assert!(truth.metrics.rejected > 0, "trace must reject something");
    let trace = export_trace(&cfg);

    for workers in [1usize, 4] {
        let handle = spawn(
            BatchConfig {
                workers_per_shard: workers,
                ..BatchConfig::default()
            },
            &cfg.base,
        );
        let mut client = Client::connect(handle.addr()).expect("connect");
        let report = replay(&mut client, &trace).expect("replay");
        drop(client);
        let stats = handle.join();

        assert_eq!(
            report.per_arrival, truth.per_arrival,
            "per-arrival fates diverged at workers={workers}"
        );
        assert_eq!(
            report.departure_order, truth.departure_order,
            "departure order diverged at workers={workers}"
        );
        assert_eq!(report.total_cost(), truth.total_cost());
        assert_eq!(stats.accepted, truth.metrics.accepted as u64);
        assert_eq!(stats.rejected, truth.metrics.rejected as u64);
        // The replayer releases every lease it committed.
        assert_eq!(stats.released, truth.metrics.accepted as u64);
        assert_eq!(stats.active_leases, 0);
        assert!(stats.outstanding_load.abs() < 1e-9);
    }
}

#[test]
fn zero_capacity_queue_rejects_with_backpressure() {
    let sim = base();
    let handle = spawn(
        BatchConfig {
            queue_capacity: 0,
            ..BatchConfig::default()
        },
        &sim,
    );
    let mut client = Client::connect(handle.addr()).expect("connect");
    let net = instance_network(&sim);
    let (sfc, flow) = instance_request(&sim, &net, 0);
    match client.embed(&sfc, &flow, None, 1).expect("reply") {
        EmbedReply::Rejected(reason) => assert_eq!(reason, "queue full"),
        other => panic!("expected queue-full rejection, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.accepted, 0);
    assert_eq!(stats.queue_capacity, 0);
    drop(client);
    handle.join();
}

/// `accepted`/`rejected` count embed outcomes: a fault or reclaim that
/// backpressure turns away is refused, but is not a rejected request.
#[test]
fn backpressured_faults_and_reclaims_are_not_rejected_requests() {
    let sim = base();
    let handle = spawn(
        BatchConfig {
            queue_capacity: 0,
            ..BatchConfig::default()
        },
        &sim,
    );
    let mut client = Client::connect(handle.addr()).expect("connect");
    let fault = fault_event_to_wire(&FaultEvent::NodeDown { node: NodeId(0) });
    let reclaim = WireRequest {
        cmd: "reclaim".into(),
        ..WireRequest::default()
    };
    for req in [fault, reclaim] {
        let resp = client.request(&req).expect("reply");
        assert_eq!(resp.status, "rejected", "{} under backpressure", req.cmd);
        assert_eq!(resp.reason.as_deref(), Some("queue full"));
    }
    let stats = client.stats().expect("stats");
    assert_eq!((stats.accepted, stats.rejected), (0, 0));
    assert_eq!(stats.faults_applied, 0);
    drop(client);
    handle.join();
}

#[test]
fn infeasible_requests_are_turned_away_at_admission() {
    let sim = base();
    let handle = spawn(BatchConfig::default(), &sim);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let net = instance_network(&sim);
    let (sfc, mut flow) = instance_request(&sim, &net, 0);
    flow.dst = NodeId(10_000); // far outside the 30-node network
    match client.embed(&sfc, &flow, None, 1).expect("reply") {
        EmbedReply::Rejected(reason) => {
            assert!(reason.contains("infeasible"), "reason was '{reason}'")
        }
        other => panic!("expected admission rejection, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!((stats.accepted, stats.rejected), (0, 1));
    drop(client);
    handle.join();
}

#[test]
fn unknown_and_double_release_are_protocol_errors() {
    let sim = base();
    let handle = spawn(BatchConfig::default(), &sim);
    let mut client = Client::connect(handle.addr()).expect("connect");

    match client.release(LeaseId(424242)) {
        Err(ClientError::Server(reason)) => {
            assert!(reason.contains("424242"), "reason was '{reason}'")
        }
        other => panic!("expected server error, got {other:?}"),
    }

    let net = instance_network(&sim);
    let (sfc, flow) = instance_request(&sim, &net, 0);
    let lease = match client.embed(&sfc, &flow, None, 1).expect("reply") {
        EmbedReply::Accepted { lease, .. } => lease,
        other => panic!("expected acceptance on an empty network, got {other:?}"),
    };
    client.release(lease).expect("first release");
    assert!(
        matches!(client.release(lease), Err(ClientError::Server(_))),
        "double release must fail"
    );
    drop(client);
    handle.join();
}

#[test]
fn stats_report_covers_oracle_queue_and_latency() {
    let sim = base();
    let handle = spawn(BatchConfig::default(), &sim);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let net = instance_network(&sim);
    let mut accepted = 0usize;
    for run in 0..6 {
        let (sfc, flow) = instance_request(&sim, &net, run);
        let algo = if run % 2 == 0 { Algo::Mbbe } else { Algo::Minv };
        if matches!(
            client
                .embed(&sfc, &flow, Some(algo), run as u64)
                .expect("reply"),
            EmbedReply::Accepted { .. }
        ) {
            accepted += 1;
        }
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.accepted, accepted as u64);
    assert_eq!(stats.accepted + stats.rejected, 6);
    assert!((stats.acceptance_ratio - accepted as f64 / 6.0).abs() < 1e-9);
    assert_eq!(stats.active_leases, accepted as u64);
    assert!(stats.epoch >= accepted as u64);
    assert!(stats.total_cost > 0.0);
    assert!(stats.outstanding_load > 0.0);
    // Admission probed the oracle once per embed: first a miss, then
    // hits for the repeated (src-class, rate) keys.
    assert!(stats.oracle.hits + stats.oracle.misses >= 6);
    assert!(stats.oracle.misses >= 1);
    // Both algorithms show up with per-algo latency accumulators.
    let names: Vec<&str> = stats.per_algo.iter().map(|a| a.algo.as_str()).collect();
    assert!(names.contains(&"MBBE"), "per_algo was {names:?}");
    assert!(names.contains(&"MINV"), "per_algo was {names:?}");
    for lat in &stats.per_algo {
        assert!(lat.solves >= 1);
        assert!(lat.mean_micros >= 0.0);
    }
    assert_eq!(
        stats.queue_capacity,
        BatchConfig::default().queue_capacity as u64
    );
    drop(client);
    handle.join();
}

#[test]
fn graceful_shutdown_preserves_committed_leases() {
    let sim = base();
    let handle = spawn(BatchConfig::default(), &sim);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let net = instance_network(&sim);
    let (sfc, flow) = instance_request(&sim, &net, 0);
    let lease = match client.embed(&sfc, &flow, None, 7).expect("reply") {
        EmbedReply::Accepted { lease, .. } => lease,
        other => panic!("expected acceptance, got {other:?}"),
    };
    client.shutdown().expect("shutdown handshake");
    let stats = handle.join();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.active_leases, 1, "drain must not drop lease {lease}");
    assert_eq!(stats.released, 0);
    assert!(stats.outstanding_load > 0.0);
}

#[test]
fn unknown_preset_is_a_protocol_error_not_a_crash() {
    let sim = base();
    let handle = spawn(BatchConfig::default(), &sim);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let flow = dagsfc_core::Flow::unit(NodeId(0), NodeId(5));
    match client.embed_preset("no-such-chain", &flow, None, None, 1) {
        Err(ClientError::Server(reason)) => {
            assert!(reason.contains("no-such-chain"), "reason was '{reason}'")
        }
        other => panic!("expected server error, got {other:?}"),
    }
    // The connection survives the error; the daemon still answers.
    client.ping().expect("ping after error");
    drop(client);
    handle.join();
}

#[test]
fn faults_over_the_wire_block_and_recover() {
    let sim = base();
    let handle = spawn(BatchConfig::default(), &sim);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let net = instance_network(&sim);
    let (sfc, flow) = instance_request(&sim, &net, 0);

    // Take the flow's source node down: the request must be rejected
    // (at admission — the shared oracle carries the down overlay — or
    // at solve time), never accepted onto a dead node.
    assert!(client
        .fault(&FaultEvent::NodeDown { node: flow.src })
        .expect("fault reply"));
    // Idempotent re-send reports no change.
    assert!(!client
        .fault(&FaultEvent::NodeDown { node: flow.src })
        .expect("fault reply"));
    match client.embed(&sfc, &flow, None, 1).expect("reply") {
        EmbedReply::Rejected(_) => {}
        other => panic!("embed onto a down source must fail, got {other:?}"),
    }

    // Recovery: the same request embeds again.
    assert!(client
        .fault(&FaultEvent::NodeUp { node: flow.src })
        .expect("fault reply"));
    match client.embed(&sfc, &flow, None, 1).expect("reply") {
        EmbedReply::Accepted { .. } => {}
        other => panic!("recovered substrate must admit, got {other:?}"),
    }

    // An out-of-range fault target is a protocol error, not a crash.
    assert!(client
        .fault(&FaultEvent::NodeDown {
            node: NodeId(10_000)
        })
        .is_err());
    client.ping().expect("daemon survives bad fault");

    let stats = client.stats().expect("stats");
    // Only state-changing events count: down + up, not the no-op re-send.
    assert_eq!(stats.faults_applied, 2);
    assert_eq!(stats.audits_failed, 0);
    drop(client);
    handle.join();
}

#[test]
fn reclaim_command_releases_a_vanished_clients_leases() {
    let sim = base();
    let handle = spawn(BatchConfig::default(), &sim);
    let net = instance_network(&sim);

    // Client A commits a lease, then vanishes without releasing it.
    let mut a = Client::connect(handle.addr()).expect("connect");
    let owner_a = a.owner().expect("owner");
    let (sfc, flow) = instance_request(&sim, &net, 0);
    let lease = match a.embed(&sfc, &flow, None, 1).expect("reply") {
        EmbedReply::Accepted { lease, .. } => lease,
        other => panic!("expected acceptance, got {other:?}"),
    };
    drop(a);

    // Client B commits its own lease, then reclaims A's orphans.
    let mut b = Client::connect(handle.addr()).expect("connect");
    assert_ne!(b.owner().expect("owner"), owner_a, "owners are distinct");
    let (sfc, flow) = instance_request(&sim, &net, 1);
    let own = match b.embed(&sfc, &flow, None, 2).expect("reply") {
        EmbedReply::Accepted { lease, .. } => lease,
        other => panic!("expected acceptance, got {other:?}"),
    };
    assert_eq!(b.reclaim(Some(owner_a)).expect("reclaim"), 1);
    // A's lease is gone; B's survives. A second reclaim finds nothing.
    assert!(matches!(b.release(lease), Err(ClientError::Server(_))));
    assert_eq!(b.reclaim(Some(owner_a)).expect("reclaim"), 0);
    b.release(own).expect("own lease still live");

    let stats = b.stats().expect("stats");
    assert_eq!(stats.orphans_reclaimed, 1);
    assert_eq!(stats.active_leases, 0);
    assert!(stats.outstanding_load.abs() < 1e-9);
    drop(b);
    handle.join();
}

#[test]
fn reclaim_on_disconnect_sweeps_orphans_automatically() {
    let sim = base();
    let handle = spawn(
        BatchConfig {
            reclaim_on_disconnect: true,
            ..BatchConfig::default()
        },
        &sim,
    );
    let net = instance_network(&sim);
    let mut a = Client::connect(handle.addr()).expect("connect");
    let (sfc, flow) = instance_request(&sim, &net, 0);
    match a.embed(&sfc, &flow, None, 1).expect("reply") {
        EmbedReply::Accepted { .. } => {}
        other => panic!("expected acceptance, got {other:?}"),
    }
    drop(a); // vanish without releasing

    let mut b = Client::connect(handle.addr()).expect("connect");
    // The disconnect sweep rides the same job queue; wait for it.
    let stats = wait_for_stats(&mut b, |s| s.orphans_reclaimed == 1);
    assert_eq!(stats.active_leases, 0);
    assert!(stats.outstanding_load.abs() < 1e-9);
    drop(b);
    handle.join();
}

/// A client that vanishes with a reset instead of an orderly close is
/// just as gone: the disconnect sweep must reclaim its leases too.
#[test]
fn reclaim_on_disconnect_sweeps_after_a_connection_reset() {
    let sim = base();
    let handle = spawn(
        BatchConfig {
            reclaim_on_disconnect: true,
            ..BatchConfig::default()
        },
        &sim,
    );
    let net = instance_network(&sim);
    let (sfc, flow) = instance_request(&sim, &net, 0);
    let mut line = serde_json::to_string(&WireRequest {
        cmd: "embed".into(),
        sfc: Some(sfc),
        flow: Some(flow),
        seed: Some(1),
        ..WireRequest::default()
    })
    .expect("encode");
    line.push('\n');
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    raw.write_all(line.as_bytes()).expect("send embed");
    // Wait for the reply without consuming it: closing a socket with
    // unread input makes the kernel send a reset, not a FIN.
    raw.peek(&mut [0u8; 1]).expect("reply arrives");
    drop(raw);

    let mut b = Client::connect(handle.addr()).expect("connect");
    let stats = wait_for_stats(&mut b, |s| s.orphans_reclaimed == 1);
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.active_leases, 0);
    assert!(stats.outstanding_load.abs() < 1e-9);
    drop(b);
    handle.join();
}

#[test]
fn slow_and_abandoning_clients_do_not_wedge_the_daemon() {
    let sim = base();
    let handle = spawn(BatchConfig::default(), &sim);
    let net = instance_network(&sim);
    let (sfc, flow) = instance_request(&sim, &net, 0);

    // A slow client dribbling 7-byte chunks still gets a full reply.
    let mut slow = Client::connect(handle.addr()).expect("connect");
    let req = WireRequest {
        cmd: "embed".into(),
        sfc: Some(sfc.clone()),
        flow: Some(flow),
        seed: Some(1),
        ..WireRequest::default()
    };
    let resp = slow.request_chunked(&req, 7).expect("chunked reply");
    assert_eq!(resp.status, "accepted");

    // A client that dies mid-request must not take the daemon with it.
    let dead = Client::connect(handle.addr()).expect("connect");
    dead.abandon_mid_request(&req, 20).expect("partial write");

    // The daemon still serves new connections afterwards.
    let mut fresh = Client::connect(handle.addr()).expect("connect");
    fresh.ping().expect("daemon alive after abandoned request");
    let stats = fresh.stats().expect("stats");
    assert_eq!(stats.accepted, 1, "only the slow client's embed landed");
    drop((slow, fresh));
    handle.join();
}

#[test]
fn preset_embeds_end_to_end() {
    // The enterprise catalog defines 13 NF kinds; serve presets resolve
    // against it, so the network must deploy at least that many.
    let sim = SimConfig {
        vnf_kinds: dagsfc_nfp::enterprise_catalog().len(),
        vnf_deploy_ratio: 1.0,
        ..base()
    };
    let handle = spawn(BatchConfig::default(), &sim);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let flow = dagsfc_core::Flow::unit(NodeId(0), NodeId(5));
    match client
        .embed_preset("web-ingress", &flow, Some(3), Some(Algo::Mbbe), 11)
        .expect("reply")
    {
        EmbedReply::Accepted { cost, .. } => assert!(cost.total() > 0.0),
        EmbedReply::Rejected(reason) => {
            panic!("preset embed rejected on an empty full-deploy network: {reason}")
        }
    }
    drop(client);
    handle.join();
}
