//! End-to-end tests for a 1-shard `dagsfc-serve` daemon: trace-replay
//! equivalence against the in-process lifecycle simulation, request
//! ordering, admission control, backpressure, lease bookkeeping, stats,
//! and graceful shutdown — all over real sockets.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dagsfc_core::{DagSfc, Flow, VnfCatalog};
use dagsfc_net::{FaultEvent, LeaseId, Network, NodeId, VnfTypeId};
use dagsfc_serve::{
    fault_event_to_wire, replay, spawn_batched, BatchConfig, Client, ClientError, EmbedReply,
    ServerHandle, StatsReport, WireRequest, WireResponse, MAX_LINE_BYTES,
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
/// fates, exact f64 costs, departure order.
#[test]
fn replay_matches_lifecycle() {
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

    let handle = spawn(BatchConfig::default(), &cfg.base);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let report = replay(&mut client, &trace).expect("replay");
    drop(client);
    let stats = handle.join();

    assert_eq!(report.per_arrival, truth.per_arrival, "per-arrival fates");
    assert_eq!(report.departure_order, truth.departure_order);
    assert_eq!(report.total_cost(), truth.total_cost());
    assert_eq!(stats.accepted, truth.metrics.accepted as u64);
    assert_eq!(stats.rejected, truth.metrics.rejected as u64);
    // The replayer releases every lease it committed.
    assert_eq!(stats.released, truth.metrics.accepted as u64);
    assert_eq!(stats.active_leases, 0);
    assert!(stats.outstanding_load.abs() < 1e-9);
}

/// A 2-node substrate whose one link and one VNF instance each carry
/// exactly one unit flow: a second copy of a request fits only once the
/// first lease is released.
fn single_slot_network() -> Network {
    let mut net = Network::new();
    net.add_nodes(2);
    net.add_link(NodeId(0), NodeId(1), 1.0, 1.0).expect("link");
    net.deploy_vnf(NodeId(0), VnfTypeId(0), 1.0, 1.0)
        .expect("vnf");
    net
}

fn embed_line(sfc: DagSfc, flow: Flow) -> String {
    serde_json::to_string(&WireRequest {
        cmd: "embed".into(),
        sfc: Some(sfc),
        flow: Some(flow),
        seed: Some(1),
        ..WireRequest::default()
    })
    .expect("encode")
}

/// One raw connection to a fresh 1-shard daemon.
struct Session {
    handle: ServerHandle,
    stream: TcpStream,
    replies: BufReader<TcpStream>,
}

impl Session {
    fn open(net: Network) -> Session {
        let handle = spawn_batched(net, 1, BatchConfig::default(), "127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let replies = BufReader::new(stream.try_clone().expect("clone"));
        Session {
            handle,
            stream,
            replies,
        }
    }

    /// Sends `lines` — in one `write_all` when `pipelined`, else one at
    /// a time, each after the previous reply — and returns the replies.
    fn exchange(&mut self, lines: &[String], pipelined: bool) -> Vec<String> {
        let groups: Vec<&[String]> = if pipelined {
            vec![lines]
        } else {
            lines.chunks(1).collect()
        };
        let mut got = Vec::new();
        for group in groups {
            let batch: String = group.iter().map(|l| format!("{l}\n")).collect();
            self.stream.write_all(batch.as_bytes()).expect("send");
            for _ in group {
                let mut reply = String::new();
                self.replies.read_line(&mut reply).expect("reply");
                got.push(reply);
            }
        }
        got
    }

    fn close(self) {
        drop((self.stream, self.replies));
        self.handle.join();
    }
}

/// State changes apply in request order: a `release` pipelined behind an
/// `embed` in one write lands after that embed, so the replies equal
/// those of a client that waits for each reply.
#[test]
fn pipelined_release_lands_after_the_embed_before_it() {
    let sfc = DagSfc::sequential(&[VnfTypeId(0)], VnfCatalog::new(1)).expect("chain");
    let embed = embed_line(sfc, Flow::unit(NodeId(0), NodeId(1)));
    // On a fresh daemon: embed and hold a lease, then send a second copy
    // of the embed and the release of the held lease.
    let run = |pipelined: bool| -> Vec<String> {
        let mut session = Session::open(single_slot_network());
        let mut got = session.exchange(std::slice::from_ref(&embed), false);
        let held: WireResponse = serde_json::from_str(&got[0]).expect("decode");
        assert_eq!(held.status, "accepted", "{got:?}");
        let release = serde_json::to_string(&WireRequest {
            cmd: "release".into(),
            lease: held.lease,
            ..WireRequest::default()
        })
        .expect("encode");
        got.extend(session.exchange(&[embed.clone(), release], pipelined));
        session.close();
        got
    };
    let one_at_a_time = run(false);
    assert!(
        one_at_a_time[1].contains("\"rejected\""),
        "the second copy must not fit while the first is held: {one_at_a_time:?}"
    );
    assert_eq!(run(true), one_at_a_time);
}

/// A fault pipelined ahead of an embed screens that embed at admission
/// exactly as when the client waits for the fault's reply.
#[test]
fn pipelined_fault_screens_the_embed_behind_it() {
    let sim = base();
    let net = instance_network(&sim);
    let (sfc, flow) = instance_request(&sim, &net, 0);
    let fault = fault_event_to_wire(&FaultEvent::NodeDown { node: flow.src });
    let lines = [
        serde_json::to_string(&fault).expect("encode"),
        embed_line(sfc, flow),
    ];
    let run = |pipelined: bool| -> Vec<String> {
        let mut session = Session::open(net.clone());
        let got = session.exchange(&lines, pipelined);
        session.close();
        got
    };
    let one_at_a_time = run(false);
    assert!(
        one_at_a_time[1].contains("infeasible: no path"),
        "a down source fails admission: {one_at_a_time:?}"
    );
    assert_eq!(run(true), one_at_a_time);
}

/// An EXACT embed over three kinds on the `base()` network: it takes
/// far longer than a round trip (about 0.75 s in a debug build).
fn slow_embed_line(sim: &SimConfig, flow: Flow) -> String {
    let kinds = [VnfTypeId(0), VnfTypeId(1), VnfTypeId(2)];
    let sfc = DagSfc::sequential(&kinds, VnfCatalog::new(sim.vnf_kinds as u16)).expect("chain");
    serde_json::to_string(&WireRequest {
        cmd: "embed".into(),
        sfc: Some(sfc),
        flow: Some(flow),
        algo: Some("exact".into()),
        ..WireRequest::default()
    })
    .expect("encode")
}

/// Long enough for the front end to queue a job sent just before and
/// for the engine thread to start it.
const SETTLE: Duration = Duration::from_millis(20);

/// The front end never waits for a solve: while an EXACT solve runs on
/// the engine thread, another connection's `hello`, `ping` and embed
/// admission are answered.
#[test]
fn front_end_answers_while_a_long_solve_runs() {
    let sim = base();
    let net = instance_network(&sim);
    let (sfc, flow) = instance_request(&sim, &net, 0);
    let handle = spawn(BatchConfig::default(), &sim);
    let mut solving = TcpStream::connect(handle.addr()).expect("connect");
    let exact = format!("{}\n", slow_embed_line(&sim, flow));
    solving.write_all(exact.as_bytes()).expect("send");
    std::thread::sleep(SETTLE);

    let mut client = Client::connect(handle.addr()).expect("hello during the solve");
    client.ping().expect("ping during the solve");
    // No link carries this rate: admission turns it away on its own.
    let thick = Flow { rate: 1e9, ..flow };
    match client.embed(&sfc, &thick, None, 1).expect("reply") {
        EmbedReply::Rejected(reason) => assert!(reason.contains("infeasible"), "{reason}"),
        other => panic!("expected an admission rejection, got {other:?}"),
    }
    // The EXACT reply is still owed.
    solving.set_nonblocking(true).expect("nonblocking");
    let owed = matches!(
        solving.peek(&mut [0u8; 1]),
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock
    );
    assert!(owed, "the front end answered only after the solve");
    drop((solving, client));
    handle.join();
}

/// The reclaim a disconnect triggers gives resources back like a
/// release, so a full queue does not refuse it.
#[test]
fn reclaim_on_disconnect_is_not_refused_by_a_full_queue() {
    let sim = base();
    let handle = spawn(
        BatchConfig {
            queue_capacity: 1,
            reclaim_on_disconnect: true,
            ..BatchConfig::default()
        },
        &sim,
    );
    let net = instance_network(&sim);
    let (sfc, flow) = instance_request(&sim, &net, 0);
    let mut vanishing = Client::connect(handle.addr()).expect("connect");
    assert!(matches!(
        vanishing.embed(&sfc, &flow, None, 1).expect("reply"),
        EmbedReply::Accepted { .. }
    ));
    // Fill the queue: one embed waits while the EXACT solve runs.
    let mut busy = TcpStream::connect(handle.addr()).expect("connect");
    for line in [slow_embed_line(&sim, flow), embed_line(sfc, flow)] {
        busy.write_all(format!("{line}\n").as_bytes())
            .expect("send");
        std::thread::sleep(SETTLE);
    }
    drop(vanishing);
    let mut watcher = Client::connect(handle.addr()).expect("connect");
    let stats = wait_for_stats(&mut watcher, |s| s.orphans_reclaimed == 1);
    assert_eq!(stats.accepted, 3, "the sweep ran after both queued embeds");
    assert_eq!(stats.active_leases, 2);
    drop((busy, watcher));
    handle.join();
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
fn flows_with_bad_rate_or_size_get_an_error_and_no_lease() {
    // The enterprise catalog defines 13 NF kinds; serve presets resolve
    // against it, so the network must deploy at least that many.
    let sim = SimConfig {
        vnf_kinds: dagsfc_nfp::enterprise_catalog().len(),
        vnf_deploy_ratio: 1.0,
        ..base()
    };
    let handle = spawn(BatchConfig::default(), &sim);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let unit = dagsfc_core::Flow::unit(NodeId(0), NodeId(5));
    let before = client.stats().expect("stats");
    for (rate, size, field) in [(0.0, 1.0, "rate"), (-1.0, 1.0, "rate"), (1.0, -5.0, "size")] {
        let flow = dagsfc_core::Flow { rate, size, ..unit };
        match client.embed_preset("security-stack", &flow, None, None, 1) {
            Err(ClientError::Server(reason)) => {
                assert!(
                    reason.contains(field),
                    "rate {rate} size {size}: '{reason}'"
                )
            }
            other => panic!("rate {rate} size {size}: expected an error reply, got {other:?}"),
        }
    }
    let after = client.stats().expect("stats");
    assert_eq!(after.accepted, before.accepted);
    assert_eq!(after.active_leases, 0);
    assert_eq!(after.epoch, before.epoch);
    assert_eq!(after.total_cost.to_bits(), before.total_cost.to_bits());
    // A zero-size flow is still legal.
    let free = dagsfc_core::Flow { size: 0.0, ..unit };
    match client
        .embed_preset("security-stack", &free, None, None, 1)
        .expect("reply")
    {
        EmbedReply::Accepted { cost, .. } => assert_eq!(cost.total(), 0.0),
        EmbedReply::Rejected(reason) => panic!("zero-size flow rejected: {reason}"),
    }
    drop(client);
    handle.join();
}

#[test]
fn negative_delay_budget_gets_an_error_and_moves_no_counter() {
    let sim = base();
    let handle = spawn(BatchConfig::default(), &sim);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let net = instance_network(&sim);
    let (sfc, flow) = instance_request(&sim, &net, 0);
    let before = client.stats().expect("stats");
    match client.embed(&sfc, &flow.with_delay_budget(-5.0), None, 1) {
        Err(ClientError::Server(reason)) => {
            assert!(reason.contains("invalid flow"), "'{reason}'");
            assert!(reason.contains("delay_budget_us"), "'{reason}'");
        }
        other => panic!("expected an error reply, got {other:?}"),
    }
    let after = client.stats().expect("stats");
    assert_eq!(after.rejected, before.rejected);
    let json = |s: &StatsReport| serde_json::to_string(s).expect("stats serialize");
    assert_eq!(json(&after), json(&before), "a bad request moved a counter");
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

/// A client that streams 2 MiB without a newline gets the typed
/// line-too-long error, then end of stream, instead of growing the
/// daemon's buffer; other clients are served throughout.
#[test]
fn overlong_request_line_is_refused_and_its_connection_ended() {
    let handle = spawn(BatchConfig::default(), &base());
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let junk = vec![b'x'; 2 * MAX_LINE_BYTES];
    raw.write_all(&junk).expect("the daemon keeps reading");
    let mut reader = BufReader::new(raw);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("an error reply, not silence");
    let resp: WireResponse = serde_json::from_str(line.trim()).expect("reply parses");
    assert_eq!(resp.status, "error");
    let want = format!("request line too long: over {MAX_LINE_BYTES} bytes without a newline");
    assert_eq!(resp.reason, Some(want));
    line.clear();
    let n = reader.read_line(&mut line).expect("end of stream");
    assert_eq!(n, 0, "the connection takes no further request: {line}");

    let mut other = Client::connect(handle.addr()).expect("connect");
    other.ping().expect("a second client is still served");
    assert_eq!(other.stats().expect("stats").accepted, 0);
    drop((reader, other));
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
