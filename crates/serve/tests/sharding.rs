//! Integration tests for the sharded serving daemon: every committed
//! lifecycle trace replayed through a 1-shard daemon against the
//! in-process `run_trace` (bit for bit), worker/shard-pool
//! independence, the `hello` protocol handshake, and multi-shard
//! stitching audits.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;

use dagsfc_serve::{
    replay, spawn_batched, BatchConfig, Client, ClientError, WireRequest, PROTOCOL_VERSION,
};
use dagsfc_sim::io as sim_io;
use dagsfc_sim::runner::instance_network;
use dagsfc_sim::{run_trace, ArrivalOutcome, LifecycleOutcome, ReplayTrace};

/// The committed lifecycle traces, by file stem.
const COMMITTED_TRACES: [&str; 4] = ["smoke-50", "delay-smoke", "affinity-smoke", "shard-smoke"];

fn committed_trace(name: &str) -> ReplayTrace {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../traces")
        .join(format!("{name}.json"));
    sim_io::load_trace(&path).expect("committed trace")
}

fn smoke_trace() -> ReplayTrace {
    committed_trace("smoke-50")
}

fn replay_batched(
    trace: &ReplayTrace,
    shards: usize,
    workers: usize,
) -> (LifecycleOutcome, dagsfc_serve::StatsReport) {
    let cfg = BatchConfig {
        shards,
        workers_per_shard: workers,
        algo: trace.algo,
        ..BatchConfig::default()
    };
    let net = instance_network(&trace.base);
    let handle = spawn_batched(net, shards, cfg, "127.0.0.1:0").expect("spawn batched");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let report = replay(&mut client, trace).expect("replay");
    drop(client);
    (report, handle.join())
}

/// A 1-shard daemon decides every committed lifecycle trace exactly as
/// the in-process `run_trace` does: the same fates, cost bits and
/// departure order, and final counters that agree.
#[test]
fn one_shard_daemon_replays_every_committed_trace_like_run_trace() {
    let fates = |v: &[ArrivalOutcome]| -> Vec<(bool, u64)> {
        v.iter().map(|a| (a.accepted, a.cost.to_bits())).collect()
    };
    for name in COMMITTED_TRACES {
        let trace = committed_trace(name);
        let truth = run_trace(&instance_network(&trace.base), &trace);
        let (report, stats) = replay_batched(&trace, 1, 2);

        assert_eq!(
            fates(&report.per_arrival),
            fates(&truth.per_arrival),
            "{name}"
        );
        assert_eq!(report.departure_order, truth.departure_order, "{name}");
        assert_eq!(stats.accepted, truth.metrics.accepted as u64, "{name}");
        assert_eq!(stats.rejected, truth.metrics.rejected as u64, "{name}");
        assert_eq!(
            stats.total_cost.to_bits(),
            truth.total_cost().to_bits(),
            "{name}"
        );
        assert_eq!(stats.audits_failed, 0, "{name}");
        assert_eq!((stats.shards, stats.cross_shard_offered), (1, 0), "{name}");
    }
}

/// Replay outcomes are a function of admission order alone: any
/// worker-pool size, any batching of the socket stream, same fates.
#[test]
fn batched_outcomes_are_independent_of_worker_count() {
    let trace = smoke_trace();
    for shards in [1usize, 3] {
        let (baseline, base_stats) = replay_batched(&trace, shards, 1);
        for workers in [2usize, 5] {
            let (report, stats) = replay_batched(&trace, shards, workers);
            assert_eq!(
                report.per_arrival, baseline.per_arrival,
                "per-arrival fates diverged at shards={shards} workers={workers}"
            );
            assert_eq!(report.departure_order, baseline.departure_order);
            assert_eq!(report.total_cost(), baseline.total_cost());
            assert_eq!(stats.cross_shard_accepted, base_stats.cross_shard_accepted);
            assert_eq!(stats.audits_failed, 0);
        }
    }
}

/// Multi-shard replay actually stitches across gateways, and every
/// stitched embedding passes the unpartitioned constraint audit.
#[test]
fn multi_shard_replay_stitches_and_audits_clean() {
    let trace = smoke_trace();
    let (report, stats) = replay_batched(&trace, 4, 2);
    assert!(
        report.metrics.accepted > 0,
        "4-shard replay must accept something"
    );
    assert_eq!(stats.shards, 4);
    assert!(
        stats.cross_shard_accepted > 0,
        "the gateway-stitching path was never exercised"
    );
    assert_eq!(stats.audits_failed, 0);
    assert_eq!(stats.per_shard.len(), 4);
    let lanes: u64 = stats.per_shard.iter().map(|l| l.released).sum();
    assert!(
        lanes >= stats.released,
        "per-shard lanes under-report releases"
    );
}

/// `Client::connect` performs the hello handshake; a wrong version is
/// refused before any work is queued.
#[test]
fn hello_handshake_succeeds_and_rejects_bad_versions() {
    let trace = smoke_trace();
    let net = instance_network(&trace.base);
    let handle = spawn_batched(net, 1, BatchConfig::default(), "127.0.0.1:0").expect("spawn");

    // The versioned handshake succeeds...
    let mut client = Client::connect(handle.addr()).expect("handshake");
    client.ping().expect("ping after hello");

    // ...a stale version is refused with the daemon's version echoed...
    let resp = client
        .request(&WireRequest {
            cmd: "hello".into(),
            proto: Some(PROTOCOL_VERSION + 7),
            ..WireRequest::default()
        })
        .expect("transport");
    assert_eq!(resp.status, "error");
    assert_eq!(resp.proto, Some(PROTOCOL_VERSION));
    assert!(
        resp.reason
            .as_deref()
            .unwrap_or("")
            .contains("protocol mismatch"),
        "reason should name the mismatch, got {:?}",
        resp.reason
    );

    // ...and an unversioned hello is refused too.
    let resp = client
        .request(&WireRequest {
            cmd: "hello".into(),
            ..WireRequest::default()
        })
        .expect("transport");
    assert_eq!(resp.status, "error");
    client.shutdown().expect("shutdown");
    handle.join();
}

/// A daemon speaking a different protocol version fails
/// `Client::connect` fast with the typed mismatch error.
#[test]
fn connect_fails_fast_with_typed_error_on_version_skew() {
    // A one-connection fake daemon pinned to protocol v1.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read hello");
        let mut w = stream;
        w.write_all(b"{\"status\":\"error\",\"proto\":1,\"reason\":\"protocol mismatch\"}\n")
            .expect("write");
    });
    match Client::connect(addr) {
        Err(ClientError::ProtocolMismatch { client, server }) => {
            assert_eq!(client, PROTOCOL_VERSION);
            assert_eq!(server, Some(1));
        }
        Err(other) => panic!("expected ProtocolMismatch, got {other:?}"),
        Ok(_) => panic!("expected ProtocolMismatch, got a connected client"),
    }
    fake.join().expect("fake daemon");
}
