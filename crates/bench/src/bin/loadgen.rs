//! `dagsfc-loadgen` — an open-loop saturation driver for the
//! `dagsfc-serve` daemon, emitting one machine-readable JSON document
//! (`BENCH_serve.json` when run with `--out`).
//!
//! The workload is seeded and open-loop at the fleet level: the full
//! request schedule is frozen from `--seed` before the first byte hits
//! a socket, and each of the `--connections` lock-step clients fires
//! its next request the moment the previous reply lands — issue times
//! never depend on outcomes, so two runs offer the daemon the identical
//! request stream. Two phases are measured against in-process daemons:
//!
//! * **saturation** — embed requests on an undersized substrate with no
//!   releases, so the ledger fills and the acceptance ratio decays:
//!   sustained req/s, p50/p99 request latency, acceptance under
//!   overload, and the high-water depth of the daemon's job queue.
//! * **admission** — precheck-rejectable requests (rate far above any
//!   link) against a 1-shard daemon, exercising only the front end's
//!   admission, which never touches the engine.
//!
//! `--compare <file>` re-measures and fails (exit code 2) when
//! sustained or admission throughput regressed by more than
//! `--tolerance` (default 0.25) against the committed profile — that is
//! the CI `serve-bench` gate. Latency percentiles are recorded but
//! never gate: they are too host-sensitive.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use dagsfc_core::{DagSfc, Flow};
use dagsfc_serve::{spawn_batched, BatchConfig, Client, EmbedReply, ServerHandle};
use dagsfc_sim::runner::{instance_network, instance_request};
use dagsfc_sim::{arrival_seed, Algo, SimConfig};
use serde::{Deserialize, Serialize};

/// Schema tag: bump when the JSON layout changes incompatibly.
const SCHEMA: &str = "dagsfc-loadgen/1";

/// One frozen request of the open-loop schedule.
struct Shot {
    sfc: DagSfc,
    flow: Flow,
    seed: u64,
}

/// Latency percentiles over one measured phase, nearest-rank.
#[derive(Debug, Serialize, Deserialize)]
struct Latency {
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
}

/// One measured phase against one server.
#[derive(Debug, Serialize, Deserialize)]
struct PhaseSample {
    /// "saturation" or "admission".
    phase: String,
    /// Always "batched"; kept because committed profiles and the
    /// `--compare` gate key phases by (phase, server).
    server: String,
    /// Region shards the daemon was partitioned into.
    shards: usize,
    /// Concurrent lock-step client connections.
    connections: usize,
    /// Requests completed (all of the schedule).
    requests: usize,
    /// Wall-clock milliseconds for the whole schedule.
    wall_ms: f64,
    /// Sustained completed requests per second.
    rps: f64,
    /// Accepted / requests. Decays under overload in the saturation
    /// phase; 0.0 by construction in the admission phase.
    acceptance_ratio: f64,
    latency: Latency,
    /// High-water depth of the daemon's job queue, sampled during the
    /// run: one entry. (Profiles recorded while the daemon kept one
    /// queue per shard hold one entry per shard.)
    peak_queue_depths: Vec<u64>,
}

/// The whole serving-throughput document.
#[derive(Debug, Serialize, Deserialize)]
struct ServeBench {
    schema: String,
    /// "full" or "quick".
    profile: String,
    threads: usize,
    phases: Vec<PhaseSample>,
}

#[derive(Clone, Copy, PartialEq)]
enum Profile {
    Full,
    Quick,
}

struct Knobs {
    sim: SimConfig,
    requests: usize,
    connections: usize,
    shards: usize,
}

fn knobs(profile: Profile, shards: usize) -> Knobs {
    match profile {
        // Paper-adjacent scale: enough offered load to push the
        // substrate deep into overload.
        Profile::Full => Knobs {
            sim: SimConfig {
                network_size: 60,
                sfc_size: 4,
                vnf_capacity: 6.0,
                link_capacity: 6.0,
                seed: 0x10AD,
                ..SimConfig::default()
            },
            requests: 1200,
            connections: 8,
            shards,
        },
        // CI scale: seconds, same shape.
        Profile::Quick => Knobs {
            sim: SimConfig {
                network_size: 30,
                sfc_size: 4,
                vnf_capacity: 4.0,
                link_capacity: 4.0,
                seed: 0x10AD,
                ..SimConfig::default()
            },
            requests: 240,
            connections: 4,
            shards,
        },
    }
}

/// Freezes the saturation schedule: plausible requests the solver must
/// actually attempt.
fn saturation_schedule(k: &Knobs) -> Vec<Shot> {
    let net = instance_network(&k.sim);
    (0..k.requests)
        .map(|i| {
            let (sfc, flow) = instance_request(&k.sim, &net, i);
            Shot {
                sfc,
                flow,
                seed: arrival_seed(k.sim.seed, i),
            }
        })
        .collect()
}

/// Freezes the admission schedule: every request dies at the precheck
/// (rate far above any capacity), so only the front end is measured.
fn admission_schedule(k: &Knobs) -> Vec<Shot> {
    saturation_schedule(k)
        .into_iter()
        .map(|mut shot| {
            shot.flow.rate = 1e9;
            shot
        })
        .collect()
}

/// Drives `shots` through `connections` lock-step clients against the
/// daemon at `addr`; returns (wall_ms, accepted, latencies_us).
fn drive(addr: std::net::SocketAddr, shots: &[Shot], connections: usize) -> (f64, u64, Vec<f64>) {
    let accepted = AtomicU64::new(0);
    let started = Instant::now();
    let mut latencies: Vec<f64> = Vec::with_capacity(shots.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let accepted = &accepted;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect"); // lint:allow(expect)
                    let mut lat = Vec::new();
                    // Strided split: connection c fires shots c, c+C, ...
                    for shot in shots.iter().skip(c).step_by(connections) {
                        let t = Instant::now();
                        let reply = client
                            .embed(&shot.sfc, &shot.flow, None, shot.seed)
                            .expect("embed"); // lint:allow(expect)
                        lat.push(t.elapsed().as_secs_f64() * 1e6);
                        if matches!(reply, EmbedReply::Accepted { .. }) {
                            accepted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    lat
                })
            })
            .collect();
        for h in handles {
            latencies.extend(h.join().expect("driver thread")); // lint:allow(expect)
        }
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    (wall_ms, accepted.load(Ordering::Relaxed), latencies)
}

/// Nearest-rank percentile over an unsorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn latency_of(mut samples: Vec<f64>) -> Latency {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies")); // lint:allow(expect)
    Latency {
        p50_us: percentile(&samples, 50.0),
        p99_us: percentile(&samples, 99.0),
        max_us: samples.last().copied().unwrap_or(0.0),
    }
}

/// Runs one phase against a fresh `shards`-shard daemon, sampling the
/// job queue's depth from a side connection while the drivers run.
fn run_phase(phase: &str, k: &Knobs, shots: &[Shot], shards: usize) -> PhaseSample {
    let connections = k.connections;
    let handle = spawn_daemon(k, shards);
    let addr = handle.addr();
    let done = AtomicBool::new(false);
    let mut peak = 0u64;
    let (wall_ms, accepted, latencies) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut probe = Client::connect(addr).expect("sampler connect"); // lint:allow(expect)
            let mut peak = 0u64;
            while !done.load(Ordering::Relaxed) {
                if let Ok(stats) = probe.stats() {
                    peak = peak.max(stats.queue_depth);
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            peak
        });
        let result = drive(addr, shots, connections);
        done.store(true, Ordering::Relaxed);
        peak = sampler.join().expect("sampler thread"); // lint:allow(expect)
        result
    });
    let mut c = Client::connect(addr).expect("connect for shutdown"); // lint:allow(expect)
    c.shutdown().expect("shutdown"); // lint:allow(expect)
    handle.join();
    PhaseSample {
        phase: phase.to_string(),
        server: "batched".to_string(),
        shards,
        connections,
        requests: shots.len(),
        wall_ms,
        rps: shots.len() as f64 / (wall_ms / 1e3).max(1e-9),
        acceptance_ratio: accepted as f64 / shots.len().max(1) as f64,
        latency: latency_of(latencies),
        peak_queue_depths: vec![peak],
    }
}

fn spawn_daemon(k: &Knobs, shards: usize) -> ServerHandle {
    let cfg = BatchConfig {
        shards,
        queue_capacity: 256,
        algo: Algo::Mbbe,
        ..BatchConfig::default()
    };
    // lint:allow(expect) — bench harness: abort loudly on a broken driver
    spawn_batched(instance_network(&k.sim), shards, cfg, "127.0.0.1:0").expect("spawn batched")
}

fn measure(profile: Profile, shards: usize) -> ServeBench {
    let k = knobs(profile, shards);
    let sat = saturation_schedule(&k);
    let adm = admission_schedule(&k);

    let phases = vec![
        run_phase("saturation", &k, &sat, k.shards),
        run_phase("admission", &k, &adm, 1),
    ];
    ServeBench {
        schema: SCHEMA.to_string(),
        profile: match profile {
            Profile::Full => "full",
            Profile::Quick => "quick",
        }
        .to_string(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        phases,
    }
}

/// Throughput-only regression check, keyed by (phase, server).
fn regressions(current: &ServeBench, reference: &ServeBench, tolerance: f64) -> Vec<String> {
    let mut out = Vec::new();
    for cur in &current.phases {
        let Some(base) = reference
            .phases
            .iter()
            .find(|p| p.phase == cur.phase && p.server == cur.server)
        else {
            eprintln!(
                "note: phase {}/{} absent from baseline, skipping",
                cur.phase, cur.server
            );
            continue;
        };
        let ratio = cur.rps / base.rps.max(1e-9);
        if ratio < 1.0 - tolerance {
            out.push(format!(
                "{}/{}: {:.0} req/s vs baseline {:.0} ({:+.1}% < -{:.0}% tolerance)",
                cur.phase,
                cur.server,
                cur.rps,
                base.rps,
                (ratio - 1.0) * 100.0,
                tolerance * 100.0,
            ));
        }
    }
    out
}

fn fail(msg: &str) -> ! {
    eprintln!("dagsfc-loadgen: {msg}");
    std::process::exit(1)
}

fn main() -> ExitCode {
    let mut profile = Profile::Full;
    let mut shards = 4usize;
    let mut out: Option<String> = None;
    let mut compare: Option<String> = None;
    let mut tolerance = 0.25;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => profile = Profile::Quick,
            "--full" => profile = Profile::Full,
            "--shards" => {
                shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--shards needs an integer"));
            }
            "--out" => {
                out = Some(args.next().unwrap_or_else(|| fail("--out needs a path")));
            }
            "--compare" => {
                compare = Some(
                    args.next()
                        .unwrap_or_else(|| fail("--compare needs a path")),
                );
            }
            "--tolerance" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| fail("--tolerance needs a value"));
                tolerance = v
                    .parse()
                    .unwrap_or_else(|_| fail("--tolerance must be a number"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: dagsfc-loadgen [--quick|--full] [--shards N] [--out FILE] \
                     [--compare FILE [--tolerance F]]"
                );
                return ExitCode::SUCCESS;
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    let current = measure(profile, shards.max(1));
    for p in &current.phases {
        eprintln!(
            "{:10} {:8} {:>8.0} req/s  p50 {:>8.0} us  p99 {:>8.0} us  accept {:>5.1}%  peaks {:?}",
            p.phase,
            p.server,
            p.rps,
            p.latency.p50_us,
            p.latency.p99_us,
            p.acceptance_ratio * 100.0,
            p.peak_queue_depths
        );
    }

    let json =
        serde_json::to_string_pretty(&current).unwrap_or_else(|e| fail(&format!("serialize: {e}")));
    match &out {
        Some(path) => {
            std::fs::write(path, json + "\n").unwrap_or_else(|e| fail(&format!("write: {e}")));
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }

    if let Some(path) = compare {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
        let reference: ServeBench =
            serde_json::from_str(&text).unwrap_or_else(|e| fail(&format!("parse {path}: {e}")));
        if reference.schema != SCHEMA {
            fail(&format!(
                "baseline schema {:?} != {SCHEMA:?}; regenerate it",
                reference.schema
            ));
        }
        if reference.profile != current.profile {
            eprintln!(
                "note: comparing {} run against {} baseline",
                current.profile, reference.profile
            );
        }
        let bad = regressions(&current, &reference, tolerance);
        if !bad.is_empty() {
            for b in &bad {
                eprintln!("REGRESSION {b}");
            }
            return ExitCode::from(2);
        }
        eprintln!("within {:.0}% of baseline {path}", tolerance * 100.0);
    }

    ExitCode::SUCCESS
}
