//! serve-churn and serve-sharded-sla: a frozen lifecycle trace replayed
//! through the engine the batched daemon runs, in process and timed,
//! and lock-step over one loopback connection through the daemon itself,
//! which must decide the same.

use crate::host::{cpu_times, thread_cpu_us, CpuTimes, HostTicks};
use crate::inputs::{digest, generate, Fnv, Inputs, Request, Workload};
use crate::report::RunResult;
use crate::spans::{
    blocked_percentile, fold, percentile, uncovered_share, Folded, Span, Tracer, NO_ARRIVAL,
};
use crate::{setup_median, Segments};
use dagsfc_net::LeaseId;
use dagsfc_serve::{spawn_batched, BatchConfig, Client, ClientError, EmbedReply, StatsReport};
use dagsfc_serve::{ServerHandle, WireRequest};
use dagsfc_shard::{RoutePolicy, ShardPlan, ShardRouter, ShardedEngine, StitchId};
use dagsfc_sim::lifecycle::to_fixed;
use dagsfc_sim::{run_trace, Algo, DepartureQueue, ReplayTrace};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Arrivals per segment of the measured engine pass.
const SEGMENT: usize = 200;

/// What one replay decided, comparable bit for bit between paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Per arrival: accepted, and the cost's bits (0 when rejected).
    pub per_arrival: Vec<(bool, u64)>,
    /// Arrival indices in release order, final drain included.
    pub departures: Vec<u32>,
}

impl Outcomes {
    /// Arrivals whose decision or cost differs, plus one if the
    /// departure order differs.
    pub fn mismatches(&self, other: &Outcomes) -> u64 {
        let n = self.per_arrival.len().max(other.per_arrival.len());
        let differ = (0..n)
            .filter(|&i| self.per_arrival.get(i) != other.per_arrival.get(i))
            .count();
        differ as u64 + u64::from(self.departures != other.departures)
    }

    fn accepted_costs(&self) -> impl Iterator<Item = f64> + '_ {
        self.per_arrival
            .iter()
            .filter(|a| a.0)
            .map(|a| f64::from_bits(a.1))
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for &(acc, bits) in &self.per_arrival {
            h.write(&[u8::from(acc)]);
            h.write(&bits.to_le_bytes());
        }
        for d in &self.departures {
            h.write(&d.to_le_bytes());
        }
        h.finish()
    }
}

/// One replay through the daemon.
struct DaemonPass {
    cpu: CpuTimes,
    errors: u64,
    outcomes: Outcomes,
    report: StatsReport,
}

/// One replay through the engine in process.
struct EnginePass {
    outcomes: Outcomes,
    errors: u64,
    arrivals: u64,
    epoch: u64,
    /// Per arrival: thread CPU µs for the front end's view refresh plus
    /// the embed.
    embed_us: Vec<f64>,
}

fn trace_of(inputs: &Inputs) -> Result<&ReplayTrace, String> {
    inputs
        .trace
        .as_ref()
        .ok_or_else(|| "serving inputs carry a trace".to_string())
}

fn gen(w: Workload, seed: u64, n: usize, tracer: &mut Tracer) -> Inputs {
    let g = tracer.enter("sim.gen", NO_ARRIVAL);
    let inputs = generate(w, seed, n);
    tracer.exit(g);
    inputs
}

/// Spawns the batched daemon (one worker per shard) and connects.
fn spawn(
    inputs: &Inputs,
    shards: usize,
    tracer: &mut Tracer,
) -> Result<(ServerHandle, Result<Client, ClientError>), String> {
    let s = tracer.enter("serve.spawn", NO_ARRIVAL);
    let cfg = BatchConfig {
        shards,
        workers_per_shard: 1,
        queue_capacity: 64,
        algo: Algo::Mbbe,
        reclaim_on_disconnect: false,
    };
    let handle = spawn_batched(inputs.net.clone(), shards, cfg, "127.0.0.1:0")
        .map_err(|e| format!("spawn daemon: {e}"))?;
    tracer.exit(s);
    let c = tracer.enter("serve.connect", NO_ARRIVAL);
    let client = Client::connect(handle.addr());
    tracer.exit(c);
    Ok((handle, client))
}

/// The shadow codec probe of a traced pass: encodes the embed request
/// the client sends and decodes it as the daemon does.
fn codec_probe(req: &Request, algo: Algo) -> Result<(), String> {
    let wire = WireRequest {
        cmd: "embed".into(),
        sfc: Some(req.sfc.clone()),
        flow: Some(req.flow),
        seed: Some(req.seed),
        algo: Some(dagsfc_serve::algo_wire_name(algo).to_string()),
        ..WireRequest::default()
    };
    let line = serde_json::to_string(&wire).map_err(|e| e.to_string())?;
    let back: WireRequest = serde_json::from_str(&line).map_err(|e| e.to_string())?;
    std::hint::black_box(back);
    Ok(())
}

/// Lock-step replay state: leases held, departures due, outcomes.
struct Replay<'a> {
    inputs: &'a Inputs,
    trace: &'a ReplayTrace,
    departures: DepartureQueue,
    leases: Vec<Option<LeaseId>>,
    out: Outcomes,
    errors: u64,
}

impl<'a> Replay<'a> {
    fn new(inputs: &'a Inputs) -> Result<Self, String> {
        let n = inputs.requests.len();
        Ok(Replay {
            inputs,
            trace: trace_of(inputs)?,
            departures: DepartureQueue::new(),
            leases: vec![None; n],
            out: Outcomes::default(),
            errors: 0,
        })
    }

    fn release(
        &mut self,
        client: &mut Client,
        tracer: &mut Tracer,
        id: usize,
        step: usize,
    ) -> Result<(), String> {
        let lease = self.leases[id].take().ok_or("a lease departs twice")?;
        let s = tracer.enter("serve.rpc_release", step as u32);
        let r = client.release(lease);
        tracer.exit(s);
        match r {
            Ok(()) => {}
            Err(ClientError::Server(_)) => self.errors += 1,
            Err(e) => return Err(format!("release rpc: {e}")),
        }
        self.out.departures.push(id as u32);
        Ok(())
    }

    /// Replays the whole trace in the event order of
    /// `dagsfc_serve::replay`: before each arrival, the departures due
    /// by then; then the arrival's embed. Drains every lease at the end.
    fn drive(&mut self, client: &mut Client, tracer: &mut Tracer) -> Result<(), String> {
        for (arrival, req) in self.inputs.requests.iter().enumerate() {
            self.arrive(client, tracer, arrival, req)?;
        }
        let n = self.inputs.requests.len();
        while let Some((_, id)) = self.departures.pop() {
            self.release(client, tracer, id, n)?;
        }
        Ok(())
    }

    /// One arrival: its due releases, then its embed.
    fn arrive(
        &mut self,
        client: &mut Client,
        tracer: &mut Tracer,
        arrival: usize,
        req: &Request,
    ) -> Result<(), String> {
        let now = to_fixed(arrival as f64);
        while let Some(id) = self.departures.pop_due(now) {
            self.release(client, tracer, id, arrival)?;
        }
        let s = tracer.enter("serve.rpc_embed", arrival as u32);
        let reply = client.embed(&req.sfc, &req.flow, Some(self.trace.algo), req.seed);
        tracer.exit(s);
        match reply {
            Ok(EmbedReply::Accepted { lease, cost }) => {
                self.leases[arrival] = Some(lease);
                self.departures
                    .schedule(self.trace.depart_at[arrival], arrival);
                self.out.per_arrival.push((true, cost.total().to_bits()));
            }
            Ok(EmbedReply::Rejected(_)) => self.out.per_arrival.push((false, 0)),
            Err(ClientError::Server(_)) => {
                self.errors += 1;
                self.out.per_arrival.push((false, 0));
            }
            Err(e) => return Err(format!("embed rpc: {e}")),
        }
        if tracer.enabled() {
            let c = tracer.enter("serve.codec", arrival as u32);
            codec_probe(req, self.trace.algo)?;
            tracer.exit(c);
        }
        Ok(())
    }
}

/// One replay of `inputs` through a fresh daemon: spawn, replay,
/// shut down.
fn daemon_pass(inputs: &Inputs, shards: usize, tracer: &mut Tracer) -> Result<DaemonPass, String> {
    let (handle, client) = spawn(inputs, shards, tracer)?;
    let replayed = client
        .map_err(|e| format!("connect: {e}"))
        .and_then(|mut client| {
            let mut replay = Replay::new(inputs)?;
            let cpu0 = cpu_times()?;
            replay.drive(&mut client, tracer)?;
            let cpu = cpu_times()?.since(&cpu0);
            Ok((replay.out, replay.errors, cpu))
        });
    // Joining raises the shutdown flag, drains the daemon and returns
    // its final counters; it runs whether or not the replay succeeded.
    let s = tracer.enter("serve.shutdown", NO_ARRIVAL);
    let report = handle.join();
    tracer.exit(s);
    let (outcomes, errors, cpu) = replayed?;
    Ok(DaemonPass {
        cpu,
        errors,
        outcomes,
        report,
    })
}

fn per_algo_total(engine: &ShardedEngine<'_>) -> Duration {
    engine.stats().per_algo.iter().map(|a| a.2).sum()
}

/// The engine the batched daemon builds: `shards` regions with their
/// gateway table, flows homed by source.
fn new_engine(inputs: &Inputs, shards: usize) -> Result<ShardedEngine<'_>, String> {
    let plan = ShardPlan::partition(&inputs.net, shards).map_err(|e| e.to_string())?;
    Ok(ShardedEngine::new(
        &inputs.net,
        plan,
        ShardRouter::new(RoutePolicy::SourceAffinity),
    ))
}

/// The trace through the engine the batched daemon runs, in process and
/// on this thread: the front end's per-batch `unpartitioned_residual`,
/// then `embed`; `release` for each departure. Arrivals are timed in
/// segments; the final drain of leases is not. In a traced pass, each
/// embed gets the engine's own solve-and-reserve time as its
/// `shard.reserve` child.
fn engine_pass(
    inputs: &Inputs,
    shards: usize,
    segments: &mut Segments,
    tracer: &mut Tracer,
) -> Result<EnginePass, String> {
    let trace = trace_of(inputs)?;
    let s = tracer.enter("shard.setup", NO_ARRIVAL);
    let mut engine = new_engine(inputs, shards)?;
    tracer.exit(s);
    let n = inputs.requests.len();
    let mut departures = DepartureQueue::new();
    let mut leases: Vec<Option<StitchId>> = vec![None; n];
    let mut out = Outcomes::default();
    let mut errors = 0;
    let release = |engine: &mut ShardedEngine<'_>,
                   tracer: &mut Tracer,
                   out: &mut Outcomes,
                   lease: Option<StitchId>,
                   id: usize,
                   step: usize| {
        let s = tracer.enter("shard.release", step as u32);
        let ok = lease.map(|l| engine.release(l).is_ok()).unwrap_or(false);
        tracer.exit(s);
        out.departures.push(id as u32);
        u64::from(!ok)
    };
    let mut embed_us = Vec::with_capacity(n);
    for (c, chunk) in inputs.requests.chunks(SEGMENT).enumerate() {
        segments.begin()?;
        for (j, req) in chunk.iter().enumerate() {
            let arrival = c * SEGMENT + j;
            let now = to_fixed(arrival as f64);
            while let Some(id) = departures.pop_due(now) {
                errors += release(
                    &mut engine,
                    tracer,
                    &mut out,
                    leases[id].take(),
                    id,
                    arrival,
                );
            }
            let started = thread_cpu_us()?;
            let v = tracer.enter("shard.view", arrival as u32);
            drop(engine.unpartitioned_residual());
            tracer.exit(v);
            let before = if tracer.enabled() {
                let c = tracer.enter("shard.stats", arrival as u32);
                let d = per_algo_total(&engine);
                tracer.exit(c);
                d
            } else {
                Duration::ZERO
            };
            let e = tracer.enter("shard.embed", arrival as u32);
            let result = engine.embed(&req.sfc, &req.flow, trace.algo, req.seed);
            tracer.exit(e);
            if tracer.enabled() {
                let c = tracer.enter("shard.stats", arrival as u32);
                let reserve = per_algo_total(&engine).saturating_sub(before);
                tracer.exit(c);
                tracer.counted_child(e, "shard.reserve", reserve.as_nanos() as u64);
            }
            embed_us.push(thread_cpu_us()? - started);
            match result {
                Ok(acc) => {
                    leases[arrival] = Some(acc.lease);
                    departures.schedule(trace.depart_at[arrival], arrival);
                    out.per_arrival.push((true, acc.cost.total().to_bits()));
                }
                Err(_) => out.per_arrival.push((false, 0)),
            }
        }
        segments.end(chunk.len() as u64)?;
    }
    while let Some((_, id)) = departures.pop() {
        errors += release(&mut engine, tracer, &mut out, leases[id].take(), id, n);
    }
    Ok(EnginePass {
        outcomes: out,
        errors,
        arrivals: n as u64,
        epoch: engine.stats().epoch,
        embed_us,
    })
}

/// `dagsfc_sim::run_trace`'s decisions, the unsharded reference.
fn lifecycle_reference(inputs: &Inputs) -> Result<Outcomes, String> {
    let o = run_trace(&inputs.net, trace_of(inputs)?);
    Ok(Outcomes {
        per_arrival: o
            .per_arrival
            .iter()
            .map(|a| (a.accepted, if a.accepted { a.cost.to_bits() } else { 0 }))
            .collect(),
        departures: o.departure_order.iter().map(|&d| d as u32).collect(),
    })
}

/// Runs a serving workload on `n` arrivals. The measured pass goes
/// through the engine in process; a lock-step replay through the daemon
/// must then decide the same. A traced run adds a traced daemon pass and
/// a traced engine pass, and fills the per-layer table.
pub fn run(w: Workload, seed: u64, n: usize, traced: bool) -> Result<RunResult, String> {
    let mut off = Tracer::new(false);
    let (setup_s, setups) = setup_median(|| {
        let t = Instant::now();
        let inputs = gen(w, seed, n, &mut off);
        let engine = new_engine(&inputs, w.shards())?;
        let s = t.elapsed().as_secs_f64();
        drop(engine);
        Ok(s)
    })?;
    let inputs = gen(w, seed, n, &mut off);
    let mut segments = Segments::default();
    let ticks = HostTicks::now()?;
    let e = engine_pass(&inputs, w.shards(), &mut segments, &mut off)?;
    let steal = HostTicks::now()?.steal_share_since(&ticks);
    let mut result = RunResult {
        attempted: n as u64,
        failed: e.errors,
        ..RunResult::default()
    };

    // Outputs: the daemon must decide exactly what its engine decided in
    // process and, at one shard, what the lifecycle simulation decides.
    // Both replays run after the measured pass, side by side; in a traced
    // run, the traced daemon pass below is the daemon check.
    let (daemon, lifecycle) = std::thread::scope(|s| {
        let daemon = (!traced)
            .then(|| s.spawn(|| daemon_pass(&inputs, w.shards(), &mut Tracer::new(false))));
        let lifecycle = (w.shards() == 1).then(|| lifecycle_reference(&inputs));
        let daemon = daemon.map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("daemon replay panicked".into()))
        });
        (daemon.transpose(), lifecycle.transpose())
    });
    if let Some(d) = daemon? {
        result.attempted += n as u64;
        result.failed += d.errors + failures(&d.report) + d.outcomes.mismatches(&e.outcomes);
    }
    if let Some(lifecycle) = lifecycle? {
        result.failed += e.outcomes.mismatches(&lifecycle);
    }

    let mut embed_us = e.embed_us.clone();
    embed_us.sort_by(f64::total_cmp);
    let accepted: Vec<f64> = e.outcomes.accepted_costs().collect();
    result.set("setup_s", setup_s);
    result.set("throughput_rps", segments.throughput());
    result.set(
        "latency_p50_us",
        percentile(&embed_us, 50.0).ok_or("too few embeds for p50")?,
    );
    result.set(
        "latency_p99_us",
        blocked_percentile(&e.embed_us, 99.0).ok_or("too few embeds for p99")?,
    );
    result.set("cpu_us_per_req", segments.cpu_us_per_op());
    result.set("peak_rss_mb", segments.peak_rss_mb());
    result.set("acceptance_ratio", accepted.len() as f64 / n as f64);
    result.set(
        "mean_cost",
        accepted.iter().sum::<f64>() / accepted.len().max(1) as f64,
    );
    result.outputs = e.outcomes.digest();
    eprintln!(
        "{}: {n} arrivals through {} shard(s), inputs {:016x}, {} accepted, \
         {} embed latency samples, {} segments of {SEGMENT} arrivals measured over {:.2} s, \
         {setups} set-ups, highest segment RSS {:.1} MB, \
         host steal {:.1}% of CPU time during the pass",
        w.name(),
        w.shards(),
        digest(&inputs)?,
        accepted.len(),
        embed_us.len(),
        segments.count(),
        segments.wall_s(),
        segments.max_rss_mb(),
        steal * 100.0,
    );

    if traced {
        let mut on = Tracer::new(true);
        let lo = on.now_ns();
        let tinputs = gen(w, seed, n, &mut on);
        let d = daemon_pass(&tinputs, w.shards(), &mut on)?;
        let mut traced_segments = Segments::default();
        let te = engine_pass(&tinputs, w.shards(), &mut traced_segments, &mut on)?;
        let window = (lo, on.now_ns());
        result.attempted += 2 * n as u64;
        result.failed += d.errors + failures(&d.report) + te.errors;
        result.failed += d.outcomes.mismatches(&e.outcomes) + te.outcomes.mismatches(&e.outcomes);
        let spans = on.into_spans();
        layer_table(&mut result, &d, &te, &spans);
        result.set(
            "trace.overhead",
            segments.throughput() / traced_segments.throughput() - 1.0,
        );
        result.set("trace.uncovered_share", uncovered_share(&spans, &[window]));
        result.spans = spans;
    }
    Ok(result)
}

/// Daemon-side failures: audits that failed and commits retried.
fn failures(r: &StatsReport) -> u64 {
    r.audits_failed + r.commit_retries
}

/// Fills the per-layer table from the traced daemon pass `d`, the
/// traced engine pass `e` and the spans both recorded.
fn layer_table(r: &mut RunResult, d: &DaemonPass, e: &EnginePass, spans: &[Span]) {
    let rep = &d.report;
    let arrivals = e.arrivals.max(1) as f64;
    let folded = fold(spans);
    let get = |name: &str| folded.get(name).cloned().unwrap_or_default();
    let per_arrival_us = |f: &Folded| f.busy_ns as f64 / 1e3 / arrivals;

    r.set("sim.gen_ms", get("sim.gen").busy_ns as f64 / 1e6);

    let mut algo_ms: BTreeMap<String, f64> = BTreeMap::new();
    for a in &rep.per_algo {
        *algo_ms.entry(a.algo.to_lowercase()).or_default() += a.total_micros as f64 / 1e3;
    }
    r.set(
        "core.solve.calls",
        rep.per_algo.iter().map(|a| a.solves).sum::<u64>() as f64,
    );
    r.set("core.solve.busy_ms", algo_ms.values().sum::<f64>());
    for (algo, name) in [
        ("bbe", "core.solve.bbe_ms"),
        ("mbbe", "core.solve.mbbe_ms"),
        ("minv", "core.solve.minv_ms"),
        ("ranv", "core.solve.ranv_ms"),
    ] {
        r.set(name, algo_ms.get(algo).copied().unwrap_or(0.0));
    }
    let reserve = get("shard.reserve");
    if let Some(p) = reserve.percentile_us(50.0) {
        r.set("core.solve.p50_us", p);
    }
    if let Some(p) = reserve.percentile_us(99.0) {
        r.set("core.solve.p99_us", p);
    }
    let rejected_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "shard.reserve")
        .filter(|s| e.outcomes.per_arrival.get(s.arrival as usize).map(|a| !a.0) == Some(true))
        .map(Span::len_ns)
        .sum();
    r.set(
        "core.solve.failed",
        (rep.rejected_capacity + rep.rejected_deadline + rep.rejected_rule) as f64,
    );
    r.set(
        "core.solve.failed_busy_share",
        rejected_ns as f64 / reserve.busy_ns.max(1) as f64,
    );
    r.set("core.solve.rejected_deadline", rep.rejected_deadline as f64);

    let (hits, misses) = (rep.solver_cache_hits as f64, rep.solver_cache_misses as f64);
    r.set("net.oracle.hits", hits);
    r.set("net.oracle.misses", misses);
    r.set("net.oracle.hit_rate", hits / (hits + misses).max(1.0));
    r.set("net.oracle.misses_per_req", misses / arrivals);
    r.set("net.oracle.evictions", rep.oracle.evictions as f64);

    r.set("audit.calls", rep.audits_run as f64);
    r.set("audit.violations", rep.audits_failed as f64);

    let (view, embed, release) = (get("shard.view"), get("shard.embed"), get("shard.release"));
    r.set("shard.setup_ms", get("shard.setup").busy_ns as f64 / 1e6);
    r.set("shard.view_us", per_arrival_us(&view));
    r.set("shard.view_calls", view.count as f64);
    r.set("shard.embed_us", per_arrival_us(&embed));
    r.set("shard.reserve_us", per_arrival_us(&reserve));
    r.set("shard.embed_self_us", embed.self_ns as f64 / 1e3 / arrivals);
    r.set("shard.release_us", per_arrival_us(&release));
    r.set("shard.epochs_per_arrival", e.epoch as f64 / arrivals);
    r.set("shard.commit_retries", rep.commit_retries as f64);
    let (offered, accepted) = (
        rep.cross_shard_offered as f64,
        rep.cross_shard_accepted as f64,
    );
    r.set("shard.cross_offered", offered);
    r.set("shard.cross_accepted", accepted);
    r.set("shard.cross_accept_ratio", accepted / offered.max(1.0));

    let (rpc_embed, rpc_release) = (get("serve.rpc_embed"), get("serve.rpc_release"));
    if let Some(p) = rpc_embed.percentile_us(50.0) {
        r.set("serve.rpc_embed_p50_us", p);
    }
    if let Some(p) = rpc_embed.percentile_us(99.0) {
        r.set("serve.rpc_embed_p99_us", p);
    }
    if let Some(p) = rpc_release.percentile_us(50.0) {
        r.set("serve.rpc_release_p50_us", p);
    }
    let wire_ns = rpc_embed.busy_ns + rpc_release.busy_ns;
    let engine_ns = view.busy_ns + embed.busy_ns + release.busy_ns;
    r.set(
        "serve.frontend_wait_us",
        (wire_ns as f64 - engine_ns as f64) / 1e3 / arrivals,
    );
    r.set("serve.codec_us", per_arrival_us(&get("serve.codec")));
    r.set(
        "serve.sys_cpu_share",
        d.cpu.sys_s / d.cpu.total_s().max(1e-9),
    );
    r.set("serve.errors", d.errors as f64);
    let a_hits = rep.oracle.hits as f64;
    let a_total = a_hits + rep.oracle.misses as f64;
    r.set("serve.admission_oracle_hit_rate", a_hits / a_total.max(1.0));
}
