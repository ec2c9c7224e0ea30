//! The daemon: one event-driven front-end poll thread and one engine
//! thread over a [`ShardedEngine`], joined by one bounded FIFO job
//! queue.
//!
//! ## Threading model
//!
//! * the **front-end thread** polls every connection with non-blocking
//!   reads, tolerating partial lines (bytes accumulate in a
//!   per-connection buffer until a `\n` completes a request, up to
//!   [`MAX_LINE_BYTES`]) — no
//!   thread per connection, so hundreds of clients cost neither context
//!   switches nor lock bouncing. It answers `ping`, `hello` and
//!   `shutdown` itself, turns away embeds that fail admission, and
//!   queues every command that reads or changes engine state — embed,
//!   release, fault, reclaim, stats — on the **job queue**;
//! * the **engine thread** owns the engine: it pops jobs in FIFO order,
//!   applies each one, and sends its reply back;
//! * replies flow back through per-connection ordered queues, so a
//!   client that pipelines N requests gets N replies in request order.
//!
//! Admission reads only the base network and the admission oracle, so
//! the front end never waits for a solve — not even an `exact` one that
//! runs for seconds. A `stats` reply waits its turn in the queue; it
//! reports every job admitted before it.
//!
//! Shutdown (flag or `shutdown` command) stops admission, lets the
//! engine thread drain every queued job to its reply, keeps all
//! committed leases on the books, and returns the final [`StatsReport`].
//!
//! ## Determinism
//!
//! One thread applies every state change, in the order the front end
//! admitted it: a `release` pipelined behind an `embed` lands after that
//! embed, exactly as if the client had waited for each reply. Admission
//! prechecks run against the **base** network (never the residual), so
//! their outcome cannot depend on what is still queued; the front end
//! mirrors each fault into the admission oracle as it queues it, so an
//! embed is screened against every fault sent before it. A replayed
//! trace is therefore a function of the request stream alone — the
//! property the differential tests pin.
//!
//! Backpressure: once `queue_capacity` jobs wait, embeds, faults and
//! reclaims are refused with `queue full`. A release, and the reclaim
//! a disconnect triggers, are always queued: resources can always be
//! given back.

use crate::protocol::{
    fault_event_from_wire, line_too_long, AlgoLatency, OracleCounters, ShardLane, StatsReport,
    WireRequest, WireResponse, MAX_LINE_BYTES,
};
use crate::server::{hello_response, lock_recover, preset_chain, ServerHandle};
use dagsfc_core::solvers::precheck;
use dagsfc_core::{DagSfc, Flow};
use dagsfc_net::{FaultEvent, Network, OracleStats, PathOracle};
use dagsfc_shard::{RoutePolicy, ShardPlan, ShardRouter, ShardedEngine, ShardedStats, StitchId};
use dagsfc_sim::Algo;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Batched-server configuration.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Region shards to partition the substrate into (1 = unsharded;
    /// a 1-shard daemon replays a trace bit-for-bit like the in-process
    /// lifecycle).
    pub shards: usize,
    /// Ignored: one engine thread applies every job, at any shard
    /// count. The field stays so that code building this struct field
    /// by field keeps compiling.
    pub workers_per_shard: usize,
    /// Bounded capacity of the job queue; embeds, faults and reclaims
    /// are refused with `queue full` beyond it (backpressure).
    pub queue_capacity: usize,
    /// Default algorithm when a request names none.
    pub algo: Algo,
    /// When a connection drops (EOF or a read error), queue a reclaim
    /// of every lease that connection still owns. Off by default: the
    /// one-shot CLI client opens a fresh connection per operation,
    /// which would make every normal workflow self-destruct.
    pub reclaim_on_disconnect: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            shards: 1,
            workers_per_shard: 1,
            queue_capacity: 64,
            algo: Algo::Mbbe,
            reclaim_on_disconnect: false,
        }
    }
}

/// A command that reads or changes engine state, queued for the engine
/// thread.
enum Job {
    Embed {
        sfc: DagSfc,
        flow: Flow,
        algo: Algo,
        seed: u64,
        owner: u64,
    },
    Release(StitchId),
    Fault(FaultEvent),
    Reclaim {
        owner: u64,
    },
    /// A `stats` request, with the front end's counters as of its
    /// admission.
    Stats(FrontCounters),
}

/// The front end's share of a stats report.
struct FrontCounters {
    /// Embeds turned away before they reached the engine (admission
    /// prechecks and backpressure).
    rejected: u64,
    queue_depth: u64,
    queue_capacity: u64,
    oracle: OracleStats,
}

struct Queued {
    job: Job,
    reply: mpsc::Sender<WireResponse>,
}

/// The bounded FIFO between the front end and the engine thread.
struct JobQueue {
    inner: Mutex<(VecDeque<Queued>, bool)>,
    ready: Condvar,
}

impl JobQueue {
    fn new() -> Self {
        JobQueue {
            inner: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    /// Queues `job` and returns the channel its reply arrives on, or
    /// `None` when a `capacity` is given and that many jobs already
    /// wait (backpressure).
    fn push(&self, job: Job, capacity: Option<usize>) -> Option<mpsc::Receiver<WireResponse>> {
        let mut inner = lock_recover(&self.inner);
        if capacity.is_some_and(|cap| inner.0.len() >= cap) {
            return None;
        }
        let (reply, rx) = mpsc::channel();
        inner.0.push_back(Queued { job, reply });
        drop(inner);
        self.ready.notify_one();
        Some(rx)
    }

    /// Next job, blocking; `None` once closed **and** empty — the drain
    /// guarantee.
    fn pop(&self) -> Option<Queued> {
        let mut inner = lock_recover(&self.inner);
        loop {
            if let Some(job) = inner.0.pop_front() {
                return Some(job);
            }
            if inner.1 {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(inner, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
    }

    fn close(&self) {
        lock_recover(&self.inner).1 = true;
        self.ready.notify_all();
    }

    fn depth(&self) -> usize {
        lock_recover(&self.inner).0.len()
    }
}

/// A reply owed to a connection, in request order.
// Ready responses stay inline: boxing would put an allocation on the
// admission hot path, and a connection holds at most a handful of
// pending replies at once.
#[allow(clippy::large_enum_variant)]
enum Pending {
    /// Computed at admission time (immediate commands, rejections).
    Ready(WireResponse),
    /// Owed by the engine thread.
    Wait(mpsc::Receiver<WireResponse>),
}

/// One client connection's front-end state.
struct Conn {
    stream: TcpStream,
    owner: u64,
    /// Bytes read but not yet terminated by `\n` (partial-line
    /// tolerance — slow or chunking clients), at most [`MAX_LINE_BYTES`].
    buf: Vec<u8>,
    /// A line ran past [`MAX_LINE_BYTES`]: its error reply is owed,
    /// every later byte is read and dropped, and the write side shuts
    /// once the reply is out. The connection goes when the client hangs
    /// up; closing it with input unread would reset the reply away.
    overlong: bool,
    /// Replies owed, in request order (pipelining support).
    pending: VecDeque<Pending>,
    /// Read side finished (EOF, IO error, or a served `shutdown`/`bye`);
    /// the connection is dropped once `pending` drains.
    closed: bool,
}

/// The front end's own state.
struct FrontEnd<'a, 'n> {
    net: &'n Network,
    cfg: &'a BatchConfig,
    queue: &'a JobQueue,
    shutdown: &'a AtomicBool,
    /// The admission oracle, with every queued fault's down/up overlay.
    oracle: PathOracle<'n>,
    /// Embeds turned away before they reached the engine.
    rejected: u64,
}

/// Runs the batched daemon over `net`, partitioned by `plan`, until
/// `shutdown` is raised; drains and returns the final stats. Blocking —
/// see [`spawn_batched`] for the owned-thread variant.
pub fn run_batched(
    net: &Network,
    plan: ShardPlan,
    cfg: &BatchConfig,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
) -> StatsReport {
    listener
        .set_nonblocking(true)
        // lint:allow(expect) — fatal at startup, before any request is admitted
        .expect("nonblocking listener");
    let mut engine = ShardedEngine::new(net, plan, ShardRouter::new(RoutePolicy::SourceAffinity));
    let queue = JobQueue::new();
    let mut front = FrontEnd {
        net,
        cfg,
        queue: &queue,
        shutdown: &shutdown,
        oracle: PathOracle::new(net),
        rejected: 0,
    };
    crossbeam::thread::scope(|s| {
        s.spawn(|| engine_loop(&mut engine, &queue));
        front.poll_loop(&listener);
        // Stop admission; the engine thread drains what is already
        // queued, then exits.
        queue.close();
    });
    stats_report(&engine.stats(), &front.counters())
}

/// Binds `bind` and runs the batched daemon on a background thread that
/// owns `net`. Fails with `InvalidInput` when `shards` cannot partition
/// the network.
pub fn spawn_batched(
    net: Network,
    shards: usize,
    cfg: BatchConfig,
    bind: &str,
) -> std::io::Result<ServerHandle> {
    let plan = ShardPlan::partition(&net, shards)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e.to_string()))?;
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let thread = std::thread::spawn(move || run_batched(&net, plan, &cfg, listener, flag));
    Ok(ServerHandle {
        addr,
        shutdown,
        thread,
    })
}

/// The engine thread: applies queued jobs one at a time, in admission
/// order, until the queue is closed and drained. A job that panics gets
/// an error reply instead of wedging every job behind it.
fn engine_loop(engine: &mut ShardedEngine<'_>, queue: &JobQueue) {
    while let Some(Queued { job, reply }) = queue.pop() {
        let resp = std::panic::catch_unwind(AssertUnwindSafe(|| apply(job, engine)))
            .unwrap_or_else(|_| WireResponse::error("internal error: the engine panicked"));
        // A vanished client (dropped receiver) is not a server error.
        let _ = reply.send(resp);
    }
}

/// Applies one job to the engine and builds its reply.
fn apply(job: Job, engine: &mut ShardedEngine<'_>) -> WireResponse {
    match job {
        Job::Embed {
            sfc,
            flow,
            algo,
            seed,
            owner,
        } => {
            engine.set_request_owner(Some(owner));
            let outcome = engine.embed(&sfc, &flow, algo, seed);
            engine.set_request_owner(None);
            match outcome {
                Ok(a) => WireResponse {
                    status: "accepted".into(),
                    lease: Some(a.lease.0),
                    cost: Some(a.cost),
                    ..WireResponse::default()
                },
                // An audit failure is a server-side bug (a solver
                // emitted a constraint-violating embedding), not an
                // ordinary rejection — surface it as an error.
                Err(e @ dagsfc_sim::EmbedRejection::Audit(_)) => WireResponse::error(e.to_string()),
                Err(e) => WireResponse::rejected(e.to_string()),
            }
        }
        Job::Release(lease) => match engine.release(lease) {
            Ok(()) => WireResponse::ok(),
            Err(e) => WireResponse::error(e.to_string()),
        },
        Job::Fault(event) => match engine.apply_fault(&event) {
            Ok(changed) => WireResponse {
                status: "ok".into(),
                changed: Some(changed),
                ..WireResponse::default()
            },
            Err(e) => WireResponse::error(e.to_string()),
        },
        Job::Reclaim { owner } => WireResponse {
            status: "ok".into(),
            reclaimed: Some(engine.reclaim_owner(owner).len() as u64),
            ..WireResponse::default()
        },
        Job::Stats(front) => WireResponse {
            status: "ok".into(),
            stats: Some(stats_report(&engine.stats(), &front)),
            ..WireResponse::default()
        },
    }
}

impl FrontEnd<'_, '_> {
    /// The front-end event loop: accept, read and admit, flush replies.
    fn poll_loop(&mut self, listener: &TcpListener) {
        let mut conns: Vec<Conn> = Vec::new();
        let mut next_owner: u64 = 1;
        let mut scratch = [0u8; 4096];
        // Consecutive pass count without progress, for the idle backoff.
        let mut idle_passes: u32 = 0;
        while !self.shutdown.load(Ordering::SeqCst) {
            let mut progressed = false;

            // Accept everything waiting.
            while let Ok((stream, _)) = listener.accept() {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                conns.push(Conn {
                    stream,
                    owner: next_owner,
                    buf: Vec::new(),
                    overlong: false,
                    pending: VecDeque::new(),
                    closed: false,
                });
                next_owner += 1;
                progressed = true;
            }

            // Read every connection and admit each complete line.
            for conn in &mut conns {
                if conn.closed {
                    continue;
                }
                let hung_up = loop {
                    match conn.stream.read(&mut scratch) {
                        Ok(n) if n > 0 => {
                            if !conn.overlong {
                                self.take_lines(conn, &scratch[..n]);
                            }
                            progressed = true;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break false,
                        // EOF or a read error (a reset, say): the client
                        // is gone either way.
                        _ => {
                            conn.closed = true;
                            break true;
                        }
                    }
                };
                // A vanished client may leave committed leases behind.
                // When the operator opted in, queue a reclaim behind
                // everything the client sent (fire-and-forget: nobody
                // reads the reply). Like a release it gives resources
                // back, and nobody could retry it, so backpressure never
                // refuses it.
                if hung_up
                    && self.cfg.reclaim_on_disconnect
                    && !self.shutdown.load(Ordering::SeqCst)
                {
                    let _ = self.queue.push(Job::Reclaim { owner: conn.owner }, None);
                }
            }

            // Flush replies in request order; drop drained dead
            // connections.
            for conn in &mut conns {
                if flush_pending(conn) {
                    progressed = true;
                    if conn.overlong && conn.pending.is_empty() {
                        // The refusal is out: end our side, keep
                        // draining theirs.
                        let _ = conn.stream.shutdown(Shutdown::Write);
                    }
                }
            }
            conns.retain(|c| !(c.closed && c.pending.is_empty()));

            // Idle backoff: lock-step clients reply within microseconds
            // of a flush, so spin-yield through short gaps (sleeping even
            // 1ms here would put a millisecond floor under every
            // request's round trip) and only sleep once the lull is real.
            if progressed {
                idle_passes = 0;
            } else {
                idle_passes += 1;
                if idle_passes < 256 {
                    std::thread::yield_now();
                } else if idle_passes < 512 {
                    std::thread::sleep(Duration::from_micros(50));
                } else {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }

        // Drain: the engine thread finishes every queued job, so every
        // owed reply resolves; deliver them before closing the sockets.
        for conn in &mut conns {
            while let Some(p) = conn.pending.pop_front() {
                let resp = match p {
                    Pending::Ready(r) => r,
                    Pending::Wait(rx) => rx
                        .recv()
                        .unwrap_or_else(|_| WireResponse::error("server shutting down")),
                };
                if write_response(&mut conn.stream, &resp).is_err() {
                    break;
                }
            }
        }
    }

    /// Appends `bytes` to `conn`'s partial line and admits every line
    /// they complete, scanning only the new bytes for `\n`. A partial
    /// line that outgrows [`MAX_LINE_BYTES`] is refused, not buffered.
    fn take_lines(&mut self, conn: &mut Conn, bytes: &[u8]) {
        // Everything already buffered holds no newline.
        let mut from = conn.buf.len();
        conn.buf.extend_from_slice(bytes);
        while let Some(at) = conn.buf[from..].iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = conn.buf.drain(..=from + at).collect();
            let pending = self.admit(&String::from_utf8_lossy(&line), conn.owner);
            conn.pending.push_back(pending);
            from = 0;
        }
        if conn.buf.len() > MAX_LINE_BYTES {
            conn.buf = Vec::new();
            conn.overlong = true;
            conn.pending.push_back(Pending::Ready(line_too_long()));
        }
    }

    /// Admits one request line: immediate commands answer now; state
    /// changes are queued for the engine thread.
    fn admit(&mut self, line: &str, owner: u64) -> Pending {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Pending::Ready(WireResponse::error("empty request line"));
        }
        let mut req: WireRequest = match serde_json::from_str(trimmed) {
            Ok(r) => r,
            Err(e) => return Pending::Ready(WireResponse::error(format!("bad request: {e}"))),
        };
        match req.cmd.as_str() {
            "ping" => Pending::Ready(WireResponse {
                status: "ok".into(),
                owner: Some(owner),
                ..WireResponse::default()
            }),
            "hello" => Pending::Ready(hello_response(req.proto, owner)),
            "stats" => self.enqueue(Job::Stats(self.counters()), None),
            "release" => match req.lease {
                // Never refused by backpressure.
                Some(lease) => self.enqueue(Job::Release(StitchId(lease)), None),
                None => Pending::Ready(WireResponse::error("release requires 'lease'")),
            },
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                Pending::Ready(WireResponse {
                    status: "bye".into(),
                    ..WireResponse::default()
                })
            }
            "fault" => {
                let event = match fault_event_from_wire(&req) {
                    Ok(e) => e,
                    Err(e) => return Pending::Ready(WireResponse::error(e)),
                };
                let unknown = match event {
                    FaultEvent::LinkDown { link }
                    | FaultEvent::LinkUp { link }
                    | FaultEvent::LinkCapacity { link, .. } => self
                        .net
                        .try_link(link)
                        .err()
                        .map(|_| format!("unknown link {link}")),
                    FaultEvent::NodeDown { node }
                    | FaultEvent::NodeUp { node }
                    | FaultEvent::VnfCapacity { node, .. } => self
                        .net
                        .try_node(node)
                        .err()
                        .map(|_| format!("unknown node {node}")),
                };
                if let Some(e) = unknown {
                    return Pending::Ready(WireResponse::error(e));
                }
                let pending =
                    self.enqueue(Job::Fault(event.clone()), Some(self.cfg.queue_capacity));
                if matches!(pending, Pending::Wait(_)) {
                    // Mirror reachability changes into the admission
                    // oracle now, so every embed sent after this fault is
                    // screened against it, and a partitioned substrate
                    // rejects at admission instead of queueing doomed
                    // solves. Down/up events with known ids cannot fail
                    // in the engine; the oracle ignores capacity events.
                    self.oracle.apply_fault(&event);
                }
                pending
            }
            "reclaim" => {
                // Default to the requesting connection's own leases; an
                // explicit owner reclaims on behalf of a vanished client.
                let owner = req.owner.unwrap_or(owner);
                self.enqueue(Job::Reclaim { owner }, Some(self.cfg.queue_capacity))
            }
            "embed" => {
                let Some(sfc) = req.sfc.take() else {
                    return Pending::Ready(WireResponse::error("embed requires 'sfc'"));
                };
                let Some(flow) = req.flow else {
                    return Pending::Ready(WireResponse::error("embed requires 'flow'"));
                };
                self.admit_embed(sfc, flow, req.algo.as_deref(), req.seed, owner)
            }
            "embed_preset" => {
                let Some(name) = req.preset.as_deref() else {
                    return Pending::Ready(WireResponse::error("embed_preset requires 'preset'"));
                };
                let Some(flow) = req.flow else {
                    return Pending::Ready(WireResponse::error("embed_preset requires 'flow'"));
                };
                let sfc = match preset_chain(name, req.max_width) {
                    Ok(s) => s,
                    Err(e) => return Pending::Ready(WireResponse::error(e)),
                };
                self.admit_embed(sfc, flow, req.algo.as_deref(), req.seed, owner)
            }
            other => Pending::Ready(WireResponse::error(format!("unknown command '{other}'"))),
        }
    }

    /// The embed admission path — `precheck` against the **base**
    /// network, oracle reachability, bounded-queue backpressure — then
    /// onto the job queue. Prechecking against the base network (never
    /// the residual) keeps admission outcomes independent of what is
    /// queued. Only this path counts `rejected`: the stats count embed
    /// outcomes, so a fault or reclaim refused by backpressure is not
    /// one.
    fn admit_embed(
        &mut self,
        sfc: DagSfc,
        flow: Flow,
        algo: Option<&str>,
        seed: Option<u64>,
        owner: u64,
    ) -> Pending {
        let algo = match algo {
            None => self.cfg.algo,
            Some(name) => match Algo::parse(name) {
                Some(a) => a,
                None => {
                    return Pending::Ready(WireResponse::error(format!(
                        "unknown algorithm '{name}'"
                    )))
                }
            },
        };
        // A malformed flow is a bad request, not a rejection: it never
        // reaches the ledger and leaves every counter as it was.
        if let Err(e) = flow.validate() {
            return Pending::Ready(WireResponse::error(format!("invalid flow: {e}")));
        }
        let refusal = if let Err(e) = precheck(self.net, &sfc, &flow) {
            format!("infeasible: {e}")
        } else if flow.src != flow.dst
            && self
                .oracle
                .tree(flow.src, flow.rate)
                .path_to(flow.dst)
                .is_none()
        {
            format!(
                "infeasible: no path {} -> {} at rate {}",
                flow.src, flow.dst, flow.rate
            )
        } else {
            let job = Job::Embed {
                sfc,
                flow,
                algo,
                seed: seed.unwrap_or(0),
                owner,
            };
            match self.queue.push(job, Some(self.cfg.queue_capacity)) {
                Some(rx) => return Pending::Wait(rx),
                None => "queue full".to_string(),
            }
        };
        self.rejected += 1;
        Pending::Ready(WireResponse::rejected(refusal))
    }

    /// Queues `job` for the engine thread, refused with `queue full`
    /// when a `capacity` is given and reached.
    fn enqueue(&self, job: Job, capacity: Option<usize>) -> Pending {
        match self.queue.push(job, capacity) {
            Some(rx) => Pending::Wait(rx),
            None => Pending::Ready(WireResponse::rejected("queue full")),
        }
    }

    /// The front end's share of a stats report, as of now.
    fn counters(&self) -> FrontCounters {
        FrontCounters {
            rejected: self.rejected,
            queue_depth: self.queue.depth() as u64,
            queue_capacity: self.cfg.queue_capacity as u64,
            oracle: self.oracle.stats(),
        }
    }
}

/// Maps the engine's counters, plus the front end's share, into the
/// wire-level report.
fn stats_report(s: &ShardedStats, front: &FrontCounters) -> StatsReport {
    let o = &front.oracle;
    let rejected = s.rejected + front.rejected;
    let offered = s.accepted + rejected;
    StatsReport {
        accepted: s.accepted,
        rejected,
        rejected_deadline: s.rejected_deadline,
        rejected_rule: s.rejected_rule,
        rejected_capacity: s.rejected_capacity,
        acceptance_ratio: if offered == 0 {
            0.0
        } else {
            s.accepted as f64 / offered as f64
        },
        total_cost: s.total_cost,
        active_leases: s.active_leases,
        released: s.released,
        queue_depth: front.queue_depth,
        queue_capacity: front.queue_capacity,
        epoch: s.epoch,
        outstanding_load: s.outstanding_load,
        oracle: OracleCounters {
            hits: o.hits,
            misses: o.misses,
            evictions: o.evictions,
            invalidations: o.invalidations,
            hit_rate: o.hit_rate(),
        },
        solver_cache_hits: s.solver_cache_hits,
        solver_cache_misses: s.solver_cache_misses,
        audits_run: s.audits_run,
        audits_failed: s.audits_failed,
        faults_applied: s.faults_applied,
        orphans_reclaimed: s.orphans_reclaimed,
        commit_retries: 0,
        shards: s.per_shard.len() as u64,
        cross_shard_offered: s.cross_shard_offered,
        cross_shard_accepted: s.cross_shard_accepted,
        per_shard: s
            .per_shard
            .iter()
            .map(|l| ShardLane {
                shard: l.shard,
                outstanding_load: l.outstanding_load,
                faults_applied: l.faults_applied,
                gateways: l.gateways,
            })
            .collect(),
        per_algo: s
            .per_algo
            .iter()
            .map(|(name, solves, total)| AlgoLatency {
                algo: name.to_string(),
                solves: *solves,
                total_micros: total.as_micros() as u64,
                mean_micros: if *solves == 0 {
                    0.0
                } else {
                    total.as_micros() as f64 / *solves as f64
                },
            })
            .collect(),
    }
}

/// Writes owed replies whose results are in, stopping at the first
/// still-pending one (order preserved). Returns whether anything was
/// written; marks the connection closed after a `bye`.
fn flush_pending(conn: &mut Conn) -> bool {
    let mut wrote = false;
    while let Some(front) = conn.pending.front_mut() {
        let resp = match front {
            Pending::Ready(_) => {
                // lint:allow(expect) — invariant: front() just returned Some
                let Pending::Ready(r) = conn.pending.pop_front().expect("front exists") else {
                    unreachable!()
                };
                r
            }
            Pending::Wait(rx) => match rx.try_recv() {
                Ok(r) => {
                    conn.pending.pop_front();
                    r
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    conn.pending.pop_front();
                    WireResponse::error("server shutting down")
                }
            },
        };
        let bye = resp.status == "bye";
        if write_response(&mut conn.stream, &resp).is_err() || bye {
            conn.closed = true;
        }
        wrote = true;
        if conn.closed {
            break;
        }
    }
    wrote
}

/// Serializes and writes one reply line, retrying on `WouldBlock` (the
/// socket is non-blocking; replies are small, so a full send buffer is
/// transient).
fn write_response(stream: &mut TcpStream, resp: &WireResponse) -> std::io::Result<()> {
    let mut payload =
        serde_json::to_string(resp).unwrap_or_else(|_| "{\"status\":\"error\"}".into());
    payload.push('\n');
    let mut bytes = payload.as_bytes();
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
