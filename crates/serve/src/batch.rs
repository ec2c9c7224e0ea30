//! The daemon: one event-driven front-end poll thread, request
//! batching, and per-shard worker pools over a [`ShardedEngine`].
//!
//! ## Threading model
//!
//! * a single **front-end thread** polls every connection with
//!   non-blocking reads, tolerating partial lines (bytes accumulate in
//!   a per-connection buffer until a `\n` completes a request) — no
//!   thread per connection, so hundreds of clients cost neither context
//!   switches nor lock bouncing;
//! * all requests that arrived in one poll pass form a **batch**:
//!   admission prechecks for the whole batch run under *one* engine
//!   lock acquisition, and the residual-view refresh is warmed once and
//!   amortized across the batch instead of once per request;
//! * admitted embeds are **ticketed** by the front end (a plain counter
//!   — no atomics needed, one thread) and dispatched to their home
//!   shard's bounded queue, where that shard's **worker pool** serves
//!   them;
//! * replies flow back through per-connection ordered queues, so a
//!   client that pipelines N requests gets N replies in request order.
//!
//! Shutdown (flag or `shutdown` command) stops admission, drains every
//! queued job to its reply, keeps all committed leases on the books,
//! and returns the final [`StatsReport`].
//!
//! ## Determinism
//!
//! The global [`TicketGate`] is shared by *all* shard pools: solve +
//! commit happens in exactly admission order, one at a time, no matter
//! how many shards or workers exist. Faults and reclaims ride the same
//! tickets, which pins their interleaving with embeds. Admission
//! prechecks run against the **base** network (never the residual), so
//! their outcome cannot depend on how requests happened to be grouped
//! into batches. Together these make a replayed trace bit-for-bit
//! independent of the worker count, the shard-pool layout, and the
//! batch boundaries — the property the differential tests pin.
//!
//! Deadlock-freedom of the shared gate: the front end hands out tickets
//! in increasing order and each shard queue is FIFO, so the globally
//! next ticket is always at the head of some shard's queue, and the
//! worker that pops it never waits.

use crate::protocol::{
    fault_event_from_wire, parse_algo, ShardLane, StatsReport, WireRequest, WireResponse,
};
use crate::server::{hello_response, lock_recover, preset_chain, ServerHandle, TicketGate};
use dagsfc_core::solvers::precheck;
use dagsfc_core::{DagSfc, Flow};
use dagsfc_net::{FaultEvent, Network, PathOracle};
use dagsfc_shard::{RoutePolicy, ShardPlan, ShardRouter, ShardedEngine, StitchId};
use dagsfc_sim::Algo;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
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
    /// Worker threads per shard pool (≥ 1; results are identical for
    /// any value by construction).
    pub workers_per_shard: usize,
    /// Bounded capacity of each shard's queue; admission rejects with
    /// `queue full` beyond it (backpressure).
    pub queue_capacity: usize,
    /// Default algorithm when a request names none.
    pub algo: Algo,
    /// When a connection drops (EOF or a read error), ticket a reclaim
    /// of every lease that connection still owns. Off by default: the
    /// one-shot CLI client opens a fresh connection per operation,
    /// which would make every normal workflow self-destruct.
    pub reclaim_on_disconnect: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            shards: 1,
            workers_per_shard: 2,
            queue_capacity: 64,
            algo: Algo::Mbbe,
            reclaim_on_disconnect: false,
        }
    }
}

/// One queued job for a shard's worker pool.
enum BatchJob {
    Embed {
        sfc: DagSfc,
        flow: Flow,
        algo: Algo,
        seed: u64,
        owner: u64,
    },
    Fault(FaultEvent),
    Reclaim {
        owner: u64,
    },
}

struct Ticketed {
    ticket: u64,
    job: BatchJob,
    reply: mpsc::Sender<WireResponse>,
}

/// One shard's bounded FIFO queue. Tickets are assigned by the
/// (single-threaded) front end; the queue only carries them.
struct ShardQueue {
    inner: Mutex<(VecDeque<Ticketed>, bool)>,
    ready: Condvar,
}

impl ShardQueue {
    fn new() -> Self {
        ShardQueue {
            inner: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    fn push(&self, job: Ticketed) {
        lock_recover(&self.inner).0.push_back(job);
        self.ready.notify_one();
    }

    /// Next job, blocking; `None` once closed **and** empty — the drain
    /// guarantee.
    fn pop(&self) -> Option<Ticketed> {
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
    /// Owed by a shard worker.
    Wait(mpsc::Receiver<WireResponse>),
}

/// One client connection's front-end state.
struct Conn {
    stream: TcpStream,
    owner: u64,
    /// Bytes read but not yet terminated by `\n` (partial-line
    /// tolerance — slow or chunking clients).
    buf: Vec<u8>,
    /// Replies owed, in request order (pipelining support).
    pending: VecDeque<Pending>,
    /// Read side finished (EOF, IO error, or a served `shutdown`/`bye`);
    /// the connection is dropped once `pending` drains.
    closed: bool,
}

/// Everything the front end and the shard workers share.
struct SharedBatch<'n> {
    engine: Mutex<ShardedEngine<'n>>,
    oracle: PathOracle<'n>,
    queues: Vec<ShardQueue>,
    gate: TicketGate,
    shutdown: Arc<AtomicBool>,
    default_algo: Algo,
    queue_capacity: usize,
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
    let shards = plan.shards();
    let shared = SharedBatch {
        engine: Mutex::new(ShardedEngine::new(
            net,
            plan,
            ShardRouter::new(RoutePolicy::SourceAffinity),
        )),
        oracle: PathOracle::new(net),
        queues: (0..shards).map(|_| ShardQueue::new()).collect(),
        gate: TicketGate::new(),
        shutdown: Arc::clone(&shutdown),
        default_algo: cfg.algo,
        queue_capacity: cfg.queue_capacity,
    };
    crossbeam::thread::scope(|s| {
        for queue in &shared.queues {
            for _ in 0..cfg.workers_per_shard.max(1) {
                s.spawn(|| shard_worker_loop(queue, &shared));
            }
        }
        poll_loop(&listener, cfg, &shared);
        // Stop admission; workers drain what is already queued, then
        // exit — every `Pending::Wait` receiver resolves.
        for queue in &shared.queues {
            queue.close();
        }
    });
    let engine = shared
        .engine
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    stats_report(&engine, &shared.queues, cfg.queue_capacity, &shared.oracle)
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

/// The front-end event loop: accept, read, batch-admit, flush replies.
fn poll_loop(listener: &TcpListener, cfg: &BatchConfig, shared: &SharedBatch<'_>) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut next_owner: u64 = 1;
    let mut next_ticket: u64 = 0;
    let mut scratch = [0u8; 4096];
    // Consecutive pass count without progress, for the idle backoff.
    let mut idle_passes: u32 = 0;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let mut progressed = false;

        // Accept everything waiting.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    conns.push(Conn {
                        stream,
                        owner: next_owner,
                        buf: Vec::new(),
                        pending: VecDeque::new(),
                        closed: false,
                    });
                    next_owner += 1;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        // Read every connection; collect the complete lines that
        // arrived this pass — they are the batch.
        let mut batch: Vec<(usize, String)> = Vec::new();
        let mut hung_up: Vec<u64> = Vec::new();
        for (idx, conn) in conns.iter_mut().enumerate() {
            if conn.closed {
                continue;
            }
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(n) if n > 0 => {
                        conn.buf.extend_from_slice(&scratch[..n]);
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    // EOF or a read error (a reset, say): the client is
                    // gone either way.
                    _ => {
                        conn.closed = true;
                        hung_up.push(conn.owner);
                        break;
                    }
                }
            }
            while let Some(pos) = conn.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = conn.buf.drain(..=pos).collect();
                batch.push((idx, String::from_utf8_lossy(&line).into_owned()));
            }
        }

        // Batched admission: one engine lock acquisition serves every
        // request that arrived this pass, and the residual-view warm-up
        // is amortized across the batch's embeds.
        if !batch.is_empty() {
            progressed = true;
            let mut engine = lock_recover(&shared.engine);
            if batch.iter().any(|(_, l)| l.contains("\"embed")) {
                engine.unpartitioned_residual();
            }
            for (idx, line) in batch {
                let owner = conns[idx].owner;
                let pending = admit(&line, owner, &mut engine, &mut next_ticket, shared);
                conns[idx].pending.push_back(pending);
            }
        }

        // A vanished client may leave committed leases behind. When the
        // operator opted in, ticket a reclaim behind everything the
        // client sent (fire-and-forget: nobody reads the reply).
        if cfg.reclaim_on_disconnect && !shared.shutdown.load(Ordering::SeqCst) {
            for owner in hung_up {
                let _ = enqueue(
                    RECLAIM_SHARD,
                    BatchJob::Reclaim { owner },
                    &mut next_ticket,
                    shared,
                );
            }
        }

        // Flush replies in request order; drop drained dead connections.
        for conn in &mut conns {
            if flush_pending(conn) {
                progressed = true;
            }
        }
        conns.retain(|c| !(c.closed && c.pending.is_empty()));

        // Idle backoff: lock-step clients reply within microseconds of
        // a flush, so spin-yield through short gaps (sleeping even 1ms
        // here would put a millisecond floor under every request's
        // round trip) and only sleep once the lull is real.
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

    // Drain: workers finish every queued job, so every owed reply
    // resolves; deliver them before closing the sockets.
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

/// Admits one request under the batch's engine lock: immediate commands
/// answer now; embeds/faults/reclaims are ticketed into a shard queue.
fn admit(
    line: &str,
    owner: u64,
    engine: &mut ShardedEngine<'_>,
    next_ticket: &mut u64,
    shared: &SharedBatch<'_>,
) -> Pending {
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
        "stats" => Pending::Ready(WireResponse {
            status: "ok".into(),
            stats: Some(stats_report(
                engine,
                &shared.queues,
                shared.queue_capacity,
                &shared.oracle,
            )),
            ..WireResponse::default()
        }),
        "release" => {
            let Some(lease) = req.lease else {
                return Pending::Ready(WireResponse::error("release requires 'lease'"));
            };
            Pending::Ready(match engine.release(StitchId(lease)) {
                Ok(()) => WireResponse::ok(),
                Err(e) => WireResponse::error(e.to_string()),
            })
        }
        "shutdown" => {
            shared.shutdown.store(true, Ordering::SeqCst);
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
            // Faults are region-local: ticket the event into the owner
            // shard's queue, so it lands between the embeds admitted
            // before and after it — deterministically, via the global
            // gate — while loading only that shard's pool.
            let shard = match event {
                FaultEvent::LinkDown { link }
                | FaultEvent::LinkUp { link }
                | FaultEvent::LinkCapacity { link, .. } => {
                    if engine.network().try_link(link).is_err() {
                        return Pending::Ready(WireResponse::error(format!("unknown link {link}")));
                    }
                    engine.plan().owner_of(link)
                }
                FaultEvent::NodeDown { node }
                | FaultEvent::NodeUp { node }
                | FaultEvent::VnfCapacity { node, .. } => {
                    if engine.network().try_node(node).is_err() {
                        return Pending::Ready(WireResponse::error(format!("unknown node {node}")));
                    }
                    engine.plan().shard_of(node)
                }
            };
            queued(enqueue(shard, BatchJob::Fault(event), next_ticket, shared))
        }
        "reclaim" => {
            // Default to the requesting connection's own leases; an
            // explicit owner reclaims on behalf of a vanished client.
            let target = req.owner.unwrap_or(owner);
            let job = BatchJob::Reclaim { owner: target };
            queued(enqueue(RECLAIM_SHARD, job, next_ticket, shared))
        }
        "embed" => {
            let Some(sfc) = req.sfc.take() else {
                return Pending::Ready(WireResponse::error("embed requires 'sfc'"));
            };
            let Some(flow) = req.flow else {
                return Pending::Ready(WireResponse::error("embed requires 'flow'"));
            };
            admit_embed(
                sfc,
                flow,
                req.algo.take(),
                req.seed,
                owner,
                engine,
                next_ticket,
                shared,
            )
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
            admit_embed(
                sfc,
                flow,
                req.algo.take(),
                req.seed,
                owner,
                engine,
                next_ticket,
                shared,
            )
        }
        other => Pending::Ready(WireResponse::error(format!("unknown command '{other}'"))),
    }
}

/// The embed admission path — `precheck` against the **base** network,
/// oracle reachability, bounded-queue backpressure — then a ticket into
/// the home shard's queue. Prechecking against the base network (never
/// the residual) is what keeps admission outcomes independent of batch
/// composition. Only this path counts `rejected`: the stats count embed
/// outcomes, so a fault or reclaim refused by backpressure is not one.
#[allow(clippy::too_many_arguments)]
fn admit_embed(
    sfc: DagSfc,
    flow: Flow,
    algo: Option<String>,
    seed: Option<u64>,
    owner: u64,
    engine: &mut ShardedEngine<'_>,
    next_ticket: &mut u64,
    shared: &SharedBatch<'_>,
) -> Pending {
    let algo = match algo.as_deref() {
        None => shared.default_algo,
        Some(name) => match parse_algo(name) {
            Some(a) => a,
            None => {
                return Pending::Ready(WireResponse::error(format!("unknown algorithm '{name}'")))
            }
        },
    };
    let seed = seed.unwrap_or(0);
    // A malformed flow is a bad request, not a rejection: it never
    // reaches the ledger and leaves every counter as it was.
    if let Err(e) = flow.validate() {
        return Pending::Ready(WireResponse::error(format!("invalid flow: {e}")));
    }
    if let Err(e) = precheck(engine.network(), &sfc, &flow) {
        engine.count_admission_rejection();
        return Pending::Ready(WireResponse::rejected(format!("infeasible: {e}")));
    }
    if flow.src != flow.dst
        && shared
            .oracle
            .tree(flow.src, flow.rate)
            .path_to(flow.dst)
            .is_none()
    {
        engine.count_admission_rejection();
        return Pending::Ready(WireResponse::rejected(format!(
            "infeasible: no path {} -> {} at rate {}",
            flow.src, flow.dst, flow.rate
        )));
    }
    let shard = engine.home_shard(&flow);
    let job = BatchJob::Embed {
        sfc,
        flow,
        algo,
        seed,
        owner,
    };
    let reply = enqueue(shard, job, next_ticket, shared);
    if reply.is_none() {
        engine.count_admission_rejection();
    }
    queued(reply)
}

/// The queue reclaims ride. They span every shard's ledger, so shard
/// 0's queue carries them by convention — the global ticket gate
/// serializes them against everything else regardless.
const RECLAIM_SHARD: usize = 0;

/// Tickets `job` into `shard`'s queue and returns the channel its reply
/// arrives on, or `None` when the queue is at capacity (backpressure).
fn enqueue(
    shard: usize,
    job: BatchJob,
    next_ticket: &mut u64,
    shared: &SharedBatch<'_>,
) -> Option<mpsc::Receiver<WireResponse>> {
    if shared.queues[shard].depth() >= shared.queue_capacity {
        return None;
    }
    let (tx, rx) = mpsc::channel();
    let ticket = *next_ticket;
    *next_ticket += 1;
    shared.queues[shard].push(Ticketed {
        ticket,
        job,
        reply: tx,
    });
    Some(rx)
}

/// The reply a ticketed job owes, or `queue full` when backpressure
/// refused it.
fn queued(reply: Option<mpsc::Receiver<WireResponse>>) -> Pending {
    match reply {
        Some(rx) => Pending::Wait(rx),
        None => Pending::Ready(WireResponse::rejected("queue full")),
    }
}

/// One shard worker: pop FIFO from the shard's queue, wait for the
/// global turn, serve, advance.
fn shard_worker_loop(queue: &ShardQueue, shared: &SharedBatch<'_>) {
    while let Some(job) = queue.pop() {
        shared.gate.wait_for(job.ticket);
        let resp = match job.job {
            BatchJob::Embed {
                sfc,
                flow,
                algo,
                seed,
                owner,
            } => {
                let outcome = {
                    let mut engine = lock_recover(&shared.engine);
                    engine.set_request_owner(Some(owner));
                    let outcome = engine.embed(&sfc, &flow, algo, seed);
                    engine.set_request_owner(None);
                    outcome
                };
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
                    Err(e @ dagsfc_sim::EmbedRejection::Audit(_)) => {
                        WireResponse::error(e.to_string())
                    }
                    Err(e) => WireResponse::rejected(e.to_string()),
                }
            }
            BatchJob::Fault(event) => {
                let applied = {
                    let mut engine = lock_recover(&shared.engine);
                    engine.apply_fault(&event)
                };
                match applied {
                    Ok(changed) => {
                        // Mirror reachability changes into the admission
                        // oracle, so a partitioned substrate rejects at
                        // admission instead of queueing doomed solves.
                        shared.oracle.apply_fault(&event);
                        WireResponse {
                            status: "ok".into(),
                            changed: Some(changed),
                            ..WireResponse::default()
                        }
                    }
                    Err(e) => WireResponse::error(e.to_string()),
                }
            }
            BatchJob::Reclaim { owner } => {
                let reclaimed = {
                    let mut engine = lock_recover(&shared.engine);
                    engine.reclaim_owner(owner)
                };
                WireResponse {
                    status: "ok".into(),
                    reclaimed: Some(reclaimed.len() as u64),
                    ..WireResponse::default()
                }
            }
        };
        shared.gate.advance();
        // A vanished client (dropped receiver) is not a server error.
        let _ = job.reply.send(resp);
    }
}

/// Maps the sharded engine's counters into the wire-level report.
fn stats_report(
    engine: &ShardedEngine<'_>,
    queues: &[ShardQueue],
    queue_capacity: usize,
    oracle: &PathOracle<'_>,
) -> StatsReport {
    let s = engine.stats();
    let o = oracle.stats();
    let offered = s.accepted + s.rejected;
    StatsReport {
        accepted: s.accepted,
        rejected: s.rejected,
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
        queue_depth: queues.iter().map(|q| q.depth() as u64).sum(),
        queue_capacity: queue_capacity as u64,
        epoch: s.epoch,
        outstanding_load: s.outstanding_load,
        oracle: crate::protocol::OracleCounters {
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
        commit_retries: s.commit_retries,
        shards: engine.plan().shards() as u64,
        cross_shard_offered: s.cross_shard_offered,
        cross_shard_accepted: s.cross_shard_accepted,
        per_shard: s
            .per_shard
            .iter()
            .map(|l| ShardLane {
                shard: l.shard,
                queue_depth: queues[l.shard as usize].depth() as u64,
                active_leases: l.active_leases,
                released: l.released,
                epoch: l.epoch,
                outstanding_load: l.outstanding_load,
                faults_applied: l.faults_applied,
                gateways: l.gateways,
            })
            .collect(),
        per_algo: s
            .per_algo
            .iter()
            .map(|(name, solves, total)| crate::protocol::AlgoLatency {
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
