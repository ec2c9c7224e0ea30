//! paper-fig6: every request solved by BBE, MBBE, RANV and MINV through
//! one shared `SolveCtx` on the static Table-2 network, from one thread.

use crate::host::{thread_cpu_us, HostTicks};
use crate::inputs::{digest, generate, Fnv, Inputs, Workload, FIG6_ALGOS};
use crate::report::{RunResult, BBE_LAYERS};
use crate::spans::{
    blocked_percentile, fold, percentile, uncovered_share, Span, Tracer, NO_ARRIVAL,
};
use crate::{setup_median, Segments};
use dagsfc_audit::ConstraintAuditor;
use dagsfc_core::solvers::{SolveCtx, SolveOutcome, SolverStats};
use dagsfc_core::SolveError;
use dagsfc_net::OracleStats;
use dagsfc_sim::Algo;
use std::time::Instant;

fn solve_span(algo: Algo) -> &'static str {
    match algo {
        Algo::Bbe => "core.solve.bbe",
        Algo::Mbbe => "core.solve.mbbe",
        Algo::Ranv => "core.solve.ranv",
        _ => "core.solve.minv",
    }
}

fn setup(seed: u64, n: usize, tracer: &mut Tracer) -> Inputs {
    let g = tracer.enter("sim.gen", NO_ARRIVAL);
    let inputs = generate(Workload::PaperFig6, seed, n);
    tracer.exit(g);
    inputs
}

/// Requests per segment of the measured loop.
const SEGMENT: usize = 10;

/// What one pass over the requests measured and checked.
struct Pass {
    /// Thread CPU time of every solve, in µs.
    solve_us: Vec<f64>,
    checked: Checked,
    oracle: OracleStats,
    inputs_digest: u64,
}

/// What checking a pass's outputs found.
#[derive(Default)]
struct Checked {
    /// Requests with a solve error, an audit violation or a cost that
    /// differs from the reference run's.
    failed: u64,
    /// Embeddings the auditor rejected.
    violations: u64,
    /// Cost bits per solve, request-major (`u64::MAX` for an error).
    bits: Vec<u64>,
    /// Sum and count of the costs of every successful solve.
    cost_sum: f64,
    solved: u64,
    /// Requests every algorithm solved.
    fully_solved: u64,
}

impl Checked {
    /// Checks the outcomes of the requests from `first` on: every
    /// embedding passes the auditor and costs what the reference did.
    fn add(
        &mut self,
        inputs: &Inputs,
        first: usize,
        outcomes: &[Result<SolveOutcome, SolveError>],
        reference: Option<&[u64]>,
        tracer: &mut Tracer,
    ) {
        let auditor = ConstraintAuditor::new();
        let k = FIG6_ALGOS.len();
        for (j, outs) in outcomes.chunks(k).enumerate() {
            let i = first + j;
            let r = &inputs.requests[i];
            let mut ok = true;
            for out in outs {
                match out {
                    Ok(o) => {
                        let s = tracer.enter("audit.check", i as u32);
                        let clean = auditor
                            .audit_outcome(&inputs.net, &r.sfc, &r.flow, o)
                            .is_clean();
                        tracer.exit(s);
                        self.violations += u64::from(!clean);
                        ok &= clean;
                        self.cost_sum += o.cost.total();
                        self.solved += 1;
                        self.bits.push(o.cost.total().to_bits());
                    }
                    Err(_) => {
                        ok = false;
                        self.bits.push(u64::MAX);
                    }
                }
            }
            self.fully_solved += u64::from(outs.iter().all(Result::is_ok));
            if let Some(reference) = reference {
                ok &= reference.get(i * k..(i + 1) * k) == self.bits.get(i * k..(i + 1) * k);
            }
            self.failed += u64::from(!ok);
        }
    }
}

/// One pass: set up, then solve every request with all four algorithms
/// in timed segments, checking each segment's outputs after its clock
/// stops. Outcomes are dropped once checked, so the process's memory is
/// the program's, not a pile of retained results.
fn pass(
    seed: u64,
    n: usize,
    segments: &mut Segments,
    tracer: &mut Tracer,
    reference: Option<&[u64]>,
    mut layer: Option<&mut LayerSums>,
) -> Result<Pass, String> {
    let inputs = setup(seed, n, tracer);
    let c = tracer.enter("core.ctx", NO_ARRIVAL);
    let ctx = SolveCtx::new(&inputs.net);
    tracer.exit(c);

    let k = FIG6_ALGOS.len();
    let mut solve_us = Vec::with_capacity(n * k);
    let mut checked = Checked::default();
    let mut outcomes = Vec::with_capacity(SEGMENT * k);
    for (c, chunk) in inputs.requests.chunks(SEGMENT).enumerate() {
        let first = c * SEGMENT;
        segments.begin()?;
        for (j, r) in chunk.iter().enumerate() {
            for algo in FIG6_ALGOS {
                let started = thread_cpu_us()?;
                let s = tracer.enter(solve_span(algo), (first + j) as u32);
                let out = algo.build(r.seed).solve_in(&ctx, &r.sfc, &r.flow);
                tracer.exit(s);
                solve_us.push(thread_cpu_us()? - started);
                outcomes.push(out);
            }
        }
        segments.end(chunk.len() as u64)?;
        checked.add(&inputs, first, &outcomes, reference, tracer);
        if let Some(l) = layer.as_deref_mut() {
            l.add(&outcomes);
        }
        outcomes.clear();
    }
    Ok(Pass {
        solve_us,
        checked,
        oracle: ctx.oracle.stats(),
        inputs_digest: digest(&inputs)?,
    })
}

/// Runs paper-fig6 on `n` requests. A traced run makes an untraced pass
/// and then a traced one, and fills the per-layer table.
pub fn run(seed: u64, n: usize, traced: bool) -> Result<RunResult, String> {
    let mut off = Tracer::new(false);
    let (setup_s, setups) = setup_median(|| {
        let t = Instant::now();
        let inputs = setup(seed, n, &mut off);
        let ctx = SolveCtx::new(&inputs.net);
        let s = t.elapsed().as_secs_f64();
        drop(ctx);
        Ok(s)
    })?;
    let mut result = RunResult::default();
    let mut segments = Segments::default();
    let ticks = HostTicks::now()?;
    let mut p = pass(seed, n, &mut segments, &mut off, None, None)?;
    let steal = HostTicks::now()?.steal_share_since(&ticks);
    result.failed += p.checked.failed;
    result.attempted += n as u64;

    let c = &p.checked;
    result.set("setup_s", setup_s);
    result.set("throughput_rps", segments.throughput());
    result.set(
        "latency_p99_us",
        blocked_percentile(&p.solve_us, 99.0).ok_or("too few solves for p99")?,
    );
    p.solve_us.sort_by(f64::total_cmp);
    result.set(
        "latency_p50_us",
        percentile(&p.solve_us, 50.0).ok_or("too few solves for p50")?,
    );
    result.set("cpu_us_per_req", segments.cpu_us_per_op());
    result.set("peak_rss_mb", segments.peak_rss_mb());
    result.set("acceptance_ratio", c.fully_solved as f64 / n as f64);
    result.set("mean_cost", c.cost_sum / c.solved.max(1) as f64);
    let mut h = Fnv::default();
    for b in &c.bits {
        h.write(&b.to_le_bytes());
    }
    result.outputs = h.finish();
    eprintln!(
        "paper-fig6: {n} requests x {} solvers, inputs {:016x}, {} solve latency samples, \
         {} segments of {SEGMENT} requests measured over {:.2} s, {setups} set-ups, \
         highest segment RSS {:.1} MB, oracle {} hits / {} misses, \
         host steal {:.1}% of CPU time during the pass",
        FIG6_ALGOS.len(),
        p.inputs_digest,
        p.solve_us.len(),
        segments.count(),
        segments.wall_s(),
        segments.max_rss_mb(),
        p.oracle.hits,
        p.oracle.misses,
        steal * 100.0,
    );

    if traced {
        let mut on = Tracer::new(true);
        let mut traced_segments = Segments::default();
        let mut layer = LayerSums::default();
        let lo = on.now_ns();
        let tp = pass(
            seed,
            n,
            &mut traced_segments,
            &mut on,
            Some(&p.checked.bits),
            Some(&mut layer),
        )?;
        let window = (lo, on.now_ns());
        result.failed += tp.checked.failed;
        result.attempted += n as u64;
        let spans = on.into_spans();
        layer_table(&mut result, &tp, n, &layer, &spans);
        result.set(
            "trace.overhead",
            segments.throughput() / traced_segments.throughput() - 1.0,
        );
        result.set("trace.uncovered_share", uncovered_share(&spans, &[window]));
        result.spans = spans;
    }
    Ok(result)
}

/// Sums over the traced pass's outcomes of what the solvers report
/// themselves.
#[derive(Default)]
struct LayerSums {
    bbe: SolverStats,
    layer_ns: [u128; BBE_LAYERS.len()],
    delay_rejected: u64,
    failed: u64,
    rejected_deadline: u64,
}

impl LayerSums {
    fn add(&mut self, outcomes: &[Result<SolveOutcome, SolveError>]) {
        for (i, out) in outcomes.iter().enumerate() {
            let o = match out {
                Ok(o) => o,
                Err(e) => {
                    self.failed += 1;
                    self.rejected_deadline += u64::from(e.is_deadline_infeasible());
                    continue;
                }
            };
            self.delay_rejected += o.stats.candidates_delay_rejected as u64;
            if matches!(FIG6_ALGOS[i % FIG6_ALGOS.len()], Algo::Bbe | Algo::Mbbe) {
                let s = &o.stats;
                self.bbe.explored += s.explored;
                self.bbe.kept += s.kept;
                self.bbe.nodes_expanded += s.nodes_expanded;
                self.bbe.fst_nodes += s.fst_nodes;
                self.bbe.bst_nodes += s.bst_nodes;
                self.bbe.candidates_generated += s.candidates_generated;
                self.bbe.candidates_pruned += s.candidates_pruned;
                for (l, w) in s.layer_wall.iter().enumerate() {
                    self.layer_ns[l.min(BBE_LAYERS.len() - 1)] += w.as_nanos();
                }
            }
        }
    }
}

/// Fills the per-layer table from the traced pass `p` over `n`
/// requests, its outcome sums and the spans it recorded.
fn layer_table(r: &mut RunResult, p: &Pass, n: usize, sums: &LayerSums, spans: &[Span]) {
    let folded = fold(spans);
    let busy_ms = |name: &str| folded.get(name).map_or(0.0, |f| f.busy_ns as f64 / 1e6);
    r.set("sim.gen_ms", busy_ms("sim.gen"));

    let mut all = Vec::new();
    let mut calls = 0;
    for name in FIG6_ALGOS.map(solve_span) {
        if let Some(f) = folded.get(name) {
            all.extend_from_slice(&f.durations_ns);
            calls += f.count;
        }
    }
    all.sort_unstable();
    r.set("core.solve.calls", calls as f64);
    r.set("core.solve.busy_ms", all.iter().sum::<u64>() as f64 / 1e6);
    if let Some(p) = percentile(&all, 50.0) {
        r.set("core.solve.p50_us", p as f64 / 1e3);
    }
    if let Some(p) = percentile(&all, 99.0) {
        r.set("core.solve.p99_us", p as f64 / 1e3);
    }
    r.set("core.solve.bbe_ms", busy_ms("core.solve.bbe"));
    r.set("core.solve.mbbe_ms", busy_ms("core.solve.mbbe"));
    r.set("core.solve.minv_ms", busy_ms("core.solve.minv"));
    r.set("core.solve.ranv_ms", busy_ms("core.solve.ranv"));
    r.set("core.solve.failed", sums.failed as f64);
    r.set("core.solve.failed_busy_share", 0.0);
    r.set(
        "core.solve.rejected_deadline",
        sums.rejected_deadline as f64,
    );

    let s = &sums.bbe;
    r.set("core.bbe.nodes_expanded", s.nodes_expanded as f64);
    r.set("core.bbe.fst_nodes", s.fst_nodes as f64);
    r.set("core.bbe.bst_nodes", s.bst_nodes as f64);
    r.set(
        "core.bbe.candidates_generated",
        s.candidates_generated as f64,
    );
    r.set("core.bbe.candidates_pruned", s.candidates_pruned as f64);
    r.set(
        "core.bbe.kept_ratio",
        s.kept as f64 / s.explored.max(1) as f64,
    );
    for (name, ns) in BBE_LAYERS.iter().zip(sums.layer_ns) {
        r.set(name, ns as f64 / 1e6);
    }
    r.set("core.delay.candidates_rejected", sums.delay_rejected as f64);

    let o = &p.oracle;
    r.set("net.oracle.hits", o.hits as f64);
    r.set("net.oracle.misses", o.misses as f64);
    r.set("net.oracle.hit_rate", o.hit_rate());
    r.set("net.oracle.misses_per_req", o.misses as f64 / n as f64);
    r.set("net.oracle.evictions", o.evictions as f64);

    let audit = folded.get("audit.check").cloned().unwrap_or_default();
    r.set("audit.calls", audit.count as f64);
    r.set("audit.busy_us", audit.busy_ns as f64 / 1e3 / n as f64);
    r.set("audit.violations", p.checked.violations as f64);
}
