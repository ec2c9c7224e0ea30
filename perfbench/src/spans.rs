//! In-memory spans recorded around the benchmark's calls into each
//! layer, and the arithmetic that folds them into the per-layer table.
//!
//! A span is recorded by the benchmark's own code, never inside the
//! program: the layer boundary is the public function the benchmark
//! calls. Spans stay in memory until the run ends. A disabled
//! [`Tracer`] records nothing, so untraced runs execute the same loop.

use crate::report::median;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

/// Arrival id of a span that belongs to no single request.
pub const NO_ARRIVAL: u32 = u32::MAX;

/// A percentile is reported only when at least this many samples lie
/// strictly beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// Consecutive samples per block of [`blocked_percentile`], at least:
/// a p99 over 1000 samples has ten beyond it.
pub const BLOCK: usize = 1000;

/// One recorded call into a layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `shard.embed`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The arrival (request) this span served, or [`NO_ARRIVAL`].
    pub arrival: u32,
}

impl Span {
    /// Duration in ns.
    pub fn len_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans while enabled; a no-op while disabled.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// ns since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str, arrival: u32) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            arrival,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records a child of `parent` whose length comes from a counter the
    /// program reports rather than from a clock read at a boundary. It
    /// is placed at the parent's start.
    pub fn counted_child(&mut self, parent: u32, name: &'static str, len_ns: u64) {
        if !self.enabled {
            return;
        }
        let p = self.spans[parent as usize];
        let end_ns = p.start_ns.saturating_add(len_ns).min(p.end_ns);
        self.spans.push(Span {
            name,
            start_ns: p.start_ns,
            end_ns,
            parent,
            arrival: p.arrival,
        });
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Writes `spans` as tab-separated lines,
/// `id name start_ns end_ns parent arrival`, with -1 for no parent or
/// no arrival.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tarrival")?;
    let id = |x: u32| if x == u32::MAX { -1 } else { i64::from(x) };
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{}\t{}",
            s.name,
            s.start_ns,
            s.end_ns,
            id(s.parent),
            id(s.arrival)
        )?;
    }
    out.flush()
}

/// Everything the per-layer table needs about one span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Folded {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations.
    pub busy_ns: u64,
    /// Sum of their self times (duration minus the union of the
    /// children's intervals within it).
    pub self_ns: u64,
    /// Every duration, sorted ascending.
    pub durations_ns: Vec<u64>,
}

impl Folded {
    /// Nearest-rank percentile of the durations in µs, under the
    /// [`percentile`] rule.
    pub fn percentile_us(&self, p: f64) -> Option<f64> {
        percentile(&self.durations_ns, p).map(|ns| ns as f64 / 1e3)
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Folds spans by name: count, busy time, self time and durations.
pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, Folded> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Folded> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let f = out.entry(s.name).or_default();
        let len = s.len_ns();
        f.count += 1;
        f.busy_ns += len;
        f.self_ns += len - union_len(kids, s.start_ns, s.end_ns);
        f.durations_ns.push(len);
    }
    for f in out.values_mut() {
        f.durations_ns.sort_unstable();
    }
    out
}

/// Share of the time inside `windows` that no top-level span covers.
pub fn uncovered_share(spans: &[Span], windows: &[(u64, u64)]) -> f64 {
    let mut top: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let (mut total, mut covered) = (0, 0);
    for &(lo, hi) in windows {
        total += hi.saturating_sub(lo);
        covered += union_len(&mut top, lo, hi);
    }
    if total == 0 {
        return 0.0;
    }
    (total - covered) as f64 / total as f64
}

/// Nearest-rank `p`-th percentile of an ascending sample, reported only
/// when at least [`MIN_BEYOND`] samples lie strictly beyond its rank.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The `p`-th percentile of each block of at least [`BLOCK`]
/// consecutive samples, in the order they were taken, then the median
/// over blocks. A burst of host interference inflates the tail of one
/// block, not the run's figure; a slower program moves every block.
/// `None` when a block lacks [`MIN_BEYOND`] samples beyond its rank.
pub fn blocked_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let blocks = (samples.len() / BLOCK).max(1);
    let size = samples.len() / blocks;
    let mut per_block = Vec::with_capacity(blocks);
    for b in 0..blocks {
        let end = if b + 1 == blocks {
            samples.len()
        } else {
            (b + 1) * size
        };
        let mut block = samples[b * size..end].to_vec();
        block.sort_by(f64::total_cmp);
        per_block.push(percentile(&block, p)?);
    }
    Some(median(&per_block))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            arrival: NO_ARRIVAL,
        }
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // n = 1000: rank 990, exactly 10 beyond.
        let xs: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&xs, 99.0), Some(990));
        // n = 999: rank 990, only 9 beyond.
        assert_eq!(percentile(&xs[..999], 99.0), None);
        assert_eq!(percentile(&xs[..20], 50.0), Some(10));
        assert_eq!(percentile(&xs[..19], 50.0), None);
        assert_eq!(percentile::<u64>(&[], 50.0), None);
    }

    #[test]
    fn blocked_p99_ignores_a_burst_in_one_block() {
        // Three blocks of 1000; the middle one had a burst.
        let mut xs: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000 + 1)).collect();
        for x in &mut xs[1000..1100] {
            *x += 1e6;
        }
        assert_eq!(blocked_percentile(&xs, 99.0), Some(990.0));
        let mut plain = xs.clone();
        plain.sort_by(f64::total_cmp);
        assert!(
            percentile(&plain, 99.0) > Some(1e6),
            "the pooled p99 takes the burst"
        );
        // 1999 samples make one block; 999 are too few for a p99.
        let calm: Vec<f64> = (1..=1999).map(f64::from).collect();
        assert_eq!(blocked_percentile(&calm, 99.0), Some(1980.0));
        assert_eq!(blocked_percentile(&calm[..999], 99.0), None);
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = [
            span("a", 0, 100, NO_PARENT),
            span("b", 10, 30, 0),
            span("b", 50, 60, 0),
        ];
        let f = fold(&spans);
        assert_eq!(f["a"].busy_ns, 100);
        assert_eq!(f["a"].self_ns, 70);
        assert_eq!(f["b"].count, 2);
        assert_eq!(f["b"].busy_ns, 30);
        assert_eq!(f["b"].self_ns, 30);
        assert_eq!(f["b"].durations_ns, vec![10, 20]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children overlap each other and one sticks out of the parent.
        let spans = [
            span("a", 100, 200, NO_PARENT),
            span("c", 110, 150, 0),
            span("c", 140, 170, 0),
            span("c", 190, 230, 0),
        ];
        let f = fold(&spans);
        // Covered: [110,170] + [190,200] = 70.
        assert_eq!(f["a"].self_ns, 30);
    }

    #[test]
    fn grandchildren_do_not_reduce_the_grandparent_twice() {
        let spans = [
            span("a", 0, 100, NO_PARENT),
            span("b", 0, 50, 0),
            span("c", 10, 20, 1),
        ];
        let f = fold(&spans);
        assert_eq!(f["a"].self_ns, 50);
        assert_eq!(f["b"].self_ns, 40);
        assert_eq!(f["c"].self_ns, 10);
    }

    #[test]
    fn uncovered_share_ignores_children() {
        let spans = [
            span("a", 0, 40, NO_PARENT),
            span("b", 10, 90, 0),
            span("a", 60, 100, NO_PARENT),
        ];
        assert!((uncovered_share(&spans, &[(0, 100)]) - 0.2).abs() < 1e-12);
        // Two windows: [0,50] is 80% covered, [100,200] not at all.
        assert!((uncovered_share(&spans, &[(0, 50), (100, 200)]) - 110.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x", 0);
        t.exit(id);
        assert!(t.into_spans().is_empty());
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 3);
        let inner = t.enter("inner", 3);
        t.exit(inner);
        t.exit(outer);
        t.counted_child(outer, "counted", u64::MAX);
        let s = t.into_spans();
        assert_eq!(s[1].parent, outer);
        assert_eq!(s[2].end_ns, s[0].end_ns, "clipped to the parent");
    }
}
