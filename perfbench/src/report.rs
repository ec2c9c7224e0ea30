//! Metric names, units and the result line that ends standard output.

use crate::spans::Span;
use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("cpu_us_per_req", "us"),
    ("peak_rss_mb", "MB"),
    ("acceptance_ratio", "ratio"),
    ("mean_cost", "cost"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. `_ms` values
/// are totals per pass; `_us` values are means per request, except
/// percentiles, which are per call.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("sim.gen_ms", "ms"),
    ("core.solve.calls", "count"),
    ("core.solve.busy_ms", "ms"),
    ("core.solve.p50_us", "us"),
    ("core.solve.p99_us", "us"),
    ("core.solve.bbe_ms", "ms"),
    ("core.solve.mbbe_ms", "ms"),
    ("core.solve.minv_ms", "ms"),
    ("core.solve.ranv_ms", "ms"),
    ("core.solve.failed", "count"),
    ("core.solve.failed_busy_share", "ratio"),
    ("core.solve.rejected_deadline", "count"),
    ("core.bbe.nodes_expanded", "count"),
    ("core.bbe.fst_nodes", "count"),
    ("core.bbe.bst_nodes", "count"),
    ("core.bbe.candidates_generated", "count"),
    ("core.bbe.candidates_pruned", "count"),
    ("core.bbe.kept_ratio", "ratio"),
    ("core.bbe.layer0_ms", "ms"),
    ("core.bbe.layer1_ms", "ms"),
    ("core.delay.candidates_rejected", "count"),
    ("net.oracle.hits", "count"),
    ("net.oracle.misses", "count"),
    ("net.oracle.hit_rate", "ratio"),
    ("net.oracle.misses_per_req", "count"),
    ("net.oracle.evictions", "count"),
    ("audit.calls", "count"),
    ("audit.busy_us", "us"),
    ("audit.violations", "count"),
    ("shard.setup_ms", "ms"),
    ("shard.view_us", "us"),
    ("shard.view_calls", "count"),
    ("shard.embed_us", "us"),
    ("shard.reserve_us", "us"),
    ("shard.embed_self_us", "us"),
    ("shard.release_us", "us"),
    ("shard.epochs_per_arrival", "count"),
    ("shard.commit_retries", "count"),
    ("shard.cross_offered", "count"),
    ("shard.cross_accepted", "count"),
    ("shard.cross_accept_ratio", "ratio"),
    ("serve.rpc_embed_p50_us", "us"),
    ("serve.rpc_embed_p99_us", "us"),
    ("serve.rpc_release_p50_us", "us"),
    ("serve.frontend_wait_us", "us"),
    ("serve.codec_us", "us"),
    ("serve.sys_cpu_share", "ratio"),
    ("serve.errors", "count"),
    ("serve.admission_oracle_hit_rate", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.uncovered_share", "ratio"),
];

/// BBE-family wall time per SFC layer, by layer index. Every workload
/// draws SFCs of size 5, whose layer shape is `[3, 2]`.
pub const BBE_LAYERS: [&str; 2] = ["core.bbe.layer0_ms", "core.bbe.layer1_ms"];

/// What one benchmark invocation measured and checked.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted (requests or arrivals, over every pass).
    pub attempted: u64,
    /// Operations that failed: error replies, audit failures, solve
    /// errors on an unbounded substrate, or outcome mismatches.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Digest of the outputs every pass reproduced.
    pub outputs: u64,
    /// Spans of a traced run, in opening order.
    pub spans: Vec<Span>,
}

impl RunResult {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// The result line: `correct`, `attempted`, `failed` and either every
/// end-to-end metric (untraced) or every per-layer metric (traced).
/// Per-layer metrics a workload cannot observe read 0 and are named in
/// the returned list.
pub fn render(result: &RunResult, traced: bool) -> Result<(String, Vec<&'static str>), String> {
    let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut absent = Vec::new();
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match result.metrics.get(name) {
            Some(&v) => v,
            None if traced => {
                absent.push(name);
                0.0
            }
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        ));
    }
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0 && result.attempted > 0,
        result.attempted,
        result.failed,
        fields.join(", ")
    );
    Ok((line, absent))
}

/// A finite f64 as a JSON number with every digit (`Display` prints the
/// shortest form that reads back to the same value).
fn number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Median of an unsorted sample (mean of the middle two when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric under `key` in `BENCHMARK.json`.
    fn listed(spec: &serde_json::Value, key: &str) -> Vec<(String, String)> {
        use serde_json::Value;
        let field = |v: &Value, f: &str| match v {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == f).map(|(_, v)| v.clone()),
            _ => None,
        };
        let Some(Value::Array(items)) = field(spec, key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let text = |f| match field(m, f) {
                    Some(Value::String(s)) => s,
                    other => panic!("{key} entry without a string {f}: {other:?}"),
                };
                (text("name"), text("unit"))
            })
            .collect()
    }

    #[test]
    fn metrics_match_benchmark_json_in_order_and_are_unique() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let spec: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&spec, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&spec, "per_layer"), owned(&PER_LAYER));
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are unique");
        for layer in BBE_LAYERS {
            assert!(PER_LAYER.iter().any(|m| m.0 == layer));
        }
    }

    #[test]
    fn result_line_has_every_untraced_metric() {
        let mut r = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        assert!(render(&r, false).is_err(), "missing metrics are an error");
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, i as f64 + 0.5);
        }
        let (line, absent) = render(&r, false).expect("complete");
        assert!(absent.is_empty());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        r.set("mean_cost", f64::NAN);
        assert!(render(&r, false).is_err(), "non-finite values are refused");
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(number(2.0), "2.0");
    }
}
