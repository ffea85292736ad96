//! Turns a workload's outcome into named metrics and the closing JSON
//! line.

use crate::setup::SetupTimes;
use crate::sql::TEMPLATE_NAMES;
use crate::stats::{median, tail};
use crate::trace::{layer_times, LayerTime, Span};
use std::collections::BTreeMap;

/// One timed op, kept small: a long run holds hundreds of thousands and
/// they count towards `peak_rss_mb`.
pub struct Op {
    /// Index into the workload's [`Outcome::kinds`].
    pub kind: u8,
    pub ms: f32,
    pub traced: bool,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Names of the op kinds.
    pub kinds: &'static [&'static str],
    pub ops: Vec<Op>,
    /// `browse`: the time a user waits across one task's actions.
    pub tasks_ms: Vec<f64>,
    /// `sql_mixed`: write round trips.
    pub writes_ms: Vec<f64>,
    pub elapsed_s: f64,
    /// Wrong or errored ops.
    pub failed: u64,
    pub failures: Vec<String>,
    /// Check results worth printing that are not failures (ties).
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
    /// Per-layer values the workload measured itself, by metric name.
    pub counters: Vec<(String, f64)>,
}

const MAX_FAILURES_SHOWN: usize = 20;

impl Outcome {
    pub fn new(kinds: &'static [&'static str]) -> Outcome {
        Outcome {
            kinds,
            ..Outcome::default()
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURES_SHOWN {
            self.failures.push(msg);
        }
    }

    /// Adds another thread's ops, writes and failures to this outcome.
    pub fn absorb(&mut self, other: Outcome) {
        self.ops.extend(other.ops);
        self.writes_ms.extend(other.writes_ms);
        self.failed += other.failed;
        let room = MAX_FAILURES_SHOWN.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    /// Median latency in ms of each op kind; kinds without ops are left out.
    pub fn kind_p50_ms(&self) -> Vec<(&'static str, usize, f64)> {
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); self.kinds.len()];
        for o in &self.ops {
            per[o.kind as usize].push(f64::from(o.ms));
        }
        self.kinds
            .iter()
            .zip(per)
            .filter(|(_, v)| !v.is_empty())
            .map(|(k, v)| (*k, v.len(), median(&v)))
            .collect()
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Per-layer metrics measured from spans: name, span, unit, scale from ns.
const SPAN_MEANS: [(&str, &str, &str, f64); 10] = [
    (
        "etable.session.action_ms",
        "etable.session.action",
        "ms",
        1e-6,
    ),
    (
        "etable.session.etable_ms",
        "etable.session.etable",
        "ms",
        1e-6,
    ),
    ("etable.matching.ms", "etable.matching", "ms", 1e-6),
    ("etable.transform.ms", "etable.transform", "ms", 1e-6),
    ("etable.render.ms", "etable.render", "ms", 1e-6),
    (
        "relational.sql.parser.us",
        "relational.sql.parser",
        "us",
        1e-3,
    ),
    (
        "relational.sql.analyze.us",
        "relational.sql.analyze",
        "us",
        1e-3,
    ),
    ("server.proto.encode_us", "server.proto.encode", "us", 1e-3),
    ("server.proto.decode_us", "server.proto.decode", "us", 1e-3),
    (
        "relational.shared.write_ms",
        "relational.shared.write",
        "ms",
        1e-6,
    ),
];

/// Per-layer counts the workloads measure (0 where a workload does not
/// reach the layer).
const COUNTERS: [(&str, &str); 11] = [
    ("etable.transform.rows_out", "rows/op"),
    ("etable.transform.refs_out", "refs/op"),
    ("etable.render.bytes", "bytes/op"),
    ("etable.render.rows_shown_per_row_built", "ratio"),
    ("etable.cache.hit_ratio", "ratio"),
    ("etable.cache.hits_per_op", "1/op"),
    ("etable.cache.misses_per_op", "1/op"),
    ("relational.sql.executor.rows_out", "rows/stmt"),
    ("relational.sql.executor.plan_rows_per_row_out", "ratio"),
    ("server.proto.bytes_per_result", "bytes"),
    ("relational.shared.epochs_per_write", "1/write"),
];

/// Every per-layer metric (name, unit), in `BENCHMARK.json` order.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("datagen.generate_s", "s"),
        ("storage.save_s", "s"),
        ("storage.open_s", "s"),
        ("storage.bytes", "bytes"),
        ("tgm.translate_s", "s"),
        ("server.start_s", "s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    out.extend(SPAN_MEANS.iter().map(|(n, _, u, _)| (n.to_string(), *u)));
    out.push(("relational.sql.executor.us".into(), "us"));
    out.push(("server.wire_us".into(), "us"));
    out.extend(COUNTERS.iter().map(|(n, u)| (n.to_string(), *u)));
    out.extend(
        TEMPLATE_NAMES
            .iter()
            .map(|t| (format!("server.rtt_p50_us.{t}"), "us")),
    );
    out.extend(
        [
            ("task_p50_ms", "ms"),
            ("write_p50_ms", "ms"),
            ("write_tail_ms", "ms"),
            ("trace.op_p50_traced_ms", "ms"),
            ("trace.op_p50_untraced_ms", "ms"),
            ("trace.overhead_ms", "ms"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    out
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn setup_median(setups: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&setups.iter().map(f).collect::<Vec<_>>())
}

fn op_ms(outcome: &Outcome, traced: Option<bool>) -> Vec<f64> {
    outcome
        .ops
        .iter()
        .filter(|o| traced.is_none_or(|t| o.traced == t))
        .map(|o| f64::from(o.ms))
        .collect()
}

/// Tail percentile of write latencies (`sql_mixed` has about a thousand
/// writes per run).
pub const WRITE_TAIL_P: f64 = 90.0;

/// Median latency per op kind, slowest first.
fn by_kind(outcome: &Outcome) -> Vec<String> {
    let mut rows = outcome.kind_p50_ms();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    rows.into_iter()
        .map(|(k, n, p50)| format!("{k} n={n} p50={p50:.4}ms"))
        .collect()
}

/// The end-to-end metrics, plus the lines that explain them. `tail_p` is
/// the workload's tail percentile.
pub fn end_to_end(
    outcome: &Outcome,
    setups: &[SetupTimes],
    tail_p: f64,
) -> (Vec<Metric>, Vec<String>) {
    let ops = op_ms(outcome, None);
    let t = tail(&ops, tail_p);
    let mut lines = vec![
        format!("op_tail_ms is {}", t.describe()),
        format!("op p50 by kind: {}", by_kind(outcome).join("; ")),
    ];
    let metrics = vec![
        metric("setup_s", setup_median(setups, |s| s.total_s), "s"),
        metric("op_p50_ms", median(&ops), "ms"),
        metric("op_tail_ms", t.value, "ms"),
        metric(
            "ops_per_s",
            ops.len() as f64 / outcome.elapsed_s.max(1e-9),
            "1/s",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    // Metrics of the issue's table that only some workloads have; they
    // are printed here and reported by traced runs, not gated.
    if !outcome.tasks_ms.is_empty() {
        lines.push(format!(
            "metric task_p50_ms {} ms ({} tasks)",
            median(&outcome.tasks_ms),
            outcome.tasks_ms.len()
        ));
    }
    if !outcome.writes_ms.is_empty() {
        let w = tail(&outcome.writes_ms, WRITE_TAIL_P);
        lines.push(format!(
            "metric write_p50_ms {} ms ({} writes)",
            median(&outcome.writes_ms),
            w.samples
        ));
        lines.push(format!(
            "metric write_tail_ms {} ms ({})",
            w.value,
            w.describe()
        ));
    }
    lines.push(format!(
        "metric failed_frac {} fraction ({} of {} ops)",
        outcome.failed as f64 / outcome.ops.len().max(1) as f64,
        outcome.failed,
        outcome.ops.len()
    ));
    (metrics, lines)
}

fn mean_ns(times: &BTreeMap<&'static str, LayerTime>, span: &str) -> f64 {
    times.get(span).map_or(0.0, LayerTime::mean_ns)
}

/// Every per-layer metric, 0 where the workload does not reach the layer.
pub fn per_layer(outcome: &Outcome, setups: &[SetupTimes]) -> Vec<Metric> {
    let times = layer_times(&outcome.spans);
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    put("datagen.generate_s", setup_median(setups, |s| s.generate_s));
    put("storage.save_s", setup_median(setups, |s| s.save_s));
    put("storage.open_s", setup_median(setups, |s| s.open_s));
    put("storage.bytes", setup_median(setups, |s| s.bytes as f64));
    put("tgm.translate_s", setup_median(setups, |s| s.translate_s));
    put("server.start_s", setup_median(setups, |s| s.server_start_s));
    for (name, span, _, scale) in SPAN_MEANS {
        put(name, mean_ns(&times, span) * scale);
    }
    let execute_read = mean_ns(&times, "relational.sql.executor.execute_read");
    let analyze = mean_ns(&times, "relational.sql.analyze");
    put("relational.sql.executor.us", (execute_read - analyze) / 1e3);
    for (name, v) in &outcome.counters {
        put(name, *v);
    }
    put("task_p50_ms", median(&outcome.tasks_ms));
    put("write_p50_ms", median(&outcome.writes_ms));
    put(
        "write_tail_ms",
        tail(&outcome.writes_ms, WRITE_TAIL_P).value,
    );
    let traced = median(&op_ms(outcome, Some(true)));
    let untraced = median(&op_ms(outcome, Some(false)));
    put("trace.op_p50_traced_ms", traced);
    put("trace.op_p50_untraced_ms", untraced);
    put("trace.overhead_ms", traced - untraced);
    per_layer_catalogue()
        .into_iter()
        .map(|(name, unit)| {
            let value = values.get(&name).copied().unwrap_or(0.0);
            Metric { name, value, unit }
        })
        .collect()
}

/// A JSON number: finite values as Rust prints them (every digit),
/// anything else as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

/// The tracing-overhead line of a traced run: traced minus untraced
/// op_p50_ms over the ops of the same run.
pub fn describe_overhead(outcome: &Outcome) -> String {
    let traced = op_ms(outcome, Some(true));
    let untraced = op_ms(outcome, Some(false));
    format!(
        "tracing overhead: traced op_p50_ms {} ({} ops) - untraced op_p50_ms {} ({} ops) = {} ms",
        median(&traced),
        traced.len(),
        median(&untraced),
        untraced.len(),
        median(&traced) - median(&untraced),
    )
}
