//! Metric names and units, and the per-layer figures a traced round's
//! spans yield.
//!
//! Every run prints every metric of its kind, so the names here are the
//! ones `BENCHMARK.json` lists; a layer a workload never calls reads 0.

use std::collections::BTreeMap;

use crate::stats::{median, PerCall};
use crate::trace::{Layer, Span};
use crate::ALGOS;

/// The end-to-end metrics (untraced run), with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("tasks_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("mean_ratio", "ratio"),
    ("mean_slowdown", "ratio"),
];

/// Per-call timings: span `(layer, name)`, metric stem, unit and scale
/// from nanoseconds.
const PER_CALL: [(Layer, &str, &str, &str, f64); 4] = [
    (
        Layer::Workloads,
        "sample",
        "workloads.sample_ms",
        "ms",
        1e-6,
    ),
    (Layer::Kdag, "artifacts", "kdag.artifacts_ms", "ms", 1e-6),
    (Layer::Sim, "admit", "sim.admit_us", "us", 1e-3),
    (Layer::Sim, "run_until", "sim.run_until_us", "us", 1e-3),
];

/// Per-round export timings: span name and metric.
const EXPORTS: [(&str, &str); 4] = [
    ("metrics_jsonl", "export.metrics_jsonl_ms"),
    ("exposition", "export.exposition_ms"),
    ("shard", "export.shard_ms"),
    ("merge", "export.merge_ms"),
];

/// Sim spans whose self time is the engine's own (not admission or
/// session bookkeeping).
const ENGINE_SPANS: [&str; 3] = ["engine", "run_until", "drain"];

/// The per-layer metrics (traced run), with their units, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for (_, _, stem, unit, _) in PER_CALL {
        out.push((format!("{stem}.p50"), unit));
        out.push((format!("{stem}.tail"), unit));
        out.push((format!("{stem}.n"), "count"));
    }
    for (_, suffix) in ALGOS {
        out.push((format!("core.init_ms.{suffix}"), "ms"));
        out.push((format!("core.assign_ms.{suffix}"), "ms"));
        out.push((format!("core.candidates_evaluated.{suffix}"), "count"));
        out.push((format!("core.candidates_pruned.{suffix}"), "count"));
        out.push((format!("sim.engine_self_ms.{suffix}"), "ms"));
        out.push((format!("sim.epochs.{suffix}"), "count"));
    }
    for (name, unit) in [
        ("sim.progress_updates", "count"),
        ("sim.peak_queue_depth", "count"),
        ("sim.dirty_visits", "count"),
        ("sim.full_rescans", "count"),
        ("sim.active_jobs.mean", "count"),
        ("sim.active_jobs.peak", "count"),
        ("par.items", "count"),
        ("export.bytes", "bytes"),
    ] {
        out.push((name.into(), unit));
    }
    out.push(("par.idle_share".into(), "share"));
    out.push(("runner.fold_ms".into(), "ms"));
    out.push(("obs.record_share".into(), "share"));
    for (_, metric) in EXPORTS {
        out.push((metric.into(), "ms"));
    }
    for layer in Layer::PROGRAM {
        out.push((format!("self_ms.{}", layer.label()), "ms"));
    }
    out.push(("trace.overhead_share".into(), "share"));
    out.push(("trace.coverage".into(), "share"));
    out.push(("round_median_s".into(), "s"));
    out
}

/// What one traced round's spans say.
#[derive(Clone, Debug, Default)]
pub struct RoundSpans {
    /// Per-round figures in milliseconds or shares, by metric name.
    pub per_round: BTreeMap<String, f64>,
    /// Per-call durations by metric stem, already scaled to the unit.
    pub calls: BTreeMap<&'static str, Vec<f64>>,
    /// Total duration of the engine calls, in ms (for `obs.record_share`).
    pub engine_ms: f64,
}

impl RoundSpans {
    /// Digests the spans of one round. `root_thread` is the thread that ran
    /// the round; `workers` is the pool team size.
    pub fn of(spans: &[Span], root_thread: u32, workers: usize) -> RoundSpans {
        let mut r = RoundSpans::default();
        let ms = |ns: i64| ns as f64 * 1e-6;
        let root = spans
            .iter()
            .find(|s| s.layer == Layer::Bench && s.thread == root_thread && s.depth == 0)
            .expect("a traced round has a root span");
        let mut by_layer: BTreeMap<Layer, i64> = BTreeMap::new();
        let (mut item_ns, mut item_self_ns, mut map_ns) = (0u64, 0i64, 0u64);
        for s in spans {
            *by_layer.entry(s.layer).or_default() += s.self_ns;
            let per_algo = |stem: &str| s.algo.map(|a| format!("{stem}.{}", ALGOS[a as usize].1));
            let key = match (s.layer, s.name) {
                (Layer::Core, "init") if !s.carved => per_algo("core.init_ms"),
                (Layer::Core, "assign") => per_algo("core.assign_ms"),
                (Layer::Sim, name) if ENGINE_SPANS.contains(&name) => {
                    per_algo("sim.engine_self_ms")
                }
                (Layer::Runner, "fold") => Some("runner.fold_ms".into()),
                (Layer::Export, name) => EXPORTS
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, m)| m.to_string()),
                _ => None,
            };
            if let Some(key) = key {
                *r.per_round.entry(key).or_default() += ms(s.self_ns);
            }
            if s.carved {
                continue;
            }
            for (layer, name, stem, _, scale) in PER_CALL {
                if (s.layer, s.name) == (layer, name) {
                    r.calls
                        .entry(stem)
                        .or_default()
                        .push(s.dur_ns as f64 * scale);
                }
            }
            match (s.layer, s.name) {
                (Layer::Par, "item") => {
                    item_ns += s.dur_ns;
                    item_self_ns += s.self_ns;
                }
                (Layer::Par, "map") => map_ns += s.dur_ns,
                (Layer::Sim, "engine") => r.engine_ms += ms(s.dur_ns as i64),
                _ => {}
            }
        }
        for layer in Layer::PROGRAM {
            let v = by_layer.get(&layer).copied().unwrap_or(0);
            r.per_round
                .insert(format!("self_ms.{}", layer.label()), ms(v));
        }
        // Coverage: the share of the round's wall time its layer spans
        // cover on the round's thread, and, in pooled workloads, the share
        // of the pool items' time (both threads) their layer calls cover;
        // the lower of the two.
        let mut coverage = 1.0 - root.self_ns as f64 / root.dur_ns as f64;
        if item_ns > 0 {
            coverage = coverage.min(1.0 - item_self_ns as f64 / item_ns as f64);
        }
        r.per_round.insert("trace.coverage".into(), coverage);
        if map_ns > 0 {
            r.per_round.insert(
                "par.idle_share".into(),
                1.0 - item_ns as f64 / (workers as f64 * map_ns as f64),
            );
        }
        r
    }
}

/// Folds the traced rounds into the per-layer metrics: per-round figures
/// as their median over rounds, per-call timings over every call.
pub fn fold_rounds(rounds: &[RoundSpans]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut keys: Vec<&String> = rounds.iter().flat_map(|r| r.per_round.keys()).collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        let vals: Vec<f64> = rounds
            .iter()
            .map(|r| r.per_round.get(key).copied().unwrap_or(0.0))
            .collect();
        out.insert(key.clone(), median(&vals));
    }
    for (_, _, stem, _, _) in PER_CALL {
        let all: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.calls.get(stem).into_iter().flatten().copied())
            .collect();
        let s = PerCall::of(all);
        out.insert(format!("{stem}.p50"), s.p50);
        out.insert(format!("{stem}.tail"), s.tail);
        out.insert(format!("{stem}.n"), s.n as f64);
    }
    out
}
