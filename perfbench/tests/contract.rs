//! The benchmark's own checks: its metric names and units are the ones
//! `BENCHMARK.json` declares, the traced rebuild of every workload
//! reproduces the untraced outputs bit for bit, and the traced round's
//! spans cover its wall time.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! the `huge` workload runs its full ~110k-task instance.

use std::path::Path;

use fhs_obs::json::{parse, Value};
use perfbench::harness::{run, Config, WorkloadName};
use perfbench::metrics::{per_layer, END_TO_END};
use perfbench::stream::StreamSize;
use perfbench::sweep::SweepSize;

/// The benchmark binary, which untraced runs start afresh to time set-up.
fn exe() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_perfbench"))
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_names_and_units_match_benchmark_json() {
    let doc = benchmark_json();
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared(&doc, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared(&doc, "per_layer"), layers);
    let workloads: Vec<String> = declared(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<String> = WorkloadName::GATED
        .iter()
        .map(|w| w.label().to_string())
        .collect();
    assert_eq!(workloads, ours);
}

/// One test, because the span recorder is process-wide: the workloads'
/// traced runs must not overlap.
#[test]
fn traced_runs_reproduce_untraced_outputs_and_cover_the_round() {
    for workload in WorkloadName::ALL {
        let mut cfg = Config::new(workload, 7, 1e-3, true);
        cfg.min_rounds = 1;
        cfg.sweep = SweepSize {
            instances: 96,
            chunk: 24,
        };
        cfg.stream = StreamSize {
            streams: 1,
            jobs: 128,
        };
        let report = run(&cfg, exe());
        let name = workload.label();
        assert_eq!(report.checks.failed, 0, "{name}: {:?}", report.checks.notes);
        assert!(report.checks.attempted > 0, "{name}: nothing checked");
        let traced = report.traced_outcome.as_ref().expect("traced phase ran");
        assert!(
            traced.same_bits(&report.outcome),
            "{name}: traced outputs differ"
        );
        let printed: Vec<&str> = report.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let listed: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(printed, listed, "{name}: printed per-layer names");
        let coverage = report
            .metrics
            .iter()
            .find(|(n, _, _)| n == "trace.coverage")
            .map(|&(_, v, _)| v)
            .expect("coverage reported");
        assert!(
            (0.95..=1.0 + 1e-9).contains(&coverage),
            "{name}: trace.coverage {coverage}"
        );

        let mut plain = cfg;
        plain.trace = false;
        let report = run(&plain, exe());
        let printed: Vec<&str> = report.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let listed: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        assert_eq!(printed, listed, "{name}: printed end-to-end names");
        assert!(
            report.metrics.iter().all(|&(_, v, _)| v > 0.0),
            "{name}: an end-to-end metric read 0: {:?}",
            report.metrics
        );
    }
}
