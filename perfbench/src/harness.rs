//! One benchmark run: set-up, a warm-up round, timed rounds, checks, and
//! the metrics line.
//!
//! Time metrics come from the fastest pass of each chunk of a round,
//! summed. On the 2-vCPU host the benchmark was built on, this
//! deterministic CPU-bound code runs at one of two speeds that alternate
//! over windows of about a second; interference only ever adds time, so
//! the fastest pass of a chunk shorter than such a window is the steady
//! figure. The median round is kept as `round_median_s` so added variance
//! still shows.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use fhs_obs::json::{json_f64, json_string};

use crate::huge::Huge;
use crate::metrics::{fold_rounds, per_layer, RoundSpans, END_TO_END};
use crate::stats::median;
use crate::stream::{Stream, StreamSize};
use crate::sweep::{Sweep, SweepSize, WORKERS};
use crate::trace::{self, span, Layer};
use crate::{host, Checks, Clock, Outcome, Workload};

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadName {
    /// The paper's grid, pooled, no recording.
    PaperSweep,
    /// One ~110k-task instance under four policies.
    Huge,
    /// Poisson job streams through the session engine.
    Stream,
    /// The paper's grid with every recording channel and every export.
    ObservedSweep,
}

impl WorkloadName {
    /// Every workload.
    pub const ALL: [WorkloadName; 4] = [
        WorkloadName::PaperSweep,
        WorkloadName::Huge,
        WorkloadName::Stream,
        WorkloadName::ObservedSweep,
    ];

    /// The workloads `BENCHMARK.json` lists, in its order. `huge` runs on
    /// request only: on the 2-vCPU host the baseline comes from, its time
    /// metrics spread by more than the widest bound allowed across runs
    /// (see `README.md`).
    pub const GATED: [WorkloadName; 3] = [
        WorkloadName::PaperSweep,
        WorkloadName::Stream,
        WorkloadName::ObservedSweep,
    ];

    /// The command-line name.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadName::PaperSweep => "paper-sweep",
            WorkloadName::Huge => "huge",
            WorkloadName::Stream => "stream",
            WorkloadName::ObservedSweep => "observed-sweep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<WorkloadName> {
        WorkloadName::ALL.into_iter().find(|w| w.label() == s)
    }
}

/// Everything a run needs.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: WorkloadName,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed rounds (split evenly between the untraced and the
    /// traced phase when tracing).
    pub seconds: f64,
    /// Whether to make the traced run and report per-layer metrics.
    pub trace: bool,
    /// Sweep size.
    pub sweep: SweepSize,
    /// Stream size.
    pub stream: StreamSize,
    /// Fewest timed rounds per phase, whatever `seconds` says.
    pub min_rounds: usize,
}

impl Config {
    /// The benchmark's configuration for `workload`.
    pub fn new(workload: WorkloadName, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            sweep: SweepSize::BENCH,
            stream: StreamSize::BENCH,
            min_rounds: 3,
        }
    }

    /// Sets the workload up from scratch.
    pub fn setup(&self) -> Box<dyn Workload> {
        match self.workload {
            WorkloadName::PaperSweep => Box::new(Sweep::new(self.seed, self.sweep, false)),
            WorkloadName::ObservedSweep => Box::new(Sweep::new(self.seed, self.sweep, true)),
            WorkloadName::Huge => Box::new(Huge::new(self.seed)),
            WorkloadName::Stream => Box::new(Stream::new(self.seed, self.stream)),
        }
    }

    fn workers(&self) -> usize {
        match self.workload {
            WorkloadName::PaperSweep | WorkloadName::ObservedSweep => {
                WORKERS.min(fhs_par::pool().workers())
            }
            WorkloadName::Huge | WorkloadName::Stream => 1,
        }
    }
}

/// A run's result.
#[derive(Debug)]
pub struct Report {
    /// Checks made and failed.
    pub checks: Checks,
    /// Metrics by name, with units, in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The deterministic outcome of the untraced rounds.
    pub outcome: Outcome,
    /// The outcome of the traced rounds, when traced.
    pub traced_outcome: Option<Outcome>,
    /// Timed rounds per phase: untraced, traced.
    pub rounds: (usize, usize),
    /// The last traced round's spans.
    pub spans: Vec<trace::Span>,
}

impl Report {
    /// The metrics line: the last line the benchmark prints.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_string(name),
                    json_f64(*value),
                    json_string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed,
            metrics.join(",")
        )
    }
}

/// Timed rounds of one phase.
struct Phase {
    /// Fastest pass of each chunk, seconds.
    best: Vec<f64>,
    /// Whole-round times, seconds.
    rounds: Vec<f64>,
    /// Span digests (traced phase only).
    spans: Vec<RoundSpans>,
    /// Total engine time of the reference rounds (observed-sweep traced
    /// phase only).
    reference_engine_ms: Vec<f64>,
    last_spans: Vec<trace::Span>,
    outcome: Option<Outcome>,
}

impl Phase {
    fn wall(&self) -> f64 {
        self.best.iter().sum()
    }
}

fn timed_phase(
    cfg: &Config,
    w: &mut dyn Workload,
    reference: &Outcome,
    seconds: f64,
    checks: &mut Checks,
    baseline: &mut Option<Box<dyn Workload>>,
) -> Phase {
    let traced = trace::enabled();
    let root_thread = trace::current_thread();
    let mut phase = Phase {
        best: Vec::new(),
        rounds: Vec::new(),
        spans: Vec::new(),
        reference_engine_ms: Vec::new(),
        last_spans: Vec::new(),
        outcome: None,
    };
    let start = Instant::now();
    while phase.rounds.len() < cfg.min_rounds || start.elapsed().as_secs_f64() < seconds {
        let mut clock = Clock::start();
        let outcome = span(Layer::Bench, "round", None, || w.round(&mut clock, checks));
        let laps = clock.laps();
        if phase.best.is_empty() {
            phase.best = laps.to_vec();
        }
        assert_eq!(laps.len(), phase.best.len(), "rounds differ in chunk count");
        for (b, &l) in phase.best.iter_mut().zip(laps) {
            *b = b.min(l);
        }
        phase.rounds.push(laps.iter().sum());
        checks.check(outcome.same_bits(reference), || {
            format!(
                "{} outputs differ from the warm-up round",
                if traced { "traced round" } else { "round" }
            )
        });
        if traced {
            trace::flush();
            let spans = trace::drain();
            phase
                .spans
                .push(RoundSpans::of(&spans, root_thread, cfg.workers()));
            phase.last_spans = spans;
            if let Some(base) = baseline.as_deref_mut() {
                let mut clock = Clock::start();
                let mut scratch = Checks::default();
                span(Layer::Bench, "round", None, || {
                    base.round(&mut clock, &mut scratch)
                });
                trace::flush();
                let spans = trace::drain();
                phase
                    .reference_engine_ms
                    .push(RoundSpans::of(&spans, root_thread, cfg.workers()).engine_ms);
            }
        }
        phase.outcome = Some(outcome);
    }
    phase
}

/// Fresh processes whose cold set-up `setup_s` is the median of.
pub const SETUP_PROBES: usize = 11;

/// Times one cold set-up of `cfg`'s workload, as the first thing this
/// process does: the pool spawn, inputs and policies included. A fresh
/// process runs it for each `setup_s` sample (`--setup-only`).
pub fn setup_probe(cfg: &Config) -> f64 {
    let t = Instant::now();
    let w = std::hint::black_box(cfg.setup());
    let secs = t.elapsed().as_secs_f64();
    drop(w);
    secs
}

/// The median cold set-up time over [`SETUP_PROBES`] fresh processes of
/// `exe` (this benchmark's binary), each running [`setup_probe`]. A probe
/// that fails is counted as a failed check.
fn cold_setup_s(cfg: &Config, exe: &Path, checks: &mut Checks) -> f64 {
    let mut times = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let out = Command::new(exe)
            .args(["--workload", cfg.workload.label()])
            .args(["--seed", &cfg.seed.to_string()])
            .arg("--setup-only")
            .output();
        let secs = out
            .as_ref()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| {
                String::from_utf8_lossy(&o.stdout)
                    .trim()
                    .parse::<f64>()
                    .ok()
            });
        checks.check(secs.is_some(), || format!("set-up probe failed: {out:?}"));
        times.push(secs.unwrap_or(f64::NAN));
    }
    median(&times)
}

/// Makes one run. `exe` is this benchmark's binary, started afresh to time
/// cold set-ups (untraced runs only).
pub fn run(cfg: &Config, exe: &Path) -> Report {
    let mut checks = Checks::default();
    let setup_s = if cfg.trace {
        0.0
    } else {
        cold_setup_s(cfg, exe, &mut checks)
    };
    let mut w = cfg.setup();
    let reference = w.round(&mut Clock::start(), &mut checks);

    let untraced_seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let plain = timed_phase(
        cfg,
        w.as_mut(),
        &reference,
        untraced_seconds,
        &mut checks,
        &mut None,
    );
    let peak_rss = host::peak_rss_mb();
    let wall = plain.wall();

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut traced_phase = None;
    if cfg.trace {
        // observed-sweep's recording cost is measured against the same
        // grid without recording, traced alike and alternated round by
        // round.
        let mut baseline = (cfg.workload == WorkloadName::ObservedSweep).then(|| {
            Config {
                workload: WorkloadName::PaperSweep,
                ..*cfg
            }
            .setup()
        });
        trace::set_enabled(true);
        let phase = timed_phase(
            cfg,
            w.as_mut(),
            &reference,
            cfg.seconds - untraced_seconds,
            &mut checks,
            &mut baseline,
        );
        trace::set_enabled(false);
        values = fold_rounds(&phase.spans);
        values.insert("trace.overhead_share".into(), phase.wall() / wall - 1.0);
        values.insert("round_median_s".into(), median(&plain.rounds));
        if !phase.reference_engine_ms.is_empty() {
            let observed: Vec<f64> = phase.spans.iter().map(|s| s.engine_ms).collect();
            values.insert(
                "obs.record_share".into(),
                median(&observed) / median(&phase.reference_engine_ms) - 1.0,
            );
        }
        for (name, v) in reference.counts.iter().chain(&w.traced_counts()) {
            values.insert(name.clone(), *v);
        }
        traced_phase = Some(phase);
    }
    w.final_checks(&mut checks);

    let metrics: Vec<(String, f64, &'static str)> = if cfg.trace {
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = values.get(&name).copied().unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    } else {
        let e2e: BTreeMap<&str, f64> = BTreeMap::from([
            ("setup_s", setup_s),
            ("wall_s", wall),
            ("tasks_per_s", reference.tasks as f64 / wall),
            ("jobs_per_s", reference.jobs as f64 / wall),
            ("peak_rss_mb", peak_rss.unwrap_or(0.0)),
            ("mean_ratio", reference.mean_ratio),
            ("mean_slowdown", reference.mean_slowdown),
        ]);
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), e2e[name], unit))
            .collect()
    };
    for (name, v, _) in &metrics {
        checks.check(v.is_finite(), || {
            format!("metric {name} is not finite: {v}")
        });
    }
    if !cfg.trace {
        checks.check(peak_rss.is_some(), || "peak RSS unavailable".into());
    }
    let (traced_outcome, traced_rounds, spans) = match traced_phase {
        Some(p) => (p.outcome, p.rounds.len(), p.last_spans),
        None => (None, 0, Vec::new()),
    };
    Report {
        checks,
        metrics,
        outcome: plain.outcome.unwrap_or_default(),
        traced_outcome,
        rounds: (plain.rounds.len(), traced_rounds),
        spans,
    }
}

/// The record line printed before the metrics line: what ran, where.
pub fn record_line(cfg: &Config, report: &Report) -> String {
    let notes: Vec<String> = report.checks.notes.iter().map(|n| json_string(n)).collect();
    format!(
        "{{\"record\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"rounds\":[{},{}],\"host\":{},\"failures\":[{}]}}}}",
        json_string(cfg.workload.label()),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        report.rounds.0,
        report.rounds.1,
        host::fingerprint(cfg.workers()),
        notes.join(",")
    )
}

/// The last traced round's spans as a Chrome trace (`chrome://tracing`,
/// Perfetto).
pub fn chrome_trace(spans: &[trace::Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .filter(|s| !s.carved)
        .map(|s| {
            let name = match s.algo {
                Some(a) => format!(
                    "{}.{} {}",
                    s.layer.label(),
                    s.name,
                    crate::ALGOS[a as usize].1
                ),
                None => format!("{}.{}", s.layer.label(), s.name),
            };
            format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}}}",
                json_string(&name),
                json_string(s.layer.label()),
                s.thread,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            )
        })
        .collect();
    format!("{{\"traceEvents\":[{}]}}\n", events.join(",\n"))
}
