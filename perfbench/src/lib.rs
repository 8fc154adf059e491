//! The fhs workspace's benchmark: four workloads driven through the
//! crates' public APIs, timed from outside, with a separate traced run that
//! attributes each round's time to the layers it called.
//!
//! See `README.md` beside this crate for what each workload stresses, the
//! layer → metric → end-to-end mapping, and why the time metrics are taken
//! from the fastest pass of each chunk of a round.

pub mod harness;
pub mod host;
pub mod huge;
pub mod metrics;
pub mod stats;
pub mod stream;
pub mod sweep;
pub mod trace;

use fhs_core::Algorithm;
use fhs_sim::RunStats;

/// The policies the workloads run, with the suffix their per-policy
/// metrics carry. The index into this table is a span's `algo`.
pub const ALGOS: [(Algorithm, &str); 7] = [
    (Algorithm::KGreedy, "kgreedy"),
    (Algorithm::LSpan, "lspan"),
    (Algorithm::DType, "dtype"),
    (Algorithm::MaxDP, "maxdp"),
    (Algorithm::ShiftBT, "shiftbt"),
    (Algorithm::Mqb, "mqb"),
    (Algorithm::MqbApprox, "mqb-approx"),
];

/// Index of `algo` in [`ALGOS`].
pub fn algo_index(algo: Algorithm) -> u8 {
    ALGOS
        .iter()
        .position(|&(a, _)| a == algo)
        .expect("every benchmarked policy is listed in ALGOS") as u8
}

/// The deterministic result of one round. Every field is a pure function
/// of the workload and its seed, so it must repeat bit for bit across
/// rounds, between the traced and untraced runs, and across worker counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Mean completion-time ratio `T(J)/L(J)`.
    pub mean_ratio: f64,
    /// Mean slowdown (see `README.md` for its definition per workload).
    pub mean_slowdown: f64,
    /// Simulated tasks scheduled in the round.
    pub tasks: u64,
    /// Jobs scheduled to completion in the round.
    pub jobs: u64,
    /// Exact counters the program returned, per round, named as the
    /// per-layer metrics they feed.
    pub counts: Vec<(String, f64)>,
}

impl Outcome {
    /// Bitwise equality, so that `NaN` or `-0.0` can never hide a change.
    pub fn same_bits(&self, other: &Outcome) -> bool {
        self.mean_ratio.to_bits() == other.mean_ratio.to_bits()
            && self.mean_slowdown.to_bits() == other.mean_slowdown.to_bits()
            && self.tasks == other.tasks
            && self.jobs == other.jobs
            && self.counts.len() == other.counts.len()
            && self
                .counts
                .iter()
                .zip(&other.counts)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
    }
}

/// Per-policy counters summed over a round's runs of that policy.
#[derive(Clone, Copy, Debug, Default)]
struct PolicyCounts {
    /// Decision epochs.
    epochs: u64,
    /// MQB candidates scored.
    evaluated: u64,
    /// MQB candidates skipped by dominance pruning.
    pruned: u64,
}

/// Accumulates the exact counters of a round's runs into the per-layer
/// counter names of [`Outcome::counts`].
#[derive(Clone, Debug, Default)]
pub(crate) struct CountSheet {
    per_algo: [PolicyCounts; ALGOS.len()],
    progress_updates: u64,
    peak_queue_depth: usize,
    dirty_visits: u64,
    full_rescans: u64,
}

impl CountSheet {
    /// Adds one run (or one session) of `algo`.
    pub(crate) fn add(&mut self, algo: Algorithm, stats: &RunStats) {
        let p = &mut self.per_algo[algo_index(algo) as usize];
        p.epochs += stats.epochs;
        p.evaluated += stats.selection.candidates_evaluated;
        p.pruned += stats.selection.candidates_pruned;
        self.progress_updates += stats.transitions.progress_updates;
        self.peak_queue_depth = self
            .peak_queue_depth
            .max(stats.transitions.peak_queue_depth);
        self.dirty_visits += stats.dirty_visits;
        self.full_rescans += stats.full_rescans;
    }

    /// The named counters.
    pub(crate) fn into_counts(self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (p, (_, suffix)) in self.per_algo.iter().zip(ALGOS) {
            out.push((format!("sim.epochs.{suffix}"), p.epochs as f64));
            out.push((
                format!("core.candidates_evaluated.{suffix}"),
                p.evaluated as f64,
            ));
            out.push((format!("core.candidates_pruned.{suffix}"), p.pruned as f64));
        }
        out.push(("sim.progress_updates".into(), self.progress_updates as f64));
        out.push(("sim.peak_queue_depth".into(), self.peak_queue_depth as f64));
        out.push(("sim.dirty_visits".into(), self.dirty_visits as f64));
        out.push(("sim.full_rescans".into(), self.full_rescans as f64));
        out
    }
}

/// Output checks, counted as operations attempted and failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one check; `what` names it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }

    /// Counts `n` checks of which `bad` failed.
    pub fn check_many(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }
}

/// Splits a round into chunks: each [`Clock::lap`] ends one. The harness
/// keeps each chunk's fastest pass over the run.
#[derive(Debug)]
pub struct Clock {
    last: std::time::Instant,
    laps: Vec<f64>,
}

impl Clock {
    /// Starts the first chunk now.
    pub fn start() -> Clock {
        Clock {
            last: std::time::Instant::now(),
            laps: Vec::new(),
        }
    }

    /// Ends the current chunk and starts the next.
    pub fn lap(&mut self) {
        let now = std::time::Instant::now();
        self.laps.push(now.duration_since(self.last).as_secs_f64());
        self.last = now;
    }

    /// The chunk times of the round, in seconds.
    pub fn laps(&self) -> &[f64] {
        &self.laps
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Runs one round of the workload's fixed work, ending each chunk with
    /// `clock.lap()`. With tracing on, every call into a layer is spanned.
    fn round(&mut self, clock: &mut Clock, checks: &mut Checks) -> Outcome;

    /// Extra checks made once after timing (for example the sweep at one
    /// worker against the two-worker rounds).
    fn final_checks(&mut self, checks: &mut Checks) {
        let _ = checks;
    }

    /// Counters only the traced rebuild can observe (for example the
    /// session's active-job count after each admission), from the last
    /// traced round.
    fn traced_counts(&self) -> Vec<(String, f64)> {
        Vec::new()
    }
}
