//! `stream`: Small Layered IR jobs under Poisson arrivals (mean gap 16),
//! FIFO between jobs, non-preemptive, through `stream::run_stream`, once
//! with KGreedy and once with MQB per sub-stream.
//!
//! Arrivals are simulated time, replayed as fast as the host allows. A
//! stream's seed also picks its machine, and a Small machine has 1 to 5
//! processors per type; at gap 16 one processor per type never drains
//! (slowdowns in the hundreds, host cost per job growing with run length)
//! while five sit mostly idle. Each sub-stream therefore takes the first
//! seed derived from the benchmark seed whose machine has four processors
//! per type, so every seed measures the same load. The traced round
//! rebuilds `run_stream` from `Session::new`, `run_until`,
//! `admit(_with_artifacts)`, `drain` and `finish`.

use std::sync::Arc;

use fhs_core::{make_policy, Algorithm};
use fhs_experiments::runner::instance_seed;
use fhs_experiments::{run_stream, Arrivals, StreamCell, StreamConfig};
use fhs_obs::JobRecord;
use fhs_sim::{InterJobPolicy, RunStats, Session, SessionOptions};
use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};
use kdag::precompute::Artifacts;

use crate::trace::{self, carve, span, Layer};
use crate::{algo_index, Checks, Clock, CountSheet, Outcome, Workload};

/// Mean Poisson inter-arrival gap, in simulated time units.
pub const MEAN_GAP: f64 = 16.0;

/// Processors per type of every sub-stream's machine.
pub const PROCS_PER_TYPE: usize = 4;

/// The two policies each sub-stream runs under.
pub const POLICIES: [Algorithm; 2] = [Algorithm::KGreedy, Algorithm::Mqb];

/// Size of the stream workload.
#[derive(Clone, Copy, Debug)]
pub struct StreamSize {
    /// Sub-streams per round.
    pub streams: usize,
    /// Jobs per sub-stream.
    pub jobs: usize,
}

impl StreamSize {
    /// The benchmark's size: six sub-streams of 1024 jobs.
    pub const BENCH: StreamSize = StreamSize {
        streams: 6,
        jobs: 1024,
    };
}

/// One sub-stream: its configuration and its machine's processor count.
struct SubStream {
    config: StreamConfig,
    procs: usize,
}

/// The `stream` workload's state.
pub struct Stream {
    subs: Vec<SubStream>,
    jobs: usize,
    /// Active jobs after each admission in the last traced round: sum,
    /// samples, peak.
    active: (u64, u64, usize),
}

/// What a session returned, whichever way it was driven.
struct SessionResult {
    makespan: u64,
    jobs: Vec<JobRecord>,
    completed: u64,
    stats: RunStats,
}

impl Stream {
    /// Sets the workload up: picks the sub-stream seeds. `run_stream`
    /// builds each arrival plan itself, so plans are part of every round.
    pub fn new(seed: u64, size: StreamSize) -> Stream {
        let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Small, 4);
        let mut subs = Vec::with_capacity(size.streams);
        let mut k = 0u64;
        while subs.len() < size.streams {
            let s = instance_seed(seed, k);
            k += 1;
            let (_, machine) = spec.sample(s);
            if machine
                .procs_per_type()
                .iter()
                .all(|&p| p == PROCS_PER_TYPE)
            {
                let config = StreamConfig {
                    spec,
                    jobs: size.jobs,
                    arrivals: Arrivals::Poisson { mean_gap: MEAN_GAP },
                    seed: s,
                };
                subs.push(SubStream {
                    config,
                    procs: machine.total_procs(),
                });
            }
        }
        Stream {
            subs,
            jobs: size.jobs,
            active: (0, 0, 0),
        }
    }

    /// `run_stream`, rebuilt from the session API with every call spanned.
    fn traced(&mut self, sub: usize, cell: &StreamCell) -> SessionResult {
        let config = &self.subs[sub].config;
        let a = Some(algo_index(cell.algo));
        let (_, machine) = span(Layer::Workloads, "sample", None, || {
            config.spec.sample(config.seed)
        });
        let plan = span(Layer::Workloads, "plan", None, || config.plan());
        let mut session = span(Layer::Sim, "session_new", a, || {
            let mut opts = SessionOptions::new(cell.mode).with_inter(cell.inter);
            opts.quantum = cell.quantum;
            Session::new(machine, opts)
        });
        for arrival in plan.arrivals() {
            span(Layer::Sim, "run_until", a, || session.run_until(arrival.t));
            let (job, _) = span(Layer::Workloads, "sample", None, || {
                config.spec.sample(arrival.seed)
            });
            let policy = span(Layer::Core, "policy", a, || {
                session
                    .recycled_policy()
                    .unwrap_or_else(|| make_policy(cell.algo))
            });
            if cell.algo.is_offline() {
                let artifacts = span(Layer::Kdag, "artifacts", None, || {
                    Arc::new(Artifacts::compute(&job))
                });
                span(Layer::Sim, "admit", a, || {
                    session.admit_with_artifacts(Arc::new(job), policy, arrival.seed, &artifacts)
                });
            } else {
                span(Layer::Sim, "admit", a, || {
                    session.admit(Arc::new(job), policy, arrival.seed)
                });
            }
            let active = session.active_jobs();
            self.active.0 += active as u64;
            self.active.1 += 1;
            self.active.2 = self.active.2.max(active);
        }
        span(Layer::Sim, "drain", a, || session.drain());
        let (out, _) = span(Layer::Sim, "finish", a, || session.finish());
        carve(
            (Layer::Sim, "drain"),
            (Layer::Core, "assign"),
            a,
            out.stats.assign_nanos,
        );
        SessionResult {
            makespan: out.makespan,
            jobs: out.jobs,
            completed: out.stream.completed,
            stats: out.stats,
        }
    }
}

impl Workload for Stream {
    fn round(&mut self, clock: &mut Clock, checks: &mut Checks) -> Outcome {
        self.active = (0, 0, 0);
        let mut sessions = Vec::with_capacity(self.subs.len() * POLICIES.len());
        for sub in 0..self.subs.len() {
            for algo in POLICIES {
                let cell = StreamCell::new(algo, InterJobPolicy::Fifo);
                let s = if trace::enabled() {
                    self.traced(sub, &cell)
                } else {
                    let r = run_stream(&self.subs[sub].config, &cell);
                    SessionResult {
                        makespan: r.makespan,
                        jobs: r.jobs,
                        completed: r.stream.completed,
                        stats: r.stats,
                    }
                };
                sessions.push((sub, algo, s));
                clock.lap();
            }
        }

        let mut sheet = CountSheet::default();
        let (mut tasks, mut jobs) = (0u64, 0u64);
        let (mut sum_slowdown, mut sum_ratio) = (0.0, 0.0);
        for (sub, algo, s) in &sessions {
            sheet.add(*algo, &s.stats);
            checks.check(
                s.jobs.len() == self.jobs && s.completed == self.jobs as u64,
                || {
                    format!(
                        "{}: {} of {} jobs retired",
                        algo.label(),
                        s.jobs.len(),
                        self.jobs
                    )
                },
            );
            let below = s
                .jobs
                .iter()
                .filter(|j| j.slowdown() < 1.0 || j.slowdown().is_nan())
                .count() as u64;
            checks.check_many(s.jobs.len() as u64, below, || {
                format!("{}: {below} jobs with slowdown below 1", algo.label())
            });
            for j in &s.jobs {
                sum_slowdown += j.slowdown();
                tasks += j.tasks;
            }
            jobs += s.jobs.len() as u64;
            let ratio =
                s.makespan as f64 / stream_lower_bound(&s.jobs, self.subs[*sub].procs) as f64;
            checks.check(ratio >= 1.0, || {
                format!("{}: stream makespan ratio {ratio} < 1", algo.label())
            });
            sum_ratio += ratio;
        }
        Outcome {
            mean_ratio: sum_ratio / sessions.len() as f64,
            mean_slowdown: sum_slowdown / jobs as f64,
            tasks,
            jobs,
            counts: sheet.into_counts(),
        }
    }

    fn traced_counts(&self) -> Vec<(String, f64)> {
        let (sum, n, peak) = self.active;
        vec![
            ("sim.active_jobs.mean".into(), sum as f64 / n.max(1) as f64),
            ("sim.active_jobs.peak".into(), peak as f64),
        ]
    }
}

/// A lower bound on a stream's makespan: no job finishes before its
/// arrival plus its isolated lower bound, and the machine cannot retire
/// more than `procs` units of work per time step after the first arrival.
pub fn stream_lower_bound(jobs: &[JobRecord], procs: usize) -> u64 {
    let first = jobs.iter().map(|j| j.arrival).min().unwrap_or(0);
    let work: u64 = jobs.iter().map(|j| j.work).sum();
    let per_job = jobs
        .iter()
        .map(|j| j.arrival + j.lower_bound)
        .max()
        .unwrap_or(0);
    per_job.max(first + work.div_ceil(procs as u64)).max(1)
}
