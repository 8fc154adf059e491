//! `huge`: one ~110k-task Huge Layered IR instance (`sample(2)`, the
//! instance of the `scale` bench) scheduled non-preemptively by KGreedy,
//! ShiftBT, MQB-Approx and exact MQB on one warm `Workspace`.
//!
//! Each round samples the instance, computes its artifacts and runs
//! `engine::run_in_with_artifacts` once per policy; each of those six steps
//! is one timed chunk. The traced round also times
//! `Policy::init_with_artifacts` once outside the engine call, so the
//! engine's self time can be told apart from policy set-up.

use std::sync::Arc;

use fhs_core::{make_policy, Algorithm};
use fhs_sim::{engine, Mode, Policy, RunOptions, Workspace};
use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};
use kdag::precompute::Artifacts;

use crate::trace::{self, carve, span, timed, Layer};
use crate::{algo_index, Checks, Clock, CountSheet, Outcome, Workload};

/// The instance seed of the `scale` bench's Huge rung (109 576 tasks).
/// Fixed, because Huge instances range from ~40k to ~160k tasks and the
/// workload is defined as the ~110k-task rung.
pub const INSTANCE_SEED: u64 = 2;

/// The policies run on the instance, cheapest first.
pub const POLICIES: [Algorithm; 4] = [
    Algorithm::KGreedy,
    Algorithm::ShiftBT,
    Algorithm::MqbApprox,
    Algorithm::Mqb,
];

/// The `huge` workload's state.
pub struct Huge {
    spec: WorkloadSpec,
    run_seed: u64,
    ws: Workspace,
    policies: Vec<Box<dyn Policy>>,
}

impl Huge {
    /// Sets the workload up. `run_seed` (the benchmark's `--seed`) seeds
    /// the policies' random draws (KGreedy's choice among ready tasks); the
    /// instance is always [`INSTANCE_SEED`].
    pub fn new(run_seed: u64) -> Huge {
        Huge {
            spec: WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Huge, 4),
            run_seed,
            ws: Workspace::new(),
            policies: POLICIES.iter().map(|&a| make_policy(a)).collect(),
        }
    }
}

impl Workload for Huge {
    fn round(&mut self, clock: &mut Clock, checks: &mut Checks) -> Outcome {
        let (job, cfg) = span(Layer::Workloads, "sample", None, || {
            self.spec.sample(INSTANCE_SEED)
        });
        clock.lap();
        let artifacts = span(Layer::Kdag, "artifacts", None, || {
            Arc::new(Artifacts::compute(&job))
        });
        let lower_bound = span(Layer::Kdag, "lower_bound", None, || {
            kdag::metrics::lower_bound_with_span(&job, cfg.procs_per_type(), artifacts.span())
        });
        clock.lap();
        let opts = RunOptions::seeded(self.run_seed);
        let mut makespans = Vec::with_capacity(POLICIES.len());
        let mut sheet = CountSheet::default();
        for (&algo, policy) in POLICIES.iter().zip(self.policies.iter_mut()) {
            let a = Some(algo_index(algo));
            let init_ns = if trace::enabled() {
                timed(Layer::Core, "init", a, || {
                    policy.reset_in(&mut self.ws);
                    policy.init_with_artifacts(&job, &cfg, opts.seed, &artifacts);
                })
                .1
            } else {
                0
            };
            let out = span(Layer::Sim, "engine", a, || {
                engine::run_in_with_artifacts(
                    &mut self.ws,
                    &job,
                    &cfg,
                    policy.as_mut(),
                    Mode::NonPreemptive,
                    &opts,
                    &artifacts,
                )
            });
            let engine = (Layer::Sim, "engine");
            carve(engine, (Layer::Core, "assign"), a, out.stats.assign_nanos);
            carve(engine, (Layer::Core, "engine_init"), a, init_ns);
            sheet.add(algo, &out.stats);
            makespans.push(out.makespan);
            clock.lap();
        }

        let ratios: Vec<f64> = makespans
            .iter()
            .map(|&t| t as f64 / lower_bound as f64)
            .collect();
        for (algo, r) in POLICIES.iter().zip(&ratios) {
            checks.check(*r >= 1.0, || {
                format!("{}: T(J)/L(J) = {r} < 1", algo.label())
            });
        }
        let best = *makespans.iter().min().expect("four policies ran") as f64;
        let runs = POLICIES.len() as f64;
        Outcome {
            mean_ratio: ratios.iter().sum::<f64>() / runs,
            mean_slowdown: makespans.iter().map(|&t| t as f64 / best).sum::<f64>() / runs,
            tasks: (job.num_tasks() * POLICIES.len()) as u64,
            jobs: POLICIES.len() as u64,
            counts: sheet.into_counts(),
        }
    }
}
