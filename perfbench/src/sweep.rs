//! `paper-sweep` and `observed-sweep`: the paper's 14-cell grid (six
//! policies plus MQB-Approx, non-preemptive and preemptive) on Medium
//! Layered IR at K = 4, over a fixed instance range.
//!
//! Untraced rounds call `runner::run_sweep_rows` chunk by chunk and then
//! `runner::fold_rows`, as the `sweep` binary's chunked path does. Traced
//! rounds rebuild `run_sweep_rows` from `fhs_par::pool().map_with`,
//! `with_worker_ctx` and `metrics::evaluate_observed_with_artifacts_in`, so
//! every call into a layer can be spanned. `observed-sweep` turns on the
//! utilization, latency and event channels and renders every export the
//! sweep binary offers: metrics-JSONL, the Prometheus page, and a two-shard
//! split and merge that must reproduce the unsharded stable export.

use std::sync::Arc;

use fhs_experiments::obsout;
use fhs_experiments::runner::{
    fold_rows, instance_seed, new_sweep_columns, run_sweep_rows, with_worker_ctx, InstanceRuns,
    SweepCell, SweepCellResult,
};
use fhs_experiments::shard::{merge_shards, shard_fragment, ShardMeta};
use fhs_experiments::telemetry::sweep_exposition;
use fhs_obs::ObsConfig;
use fhs_sim::{metrics, Mode, RunOptions};
use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};
use kdag::precompute::Artifacts;

use crate::trace::{self, carve, span, timed, Layer};
use crate::{algo_index, Checks, Clock, CountSheet, Outcome, Workload, ALGOS};

/// The two execution modes, with the labels the exports use.
const MODES: [(Mode, &str); 2] = [(Mode::NonPreemptive, "np"), (Mode::Preemptive, "pre")];

/// Pool workers a sweep uses, caller included.
pub const WORKERS: usize = 2;

/// Size of a sweep workload.
#[derive(Clone, Copy, Debug)]
pub struct SweepSize {
    /// Instances per round.
    pub instances: usize,
    /// Instances per timed chunk (a `run_sweep_rows` call).
    pub chunk: usize,
}

impl SweepSize {
    /// The benchmark's size: 1152 instances in chunks of 96.
    pub const BENCH: SweepSize = SweepSize {
        instances: 1152,
        chunk: 96,
    };
}

/// A sweep workload's state.
pub struct Sweep {
    spec: WorkloadSpec,
    cells: Arc<[SweepCell]>,
    labels: Vec<String>,
    observe: ObsConfig,
    seed: u64,
    size: SweepSize,
    /// Ratios of the first chunk of the last round, for the one-worker
    /// check.
    first_chunk: Vec<Vec<f64>>,
}

impl Sweep {
    /// Sets the workload up: the spec, the 14 cells, and the pool (spawned
    /// on first use in the process).
    pub fn new(seed: u64, size: SweepSize, observed: bool) -> Sweep {
        assert!(
            size.instances.is_multiple_of(2 * size.chunk),
            "the two shards must split the instance range on a chunk boundary"
        );
        fhs_par::pool();
        let cells: Vec<SweepCell> = MODES
            .iter()
            .flat_map(|&(mode, _)| {
                ALGOS
                    .iter()
                    .map(move |&(algo, _)| SweepCell::new(algo, mode))
            })
            .collect();
        let labels = ALGOS.iter().map(|(a, _)| a.label().to_string()).collect();
        let observe = if observed {
            ObsConfig::all()
        } else {
            ObsConfig::default()
        };
        Sweep {
            spec: WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Medium, 4),
            cells: cells.into(),
            labels,
            observe,
            seed,
            size,
            first_chunk: Vec::new(),
        }
    }

    fn rows(&self, range: std::ops::Range<u64>) -> Vec<InstanceRuns> {
        if !trace::enabled() {
            return run_sweep_rows(
                &self.spec,
                &self.cells,
                range,
                self.seed,
                Some(WORKERS),
                self.observe,
            );
        }
        // The traced rebuild of `run_sweep_rows`: same seeds, same shared
        // artifacts (every grid has an offline cell), same event gating.
        let spec = self.spec;
        let cols = Arc::clone(&self.cells);
        let observe = self.observe;
        let base_seed = self.seed;
        let eval = move |i: u64| -> InstanceRuns {
            let row = span(Layer::Par, "item", None, || {
                let seed = instance_seed(base_seed, i);
                let (job, cfg) = span(Layer::Workloads, "sample", None, || spec.sample(seed));
                let artifacts = span(Layer::Kdag, "artifacts", None, || {
                    Arc::new(Artifacts::compute(&job))
                });
                let mut oc = observe;
                oc.events &= i == 0;
                with_worker_ctx(|ctx| {
                    cols.iter()
                        .map(|cell| {
                            let mut opts = RunOptions::seeded(seed);
                            opts.quantum = cell.quantum;
                            opts.observe = oc;
                            let a = Some(algo_index(cell.algo));
                            let (ws, policy) = ctx.parts(cell.algo);
                            let ((), init_ns) = timed(Layer::Core, "init", a, || {
                                policy.reset_in(ws);
                                policy.init_with_artifacts(&job, &cfg, seed, &artifacts);
                            });
                            let (result, stats, obs) = span(Layer::Sim, "engine", a, || {
                                metrics::evaluate_observed_with_artifacts_in(
                                    ws, &job, &cfg, policy, cell.mode, &opts, &artifacts,
                                )
                            });
                            // The engine's own init is timed above.
                            let engine = (Layer::Sim, "engine");
                            carve(engine, (Layer::Core, "assign"), a, stats.assign_nanos);
                            carve(engine, (Layer::Core, "engine_init"), a, init_ns);
                            (result.ratio, stats, obs)
                        })
                        .collect()
                })
            });
            trace::flush();
            row
        };
        let items: Vec<u64> = range.collect();
        span(Layer::Par, "map", None, || {
            fhs_par::pool().map_with(WORKERS, items, eval)
        })
    }

    /// Renders every export of an observed sweep and checks them: the
    /// Prometheus page validates, and the two-shard merge is byte-identical
    /// to the unsharded stable metrics-JSONL. Each mode's renders and each
    /// merge is a timed chunk of its own. Returns the bytes of the stable
    /// exports.
    fn export(
        &self,
        cols: &mut [SweepCellResult],
        rows: Vec<InstanceRuns>,
        clock: &mut Clock,
        checks: &mut Checks,
    ) -> u64 {
        let n = self.size.instances;
        let half = n / 2;
        let workload = self.spec.label();
        let k = ALGOS.len();
        // The fragments need the raw rows, split per mode.
        let mut per_mode: [Vec<InstanceRuns>; 2] = span(Layer::Export, "shard", None, || {
            let mut np = Vec::with_capacity(n);
            let mut pre = Vec::with_capacity(n);
            for mut row in rows {
                pre.push(row.split_off(k));
                np.push(row);
            }
            [np, pre]
        });
        let mut bytes = 0u64;
        for (m, &(_, mode)) in MODES.iter().enumerate() {
            let cols = &mut cols[m * k..(m + 1) * k];
            let page = span(Layer::Export, "exposition", None, || {
                let page = sweep_exposition(&workload, mode, &self.labels, cols, n, n);
                let valid = fhs_obs::validate(&page);
                (page, valid)
            });
            checks.check(page.1.is_ok(), || {
                format!("{mode} exposition invalid: {:?}", page.1)
            });
            let stable = span(Layer::Export, "metrics_jsonl", None, || {
                let mut out = String::new();
                for (label, col) in self.labels.iter().zip(cols.iter_mut()) {
                    obsout::stabilize(col);
                    out.push_str(&obsout::metrics_line(
                        label,
                        &workload,
                        mode,
                        n,
                        self.seed,
                        &col.summary(),
                        &col.stats,
                        col.obs.as_ref(),
                    ));
                    out.push('\n');
                }
                out
            });
            let rows = std::mem::take(&mut per_mode[m]);
            let fragments = span(Layer::Export, "shard", None, || {
                let mut rows = rows;
                let second = rows.split_off(half);
                let meta = |lo: usize, hi: usize| ShardMeta {
                    workload: &workload,
                    mode,
                    instances: n,
                    seed: self.seed,
                    lo: lo as u64,
                    hi: hi as u64,
                    cells: &self.labels,
                };
                vec![
                    shard_fragment(&meta(0, half), rows),
                    shard_fragment(&meta(half, n), second),
                ]
            });
            clock.lap();
            let merged = span(Layer::Export, "merge", None, || merge_shards(&fragments));
            clock.lap();
            checks.check(merged.as_deref() == Ok(stable.as_str()), || {
                format!("{mode} shard merge differs from the unsharded stable export")
            });
            // The page carries wall-clock histograms, so only the stable
            // exports count towards the (exact) byte total.
            bytes += (stable.len()
                + fragments.iter().map(String::len).sum::<usize>()
                + merged.map_or(0, |m| m.len())) as u64;
        }
        bytes
    }
}

impl Workload for Sweep {
    fn round(&mut self, clock: &mut Clock, checks: &mut Checks) -> Outcome {
        let SweepSize { instances, chunk } = self.size;
        let mut rows: Vec<InstanceRuns> = Vec::with_capacity(instances);
        for lo in (0..instances).step_by(chunk) {
            rows.extend(self.rows(lo as u64..(lo + chunk) as u64));
            clock.lap();
        }
        let mut cols = new_sweep_columns(self.cells.len());
        let kept = self
            .observe
            .any()
            .then(|| span(Layer::Export, "shard", None, || rows.clone()));
        span(Layer::Runner, "fold", None, || fold_rows(&mut cols, rows));
        clock.lap();
        let bytes = kept.map(|rows| self.export(&mut cols, rows, clock, checks));

        self.first_chunk = cols.iter().map(|c| c.ratios[..chunk].to_vec()).collect();
        let mut outcome = self.outcome(&cols, checks);
        outcome.counts.push(("par.items".into(), instances as f64));
        if let Some(bytes) = bytes {
            outcome.counts.push(("export.bytes".into(), bytes as f64));
        }
        outcome
    }

    fn final_checks(&mut self, checks: &mut Checks) {
        // Results must not depend on the worker count: the first chunk
        // again, on the calling thread alone.
        let one = run_sweep_rows(
            &self.spec,
            &self.cells,
            0..self.size.chunk as u64,
            self.seed,
            Some(1),
            self.observe,
        );
        let same = one.iter().enumerate().all(|(i, row)| {
            row.iter()
                .zip(&self.first_chunk)
                .all(|((r, _, _), col)| r.to_bits() == col[i].to_bits())
        });
        checks.check(same, || {
            "ratios at one worker differ from the two-worker rounds".into()
        });
    }
}

impl Sweep {
    fn outcome(&self, cols: &[SweepCellResult], checks: &mut Checks) -> Outcome {
        let k = ALGOS.len();
        let n = self.size.instances;
        let mut sum_ratio = 0.0;
        let mut sum_slowdown = 0.0;
        let mut below_one = 0u64;
        let mut sheet = CountSheet::default();
        let mut tasks = 0u64;
        for (cell, col) in self.cells.iter().zip(cols) {
            sheet.add(cell.algo, &col.stats);
            tasks += col.stats.transitions.completions;
            below_one += col
                .ratios
                .iter()
                .filter(|&&r| r < 1.0 || r.is_nan())
                .count() as u64;
            sum_ratio += col.ratios.iter().sum::<f64>();
        }
        for mode_cols in cols.chunks(k) {
            for i in 0..n {
                let best = mode_cols
                    .iter()
                    .map(|c| c.ratios[i])
                    .fold(f64::INFINITY, f64::min);
                sum_slowdown += mode_cols.iter().map(|c| c.ratios[i] / best).sum::<f64>();
            }
        }
        let evals = (n * cols.len()) as u64;
        checks.check_many(evals, below_one, || {
            format!("{below_one} of {evals} ratios below 1 (T(J) < L(J))")
        });
        let mean_ratio = sum_ratio / evals as f64;
        checks.check(mean_ratio >= 1.0, || format!("mean ratio {mean_ratio} < 1"));
        Outcome {
            mean_ratio,
            mean_slowdown: sum_slowdown / evals as f64,
            tasks,
            jobs: evals,
            counts: sheet.into_counts(),
        }
    }
}
