//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints a record line (what ran, on which host, any failed checks) and,
//! last, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The traced run also writes its last round's
//! spans to `out/trace-<workload>.json` beside this crate.
//!
//! `--setup-only` times one cold set-up of the workload and prints it in
//! seconds; untraced runs start the binary that way to sample `setup_s`.

use std::process::ExitCode;

use perfbench::harness::{self, Config, WorkloadName};

const USAGE: &str = "usage: perfbench --workload paper-sweep|huge|stream|observed-sweep \
[--seed N (default 1)] [--seconds S (default 10)] [--trace 0|1 (default 0)] [--setup-only]";

/// The run's configuration, and whether to time a set-up only.
fn parse() -> Result<(Config, bool), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut setup_only) = (1u64, 10.0f64, false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(WorkloadName::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| bad("expected seconds in (0, 3600]"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((Config::new(workload, seed, seconds, trace), setup_only))
}

fn main() -> ExitCode {
    let (cfg, setup_only) = match parse() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if setup_only {
        println!("{}", harness::setup_probe(&cfg));
        return ExitCode::SUCCESS;
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = harness::run(&cfg, &exe);
    if cfg.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}.json", cfg.workload.label()));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, harness::chrome_trace(&report.spans)));
        if let Err(e) = written {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    println!("{}", harness::record_line(&cfg, &report));
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
