//! `dwbench` — the device-window benchmark of the iotse simulator.
//!
//! ```text
//! dwbench --workload <population|paper_sweep|observed_storm>
//!         [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--print-digests]
//! ```
//!
//! An untraced run (`--trace 0`) measures the workload's end-to-end
//! metrics; a traced run (`--trace 1`) measures its per-layer metrics and
//! writes the recorded spans to `DIR` (default `target/dwbench`) as JSON
//! and as folded host-cost stacks. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `--print-digests` prints the digest of every device-run at the
//! standard size instead — the format of `pins/<workload>.txt`.

mod calibrate;
mod clock;
mod gen;
mod measure;
mod replay;
mod spans;
mod sys;
mod traced;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Kind, Size, DEFAULT_SEED};

#[global_allocator]
static ALLOCATOR: sys::CountingAlloc = sys::CountingAlloc;

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    print_digests: bool,
}

const USAGE: &str = "usage: dwbench --workload <population|paper_sweep|observed_storm> \
                     [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--print-digests]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut kind = None;
    let mut parsed = Args {
        kind: Kind::Population,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        out: PathBuf::from("target/dwbench"),
        print_digests: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--print-digests" {
            parsed.print_digests = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a non-negative integer, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    parsed.kind = kind.ok_or("--workload is required")?;
    Ok(parsed)
}

/// Renders the result line.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn untraced(args: &Args) -> Result<(), String> {
    let o = measure::run(args.kind, args.seed, args.seconds);
    let (rate, p25, p75) = measure::summary(&o.scaled_rates());
    let (setup, _, _) = measure::summary(&o.scaled_setup_s());
    if o.peak_rss_mib.is_empty() {
        return Err("cannot read VmHWM from /proc/self/status".into());
    }
    let rss = clock::quantile(&o.peak_rss_mib, 0.0);
    println!(
        "workload {} seed {} jobs {} (available parallelism {}), digests {}",
        o.kind.name(),
        args.seed,
        o.jobs,
        iotse_core::Fleet::available_parallelism(),
        if o.pinned {
            "pinned"
        } else {
            "self-consistent, default-seed pins checked once"
        }
    );
    println!(
        "host slowdown {:.3}x (median of {} probes, nominal {:.1} ms)",
        clock::median(&o.slowdowns),
        o.slowdowns.len(),
        calibrate::NOMINAL_NS / 1e6
    );
    println!(
        "device_windows_per_s {rate:.1} dw/s at nominal host speed (median of {} cycles, p25 {p25:.1}, p75 {p75:.1}; raw median {:.1})",
        o.cycle_rates.len(),
        clock::median(&o.cycle_rates)
    );
    println!(
        "setup_s {setup:.6} s at nominal host speed (median of {}, each the fastest of {}; raw median {:.6})",
        o.setup_s.len(),
        measure::SETUP_REPS,
        clock::median(&o.setup_s)
    );
    println!(
        "peak_rss_mb {rss:.2} MiB (least of {})",
        o.peak_rss_mib.len()
    );
    println!("ops_attempted {}", o.attempted);
    println!("ops_failed {}", o.failed);
    if let Some(err) = o.paper_err_pp {
        println!("paper_err_pp {err:.4} pp");
    }
    for (check, ok) in &o.cross_checks {
        println!("check {check}: {}", if *ok { "ok" } else { "FAILED" });
    }
    println!(
        "{}",
        result_json(
            o.correct(),
            o.attempted,
            o.failed,
            &[
                ("device_windows_per_s", rate, "dw/s"),
                ("setup_s", setup, "s"),
                ("peak_rss_mb", rss, "MiB"),
            ],
        )
    );
    Ok(())
}

fn traced(args: &Args) -> Result<(), String> {
    let size = Size::standard(args.kind);
    let o = traced::run(args.kind, args.seed, size, args.seconds);
    let name = args.kind.name();
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let stem = args.out.join(format!("{name}-{}", args.seed));
    let json = stem.with_extension("spans.json");
    let folded = stem.with_extension("folded");
    std::fs::write(
        &json,
        spans::to_json(name, args.seed, o.trace_overhead, &o.spans),
    )
    .map_err(|e| format!("write {}: {e}", json.display()))?;
    std::fs::write(&folded, spans::folded(&o.spans))
        .map_err(|e| format!("write {}: {e}", folded.display()))?;
    println!(
        "workload {name} seed {} traced: {} spans",
        args.seed,
        o.spans.len()
    );
    for (metric, value, unit) in &o.metrics {
        println!("{metric} {value} {unit}");
    }
    for (check, ok) in &o.cross_checks {
        println!("check {check}: {}", if *ok { "ok" } else { "FAILED" });
    }
    println!("spans {} and {}", json.display(), folded.display());
    println!(
        "{}",
        result_json(o.correct(), o.attempted, o.failed, &o.metrics)
    );
    Ok(())
}

fn print_digests(args: &Args) {
    let size = Size::standard(args.kind);
    let inputs = workload::Inputs::generate(args.kind, size, args.seed);
    println!("# dwbench {} digests, seed {}", args.kind.name(), args.seed);
    for b in 0..size.batches {
        workload::clear_caches();
        let batch = workload::build(&inputs, b, args.kind.base(), &iotse_apps::catalog::app);
        let (results, keys) = measure::run_batch(batch, 1);
        let results = results.unwrap_or_default();
        for d in workload::digests(&keys, &results) {
            println!("{d:016x}");
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dwbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    sys::without_aslr();
    if args.print_digests {
        print_digests(&args);
        return ExitCode::SUCCESS;
    }
    let done = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dwbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{Inputs, Variant};

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse_and_bad_input_is_refused() {
        let a = args(&[
            "--workload",
            "paper_sweep",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .expect("valid flags");
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::PaperSweep, 3, 2, true)
        );
        assert_eq!(
            args(&["--workload", "population"]).expect("defaults").seed,
            DEFAULT_SEED
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err(), "workload is required");
        assert!(args(&["--workload", "population", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "population", "--seed"]).is_err());
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let line = result_json(true, 3, 0, &[("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    /// A small size for tests (the paper sweep ignores `devices`).
    fn small() -> Size {
        Size {
            batches: 1,
            devices: 2,
            windows: 2,
        }
    }

    fn run_digests(kind: Kind, seed: u64, jobs: usize, v: Variant) -> Vec<u64> {
        let size = small();
        let inputs = Inputs::generate(kind, size, seed);
        workload::clear_caches();
        let batch = workload::build(&inputs, 0, v, &iotse_apps::catalog::app);
        let (results, keys) = measure::run_batch(batch, jobs);
        workload::digests(&keys, &results.expect("no device-run panics"))
    }

    #[test]
    fn digests_are_stable_across_two_runs() {
        for kind in Kind::ALL {
            let a = run_digests(kind, 11, 1, kind.base());
            let b = run_digests(kind, 11, 1, kind.base());
            assert!(a.iter().all(|&d| d != 0), "{kind:?}: malformed run");
            assert_eq!(a, b, "{kind:?}");
        }
    }

    #[test]
    fn population_digests_do_not_depend_on_fleet_width() {
        let jobs = iotse_core::Fleet::available_parallelism().max(2);
        let one = run_digests(Kind::Population, 12, 1, Kind::Population.base());
        let wide = run_digests(Kind::Population, 12, jobs, Kind::Population.base());
        assert_eq!(one, wide);
    }

    #[test]
    fn observability_changes_no_simulated_statistic() {
        let bare = Variant {
            observed: false,
            faulted: true,
        };
        let storm = Kind::ObservedStorm;
        assert_eq!(
            run_digests(storm, 13, 1, bare),
            run_digests(storm, 13, 1, storm.base())
        );
    }

    #[test]
    fn the_seed_changes_the_generated_inputs() {
        let v = Kind::Population.base();
        let size = small();
        let a = Inputs::generate(Kind::Population, size, 1);
        let b = Inputs::generate(Kind::Population, size, 2);
        assert_eq!(
            a.spec_text(0, 0, v),
            Inputs::generate(Kind::Population, size, 1).spec_text(0, 0, v)
        );
        assert_ne!(a.spec_text(0, 0, v), b.spec_text(0, 0, v));
        let p = |seed| Inputs::generate(Kind::PaperSweep, small(), seed).replica_seed(0);
        assert_ne!(p(1), p(2));
    }

    #[test]
    fn pins_cover_every_batch_of_the_standard_size() {
        for kind in Kind::ALL {
            let size = Size::standard(kind);
            let reference = workload::Reference::new(kind, size, DEFAULT_SEED);
            assert!(reference.pinned, "{kind:?} has no pinned digests");
            assert!(!workload::Reference::new(kind, size, DEFAULT_SEED + 1).pinned);
        }
    }

    #[test]
    fn the_default_seed_reproduces_its_pins() {
        let (attempted, failed) = measure::pin_check(Kind::Population);
        assert!(attempted > 0);
        assert_eq!(failed, 0, "population digests no longer match pins/");
    }
}
