//! Renders one fully-instrumented scenario run in an export format, or
//! diffs two runs (`inspect diff`).
//!
//! ```text
//! inspect [--scheme S] [--apps A2,A5] [--windows N] [--seed N] [--jobs N]
//!         [--faults demo]
//!         [--format chrome|folded|table|metrics|timeline|stacks|alerts|series]
//! inspect diff [common flags] [--vs-scheme S] [--vs-seed N] [--vs-faults demo]
//!              [--baseline FILE] [--save FILE]
//! ```
//!
//! Output goes to stdout and is byte-identical across repeated runs and
//! `--jobs` levels (CI diffs it). Load `--format chrome` output into
//! <https://ui.perfetto.dev> or `chrome://tracing`; pipe `--format folded`
//! into any FlameGraph/inferno renderer.
//!
//! `diff` runs the base scenario from the common flags and a *vs*
//! scenario that starts as a copy and picks up any `--vs-*` overrides,
//! then prints the ranked per-routine energy delta table with drift
//! verdicts. `--baseline FILE` replaces the base run with a summary saved
//! earlier via `--save FILE`, turning the diff into a regression check
//! against a pinned snapshot.

use std::env;
use std::process::ExitCode;

use iotse_bench::config::{parse_app_list, parse_scheme};
use iotse_bench::diff::{render_diff, TelemetrySummary};
use iotse_bench::inspect::{inspect, run, InspectFormat, InspectRequest};

const USAGE: &str = "usage: inspect [--scheme baseline|batching|com|beam|bcom] [--apps A2,A5]
               [--windows N] [--seed N] [--jobs N] [--faults demo]
               [--format chrome|folded|table|metrics|timeline|stacks|alerts|series]
       inspect diff [common flags] [--vs-scheme S] [--vs-seed N] [--vs-faults demo]
               [--baseline FILE] [--save FILE]
defaults: --scheme batching --apps A2 --windows 4 --seed 42 --jobs 1 --format timeline
--faults demo injects the committed demo fault scripts (every fault kind)
diff compares the base run against a copy with the --vs-* overrides applied
(or against a summary saved with --save when --baseline is given)";

fn main() -> ExitCode {
    let mut args: Vec<String> = env::args().skip(1).collect();
    let diff_mode = args.first().is_some_and(|a| a == "diff");
    if diff_mode {
        args.remove(0);
    }

    let mut req = InspectRequest::default();
    let mut format = InspectFormat::Timeline;
    let mut vs_scheme = None;
    let mut vs_seed = None;
    let mut vs_faults = None;
    let mut baseline_path: Option<String> = None;
    let mut save_path: Option<String> = None;

    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scheme" => match args.next().as_deref().map(parse_scheme) {
                Some(Ok(s)) => req.scheme = s,
                Some(Err(e)) => return fail(&e),
                None => return fail("--scheme needs a name"),
            },
            "--apps" => match args.next().as_deref().map(parse_app_list) {
                Some(Ok(apps)) => req.apps = apps,
                Some(Err(e)) => return fail(&e),
                None => return fail("--apps needs a list like A2,A5"),
            },
            "--windows" => match args.next().and_then(|v| v.parse().ok()) {
                Some(w) if w > 0 => req.windows = w,
                _ => return fail("--windows needs a positive integer"),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(seed) => req.seed = seed,
                None => return fail("--seed needs an integer"),
            },
            "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(j) if j > 0 => req.jobs = j,
                _ => return fail("--jobs needs a positive integer"),
            },
            "--faults" => match args.next().as_deref() {
                Some("demo") => req.faults = iotse_core::scenario_spec::demo_scripts(),
                Some(other) => return fail(&format!("unknown fault set '{other}' (demo)")),
                None => return fail("--faults needs a set name (demo)"),
            },
            "--format" if !diff_mode => match args.next().as_deref().map(InspectFormat::parse) {
                Some(Ok(f)) => format = f,
                Some(Err(e)) => return fail(&e),
                None => return fail("--format needs a name"),
            },
            "--vs-scheme" if diff_mode => match args.next().as_deref().map(parse_scheme) {
                Some(Ok(s)) => vs_scheme = Some(s),
                Some(Err(e)) => return fail(&e),
                None => return fail("--vs-scheme needs a name"),
            },
            "--vs-seed" if diff_mode => match args.next().and_then(|v| v.parse().ok()) {
                Some(seed) => vs_seed = Some(seed),
                None => return fail("--vs-seed needs an integer"),
            },
            "--vs-faults" if diff_mode => match args.next().as_deref() {
                Some("demo") => vs_faults = Some(iotse_core::scenario_spec::demo_scripts()),
                Some(other) => return fail(&format!("unknown fault set '{other}' (demo)")),
                None => return fail("--vs-faults needs a set name (demo)"),
            },
            "--baseline" if diff_mode => match args.next() {
                Some(path) => baseline_path = Some(path),
                None => return fail("--baseline needs a file path"),
            },
            "--save" if diff_mode => match args.next() {
                Some(path) => save_path = Some(path),
                None => return fail("--save needs a file path"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            unknown => return fail(&format!("unknown argument '{unknown}'\n{USAGE}")),
        }
    }

    if !diff_mode {
        print!("{}", inspect(&req, format));
        return ExitCode::SUCCESS;
    }

    let mut vs_req = req.clone();
    if let Some(s) = vs_scheme {
        vs_req.scheme = s;
    }
    if let Some(seed) = vs_seed {
        vs_req.seed = seed;
    }
    if let Some(faults) = vs_faults {
        vs_req.faults = faults;
    }

    let vs = match TelemetrySummary::from_result(&run(&vs_req)) {
        Some(s) => s,
        None => return fail("vs run carried no telemetry"),
    };
    let base = if let Some(path) = &baseline_path {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return fail(&format!("cannot read baseline {path}: {e}")),
        };
        match TelemetrySummary::parse(&text) {
            Ok(s) => s,
            Err(e) => return fail(&e),
        }
    } else {
        match TelemetrySummary::from_result(&run(&req)) {
            Some(s) => s,
            None => return fail("base run carried no telemetry"),
        }
    };
    // --save pins the *current build's* run (the vs side), ready for a
    // later --baseline comparison.
    if let Some(path) = &save_path {
        if let Err(e) = std::fs::write(path, vs.to_json()) {
            return fail(&format!("cannot write {path}: {e}"));
        }
    }
    print!("{}", render_diff(&base, &vs));
    ExitCode::SUCCESS
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::FAILURE
}
