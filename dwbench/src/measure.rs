//! The untraced run: end-to-end metrics of one workload.

use std::panic::{catch_unwind, AssertUnwindSafe};

use iotse_bench::figures::{fig10, fig11};
use iotse_bench::ExperimentConfig;
use iotse_core::scenario_spec::{output_checksum, run_spec};
use iotse_core::{Fleet, RunResult};

use crate::calibrate;
use crate::clock::{median, now_ns, quantile, timed};
use crate::spans::{self, NO_REQUEST};
use crate::workload::{self, Batch, Inputs, Kind, PaperSavings, Reference, Size, DEFAULT_SEED};

/// Untimed cycles that measure the resident-set high-water mark and warm
/// the process up.
const RSS_CYCLES: usize = 5;

/// Timed cycles a run makes however short its time.
const MIN_CYCLES: usize = 2;

/// Times a cycle sets up its inputs; its set-up time is the fastest.
pub const SETUP_REPS: usize = 16;

/// What an untraced run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub kind: Kind,
    pub jobs: usize,
    /// Device-windows per host second of each timed cycle through the
    /// batches.
    pub cycle_rates: Vec<f64>,
    /// Host seconds of each timed cycle's fastest set-up.
    pub setup_s: Vec<f64>,
    /// How much slower than nominal the host ran the probe after each
    /// timed cycle.
    pub slowdowns: Vec<f64>,
    /// Resident-set high-water mark of each memory cycle, MiB.
    pub peak_rss_mib: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Results of the cross-checks against the figure and scenario-report
    /// code paths.
    pub cross_checks: Vec<(String, bool)>,
    pub paper_err_pp: Option<f64>,
    pub pinned: bool,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.cross_checks.iter().all(|(_, ok)| *ok)
    }

    /// Each timed cycle's rate as if the host ran at nominal speed.
    pub fn scaled_rates(&self) -> Vec<f64> {
        self.cycle_rates
            .iter()
            .zip(&self.slowdowns)
            .map(|(r, s)| r * s)
            .collect()
    }

    /// Each timed cycle's set-up time as if the host ran at nominal speed.
    pub fn scaled_setup_s(&self) -> Vec<f64> {
        self.setup_s
            .iter()
            .zip(&self.slowdowns)
            .map(|(t, s)| t / s)
            .collect()
    }
}

/// Runs `batch` on a `jobs`-wide fleet; `None` if any device-run panicked.
pub fn run_batch(batch: Batch, jobs: usize) -> (Option<Vec<RunResult>>, Vec<workload::RunKey>) {
    let Batch {
        scenarios, keys, ..
    } = batch;
    let results = catch_unwind(AssertUnwindSafe(|| Fleet::new(jobs).run(scenarios))).ok();
    (results, keys)
}

/// Counts the device-runs of batch `b` that failed: all of them after a
/// panic, otherwise those whose digest differs from the reference.
pub fn failures(
    reference: &mut Reference,
    b: usize,
    keys: &[workload::RunKey],
    results: Option<&[RunResult]>,
) -> u64 {
    match results {
        Some(results) if results.len() == keys.len() => {
            reference.mismatches(b, &workload::digests(keys, results))
        }
        _ => keys.len() as u64,
    }
}

/// Measures `kind` for `seconds` of host time from inputs generated from
/// `seed`.
pub fn run(kind: Kind, seed: u64, seconds: u64) -> Outcome {
    let size = Size::standard(kind);
    let base = kind.base();
    let jobs = kind.jobs();
    let mut reference = Reference::new(kind, size, seed);
    let mut outcome = Outcome {
        kind,
        jobs,
        cycle_rates: Vec::new(),
        setup_s: Vec::new(),
        slowdowns: Vec::new(),
        peak_rss_mib: Vec::new(),
        attempted: 0,
        failed: 0,
        cross_checks: Vec::new(),
        paper_err_pp: None,
        pinned: reference.pinned,
    };
    let mut savings: Vec<Option<PaperSavings>> = vec![None; size.batches];

    // One cycle sets up and then runs every batch once. Set-up generates
    // the inputs and builds every batch's Scenario values; it takes well
    // under a millisecond, so a cycle makes it SETUP_REPS times over and
    // keeps its fastest time, and runs the batches of the last.
    let mut run_cycle = |outcome: &mut Outcome| -> (u64, u64, u64) {
        let mut setup_ns = u64::MAX;
        let mut batches = Vec::new();
        for _ in 0..SETUP_REPS {
            let (built, ns) = timed(|| {
                let inputs = Inputs::generate(kind, size, seed);
                (0..size.batches)
                    .map(|b| workload::build(&inputs, b, base, &iotse_apps::catalog::app))
                    .collect::<Vec<Batch>>()
            });
            setup_ns = setup_ns.min(ns);
            batches = built;
        }
        let (mut dw, mut run_ns) = (0u64, 0u64);
        for (b, (batch, saving)) in batches.into_iter().zip(savings.iter_mut()).enumerate() {
            workload::clear_caches();
            dw += batch.device_windows();
            let n = batch.keys.len() as u64;
            let ((results, keys), ns) = timed(|| run_batch(batch, jobs));
            run_ns += ns;
            outcome.attempted += n;
            outcome.failed += failures(&mut reference, b, &keys, results.as_deref());
            if let Some(results) = &results {
                if kind == Kind::PaperSweep && saving.is_none() {
                    *saving = Some(workload::paper_savings(results));
                }
            }
        }
        (dw, run_ns, setup_ns)
    };

    // Memory first, while the heap is young: a few cycles, each after
    // handing freed pages back and resetting the high-water mark, so each
    // reading is one cycle's peak rather than what earlier cycles left
    // behind. They also warm the process up, and are not timed: the reset
    // costs page faults the timed cycles do not pay. A reading errs only
    // upwards: on a shared 2-vCPU host, single cycles of the same inputs
    // read up to 1.5 MiB above the rest. So the figure is their minimum.
    for _ in 0..RSS_CYCLES {
        if !crate::sys::reset_peak_rss() {
            break;
        }
        run_cycle(&mut outcome);
        outcome.peak_rss_mib.extend(crate::sys::peak_rss_mib());
    }

    // Then whole timed cycles until the time is spent, each followed by
    // the host-speed probe. Host speed drifts over seconds, so the rate
    // and set-up time are medians over cycles spread across the run.
    let deadline = now_ns() + seconds * 1_000_000_000;
    let mut cycle = 0usize;
    while cycle < MIN_CYCLES || now_ns() < deadline {
        let (dw, run_ns, setup_ns) = run_cycle(&mut outcome);
        let probe_ns = calibrate::probe_ns(jobs);
        if cycle > 0 || !outcome.peak_rss_mib.is_empty() {
            outcome.cycle_rates.push(dw as f64 / (run_ns as f64 / 1e9));
            outcome.setup_s.push(setup_ns as f64 / 1e9);
            outcome.slowdowns.push(calibrate::slowdown(probe_ns));
        }
        cycle += 1;
    }
    if outcome.peak_rss_mib.is_empty() {
        // No reset on this host: the process high-water mark.
        outcome.peak_rss_mib.extend(crate::sys::peak_rss_mib());
    }
    if kind == Kind::PaperSweep {
        let replicas: Vec<PaperSavings> = savings.iter().flatten().copied().collect();
        if replicas.len() == size.batches {
            outcome.paper_err_pp = Some(workload::paper_err_pp(&replicas));
        }
    }
    outcome
        .cross_checks
        .push(cross_check(&Inputs::generate(kind, size, seed), jobs));
    let (attempted, failed) = pin_check(kind);
    outcome.attempted += attempted;
    outcome.failed += failed;
    outcome
        .cross_checks
        .push(("default-seed digests match the pins".into(), failed == 0));
    outcome
}

/// Runs the default seed's batches once, untimed, against the digests
/// pinned in `pins/`, so every run is checked against fixed values
/// whatever `--seed` it measures. Returns `(attempted, failed)`.
pub fn pin_check(kind: Kind) -> (u64, u64) {
    let size = Size::standard(kind);
    let inputs = Inputs::generate(kind, size, DEFAULT_SEED);
    let mut reference = Reference::pinned(kind);
    let (mut attempted, mut failed) = (0, 0);
    for b in 0..size.batches {
        workload::clear_caches();
        let batch = workload::build(&inputs, b, kind.base(), &iotse_apps::catalog::app);
        attempted += batch.keys.len() as u64;
        let (results, keys) = run_batch(batch, kind.jobs());
        failed += failures(&mut reference, b, &keys, results.as_deref());
    }
    (attempted, failed)
}

/// Runs batch 0 once more and checks it against the path users take:
/// `fig10::run` and `fig11::run` for the paper sweep, `run_spec` for the
/// scenario-file workloads.
pub fn cross_check(inputs: &Inputs, jobs: usize) -> (String, bool) {
    workload::clear_caches();
    let mut batch = workload::build(inputs, 0, inputs.kind.base(), &iotse_apps::catalog::app);
    let specs = std::mem::take(&mut batch.specs);
    let spec_of = batch.spec_of.clone();
    let results = run_batch(batch, jobs).0;
    if inputs.kind == Kind::PaperSweep {
        let figures = figure_savings(inputs.replica_seed(0), inputs.size.windows);
        let ok = results.is_some_and(|r| workload::paper_savings(&r) == figures);
        ("fig10::run and fig11::run agree bitwise".into(), ok)
    } else {
        let reported: Vec<u64> = specs
            .iter()
            .map(|spec| {
                spans::time("scenario_spec.run_spec", NO_REQUEST, || {
                    run_spec(spec, &iotse_apps::catalog::app, jobs)
                })
                .checksum
            })
            .collect();
        let ok = results.is_some_and(|r| per_spec_checksums(&spec_of, &r) == reported);
        ("run_spec output checksums agree".into(), ok)
    }
}

/// Output checksum of each spec's runs, in device order.
fn per_spec_checksums(spec_of: &[usize], results: &[RunResult]) -> Vec<u64> {
    let specs = spec_of.iter().max().map_or(0, |m| m + 1);
    (0..specs)
        .map(|k| {
            let runs: Vec<RunResult> = spec_of
                .iter()
                .zip(results)
                .filter(|(s, _)| **s == k)
                .map(|(_, r)| r.clone())
                .collect();
            output_checksum(&runs)
        })
        .collect()
}

/// The headline savings as `fig10::run` and `fig11::run` compute them.
fn figure_savings(seed: u64, windows: u32) -> PaperSavings {
    workload::clear_caches();
    let cfg = ExperimentConfig {
        seed,
        windows,
        jobs: 1,
    };
    let f10 = spans::time("figures.fig10", NO_REQUEST, || fig10::run(&cfg));
    let f11 = spans::time("figures.fig11", NO_REQUEST, || fig11::run(&cfg));
    PaperSavings([
        f10.mean_batching_saving(),
        f10.mean_com_saving(),
        f11.mean_beam_saving(),
        f11.mean_bcom_saving(),
    ])
}

/// `(median, p25, p75)` of a sample set.
pub fn summary(values: &[f64]) -> (f64, f64, f64) {
    (
        median(values),
        quantile(values, 0.25),
        quantile(values, 0.75),
    )
}
