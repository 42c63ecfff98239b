//! End-to-end tests for the windowed telemetry layer: determinism of the
//! series/alert stream across schemes and `--jobs` levels, the
//! interrupt-storm acceptance scenario, offline replay of the online
//! detectors, and golden-pinned `inspect diff` tables.
//!
//! To update goldens after an intentional model change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p iotse-bench --test telemetry
//! ```

use std::fs;
use std::path::PathBuf;

use iotse_bench::diff::{diff_requests, TelemetrySummary};
use iotse_bench::inspect::{inspect, run, InspectFormat, InspectRequest};
use iotse_core::{Scheme, TelemetryConfig};
use iotse_energy::attribution::Routine;
use iotse_energy::stacks::stack_series_name;
use iotse_sim::timeseries::{Alert, AlertKind, DriftDetector};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e} (run with UPDATE_GOLDEN=1)", name));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

/// The PR's acceptance scenario: the demo fault scripts (including the
/// 2 kHz interrupt storm at t=1.6s) against one scheme.
fn stormy(scheme: Scheme, jobs: usize) -> InspectRequest {
    InspectRequest {
        scheme,
        jobs,
        faults: iotse_core::scenario_spec::demo_scripts(),
        ..InspectRequest::default()
    }
}

/// The acceptance criterion, end to end: under the demo interrupt storm
/// the CUSUM drift detector fires on the interrupt series for COM and
/// BCOM (deep-sleep schemes, where 800 spurious wakes are orders of
/// magnitude over baseline) and stays quiet for BEAM (the already-active
/// CPU absorbs the storm under the 1 mJ floor).
#[test]
fn storm_trips_cusum_on_com_and_bcom_but_not_beam() {
    for scheme in [Scheme::Com, Scheme::Bcom] {
        let result = run(&stormy(scheme, 1));
        let tel = result.telemetry.as_ref().expect("telemetry on");
        assert!(
            tel.routine_drifted(Routine::Interrupt),
            "{scheme}: storm did not trip the interrupt CUSUM: {:?}",
            tel.alerts
        );
    }
    let beam = run(&stormy(Scheme::Beam, 1));
    let tel = beam.telemetry.as_ref().expect("telemetry on");
    assert!(
        tel.alerts.is_empty(),
        "BEAM must absorb the storm silently: {:?}",
        tel.alerts
    );
}

/// Series and alert streams are byte-identical across repeated runs and
/// `--jobs 1/4/8`, for every scheme, under the storm scenario (the
/// fair-weather loop lives in `tests/observability.rs`).
#[test]
fn stormy_series_and_alerts_are_jobs_invariant_for_every_scheme() {
    for scheme in Scheme::ALL {
        for format in [
            InspectFormat::Series,
            InspectFormat::Alerts,
            InspectFormat::Stacks,
        ] {
            let one = inspect(&stormy(scheme, 1), format);
            assert_eq!(
                one,
                inspect(&stormy(scheme, 4), format),
                "{scheme}/{} differs at --jobs 4",
                format.name()
            );
            assert_eq!(
                one,
                inspect(&stormy(scheme, 8), format),
                "{scheme}/{} differs at --jobs 8",
                format.name()
            );
            assert_eq!(
                one,
                inspect(&stormy(scheme, 1), format),
                "{scheme}/{} differs across runs",
                format.name()
            );
        }
    }
}

/// Detector state is a pure fold over the recorded series: replaying each
/// routine's stored series through a fresh detector with the same config
/// reproduces the run's drift alert stream exactly — timestamps, windows,
/// and CUSUM payloads included.
#[test]
fn offline_replay_reproduces_the_online_alert_stream() {
    for scheme in Scheme::ALL {
        let result = run(&stormy(scheme, 1));
        let tel = result.telemetry.as_ref().expect("telemetry on");
        let cfg = TelemetryConfig::default();
        let mut replayed: Vec<Alert> = Vec::new();
        // Evaluation order is window-major, Routine::ALL within a window.
        let mut detectors: Vec<DriftDetector> = Routine::ALL
            .iter()
            .map(|_| DriftDetector::new(cfg.detector))
            .collect();
        for w in 0..tel.stacks.recorded() {
            for (i, &routine) in Routine::ALL.iter().enumerate() {
                let series = tel.stacks.series(routine);
                let (at, value) = series.points()[w as usize];
                if let Some(drift) = detectors[i].update(value) {
                    replayed.push(Alert {
                        at,
                        window: w,
                        series: stack_series_name(routine),
                        kind: AlertKind::Drift(drift),
                    });
                }
            }
        }
        assert_eq!(
            replayed, tel.alerts,
            "{scheme}: offline replay diverged from the online stream"
        );
    }
}

/// Property harness over generated seeds: for arbitrary runs, folding a
/// detector over a prefix of the series then continuing equals folding
/// from scratch — no hidden state outside the fold.
#[test]
fn prop_detector_fold_has_no_hidden_state() {
    for case in 0..8u64 {
        let req = InspectRequest {
            seed: 1000 + case * 7,
            scheme: Scheme::ALL[(case % 5) as usize],
            ..InspectRequest::default()
        };
        let result = run(&req);
        let tel = result.telemetry.as_ref().expect("telemetry on");
        for &routine in &Routine::ALL {
            let points = tel.stacks.series(routine).points();
            let cfg = TelemetryConfig::default().detector;
            let mut whole = DriftDetector::new(cfg);
            let mut split = DriftDetector::new(cfg);
            let mid = points.len() / 2;
            let fired_whole: Vec<bool> = points
                .iter()
                .map(|&(_, v)| whole.update(v).is_some())
                .collect();
            let mut fired_split: Vec<bool> = points[..mid]
                .iter()
                .map(|&(_, v)| split.update(v).is_some())
                .collect();
            fired_split.extend(
                points[mid..]
                    .iter()
                    .map(|&(_, v)| split.update(v).is_some()),
            );
            assert_eq!(fired_whole, fired_split, "seed {} {routine}", req.seed);
        }
    }
}

/// A run diffed against itself reports zero deltas and `ok` verdicts on
/// every routine — pinned as a golden so the table's exact shape (column
/// layout, ranking, footer) cannot drift silently.
#[test]
fn self_diff_golden_reports_zero_deltas() {
    let req = InspectRequest {
        scheme: Scheme::Com,
        ..InspectRequest::default()
    };
    let table = diff_requests(&req, &req);
    for line in table.lines().skip(2).take(5) {
        assert!(line.contains("+0.000"), "nonzero delta in: {line}");
    }
    check("inspect_diff_self.txt", &table);
}

/// The acceptance diff — COM clean vs COM under the demo storm — pinned
/// as a golden: the interrupt row must carry a DRIFT(vs) verdict.
#[test]
fn storm_diff_golden_flags_interrupt_drift() {
    let base = InspectRequest {
        scheme: Scheme::Com,
        ..InspectRequest::default()
    };
    let table = diff_requests(&base, &stormy(Scheme::Com, 1));
    let interrupt_row = table
        .lines()
        .find(|l| l.starts_with("interrupt"))
        .expect("interrupt row");
    assert!(interrupt_row.ends_with("DRIFT(vs)"), "{interrupt_row}");
    check("inspect_diff_storm.txt", &table);
}

/// A summary survives the `--save`/`--baseline` JSON round trip bitwise,
/// so a file-based diff equals a live one.
#[test]
fn saved_summary_diffs_identically_to_live() {
    let result = run(&stormy(Scheme::Com, 1));
    let live = TelemetrySummary::from_result(&result).expect("telemetry on");
    let reloaded = TelemetrySummary::parse(&live.to_json()).expect("round trip");
    assert_eq!(reloaded, live);
}

/// Telescoping invariant, end to end through the executor: each routine's
/// series folds to the run's ledger total bitwise, windows partition the
/// run, and the workload watchdog counters are exact.
#[test]
fn stack_series_fold_to_ledger_totals_bitwise() {
    for scheme in Scheme::ALL {
        let result = run(&InspectRequest {
            scheme,
            ..InspectRequest::default()
        });
        let tel = result.telemetry.as_ref().expect("telemetry on");
        for &routine in &Routine::ALL {
            assert_eq!(
                tel.stacks.series(routine).fold_sum(),
                result.ledger.routine_total(routine).as_microjoules(),
                "{scheme} {routine}: windowed fold must reproduce the ledger"
            );
        }
        assert_eq!(tel.stacks.recorded(), 4, "{scheme}: all windows recorded");
    }
}
