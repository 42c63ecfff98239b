//! The fault layer's two contracts, end to end.
//!
//! **Off means off:** a scenario with no fault scripts must be bitwise
//! identical to the seed behavior from before the fault layer existed —
//! pinned counters, pinned energy, full-`RunResult` equality at every
//! `--jobs` level. **On means deterministic:** the committed demo fault
//! storm replays bitwise with pinned fault counters, and it is graded the
//! way every run is graded — through the scenario language. One
//! single-device spec per scheme (A2 + A7, two windows, seed 42,
//! `faults = "demo"`) carries a `qos` and an `energy-ratio` expectation;
//! its [`SpecReport`] is byte-identical at jobs 1/4/8, and the energy
//! bound splits the schemes: the deep-sleep offloaders (COM/BCOM) blow it,
//! the always-active schemes meet it.

use iotse::core::scenario_spec::demo_scripts;
use iotse::core::{compute_cache, run_spec, workload::WindowData, ScenarioSpec, SpecReport};
use iotse::prelude::*;

fn suite_apps(seed: u64) -> Vec<Box<dyn iotse::core::workload::Workload>> {
    catalog::apps(&[AppId::A2, AppId::A7], seed)
}

fn scenario(scheme: Scheme, seed: u64) -> Scenario {
    Scenario::new(scheme, suite_apps(seed))
        .windows(2)
        .seed(seed)
}

/// Counters every scheme produced at the seed commit (captured before the
/// fault layer landed). Any faults-off drift from these is a regression.
const PINNED: [(Scheme, u64, u64, u64, u64, &str); 5] = [
    (Scheme::Baseline, 4000, 4000, 4000, 48000, "11638173.042286"),
    (Scheme::Batching, 4000, 4, 4000, 48000, "5848873.667532"),
    (Scheme::Com, 4000, 4, 4000, 10, "1837791.182961"),
    (Scheme::Beam, 2000, 2000, 2000, 24000, "10936973.413943"),
    (Scheme::Bcom, 4000, 4, 4000, 10, "1837791.182961"),
];

#[test]
fn faults_off_pins_the_seed_behavior() {
    for (scheme, events, interrupts, reads, bytes, energy_uj) in PINNED {
        let r = scenario(scheme, 42).run();
        assert_eq!(r.events_executed, events, "{scheme}: events drifted");
        assert_eq!(r.interrupts, interrupts, "{scheme}: interrupts drifted");
        assert_eq!(r.sensor_reads, reads, "{scheme}: reads drifted");
        assert_eq!(r.bytes_transferred, bytes, "{scheme}: bytes drifted");
        assert_eq!(
            format!("{:.6}", r.total_energy().as_microjoules()),
            energy_uj,
            "{scheme}: energy drifted"
        );
        assert_eq!(r.faults, FaultStats::default(), "{scheme}: phantom faults");
    }
}

#[test]
fn empty_fault_list_is_bitwise_identical_at_every_jobs_level() {
    // `.faults(vec![])` compiles no plan — full-result equality with a
    // scenario that never mentions faults, serial and fleet-parallel.
    let plain = run_fleet(Scheme::ALL.iter().map(|&s| scenario(s, 42)).collect(), 1);
    for jobs in [1, 4, 8] {
        let empty = run_fleet(
            Scheme::ALL
                .iter()
                .map(|&s| scenario(s, 42).faults(vec![]))
                .collect(),
            jobs,
        );
        for (scheme, (p, e)) in Scheme::ALL.iter().zip(plain.iter().zip(&empty)) {
            assert_eq!(p, e, "{scheme}: empty fault list differs at --jobs {jobs}");
        }
    }
}

#[test]
fn faults_off_is_bitwise_identical_with_observability_on() {
    // Trace + metrics + timelines must also be untouched by the layer —
    // the fault counters only register when a plan exists.
    let instrument = |s: Scenario| s.with_trace().with_metrics().with_timeline();
    let plain = instrument(scenario(Scheme::Batching, 42)).run();
    let empty = instrument(scenario(Scheme::Batching, 42).faults(vec![])).run();
    assert_eq!(plain, empty);
    let report = plain.metrics.as_ref().expect("metrics were on");
    assert!(
        report
            .counters
            .iter()
            .all(|(name, _)| !name.contains("fault") && !name.contains("dropped")),
        "faults-off run registered fault metrics"
    );
}

/// Demo-storm fault counters per scheme: samples dropped, bytes
/// corrupted, faults injected.
const DEMO_FAULTS: [(Scheme, u64, u64, u64); 5] = [
    (Scheme::Baseline, 131, 464, 3196),
    (Scheme::Batching, 131, 600, 2732),
    (Scheme::Com, 131, 0, 2731),
    (Scheme::Beam, 76, 238, 2015),
    (Scheme::Bcom, 131, 0, 2731),
];

#[test]
fn faulted_runs_replay_bitwise_and_differ_from_clean_runs() {
    for (scheme, samples_dropped, bytes_corrupted, faults_injected) in DEMO_FAULTS {
        let faulted = |jobs: usize| {
            run_fleet(vec![scenario(scheme, 42).faults(demo_scripts())], jobs)
                .pop()
                .expect("one result")
        };
        let first = faulted(1);
        let pinned = FaultStats {
            faults_injected,
            samples_dropped,
            bytes_corrupted,
        };
        assert_eq!(
            first.faults, pinned,
            "{scheme}: demo fault counters drifted"
        );
        for jobs in [1, 4, 8] {
            assert_eq!(first, faulted(jobs), "{scheme}: drifted at --jobs {jobs}");
        }
        assert_ne!(
            first,
            scenario(scheme, 42).run(),
            "{scheme}: demo faults changed nothing"
        );
    }
}

/// The demo storm graded for one scheme: the suite pair on one device,
/// with the deadline-miss and energy-under-fault bounds.
fn demo_spec(scheme: &str) -> ScenarioSpec {
    let text = format!(
        "[scenario]\nname = \"demo-{scheme}\"\nseed = 42\nwindows = 2\ndevices = 1\n\
         scheme = \"{scheme}\"\nfaults = \"demo\"\n\n\
         [[mix]]\napps = [\"A2\", \"A7\"]\n\n\
         [[expect]]\nkind = \"qos\"\nmax_miss_ratio = 0.25\n\n\
         [[expect]]\nkind = \"energy-ratio\"\nmax_ratio = 1.5\n"
    );
    ScenarioSpec::parse(&text).unwrap_or_else(|e| panic!("demo spec for {scheme}: {e}"))
}

fn demo_report(scheme: &str, jobs: usize) -> SpecReport {
    run_spec(&demo_spec(scheme), &catalog::app, jobs)
}

/// Per scheme: faulted µJ, clean-twin µJ, measured energy ratio, and
/// whether the 1.5× bound holds.
const DEMO_GRADES: [(&str, &str, &str, &str, bool); 5] = [
    ("baseline", "12534993.086", "11638173.042", "1.077058", true),
    ("batching", "7379274.260", "5848873.668", "1.261657", true),
    ("com", "3738852.471", "1837791.183", "2.034427", false),
    ("beam", "10980977.577", "10936973.414", "1.004023", true),
    ("bcom", "3738852.471", "1837791.183", "2.034427", false),
];

#[test]
fn demo_report_is_byte_identical_at_every_jobs_level() {
    for (scheme, ..) in DEMO_GRADES {
        let serial = demo_report(scheme, 1);
        for jobs in [4, 8] {
            assert_eq!(
                serial,
                demo_report(scheme, jobs),
                "{scheme}: report differs at --jobs {jobs}"
            );
        }
    }
}

#[test]
fn demo_report_splits_the_schemes_on_the_energy_bound() {
    // Every fault kind is in the storm.
    let kinds: Vec<&str> = demo_scripts().iter().map(|s| s.kind.name()).collect();
    for kind in [
        "sensor-dropout",
        "sensor-stuck-at",
        "sensor-noise-burst",
        "link-corruption",
        "link-partition",
        "clock-drift",
        "interrupt-storm",
    ] {
        assert!(kinds.contains(&kind), "missing {kind}");
    }
    // The acceptance split: spurious interrupts wake COM/BCOM's
    // deep-sleeping CPU (a 4 mJ transition each), blowing the 1.5× energy
    // bound; Baseline's always-active CPU shrugs them off. No scheme
    // misses a deadline, clean or faulted.
    let mut ratios = Vec::new();
    for (scheme, total, clean, ratio, passes) in DEMO_GRADES {
        let report = demo_report(scheme, 4);
        assert_eq!(format!("{:.3}", report.total_uj), total, "{scheme}: energy");
        let clean_uj = report
            .clean_total_uj
            .expect("energy-ratio runs the clean twin");
        assert_eq!(format!("{clean_uj:.3}"), clean, "{scheme}: clean energy");
        assert_eq!((report.qos_missed, report.app_windows), (0, 4), "{scheme}");
        let [qos, energy] = &report.checks[..] else {
            panic!("{scheme}: expected two checks, got {:?}", report.checks);
        };
        assert_eq!((qos.name, qos.passed), ("qos", true), "{scheme}");
        assert_eq!(energy.name, "energy-ratio");
        assert_eq!(energy.measured, ratio, "{scheme}: energy ratio");
        assert_eq!(energy.passed, passes, "{scheme}: energy bound verdict");
        assert_eq!(report.passed(), passes, "{scheme}: overall verdict");
        ratios.push((report.total_uj / clean_uj, scheme));
    }
    // Ordered by energy ratio: BEAM < Baseline < Batching < COM = BCOM.
    ratios.sort_by(|a, b| a.0.total_cmp(&b.0));
    let order: Vec<&str> = ratios.iter().map(|&(_, s)| s).collect();
    assert_eq!(order, ["beam", "baseline", "batching", "com", "bcom"]);
    assert_eq!(ratios[3].0, ratios[4].0, "COM and BCOM must tie");
}

#[test]
fn noise_faulted_windows_produce_different_app_outputs() {
    // With the compute cache on (the default), a faulted window must be
    // recomputed, not served a clean window's memoized output. A noise
    // burst confined to window 1 — after the STA/LTA detector has primed
    // on a quiet window 0 — reads as strong motion and flips A7's quake
    // verdict, proving the corrupted window got its own fingerprint.
    let noisy = scenario(Scheme::Baseline, 42)
        .faults(vec![FaultScript::new(
            FaultKind::SensorNoiseBurst { amplitude: 10.0 },
            SimTime::from_secs(1),
            SimDuration::from_millis(500),
        )
        .seeded(9)])
        .run();
    let base = scenario(Scheme::Baseline, 42).run();
    assert_ne!(noisy.apps, base.apps, "noise changed no window output");
}

#[test]
fn sample_perturbations_change_the_fingerprint_directly() {
    use iotse::sensors::faults::{apply, SampleFault};
    use iotse::sensors::{SampleValue, SensorSample};
    use std::collections::BTreeMap;

    let sample = SensorSample {
        sensor: SensorId::S4,
        seq: 0,
        acquired_at: SimTime::ZERO,
        value: SampleValue::Scalar(1.0),
    };
    let window = |s: SensorSample| {
        let mut samples = BTreeMap::new();
        samples.insert(SensorId::S4, vec![s]);
        WindowData {
            window: 0,
            start: SimTime::ZERO,
            end: SimTime::ZERO + SimDuration::from_secs(1),
            samples,
        }
    };
    let clean_fp = compute_cache::fingerprint(&window(sample.clone()));
    let mut noisy = sample.clone();
    apply(&mut noisy, &SampleFault::Noise(0.5));
    assert_ne!(
        compute_cache::fingerprint(&window(noisy)),
        clean_fp,
        "noise-perturbed window kept the clean fingerprint"
    );
    let latched = SampleValue::Scalar(7.5);
    let mut stuck = sample;
    apply(&mut stuck, &SampleFault::StuckAt(&latched));
    assert_ne!(
        compute_cache::fingerprint(&window(stuck)),
        clean_fp,
        "stuck-at window kept the clean fingerprint"
    );
}

#[test]
fn compute_cache_on_and_off_agree_bitwise_in_faulted_runs() {
    // The memoization contract must survive fault injection: cache-on and
    // cache-off faulted fleets are bitwise equal for every scheme at every
    // jobs level. Untargeted sensor faults hit every sensor the A4+A9
    // pair uses; the link faults stress the transfer path too.
    let scripts = || {
        vec![
            FaultScript::new(
                FaultKind::SensorDropout { probability: 0.3 },
                SimTime::ZERO,
                SimDuration::from_millis(700),
            )
            .seeded(11),
            FaultScript::new(
                FaultKind::SensorNoiseBurst { amplitude: 3.0 },
                SimTime::from_millis(700),
                SimDuration::from_millis(700),
            )
            .seeded(12),
            FaultScript::new(
                FaultKind::LinkCorruption { per_byte: 0.1 },
                SimTime::ZERO,
                SimDuration::from_secs(2),
            )
            .seeded(13),
        ]
    };
    let fleet = |cache: bool| -> Vec<Scenario> {
        Scheme::ALL
            .iter()
            .map(|&scheme| {
                let s = Scenario::new(scheme, catalog::apps(&[AppId::A4, AppId::A9], 42))
                    .windows(2)
                    .seed(42)
                    .faults(scripts());
                if cache {
                    s
                } else {
                    s.without_compute_cache()
                }
            })
            .collect()
    };
    let off = run_fleet(fleet(false), 1);
    assert!(
        off.iter().any(|r| r.faults.samples_dropped > 0),
        "dropout never fired on the cache workload"
    );
    for jobs in [1, 4, 8] {
        let on = run_fleet(fleet(true), jobs);
        for (scheme, (o, n)) in Scheme::ALL.iter().zip(off.iter().zip(&on)) {
            assert_eq!(
                o, n,
                "{scheme}: faulted cache-on differs from cache-off at --jobs {jobs}"
            );
        }
    }
}
