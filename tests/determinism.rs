//! Determinism under concurrency.
//!
//! The whole experimental apparatus rests on one invariant: a scenario's
//! result is a pure function of its configuration (scheme, apps, seed,
//! windows) — never of wall-clock time, thread scheduling, or how many
//! workers the fleet happens to use. These tests pin that invariant for
//! every scheme over representative app sets, comparing full `RunResult`
//! values (energy ledgers, app windows, traces, counters) with `==`.

use iotse::prelude::*;

/// The scheme × app-set matrix covered: every scheme, both a light and a
/// compute-heavy composition where the scheme admits them.
fn matrix() -> Vec<(Scheme, Vec<AppId>)> {
    vec![
        (Scheme::Baseline, vec![AppId::A2]),
        (Scheme::Baseline, vec![AppId::A8]),
        (Scheme::Baseline, vec![AppId::A11, AppId::A6]),
        (Scheme::Batching, vec![AppId::A2]),
        (Scheme::Batching, vec![AppId::A7]),
        (Scheme::Com, vec![AppId::A2]),
        (Scheme::Com, vec![AppId::A8]),
        (Scheme::Beam, vec![AppId::A2, AppId::A7]),
        (Scheme::Beam, vec![AppId::A11, AppId::A6]),
        (Scheme::Bcom, vec![AppId::A2, AppId::A7]),
        (Scheme::Bcom, vec![AppId::A11, AppId::A6, AppId::A1]),
    ]
}

fn scenario(scheme: Scheme, apps: &[AppId], seed: u64) -> Scenario {
    Scenario::new(scheme, catalog::apps(apps, seed))
        .windows(2)
        .seed(seed)
}

#[test]
fn same_seed_same_result_across_runs() {
    for (scheme, apps) in matrix() {
        let first = scenario(scheme, &apps, 42).run();
        let second = scenario(scheme, &apps, 42).run();
        assert_eq!(first, second, "{scheme} x {apps:?} must replay exactly");
    }
}

#[test]
fn results_are_identical_at_every_jobs_level() {
    let fleet_of = |seed: u64| {
        matrix()
            .into_iter()
            .map(|(scheme, apps)| scenario(scheme, &apps, seed))
            .collect::<Vec<_>>()
    };
    let serial = run_fleet(fleet_of(42), 1);
    for jobs in [4, 8] {
        let parallel = run_fleet(fleet_of(42), jobs);
        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(
                s,
                p,
                "fleet slot {i} ({} x {:?}) differs at --jobs {jobs}",
                s.scheme,
                matrix()[i].1
            );
        }
    }
}

#[test]
fn repeated_parallel_runs_agree_with_each_other() {
    // Two independent 8-way runs: exercises the signal cache warm (second
    // run) vs cold (first run) paths producing identical artifacts.
    let fleet_of = || {
        matrix()
            .into_iter()
            .map(|(scheme, apps)| scenario(scheme, &apps, 7))
            .collect::<Vec<_>>()
    };
    assert_eq!(run_fleet(fleet_of(), 8), run_fleet(fleet_of(), 8));
}

#[test]
fn different_seeds_are_not_conflated() {
    // Guards against a cache keyed too coarsely: two seeds must not share
    // sensor streams. (Energy is structural in this model, so compare the
    // full result — sample values and kernel outputs differ.)
    for (scheme, apps) in matrix() {
        let a = scenario(scheme, &apps, 42).run();
        let b = scenario(scheme, &apps, 43).run();
        assert_ne!(a, b, "{scheme} x {apps:?}: seeds 42/43 conflated");
    }
}

#[test]
fn compute_cache_on_and_off_agree_bitwise_at_every_jobs_level() {
    // The cross-scheme compute cache may only *skip* recomputing pure
    // kernels — a full-result comparison (ledger, outputs, traces spans,
    // counters) between cache-off and cache-on fleets must hold for every
    // scheme and every worker count. The app set mixes memoizable (A1, A4,
    // A10) and stateful non-memoizable (A8) workloads.
    let apps = [AppId::A1, AppId::A4, AppId::A8, AppId::A10];
    let fleet = |cache: bool| -> Vec<Scenario> {
        Scheme::ALL
            .iter()
            .map(|&scheme| {
                let s = scenario(scheme, &apps, 42);
                if cache {
                    s
                } else {
                    s.without_compute_cache()
                }
            })
            .collect()
    };
    let off = run_fleet(fleet(false), 1);
    for jobs in [1, 4, 8] {
        let on = run_fleet(fleet(true), jobs);
        assert_eq!(off.len(), on.len());
        for (scheme, (o, n)) in Scheme::ALL.iter().zip(off.iter().zip(&on)) {
            assert_eq!(
                o, n,
                "{scheme}: cache-on differs from cache-off at --jobs {jobs}"
            );
        }
    }
}

#[test]
fn submission_order_is_preserved_under_load() {
    // More scenarios than workers, deliberately uneven costs: results must
    // come back in submission order, not completion order.
    let seeds: Vec<u64> = (0..12).collect();
    let fleet = seeds
        .iter()
        .map(|&seed| scenario(Scheme::Batching, &[AppId::A2], seed))
        .collect();
    let results = run_fleet(fleet, 4);
    for (seed, r) in seeds.iter().zip(&results) {
        assert_eq!(r.seed, *seed, "slot for seed {seed} out of order");
    }
}

/// A fleet mixing every way lockstep members may differ — scheme and flow,
/// calibration, DMA, observability — with inputs that must keep them
/// apart: BEAM's merged sensors, unequal fault scripts, other worlds.
fn mixed_fleet() -> Vec<Scenario> {
    let seed = 42;
    let mut fleet = Vec::new();
    // Figure 10 cells: the single-app schemes share each app's inputs.
    for app in [AppId::A2, AppId::A4, AppId::A8] {
        for scheme in Scheme::SINGLE_APP {
            fleet.push(scenario(scheme, &[app], seed));
        }
    }
    // Figure 11 cells: BEAM merges shared sensors, so it stands apart
    // from Baseline and BCOM on the same apps.
    for combo in [[AppId::A2, AppId::A7], [AppId::A4, AppId::A5]] {
        for scheme in Scheme::MULTI_APP {
            fleet.push(scenario(scheme, &combo, seed));
        }
    }
    // Same-seed calibration variants join the A2 cells above.
    let slow_read = Calibration {
        mcu_read_overhead: SimDuration::from_micros(40),
        ..Calibration::paper()
    };
    for cal in [Calibration::paper().with_dma(), slow_read] {
        fleet.push(scenario(Scheme::Batching, &[AppId::A2], seed).calibration(cal));
    }
    // Faulted members: two with equal scripts, one whose dropout stream
    // is reseeded, and so reads differently.
    let demo = iotse::core::scenario_spec::demo_scripts();
    let mut reseeded = demo.clone();
    reseeded[0] = reseeded[0].clone().seeded(99);
    for (scheme, scripts) in [
        (Scheme::Baseline, &demo),
        (Scheme::Com, &demo),
        (Scheme::Batching, &reseeded),
    ] {
        fleet.push(scenario(scheme, &[AppId::A2, AppId::A7], seed).faults(scripts.clone()));
    }
    // A flaky world: failed read attempts replay to the later members.
    let flaky = WorldConfig {
        sensor_error_rate: 0.2,
        ..WorldConfig::default()
    };
    for scheme in [Scheme::Baseline, Scheme::Batching, Scheme::Com] {
        fleet.push(scenario(scheme, &[AppId::A2], seed).world(flaky.clone()));
    }
    // Trace and telemetry on a single member of the A2+A7 group.
    fleet.push(
        scenario(Scheme::Com, &[AppId::A2, AppId::A7], seed)
            .with_trace()
            .with_metrics()
            .with_telemetry(),
    );
    fleet
}

#[test]
fn fleet_results_equal_solo_runs_at_every_jobs_level() {
    // Lockstep groups share one world and one engine; each member's
    // result must still be bitwise what it gets running alone.
    let solo: Vec<RunResult> = mixed_fleet().into_iter().map(Scenario::run).collect();
    for jobs in [1, 2, 4, 8] {
        let fleet = run_fleet(mixed_fleet(), jobs);
        assert_eq!(fleet.len(), solo.len());
        for (i, (f, s)) in fleet.iter().zip(&solo).enumerate() {
            assert_eq!(
                f, s,
                "fleet slot {i} ({} seed {}) differs from its solo run at --jobs {jobs}",
                s.scheme, s.seed
            );
        }
    }
}
