//! Timer wheel vs reference heap: full-`RunResult` equivalence.
//!
//! The timer-wheel event queue replaced the binary heap on the engine's
//! hot path. Its contract is that nothing observable changes: every case
//! below requires the FNV-1a-64 digest of the complete `Debug` rendering
//! of a `RunResult` (ledgers, stats, counters, traces, telemetry) to equal
//! a pin captured from the binary-heap engine — across every scheme, at
//! every fleet jobs level, and under the configurations that stress the
//! queue hardest: dense fault storms and telemetry-on runs.
//!
//! The pins were captured while the executor could still be switched onto
//! the heap (a `Scenario` option since removed): these same cases asserted
//! both engines against them before the heap left the runtime.
//! The queue-level oracle, `iotse_sim::queue::ReferenceQueue`, lives on in
//! the property suite (`tests/properties.rs`). `Debug` output can change
//! across Rust releases; if a toolchain bump moves every pin at once,
//! re-derive them from the parent commit's heap path, never from the
//! wheel.
//!
//! `Debug` is derived for every type inside `RunResult`, so the rendering
//! prints every field `PartialEq` compares (the one hand-written
//! `PartialEq`, `FieldList`'s, compares the live prefix of a store whose
//! `Debug` prints all of it). Equal digests therefore imply equal results.

use std::fmt::Write as _;

use iotse::core::scenario_spec::demo_scripts;
use iotse::prelude::*;

/// Every scheme, with an app mix that exercises per-sample, batched, and
/// offloaded flows.
fn matrix() -> Vec<(Scheme, Vec<AppId>)> {
    vec![
        (Scheme::Baseline, vec![AppId::A2, AppId::A7]),
        (Scheme::Batching, vec![AppId::A2, AppId::A7]),
        (Scheme::Com, vec![AppId::A2]),
        (Scheme::Bcom, vec![AppId::A2, AppId::A7]),
        (Scheme::Beam, vec![AppId::A11, AppId::A6]),
    ]
}

fn scenario(scheme: Scheme, apps: &[AppId], seed: u64) -> Scenario {
    Scenario::new(scheme, catalog::apps(apps, seed))
        .windows(2)
        .seed(seed)
}

/// FNV-1a 64 over the bytes formatted into it.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// The digest of `result`'s full `Debug` rendering.
fn digest(result: &RunResult) -> u64 {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    write!(h, "{result:?}").expect("hashing cannot fail");
    h.0
}

/// Pins captured from the binary-heap engine, in [`matrix`] order.
const CLEAN_PINS: [u64; 5] = [
    0xc795_d321_4d61_3ba4,
    0x393f_7109_a747_380e,
    0x82ed_1519_3537_de7e,
    0x0aee_88d8_ffd3_4c18,
    0x6d31_170e_e744_ca82,
];
/// As [`CLEAN_PINS`], under the demo fault scripts.
const STORM_PINS: [u64; 5] = [
    0x0b62_5f5b_15db_f394,
    0x9c5c_c474_d902_5c88,
    0xe632_a60d_fcd9_c359,
    0x6c1c_b956_2524_941d,
    0x7c78_2e26_6bbe_8b4c,
];
/// As [`CLEAN_PINS`], with telemetry, metrics, trace and timelines on.
const TELEMETRY_PINS: [u64; 5] = [
    0x056d_1de0_efbb_f216,
    0xe85d_2554_d8ad_30ae,
    0xf212_86ed_81da_267b,
    0xac6e_b056_23a9_0cc4,
    0x2b86_6528_148f_8d97,
];

fn assert_pinned(result: &RunResult, pin: u64, what: &str) {
    assert_eq!(
        digest(result),
        pin,
        "{what}: RunResult digest moved off the heap-captured pin"
    );
}

#[test]
fn wheel_and_reference_heap_agree_for_every_scheme() {
    for ((scheme, apps), pin) in matrix().into_iter().zip(CLEAN_PINS) {
        let wheel = scenario(scheme, &apps, 42).run();
        assert_pinned(&wheel, pin, &format!("{scheme} x {apps:?}"));
    }
}

#[test]
fn wheel_and_reference_heap_agree_at_every_jobs_level() {
    for jobs in [1, 4, 8] {
        let fleet = matrix()
            .into_iter()
            .map(|(scheme, apps)| scenario(scheme, &apps, 42))
            .collect();
        let results = run_fleet(fleet, jobs);
        assert_eq!(results.len(), CLEAN_PINS.len());
        for (i, (r, pin)) in results.iter().zip(CLEAN_PINS).enumerate() {
            assert_pinned(
                r,
                pin,
                &format!("fleet slot {i} ({}) at --jobs {jobs}", r.scheme),
            );
        }
    }
}

#[test]
fn wheel_and_reference_heap_agree_under_the_demo_fault_storm() {
    // The demo scripts include a 2 kHz interrupt storm — thousands of
    // same-window events hammering the queue's tie-breaking.
    for ((scheme, apps), pin) in matrix().into_iter().zip(STORM_PINS) {
        let wheel = scenario(scheme, &apps, 42).faults(demo_scripts()).run();
        assert_pinned(&wheel, pin, &format!("faulted {scheme} x {apps:?}"));
    }
}

#[test]
fn wheel_and_reference_heap_agree_with_telemetry_and_observability_on() {
    for ((scheme, apps), pin) in matrix().into_iter().zip(TELEMETRY_PINS) {
        let wheel = scenario(scheme, &apps, 42)
            .with_telemetry()
            .with_metrics()
            .with_trace()
            .with_timeline()
            .run();
        assert_pinned(&wheel, pin, &format!("telemetry-on {scheme} x {apps:?}"));
    }
}
