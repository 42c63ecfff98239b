//! Timer wheel vs reference heap: full-`RunResult` equivalence.
//!
//! The timer-wheel event queue replaced the binary heap on the engine's
//! hot path. Its contract is that nothing observable changes: every case
//! below requires the FNV-1a-64 digest of a `RunResult` (ledgers, stats,
//! counters, traces, telemetry) to equal a pin tied to the binary-heap
//! engine — across every scheme, at every fleet jobs level, and under the
//! configurations that stress the queue hardest: dense fault storms and
//! telemetry-on runs.
//!
//! The digest covers two parts. The first is the `Debug` rendering of
//! every `RunResult` field except `trace` (the last field, cut off the
//! rendering). The second is the trace as its public API reads it back:
//! every span's label string, kind, parent index, enter, exit, weight
//! bits and resolved fields, then every event's source string, kind,
//! span index, time and resolved fields. Storage layout (label ids, field
//! arenas, hash-table order) stays out of the digest, so a change to how
//! the trace stores what it records cannot move a pin, while any change
//! to what it records does.
//!
//! The chain of evidence for the pins:
//!
//! 1. The first pins hashed the whole `Debug` rendering of `RunResult`.
//!    They were captured while the executor could still be switched onto
//!    the heap (a `Scenario` option since removed), and these same cases
//!    asserted both engines against them before the heap left the
//!    runtime.
//! 2. The current pins were derived on a checkout of the last commit that
//!    still carried the first pins, in one run that asserted the first
//!    pin and computed this digest of the same `RunResult` for every
//!    case. The derivation code differed from the functions below only in
//!    the field accessor (the fields were then stored inline in each span
//!    and event). Each current pin therefore digests a `RunResult` already
//!    shown equal to the heap engine's.
//!
//! The queue-level oracle, `iotse_sim::queue::ReferenceQueue`, lives on in
//! the property suite (`tests/properties.rs`). `Debug` output can change
//! across Rust releases; if a toolchain bump moves every pin at once,
//! re-derive them from a commit whose pins still hold, never from a
//! changed engine.

use std::fmt::Write as _;

use iotse::core::scenario_spec::demo_scripts;
use iotse::prelude::*;
use iotse::sim::trace::{FieldValue, Label, SpanId, TraceLog};

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

/// The digest of `result`: the `Debug` rendering of every field but the
/// trace, then the trace through its public API (see the module doc).
fn digest(result: &RunResult) -> u64 {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    let bare = RunResult {
        trace: TraceLog::disabled(),
        ..result.clone()
    };
    let text = format!("{bare:?}");
    let tail = format!(", trace: {:?} }}", TraceLog::disabled());
    let head = text
        .strip_suffix(&tail)
        .expect("`trace` is the last field of RunResult");
    h.write_str(head).expect("hashing cannot fail");
    let t = &result.trace;
    write!(h, "\ntrace enabled={}\n", t.is_enabled()).expect("hashing cannot fail");
    for s in t.spans() {
        write!(
            h,
            "span {} {:?} {:?} {:?} {:?} {:016x}",
            t.label(s.label),
            s.kind,
            s.parent.and_then(SpanId::index),
            s.enter,
            s.exit,
            s.weight.to_bits()
        )
        .expect("hashing cannot fail");
        write_fields(&mut h, t, t.fields(s.fields));
    }
    for e in t.events() {
        write!(
            h,
            "event {} {:?} {:?} {:?}",
            t.label(e.source),
            e.kind,
            e.span.and_then(SpanId::index),
            e.time
        )
        .expect("hashing cannot fail");
        write_fields(&mut h, t, t.fields(e.fields));
    }
    h.0
}

/// One line of ` name=value` pairs, interned strings resolved.
fn write_fields(h: &mut Fnv1a, t: &TraceLog, fields: &[(Label, FieldValue)]) {
    for &(name, value) in fields {
        match value {
            FieldValue::Str(s) => write!(h, " {}=str:{}", t.label(name), t.label(s)),
            other => write!(h, " {}={other:?}", t.label(name)),
        }
        .expect("hashing cannot fail");
    }
    h.write_str("\n").expect("hashing cannot fail");
}

/// Pins tied to the binary-heap engine (see the module doc), in [`matrix`]
/// order.
const CLEAN_PINS: [u64; 5] = [
    0x32f7_2f0e_7c90_44d6,
    0xbf2a_2e4d_cb76_91a0,
    0xdbaa_36a8_d0f8_75f0,
    0x79e8_9a60_f39b_f9b2,
    0x96ef_fded_3c22_3bac,
];
/// As [`CLEAN_PINS`], under the demo fault scripts.
const STORM_PINS: [u64; 5] = [
    0x14db_5b72_d5f3_4166,
    0x6930_dbec_5b60_bb82,
    0xdcc2_2b5d_4752_7431,
    0x7b1f_8a4f_d1bf_a4fd,
    0x6d57_0892_f55c_764e,
];
/// As [`CLEAN_PINS`], with telemetry, metrics, trace and timelines on.
const TELEMETRY_PINS: [u64; 5] = [
    0x2557_c794_52f5_b64d,
    0x7165_30b4_ea0b_1c8e,
    0x6fa1_7a90_bc0f_1d8e,
    0x91b6_9244_49c6_971a,
    0xabf4_cf70_d2af_d0a6,
];

fn assert_pinned(result: &RunResult, pin: u64, what: &str) {
    assert_eq!(
        digest(result),
        pin,
        "{what}: RunResult digest moved off the heap-tied pin"
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
