//! Property-based tests over the workspace's core invariants.
//!
//! The container has no registry access, so instead of `proptest` these use
//! a small in-repo harness: each property runs over a few hundred random
//! cases drawn from the workspace's own deterministic [`SimRng`], with the
//! failing case's seed printed on assertion failure — rerun with that seed
//! to replay the exact case.

use std::collections::BTreeMap;

use iotse::apps::kernels::coap::{CoapCode, CoapMessage, CoapOption, CoapType};
use iotse::apps::kernels::jpeg;
use iotse::apps::kernels::json::Json;
use iotse::apps::kernels::sync::{chunk, ChunkConfig};
use iotse::energy::attribution::{Device, Routine};
use iotse::energy::{EnergyLedger, Power, PowerTrace};
use iotse::prelude::*;
use iotse::sim::metrics::MetricsRegistry;
use iotse::sim::queue::{EventQueue, ReferenceQueue};
use iotse::sim::rng::SimRng;

/// Runs `body` over `cases` random cases; the per-case RNG is derived from
/// the case index so failures name a replayable case number.
fn forall(cases: u64, mut body: impl FnMut(u64, &mut SimRng)) {
    for case in 0..cases {
        let mut rng = SimRng::seed_from_u64(0xF0F0_0000 ^ case);
        body(case, &mut rng);
    }
}

// ---------------------------------------------------------------- sim ----

/// The event queue pops in non-decreasing time order with FIFO ties,
/// whatever the insertion order.
#[test]
fn event_queue_orders_any_schedule() {
    forall(200, |case, rng| {
        let n = rng.gen_range(1..200usize);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(SimTime::from_nanos(rng.gen_range(0..1_000u64)), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some(s) = q.pop() {
            if let Some((lt, li)) = last {
                assert!(s.time >= lt, "case {case}: time went backwards");
                if s.time == lt {
                    assert!(s.item > li, "case {case}: FIFO violated among ties");
                }
            }
            last = Some((s.time, s.item));
        }
    });
}

/// The timer wheel (`EventQueue`) is drained identically to the binary-heap
/// oracle (`ReferenceQueue`) — seq-for-seq, time-for-time — under random
/// schedule/pop interleavings mixing near-future, far-future
/// (overflow-heap), and "past" times (at or before an already-advanced
/// cursor), dense ties, and pushes issued mid-drain. This is the oracle
/// that licenses the wheel as the engine's only queue.
#[test]
fn timer_wheel_matches_reference_heap_on_any_interleaving() {
    forall(150, |case, rng| {
        let mut wheel = EventQueue::new();
        let mut heap = ReferenceQueue::new();
        // Monotone low-water mark a real engine would impose (times are
        // never scheduled before the last popped instant). Tracking it
        // lets the generator aim pushes *at* the frontier — the "past"
        // (≤ cursor) paths of the wheel — without violating the contract.
        let mut frontier = SimTime::ZERO;
        let ops = rng.gen_range(50..500u32);
        for op in 0..ops {
            let roll = rng.gen_range(0..100u32);
            if roll < 35 && !heap.is_empty() {
                let (a, b) = (wheel.pop(), heap.pop());
                let b = b.expect("heap non-empty");
                let a = a.expect("wheel drained early");
                assert_eq!(
                    (a.time, a.seq, a.item),
                    (b.time, b.seq, b.item),
                    "case {case} op {op}: pop diverged"
                );
                frontier = a.time;
            } else if roll < 45 && !heap.is_empty() {
                // pop_at: sometimes the due head, sometimes a miss.
                let t = if rng.gen_bool(0.7) {
                    heap.peek_time().expect("non-empty")
                } else {
                    frontier + SimDuration::from_nanos(rng.gen_range(0..1000u64))
                };
                let (a, b) = (wheel.pop_at(t), heap.pop_at(t));
                match (&a, &b) {
                    (Some(x), Some(y)) => assert_eq!(
                        (x.time, x.seq, x.item),
                        (y.time, y.seq, y.item),
                        "case {case} op {op}: pop_at diverged"
                    ),
                    (None, None) => {}
                    _ => panic!("case {case} op {op}: pop_at presence diverged"),
                }
                if let Some(s) = a {
                    frontier = s.time;
                }
            } else {
                // Push at a magnitude spanning every wheel level plus the
                // overflow heap; ties land often at small magnitudes.
                let magnitude = rng.gen_range(0..63u32);
                let offset = rng.gen_range(0..(2u64 << magnitude));
                let t = frontier.saturating_add(SimDuration::from_nanos(offset));
                wheel.push(t, op);
                heap.push(t, op);
            }
            assert_eq!(
                wheel.peek_time(),
                heap.peek_time(),
                "case {case} op {op}: peek diverged"
            );
            assert_eq!(wheel.len(), heap.len(), "case {case} op {op}");
        }
        // Full drain must agree to the last entry.
        while let Some(b) = heap.pop() {
            let a = wheel.pop().expect("wheel drained early");
            assert_eq!(
                (a.time, a.seq, a.item),
                (b.time, b.seq, b.item),
                "case {case}: final drain diverged"
            );
        }
        assert!(wheel.is_empty());
        assert_eq!(wheel.scheduled_total(), heap.scheduled_total());
    });
}

/// Clearing either queue mid-flight preserves its sequence counter, and a reused queue orders a fresh schedule exactly like a new
/// one.
#[test]
fn timer_wheel_clear_matches_reference_heap() {
    forall(60, |case, rng| {
        let mut wheel = EventQueue::new();
        let mut heap = ReferenceQueue::new();
        for i in 0..rng.gen_range(1..100u64) {
            let magnitude = rng.gen_range(1..60u32);
            let t = SimTime::from_nanos(rng.gen_range(0..1u64 << magnitude));
            wheel.push(t, i);
            heap.push(t, i);
        }
        for _ in 0..rng.gen_range(0..20u32) {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a.map(|s| (s.time, s.seq)), b.map(|s| (s.time, s.seq)));
        }
        wheel.clear();
        heap.clear();
        assert!(wheel.is_empty() && heap.is_empty());
        assert_eq!(wheel.scheduled_total(), heap.scheduled_total());
        for i in 0..rng.gen_range(1..50u64) {
            let t = SimTime::from_nanos(rng.gen_range(0..1_000_000u64));
            assert_eq!(wheel.push(t, i), heap.push(t, i), "case {case}");
        }
        while let Some(b) = heap.pop() {
            let a = wheel.pop().expect("wheel drained early");
            assert_eq!((a.time, a.seq, a.item), (b.time, b.seq, b.item));
        }
        assert!(wheel.is_empty());
    });
}

/// Duration arithmetic is associative with respect to summation order.
#[test]
fn durations_sum_in_any_order() {
    forall(200, |case, rng| {
        let mut nanos: Vec<u64> = (0..rng.gen_range(1..50usize))
            .map(|_| rng.gen_range(0..1_000_000_000u64))
            .collect();
        let forward: SimDuration = nanos.iter().map(|&n| SimDuration::from_nanos(n)).sum();
        nanos.reverse();
        let backward: SimDuration = nanos.iter().map(|&n| SimDuration::from_nanos(n)).sum();
        assert_eq!(forward, backward, "case {case}");
    });
}

/// Seed-tree streams are stable and label-independent.
#[test]
fn seed_tree_is_pure() {
    forall(500, |case, rng| {
        let seed: u64 = rng.gen();
        let len = rng.gen_range(1..20usize);
        let label: String = (0..len)
            .map(|_| {
                let c = rng.gen_range(0..27u32);
                if c == 26 {
                    '/'
                } else {
                    char::from(b'a' + c as u8)
                }
            })
            .collect();
        let a = SeedTree::new(seed).derive(&label);
        let b = SeedTree::new(seed).derive(&label);
        assert_eq!(a, b, "case {case}: label {label:?}");
    });
}

// ------------------------------------------------------------- energy ----

/// Splitting an interval never changes the integral:
/// E(a, c) = E(a, b) + E(b, c).
#[test]
fn power_trace_integral_is_additive() {
    forall(200, |case, rng| {
        let mut t = SimTime::ZERO;
        let mut trace = PowerTrace::new(t, Power::from_milliwatts(100.0));
        for _ in 0..rng.gen_range(1..40usize) {
            t += SimDuration::from_micros(rng.gen_range(1..1_000u64));
            trace.set(
                t,
                Power::from_milliwatts(f64::from(rng.gen_range(0..10_000u32))),
            );
        }
        let end = t + SimDuration::from_micros(1);
        trace.finish(end);
        let split = rng.gen_range(0..1_000_000u64);
        let mid = SimTime::from_nanos(split % end.as_nanos().max(1));
        let whole = trace.energy().as_microjoules();
        let parts = trace.energy_between(SimTime::ZERO, mid).as_microjoules()
            + trace.energy_between(mid, end).as_microjoules();
        assert!(
            (whole - parts).abs() < 1e-6,
            "case {case}: {whole} vs {parts}"
        );
    });
}

/// Ledger merge is addition: total(a ∪ b) = total(a) + total(b).
#[test]
fn ledger_merge_adds() {
    forall(200, |case, rng| {
        let devices = Device::ALL;
        let routines = Routine::ALL;
        let mut a = EnergyLedger::new();
        let mut b = EnergyLedger::new();
        for i in 0..rng.gen_range(0..40usize) {
            let d = rng.gen_range(0..4usize);
            let r = rng.gen_range(0..5usize);
            let uj = rng.gen_range(0..1_000_000u32);
            let target = if i % 2 == 0 { &mut a } else { &mut b };
            target.charge(
                devices[d],
                routines[r],
                Energy::from_microjoules(f64::from(uj)),
            );
        }
        let sum = a.total() + b.total();
        let mut merged = a.clone();
        merged.merge(&b);
        assert!(
            (merged.total().as_microjoules() - sum.as_microjoules()).abs() < 1e-6,
            "case {case}"
        );
    });
}

/// The sorted-map ledger the dense [`EnergyLedger`] replaced: one entry
/// per charged `(Device, Routine)` cell, every total a left-to-right sum
/// over the entries in key order.
#[derive(Debug, Clone, Default)]
struct MapLedger(BTreeMap<(Device, Routine), Energy>);

impl MapLedger {
    fn charge(&mut self, d: Device, r: Routine, e: Energy) {
        *self.0.entry((d, r)).or_insert(Energy::ZERO) += e;
    }
    fn merge(&mut self, other: &MapLedger) {
        for (&(d, r), &e) in &other.0 {
            self.charge(d, r, e);
        }
    }
    fn sum(&self, keep: impl Fn(Device, Routine) -> bool) -> Energy {
        self.0
            .iter()
            .filter(|(&(d, r), _)| keep(d, r))
            .map(|(_, &e)| e)
            .sum()
    }
}

/// Charges one random cell of both ledgers. Energies mix integers, zero
/// and fractions of mixed magnitude, so sums round and their order shows.
fn charge_both(rng: &mut SimRng, dense: &mut EnergyLedger, reference: &mut MapLedger) {
    let d = Device::ALL[rng.gen_range(0..4usize)];
    let r = Routine::ALL[rng.gen_range(0..5usize)];
    let uj = match rng.gen_range(0..4u32) {
        0 => 0.0,
        1 => f64::from(rng.gen_range(0..1_000_000u32)),
        2 => rng.gen_range(0.0..1e-3f64),
        _ => rng.gen_range(0.0..1e9f64),
    };
    dense.charge(d, r, Energy::from_microjoules(uj));
    reference.charge(d, r, Energy::from_microjoules(uj));
}

/// The dense ledger agrees bitwise with the sorted-map reference under any
/// sequence of charges and merges: every total, cell, the iteration, the
/// exported gauges and the `Debug` rendering.
#[test]
fn dense_ledger_matches_a_sorted_map_reference() {
    const DEVICE_GAUGES: [&str; 4] = [
        "iotse_energy_device_cpu_microjoules",
        "iotse_energy_device_mcu_microjoules",
        "iotse_energy_device_link_microjoules",
        "iotse_energy_device_sensor_microjoules",
    ];
    const ROUTINE_GAUGES: [&str; 5] = [
        "iotse_energy_routine_data_collection_microjoules",
        "iotse_energy_routine_interrupt_microjoules",
        "iotse_energy_routine_data_transfer_microjoules",
        "iotse_energy_routine_app_compute_microjoules",
        "iotse_energy_routine_idle_microjoules",
    ];
    let bits = |e: Energy| e.as_microjoules().to_bits();
    forall(300, |case, rng| {
        let mut dense = EnergyLedger::new();
        let mut reference = MapLedger::default();
        for _ in 0..rng.gen_range(0..60usize) {
            if rng.gen_range(0..8u32) == 0 {
                let mut other = EnergyLedger::new();
                let mut other_ref = MapLedger::default();
                for _ in 0..rng.gen_range(0..12usize) {
                    charge_both(rng, &mut other, &mut other_ref);
                }
                dense.merge(&other);
                reference.merge(&other_ref);
            } else {
                charge_both(rng, &mut dense, &mut reference);
            }
        }
        assert_eq!(
            bits(dense.total()),
            bits(reference.sum(|_, _| true)),
            "case {case}: total"
        );
        for r in Routine::ALL {
            assert_eq!(
                bits(dense.routine_total(r)),
                bits(reference.sum(|_, x| x == r)),
                "case {case}: routine_total({r})"
            );
        }
        for d in Device::ALL {
            assert_eq!(
                bits(dense.device_total(d)),
                bits(reference.sum(|x, _| x == d)),
                "case {case}: device_total({d})"
            );
            for r in Routine::ALL {
                let want = reference.0.get(&(d, r)).copied().unwrap_or(Energy::ZERO);
                assert_eq!(
                    bits(dense.cell(d, r)),
                    bits(want),
                    "case {case}: cell({d}, {r})"
                );
            }
        }
        let iterated: Vec<(Device, Routine, u64)> =
            dense.iter().map(|(d, r, e)| (d, r, bits(e))).collect();
        let expected: Vec<(Device, Routine, u64)> = reference
            .0
            .iter()
            .map(|(&(d, r), &e)| (d, r, bits(e)))
            .collect();
        assert_eq!(iterated, expected, "case {case}: iter");
        let mut reg = MetricsRegistry::new();
        dense.export_metrics(&mut reg);
        let report = reg.snapshot();
        let gauge = |name: &str| report.gauge(name).map(f64::to_bits);
        assert_eq!(
            gauge("iotse_energy_total_microjoules"),
            Some(bits(reference.sum(|_, _| true))),
            "case {case}: total gauge"
        );
        for (d, name) in Device::ALL.into_iter().zip(DEVICE_GAUGES) {
            assert_eq!(
                gauge(name),
                Some(bits(reference.sum(|x, _| x == d))),
                "case {case}: {name}"
            );
        }
        for (r, name) in Routine::ALL.into_iter().zip(ROUTINE_GAUGES) {
            assert_eq!(
                gauge(name),
                Some(bits(reference.sum(|_, x| x == r))),
                "case {case}: {name}"
            );
        }
        assert_eq!(
            format!("{dense:?}"),
            format!("EnergyLedger {{ cells: {:?} }}", reference.0),
            "case {case}: Debug"
        );
    });
}

// ------------------------------------------------------------ kernels ----

/// Builds a random JSON document of bounded depth.
fn arb_json(rng: &mut SimRng, depth: u32) -> Json {
    let pick = if depth == 0 {
        rng.gen_range(0..4u32)
    } else {
        rng.gen_range(0..6u32)
    };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.gen()),
        2 => {
            let x = rng.gen_range(-1e12..1e12f64);
            Json::Number((x * 1e4).round() / 1e4)
        }
        3 => {
            let len = rng.gen_range(0..20usize);
            Json::String(
                (0..len)
                    .map(|_| char::from(rng.gen_range(b' '..=b'~')))
                    .collect(),
            )
        }
        4 => Json::Array(
            (0..rng.gen_range(0..6usize))
                .map(|_| arb_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Object(
            (0..rng.gen_range(0..6usize))
                .map(|_| {
                    let klen = rng.gen_range(1..8usize);
                    let key: String = (0..klen)
                        .map(|_| char::from(b'a' + rng.gen_range(0..26u8)))
                        .collect();
                    (key, arb_json(rng, depth - 1))
                })
                .collect(),
        ),
    }
}

/// Any JSON document we can build round-trips through text.
#[test]
fn json_round_trips() {
    forall(300, |case, rng| {
        let doc = arb_json(rng, 3);
        let text = doc.to_text();
        let back = Json::parse(&text).expect("own output parses");
        assert_eq!(back, doc, "case {case}");
    });
}

/// Any well-formed CoAP message round-trips through the wire format.
#[test]
fn coap_round_trips() {
    forall(300, |case, rng| {
        let mut number = 0u16;
        let mut options = Vec::new();
        for _ in 0..rng.gen_range(0..6usize) {
            let delta = rng.gen_range(1..700u16);
            let vlen = rng.gen_range(0..300usize);
            number = number.saturating_add(delta);
            options.push(CoapOption {
                number,
                value: (0..vlen).map(|_| rng.gen()).collect(),
            });
        }
        let msg = CoapMessage {
            mtype: CoapType::NonConfirmable,
            code: CoapCode::CONTENT,
            message_id: rng.gen(),
            token: (0..rng.gen_range(0..=8usize)).map(|_| rng.gen()).collect(),
            options,
            payload: (0..rng.gen_range(0..200usize)).map(|_| rng.gen()).collect(),
        };
        let back = CoapMessage::decode(&msg.encode()).expect("decodes");
        assert_eq!(back, msg, "case {case}");
    });
}

/// The JPEG pipeline round-trips any image above a quality floor, and the
/// decoder never panics on its own encoder's output.
#[test]
fn jpeg_round_trips_with_bounded_loss() {
    forall(40, |case, rng| {
        let w = rng.gen_range(8..40usize);
        let h = rng.gen_range(8..40usize);
        let quality = rng.gen_range(30..=95u8);
        let mut x: u64 = rng.gen::<u64>() | 1;
        let pixels: Vec<u8> = (0..w * h)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 0xFF) as u8
            })
            .collect();
        let decoded = jpeg::decode(&jpeg::encode(&pixels, w, h, quality)).expect("decodes");
        assert_eq!(decoded.len(), pixels.len(), "case {case}");
        // Pure noise is the worst case for a DCT codec; demand only a
        // sanity floor.
        let psnr = jpeg::psnr(&pixels, &decoded);
        assert!(psnr > 10.0, "case {case}: psnr {psnr}");
    });
}

/// The IDCT inverts the FDCT for arbitrary blocks.
#[test]
fn idct_inverts_fdct() {
    forall(300, |case, rng| {
        let mut block = [0.0f64; 64];
        for v in &mut block {
            *v = rng.gen_range(-128.0..128.0f64);
        }
        let back = jpeg::idct(&jpeg::fdct(&block));
        for (a, b) in block.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-6, "case {case}: {a} vs {b}");
        }
    });
}

/// Content-defined chunking partitions the input exactly, within size
/// bounds.
#[test]
fn chunking_partitions_any_input() {
    forall(100, |case, rng| {
        let data: Vec<u8> = (0..rng.gen_range(0..8_000usize))
            .map(|_| rng.gen())
            .collect();
        let cfg = ChunkConfig::default();
        let chunks = chunk(&data, &cfg);
        let mut pos = 0;
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.offset, pos, "case {case}");
            assert!(c.len <= cfg.max_chunk, "case {case}");
            if i + 1 != chunks.len() {
                assert!(c.len >= cfg.min_chunk, "case {case}");
            }
            pos += c.len;
        }
        assert_eq!(pos, data.len(), "case {case}");
    });
}

// ----------------------------------------------------------- platform ----

/// Whatever the seed and scheme, an instrumented run's span tree is
/// well-formed: exactly one root, parents precede and contain their
/// children in time, every span exits at or after its enter, every charge
/// is reachable from the root, and folding the weights reproduces the
/// ledger total exactly (no tolerance).
#[test]
fn span_trees_are_well_formed_for_any_seed() {
    use iotse::sim::trace::SpanId;
    let schemes = [
        Scheme::Baseline,
        Scheme::Batching,
        Scheme::Com,
        Scheme::Beam,
        Scheme::Bcom,
    ];
    forall(10, |case, rng| {
        let seed = rng.gen_range(0..5_000u64);
        let scheme = schemes[case as usize % schemes.len()];
        let result = Scenario::new(scheme, catalog::apps(&[AppId::A2], seed))
            .windows(1)
            .seed(seed)
            .with_trace()
            .run();
        let trace = &result.trace;
        let spans = trace.spans();
        assert!(!spans.is_empty(), "case {case}: no spans recorded");
        let mut roots = 0;
        for (i, span) in spans.iter().enumerate() {
            let exit = span
                .exit
                .unwrap_or_else(|| panic!("case {case} {scheme}: span {i} left open"));
            assert!(
                exit >= span.enter,
                "case {case} {scheme}: span {i} exits before entering"
            );
            assert!(
                span.weight >= 0.0,
                "case {case} {scheme}: span {i} has negative energy"
            );
            match span.parent {
                None => roots += 1,
                Some(p) => {
                    let p = p.index().expect("recorded parents are live ids");
                    assert!(p < i, "case {case} {scheme}: parent enters after child");
                    assert!(
                        spans[p].enter <= span.enter && spans[p].exit.expect("closed") >= exit,
                        "case {case} {scheme}: span {i} not nested inside its parent"
                    );
                }
            }
            // Reachability: every span's stack starts at the single root.
            assert!(
                trace
                    .stack(SpanId::from_index(i))
                    .starts_with("iotse_core_run"),
                "case {case} {scheme}: span {i} not reachable from the root"
            );
        }
        assert_eq!(roots, 1, "case {case} {scheme}: expected exactly one root");
        // The fold is exact, not approximate: left-to-right weight sum is
        // bitwise the ledger total.
        let fold = iotse::energy::flame::fold(trace);
        assert_eq!(
            fold.total_microjoules(),
            result.total_energy().as_microjoules(),
            "case {case} {scheme}: span fold diverged from the ledger"
        );
    });
}

/// Whatever the seed, a faulted scenario is a pure function of its inputs:
/// the same fault scripts replay to an identical `RunResult` (and identical
/// `FaultStats`) across back-to-back runs and across fleet `--jobs` levels.
#[test]
fn fault_schedules_are_deterministic_for_any_seed() {
    use iotse::core::runner::run_fleet;
    let schemes = [
        Scheme::Baseline,
        Scheme::Batching,
        Scheme::Com,
        Scheme::Beam,
        Scheme::Bcom,
    ];
    forall(10, |case, rng| {
        let seed = rng.gen_range(0..5_000u64);
        let script_seed = rng.gen::<u64>();
        let scheme = schemes[case as usize % schemes.len()];
        let scripts = |fault_seed: u64| {
            vec![
                FaultScript::new(
                    FaultKind::SensorDropout { probability: 0.4 },
                    SimTime::ZERO,
                    SimDuration::from_millis(600),
                )
                .seeded(fault_seed),
                FaultScript::new(
                    FaultKind::InterruptStorm { rate_hz: 500 },
                    SimTime::from_millis(400),
                    SimDuration::from_millis(400),
                )
                .seeded(fault_seed ^ 1),
            ]
        };
        let faulted = |fault_seed: u64, jobs: usize| {
            run_fleet(
                vec![Scenario::new(scheme, catalog::apps(&[AppId::A2], seed))
                    .windows(1)
                    .seed(seed)
                    .faults(scripts(fault_seed))],
                jobs,
            )
            .pop()
            .expect("one result")
        };
        let first = faulted(script_seed, 1);
        assert!(
            first.faults.faults_injected > 0,
            "case {case} seed {seed}: no faults fired"
        );
        for jobs in [1, 4, 8] {
            assert_eq!(
                first,
                faulted(script_seed, jobs),
                "case {case} seed {seed} {scheme}: schedule drifted at --jobs {jobs}"
            );
        }
    });
}

/// Different fault-script seeds draw from disjoint RNG streams: the same
/// scenario under the same dropout window but a different script seed drops
/// a different set of samples (distinct schedules, not just distinct
/// counters by luck — the full results must differ).
#[test]
fn distinct_fault_seeds_give_distinct_schedules() {
    forall(10, |case, rng| {
        let seed = rng.gen_range(0..5_000u64);
        let a = rng.gen::<u64>();
        let b = a ^ rng.gen_range(1..u64::MAX);
        let run = |fault_seed: u64| {
            Scenario::new(Scheme::Baseline, catalog::apps(&[AppId::A2], seed))
                .windows(1)
                .seed(seed)
                .fault(
                    FaultScript::new(
                        FaultKind::SensorDropout { probability: 0.5 },
                        SimTime::ZERO,
                        SimDuration::from_secs(1),
                    )
                    .seeded(fault_seed),
                )
                .run()
        };
        let ra = run(a);
        let rb = run(b);
        assert!(
            ra.faults.samples_dropped > 0 && rb.faults.samples_dropped > 0,
            "case {case} seed {seed}: dropout never fired"
        );
        assert_ne!(
            ra, rb,
            "case {case} seed {seed}: fault seeds {a} and {b} gave one schedule"
        );
    });
}

/// Whatever the seed, the executor's structural counters equal the Table II
/// derivation, and energy orderings hold.
#[test]
fn executor_counters_hold_for_any_seed() {
    forall(12, |case, rng| {
        let seed = rng.gen_range(0..5_000u64);
        let run = |scheme| {
            Scenario::new(scheme, catalog::apps(&[AppId::A2], seed))
                .windows(1)
                .seed(seed)
                .run()
        };
        let baseline = run(Scheme::Baseline);
        assert_eq!(baseline.interrupts, 1000, "case {case} seed {seed}");
        assert_eq!(
            baseline.bytes_transferred, 12_000,
            "case {case} seed {seed}"
        );
        let batching = run(Scheme::Batching);
        assert_eq!(batching.interrupts, 1, "case {case} seed {seed}");
        let com = run(Scheme::Com);
        assert!(
            batching.total_energy() < baseline.total_energy(),
            "case {case} seed {seed}"
        );
        assert!(
            com.total_energy() < batching.total_energy(),
            "case {case} seed {seed}"
        );
    });
}

// ----------------------------------------------------- scenario spec ----

/// Parses `text` under a panic guard: an `Err` must name a line of the
/// text, and an `Ok` must parse again to the same spec.
fn assert_parse_is_total(what: &str, text: &str) {
    use iotse::core::ScenarioSpec;
    let lines = text.lines().count().max(1);
    match std::panic::catch_unwind(|| ScenarioSpec::parse(text)) {
        Err(_) => panic!("{what}: parse panicked on\n{text}"),
        Ok(Err(e)) => assert!(
            (1..=lines).contains(&e.line),
            "{what}: error line outside 1..={lines}: {e}"
        ),
        Ok(Ok(spec)) => assert_eq!(
            ScenarioSpec::parse(text),
            Ok(spec),
            "{what}: re-parse differs"
        ),
    }
}

/// The committed `scenarios/*.toml` files, sorted by name.
fn committed_scenarios() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("scenario file is UTF-8");
            (p.display().to_string(), text)
        })
        .collect()
}

/// The scenario parser is total over mutations of the committed corpus:
/// truncation at every line, every numeric literal replaced by a value
/// past `u64`, `f64`-exact or `f64` range, random byte flips and random
/// line swaps. No input panics; every error carries a line of its input.
#[test]
fn scenario_parser_survives_any_mutation() {
    const HUGE: [&str; 4] = ["18446744073709551615", "9007199254740993", "1e308", "1e400"];
    let files = committed_scenarios();
    assert!(!files.is_empty(), "no committed scenarios");
    for (name, text) in &files {
        assert_parse_is_total(name, text);
        let lines: Vec<&str> = text.lines().collect();
        for cut in 0..lines.len() {
            let truncated = lines[..cut].join("\n");
            assert_parse_is_total(&format!("{name} cut after line {cut}"), &truncated);
        }
        for (i, line) in lines.iter().enumerate() {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            if !value.trim_start().starts_with(|c: char| c.is_ascii_digit()) {
                continue;
            }
            for huge in HUGE {
                let replaced = format!("{key}= {huge}");
                let mut mutated = lines.clone();
                mutated[i] = &replaced;
                let what = format!("{name} line {} = {huge}", i + 1);
                assert_parse_is_total(&what, &mutated.join("\n"));
            }
        }
    }
    forall(240, |case, rng| {
        let (name, text) = &files[case as usize % files.len()];
        let mut bytes = text.clone().into_bytes();
        for _ in 0..rng.gen_range(1..4usize) {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1u8 << rng.gen_range(0..8usize);
        }
        let flipped = String::from_utf8_lossy(&bytes);
        assert_parse_is_total(&format!("case {case}: {name} byte-flipped"), &flipped);
        let mut lines: Vec<&str> = text.lines().collect();
        for _ in 0..rng.gen_range(1..4usize) {
            let (a, b) = (rng.gen_range(0..lines.len()), rng.gen_range(0..lines.len()));
            lines.swap(a, b);
        }
        assert_parse_is_total(&format!("case {case}: {name} shuffled"), &lines.join("\n"));
    });
}
