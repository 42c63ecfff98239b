//! The traced run: per-layer metrics of one workload.
//!
//! Each repetition runs every batch of the workload five ways, each from
//! cleared caches:
//!
//! 1. **runner** — `Fleet::run` at the workload's width, in a `runner`
//!    span (the untraced reference for parallel efficiency);
//! 2. **bare** — the same device-runs one after another on this thread,
//!    each `Scenario::run` timed and its allocator traffic counted; every
//!    exact counter comes from the first repetition of this pass;
//! 3. **traced** — the same again with kernel-timing apps, each
//!    `Scenario::run` in an `executor` span whose `apps.<id>` children are
//!    the kernels it called (at one job, `Fleet::run` is exactly this
//!    loop, so the pass sits in a `runner` span);
//! 4. **observability twin** and 5. **fault twin** — the batch with the
//!    observability layers, or the demo fault pack, flipped.
//!
//! Replays of the first batch then time the sensor, engine and accounting
//! layers on their own (see [`crate::replay`]). Every pass checks its
//! digests: passes 1–3 and the observability twin must reproduce the
//! workload's own digests, which shows that measuring from outside changes
//! no simulated statistic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use iotse_core::scenario_spec::AppFactory;
use iotse_core::{RunResult, Scenario};

use crate::clock::{median, now_ns, quantile, ratio, timed};
use crate::measure::{self, failures};
use crate::replay::{self, Replayed};
use crate::spans::{self, Span, NO_REQUEST};
use crate::workload::{self, Batch, Inputs, Kind, Reference, RunKey, Size, Variant};

/// Upper bound on repetitions, whatever the time budget.
const MAX_REPEATS: usize = 40;

/// A metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a traced run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub cross_checks: Vec<(String, bool)>,
    pub spans: Vec<Span>,
    pub trace_overhead: f64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.cross_checks.iter().all(|(_, ok)| *ok)
    }
}

/// Exact counters of one pass over every batch.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    device_windows: u64,
    events: u64,
    sensor_reads: u64,
    interrupts: u64,
    bus_bytes: u64,
    trace_spans: u64,
    series_points: u64,
    detector_evals: u64,
    alerts: u64,
    faults_injected: u64,
    samples_dropped: u64,
    bytes_corrupted: u64,
}

impl Counters {
    fn add(&mut self, keys: &[RunKey], results: &[RunResult]) {
        self.device_windows += keys.iter().map(|k| u64::from(k.windows)).sum::<u64>();
        for r in results {
            self.events += r.events_executed;
            self.sensor_reads += r.sensor_reads;
            self.interrupts += r.interrupts;
            self.bus_bytes += r.bytes_transferred;
            self.trace_spans += r.spans.spans as u64;
            if let Some(t) = &r.telemetry {
                self.series_points += t.points_recorded();
                self.detector_evals += t.detector_evals;
                self.alerts += t.alerts.len() as u64;
            }
            self.faults_injected += r.faults.faults_injected;
            self.samples_dropped += r.faults.samples_dropped;
            self.bytes_corrupted += r.faults.bytes_corrupted;
        }
    }
}

/// One sequential pass: wall time, per-run times and counters.
#[derive(Debug, Clone, Default)]
struct Pass {
    wall_ns: u64,
    run_ns: Vec<u64>,
    allocs: u64,
    alloc_bytes: u64,
    compute_hits: u64,
    compute_misses: u64,
    signal_hits: u64,
    signal_misses: u64,
    counters: Counters,
}

/// The state threaded through every pass of a traced run.
struct Run<'a> {
    inputs: &'a Inputs,
    jobs: usize,
    attempted: u64,
    failed: u64,
}

impl Run<'_> {
    fn check(
        &mut self,
        reference: &mut Reference,
        b: usize,
        keys: &[RunKey],
        results: Option<&[RunResult]>,
    ) {
        self.attempted += keys.len() as u64;
        self.failed += failures(reference, b, keys, results);
    }

    /// Pass 1: `Fleet::run` at the workload's width.
    fn fleet_pass(&mut self, v: Variant, reference: &mut Reference) -> u64 {
        let mut wall = 0;
        for b in 0..self.inputs.size.batches {
            workload::clear_caches();
            let batch = workload::build(self.inputs, b, v, &iotse_apps::catalog::app);
            let jobs = self.jobs;
            let ((results, keys), ns) =
                timed(|| spans::time("runner", NO_REQUEST, || measure::run_batch(batch, jobs)));
            wall += ns;
            self.check(reference, b, &keys, results.as_deref());
        }
        wall
    }

    /// Passes 2–5: the batch's device-runs one after another on this
    /// thread, apps built by `factory`; `traced` puts each run in an
    /// `executor` span.
    fn sequential_pass(
        &mut self,
        v: Variant,
        factory: &AppFactory<'_>,
        traced: bool,
        reference: &mut Reference,
    ) -> Pass {
        let mut pass = Pass::default();
        for b in 0..self.inputs.size.batches {
            workload::clear_caches();
            let (c0, s0) = cache_stats();
            let Batch {
                scenarios, keys, ..
            } = workload::build(self.inputs, b, v, factory);
            let mut results = Vec::with_capacity(keys.len());
            let t0 = now_ns();
            let ran = catch_unwind(AssertUnwindSafe(|| {
                let one = |(i, s): (usize, Scenario)| {
                    let a0 = crate::sys::alloc_snapshot();
                    let (r, ns) = timed(|| {
                        if traced {
                            spans::time("executor", workload::request_id(b, i), || s.run())
                        } else {
                            s.run()
                        }
                    });
                    let a1 = crate::sys::alloc_snapshot();
                    pass.run_ns.push(ns);
                    pass.allocs += a1.0 - a0.0;
                    pass.alloc_bytes += a1.1 - a0.1;
                    results.push(r);
                };
                if traced {
                    spans::time("runner", NO_REQUEST, || {
                        scenarios.into_iter().enumerate().for_each(one);
                    });
                } else {
                    scenarios.into_iter().enumerate().for_each(one);
                }
            }));
            pass.wall_ns += now_ns() - t0;
            let (c1, s1) = cache_stats();
            pass.compute_hits += c1.0 - c0.0;
            pass.compute_misses += c1.1 - c0.1;
            pass.signal_hits += s1.0 - s0.0;
            pass.signal_misses += s1.1 - s0.1;
            let results = ran.ok().map(|()| results);
            if let Some(results) = &results {
                pass.counters.add(&keys, results);
            }
            self.check(reference, b, &keys, results.as_deref());
        }
        pass
    }
}

fn cache_stats() -> ((u64, u64), (u64, u64)) {
    let c = iotse_core::compute_cache::stats();
    ((c.hits, c.misses), iotse_sensors::signal::cache::stats())
}

/// One repetition of every pass.
struct Repetition {
    fleet_ns: u64,
    bare: Pass,
    traced: Pass,
    traced_spans: std::ops::Range<usize>,
    observe_twin: Pass,
    fault_twin: Pass,
}

/// Runs the traced measurement of `kind` at `size` for about `seconds`.
pub fn run(kind: Kind, seed: u64, size: Size, seconds: u64) -> Outcome {
    spans::enable(true);
    let _ = spans::take();
    let base = kind.base();
    let observe_flip = Variant {
        observed: !base.observed,
        ..base
    };
    let fault_flip = Variant {
        faulted: !base.faulted,
        ..base
    };
    let inputs = spans::time("setup", NO_REQUEST, || Inputs::generate(kind, size, seed));
    let mut run = Run {
        inputs: &inputs,
        jobs: kind.jobs(),
        attempted: 0,
        failed: 0,
    };
    let mut reference = Reference::new(kind, size, seed);
    // The fault twin's statistics differ from the workload's by design;
    // it must only reproduce itself.
    let mut fault_reference = Reference::empty(size.batches);

    let deadline = now_ns() + seconds * 1_000_000_000;
    let mut reps: Vec<Repetition> = Vec::new();
    while reps.len() < 2 || (now_ns() < deadline && reps.len() < MAX_REPEATS) {
        let fleet_ns = run.fleet_pass(base, &mut reference);
        let bare = run.sequential_pass(base, &iotse_apps::catalog::app, false, &mut reference);
        let first = spans::recorded();
        let traced = run.sequential_pass(base, &spans::timed_app, true, &mut reference);
        let traced_spans = first..spans::recorded();
        // Observability must not move a simulated statistic either.
        let observe_twin = run.sequential_pass(
            observe_flip,
            &iotse_apps::catalog::app,
            false,
            &mut reference,
        );
        let fault_twin = run.sequential_pass(
            fault_flip,
            &iotse_apps::catalog::app,
            false,
            &mut fault_reference,
        );
        reps.push(Repetition {
            fleet_ns,
            bare,
            traced,
            traced_spans,
            observe_twin,
            fault_twin,
        });
    }

    // Layer replays over the first batch, from cold caches like the
    // batch itself.
    let keys = workload::build(&inputs, 0, base, &iotse_apps::catalog::app).keys;
    workload::clear_caches();
    let replay_first = spans::recorded();
    let mut replayed = Replayed::default();
    for (i, key) in keys.iter().enumerate() {
        replayed += replay::replay(key, workload::request_id(0, i));
    }
    let replay_spans = replay_first..spans::recorded();

    // The same cross-check as the untraced run, inside its own spans.
    let mut cross_checks = vec![measure::cross_check(&inputs, run.jobs)];

    let spans = spans::take();
    spans::enable(false);

    // Every run, whatever its seed, is also checked against the pins.
    let (attempted, failed) = measure::pin_check(kind);
    run.attempted += attempted;
    run.failed += failed;
    cross_checks.push(("default-seed digests match the pins".into(), failed == 0));

    let metrics = metrics(MetricInputs {
        kind,
        jobs: run.jobs,
        reps: &reps,
        spans: &spans,
        replay_spans,
        replayed,
        replayed_runs: keys.len(),
    });
    let trace_overhead = metrics
        .iter()
        .find(|m| m.0 == "bench.trace_overhead")
        .map_or(0.0, |m| m.1);
    Outcome {
        metrics,
        attempted: run.attempted,
        failed: run.failed,
        cross_checks,
        spans,
        trace_overhead,
    }
}

struct MetricInputs<'a> {
    kind: Kind,
    jobs: usize,
    reps: &'a [Repetition],
    spans: &'a [Span],
    replay_spans: std::ops::Range<usize>,
    replayed: Replayed,
    replayed_runs: usize,
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn metrics(m: MetricInputs<'_>) -> Vec<Metric> {
    let spans = m.spans;
    let child = spans::child_ns(spans);
    let first = &m.reps[0];
    let exact = first.bare.counters;
    let dw = exact.device_windows as f64;

    let named = |set: &[Span], name: &str| -> Vec<f64> {
        set.iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    };
    let total = |set: &[Span], name: &str| named(set, name).iter().sum::<f64>();
    let mean = |set: &[Span], name: &str| {
        let v = named(set, name);
        ratio(v.iter().sum(), v.len() as f64)
    };
    let med = |f: &dyn Fn(&Repetition) -> f64| median(&m.reps.iter().map(f).collect::<Vec<_>>());

    // runner
    let parallel_efficiency = med(&|r| {
        ratio(
            r.bare.run_ns.iter().sum::<u64>() as f64,
            m.jobs as f64 * r.fleet_ns as f64,
        )
    });

    // scenario_spec: per spec text parsed.
    let parses = named(spans, "scenario_spec.parse");
    let parse_us = us(ratio(parses.iter().sum(), parses.len() as f64));
    let compile_us = us(ratio(
        total(spans, "scenario_spec.runs") + total(spans, "scenario_spec.scenario_for"),
        parses.len() as f64,
    ));

    // executor: every traced Scenario::run, all repetitions.
    let runs = named(spans, "executor");
    let traced_dw: f64 = m
        .reps
        .iter()
        .map(|r| r.traced.counters.device_windows as f64)
        .sum();
    let executor_self: f64 = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "executor")
        .map(|(i, s)| s.duration_ns().saturating_sub(child[i]) as f64)
        .sum();

    // apps: kernel spans of the traced passes.
    let is_app = |s: &Span| s.name.starts_with("apps.");
    let first_traced = &spans[first.traced_spans.clone()];
    let kernel_calls = first_traced.iter().filter(|s| is_app(s)).count() as f64;
    let kernels: Vec<f64> = spans
        .iter()
        .filter(|s| is_app(s))
        .map(|s| s.duration_ns() as f64)
        .collect();
    let kernel_ns: f64 = kernels.iter().sum();

    // sensors, sim and accounting replays.
    let replays = &spans[m.replay_spans.clone()];
    let replayed_run_ns: f64 = m
        .reps
        .iter()
        .map(|r| r.bare.run_ns.iter().take(m.replayed_runs).sum::<u64>() as f64)
        .sum::<f64>()
        / m.reps.len() as f64;
    let acquisition = total(replays, "sensors.world_new") + total(replays, "sensors.read");

    // Observability and fault twins against the workload's own runs.
    let base = m.kind.base();
    let observed = if base.observed {
        first.bare.counters
    } else {
        first.observe_twin.counters
    };
    let faulted = if base.faulted {
        first.bare.counters
    } else {
        first.fault_twin.counters
    };
    let clean = if base.faulted {
        first.fault_twin.counters
    } else {
        first.bare.counters
    };
    let twin_ratio = |twin: &dyn Fn(&Repetition) -> &Pass, on_is_base: bool| {
        med(&|r| {
            let (on, off) = if on_is_base {
                (r.bare.wall_ns, twin(r).wall_ns)
            } else {
                (twin(r).wall_ns, r.bare.wall_ns)
            };
            ratio(on as f64, off as f64)
        })
    };

    let hit_ratio = |h: u64, mi: u64| ratio(h as f64, (h + mi) as f64);
    vec![
        ("runner.parallel_efficiency", parallel_efficiency, "ratio"),
        ("scenario_spec.parse_us", parse_us, "us"),
        ("scenario_spec.compile_us", compile_us, "us"),
        ("executor.run_us_p50", us(quantile(&runs, 0.5)), "us"),
        ("executor.run_us_p95", us(quantile(&runs, 0.95)), "us"),
        ("executor.run_samples", runs.len() as f64, "count"),
        (
            "executor.self_ns_per_dw",
            ratio(executor_self, traced_dw),
            "ns/dw",
        ),
        (
            "executor.allocs_per_dw",
            ratio(first.bare.allocs as f64, dw),
            "allocs/dw",
        ),
        (
            "executor.alloc_bytes_per_dw",
            ratio(first.bare.alloc_bytes as f64, dw),
            "B/dw",
        ),
        ("sim.events", exact.events as f64, "count"),
        (
            "sim.events_per_dw",
            ratio(exact.events as f64, dw),
            "events/dw",
        ),
        (
            "sim.replay_ns_per_event",
            ratio(total(replays, "sim.replay"), m.replayed.events as f64),
            "ns",
        ),
        ("sensors.reads", exact.sensor_reads as f64, "count"),
        (
            "sensors.read_failures",
            m.replayed.read_failures as f64,
            "count",
        ),
        (
            "sensors.world_new_us",
            us(mean(replays, "sensors.world_new")),
            "us",
        ),
        (
            "sensors.replay_ns_per_read",
            ratio(total(replays, "sensors.read"), m.replayed.reads as f64),
            "ns",
        ),
        (
            "sensors.replay_share",
            ratio(acquisition, replayed_run_ns),
            "ratio",
        ),
        (
            "sensors.signal_cache_hits",
            first.bare.signal_hits as f64,
            "count",
        ),
        (
            "sensors.signal_cache_misses",
            first.bare.signal_misses as f64,
            "count",
        ),
        (
            "sensors.signal_cache_hit_ratio",
            hit_ratio(first.bare.signal_hits, first.bare.signal_misses),
            "ratio",
        ),
        ("accounting.interrupts", exact.interrupts as f64, "count"),
        ("accounting.bus_bytes", exact.bus_bytes as f64, "B"),
        (
            "accounting.replay_ns_per_task",
            ratio(total(replays, "accounting.replay"), m.replayed.tasks as f64),
            "ns",
        ),
        ("apps.kernel_calls", kernel_calls, "count"),
        (
            "apps.kernel_ns_per_call",
            ratio(kernel_ns, kernels.len() as f64),
            "ns",
        ),
        (
            "apps.kernel_share",
            ratio(kernel_ns, runs.iter().sum()),
            "ratio",
        ),
        // 0 on a workload that never runs the kernel.
        ("apps.A4.kernel_us", us(mean(spans, "apps.A4")), "us"),
        ("apps.A9.kernel_us", us(mean(spans, "apps.A9")), "us"),
        (
            "compute_cache.hits",
            first.bare.compute_hits as f64,
            "count",
        ),
        (
            "compute_cache.misses",
            first.bare.compute_misses as f64,
            "count",
        ),
        (
            "compute_cache.hit_ratio",
            hit_ratio(first.bare.compute_hits, first.bare.compute_misses),
            "ratio",
        ),
        (
            "instrumentation.overhead_ratio",
            twin_ratio(&|r| &r.observe_twin, base.observed),
            "ratio",
        ),
        ("trace.spans", observed.trace_spans as f64, "count"),
        (
            "telemetry.series_points",
            observed.series_points as f64,
            "count",
        ),
        (
            "telemetry.detector_evals",
            observed.detector_evals as f64,
            "count",
        ),
        ("telemetry.alerts", observed.alerts as f64, "count"),
        ("faults.injected", faulted.faults_injected as f64, "count"),
        (
            "faults.samples_dropped",
            faulted.samples_dropped as f64,
            "count",
        ),
        (
            "faults.bytes_corrupted",
            faulted.bytes_corrupted as f64,
            "count",
        ),
        (
            "faults.storm_events",
            faulted.events as f64 - clean.events as f64,
            "count",
        ),
        (
            "faults.overhead_ratio",
            twin_ratio(&|r| &r.fault_twin, base.faulted),
            "ratio",
        ),
        (
            "bench.trace_overhead",
            med(&|r| ratio(r.traced.wall_ns as f64, r.bare.wall_ns as f64)),
            "ratio",
        ),
    ]
}
