//! The scenario fleet runner: fan independent scenarios across OS threads.
//!
//! Every experiment surface in the workspace — figures, tables, ablation
//! sweeps, repeatability — is a *fleet* of independent [`Scenario`]
//! executions keyed by `(scheme, apps, seed, world)`. Each execution is a
//! self-contained deterministic simulation: its RNG streams derive from its
//! own seed via [`iotse_sim::rng::SeedTree`], and its [`PhysicalWorld`] is
//! constructed on whichever thread runs it. That makes the fleet
//! embarrassingly parallel — and, crucially, makes the *results*
//! independent of scheduling:
//!
//! * **Lockstep groups.** Scenarios whose sensor inputs are structurally
//!   equal — seed, windows, world, fault scripts and tick layout — make
//!   exactly the same world reads and fire exactly the same engine events.
//!   The fleet runs each such group (of at most eight) on one thread against one world and one engine, so a figure's schemes
//!   acquire every sample once (see [`crate::executor`]). Each member keeps
//!   its own books, so its result is bitwise what [`Scenario::run`] gives
//!   for it alone.
//! * **Work distribution** is a single atomic cursor over the units of
//!   work (groups and single scenarios); workers claim the next unstarted
//!   unit. No channels, no stealing. Groups split until there are at least
//!   `jobs` units whenever the fleet has at least `jobs` scenarios.
//! * **Aggregation** places each [`RunResult`] at its submission index.
//!   Completion order — which varies run to run under load — is never
//!   observable in the output.
//! * **Seeding** never involves the worker: a scenario's RNG is a pure
//!   function of its own key, so `--jobs 1` and `--jobs 8` produce bitwise
//!   identical results (enforced by `tests/determinism.rs`, which also
//!   holds every fleet result to its member's solo run).
//!
//! [`PhysicalWorld`]: iotse_sensors::world::PhysicalWorld
//!
//! # Examples
//!
//! ```no_run
//! use iotse_core::runner::Fleet;
//! use iotse_core::executor::Scenario;
//! use iotse_core::scheme::Scheme;
//!
//! let scenarios: Vec<Scenario> = (0..8)
//!     .map(|seed| Scenario::new(Scheme::Batching, vec![]).seed(seed))
//!     .collect();
//! let results = Fleet::new(4).run(scenarios);
//! assert_eq!(results.len(), 8); // ordered by submission, not completion
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use crate::executor::{run_lockstep, Scenario};
use crate::result::RunResult;

/// A pool size for scenario execution.
///
/// `Fleet` is a configuration value, not a persistent pool: threads are
/// scoped to each [`Fleet::run`] call, so there is no lifecycle to manage
/// and no state carried between fleets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fleet {
    jobs: usize,
}

impl Default for Fleet {
    /// One worker per available CPU.
    fn default() -> Self {
        Fleet::new(Fleet::available_parallelism())
    }
}

impl Fleet {
    /// A fleet of `jobs` worker threads. `jobs` is clamped to at least 1.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Fleet { jobs: jobs.max(1) }
    }

    /// The number of worker threads this fleet will use.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The machine's available parallelism (1 if it cannot be queried).
    #[must_use]
    pub fn available_parallelism() -> usize {
        thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }

    /// Runs every scenario and returns results **in submission order**.
    ///
    /// Scenarios that share their sensor inputs run as lockstep groups
    /// (see the [module docs](self)): one world, one engine and one thread
    /// per group, each member with its own books. Every result is bitwise the
    /// one [`Scenario::run`] gives for that scenario alone, at any `jobs`.
    /// With one job (or one unit of work) everything runs on the calling
    /// thread.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any scenario (the remaining scenarios may or
    /// may not have run).
    #[must_use]
    pub fn run(&self, scenarios: Vec<Scenario>) -> Vec<RunResult> {
        let n = scenarios.len();
        let units = lockstep_units(&scenarios, self.jobs);

        // Claimable scenario slots and submission-indexed result slots.
        // The mutexes are uncontended by construction — the atomic cursor
        // hands each unit, and so each index, to exactly one worker — they
        // exist to keep the shared vectors safe without `unsafe` (the
        // crate forbids it).
        let tasks: Vec<Mutex<Option<Scenario>>> =
            scenarios.into_iter().map(|s| Mutex::new(Some(s))).collect();
        let results: Vec<Mutex<Option<RunResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);

        // Lock poisoning only happens after another worker panicked, and
        // Fleet::run's documented panic contract already propagates that
        // panic; the take() invariant is enforced by the atomic cursor
        // handing out each unit exactly once.
        let take = |i: usize| {
            tasks[i]
                .lock()
                // iotse-lint: allow(IOTSE-E04) poisoning propagates a worker panic
                .expect("task slot poisoned")
                .take()
                // iotse-lint: allow(IOTSE-E04) the cursor claims each index exactly once
                .expect("each task slot is claimed exactly once")
        };
        let store = |i: usize, result: RunResult| {
            // iotse-lint: allow(IOTSE-E04) poisoning propagates a worker panic
            *results[i].lock().expect("result slot poisoned") = Some(result);
        };
        let work = || loop {
            let u = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(unit) = units.get(u) else {
                break;
            };
            let group = unit.iter().map(|&i| take(i)).collect();
            for (&i, result) in unit.iter().zip(run_lockstep(group)) {
                store(i, result);
            }
        };

        let workers = self.jobs.min(units.len());
        if workers <= 1 {
            work();
        } else {
            thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(work);
                }
            });
        }

        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    // iotse-lint: allow(IOTSE-E04) poisoning propagates a worker panic
                    .expect("result slot poisoned")
                    // iotse-lint: allow(IOTSE-E04) every unit ran before this point
                    .expect("every slot is filled before the scope ends")
            })
            .collect()
    }
}

/// Most members one lockstep group holds. Every member keeps its own live
/// windows (samples of every pending window), so a group's memory grows
/// with its size; a figure cell's schemes fit well inside.
const MAX_LOCKSTEP_MEMBERS: usize = 8;

/// Partitions submission indices `0..scenarios.len()` into units of work,
/// each run on one thread as a lockstep group (a unit of one runs exactly
/// as [`Scenario::run`] does).
///
/// 1. Scenarios join the class of the first earlier scenario they share
///    their sensor inputs with ([`Scenario::shares_inputs_with`]:
///    structural equality, no hashing).
/// 2. Each class splits, in submission order, into runs of at most
///    [`MAX_LOCKSTEP_MEMBERS`].
/// 3. While the fleet holds at least `jobs` scenarios but fewer than `jobs`
///    units, the largest unit (the first, on ties) splits in half, so no
///    worker idles behind one big group.
///
/// Members keep submission order within a unit. Nothing here can change a
/// result: grouping only decides which scenarios share a world and an
/// engine.
#[must_use]
fn lockstep_units(scenarios: &[Scenario], jobs: usize) -> Vec<Vec<usize>> {
    let mut units: Vec<Vec<usize>> = Vec::new();
    // Per class: its first scenario and the unit its latest members fill.
    let mut classes: Vec<(usize, usize)> = Vec::new();
    for (i, scenario) in scenarios.iter().enumerate() {
        let class = classes
            .iter_mut()
            .find(|(rep, _)| scenarios[*rep].shares_inputs_with(scenario));
        match class {
            Some((_, open)) if units[*open].len() < MAX_LOCKSTEP_MEMBERS => units[*open].push(i),
            Some((_, open)) => {
                *open = units.len();
                units.push(vec![i]);
            }
            None => {
                classes.push((i, units.len()));
                units.push(vec![i]);
            }
        }
    }
    while units.len() < jobs && scenarios.len() >= jobs {
        let mut largest = 0;
        for u in 1..units.len() {
            if units[u].len() > units[largest].len() {
                largest = u;
            }
        }
        let half = units[largest].len() / 2;
        let tail = units[largest].split_off(half);
        units.insert(largest + 1, tail);
    }
    units
}

/// Convenience: run `scenarios` on `jobs` threads, results in submission
/// order.
#[must_use]
pub fn run_fleet(scenarios: Vec<Scenario>, jobs: usize) -> Vec<RunResult> {
    Fleet::new(jobs).run(scenarios)
}

/// Merges the metrics reports of a fleet's results into one per-sweep
/// report (counters and histogram buckets sum; gauges sum — divide by run
/// count for a mean). Runs without metrics contribute nothing. The merge
/// folds in submission order, so the aggregate is independent of `--jobs`.
#[must_use]
pub fn aggregate_metrics(results: &[RunResult]) -> iotse_sim::metrics::MetricsReport {
    let mut merged = iotse_sim::metrics::MetricsReport::default();
    for r in results {
        if let Some(m) = &r.metrics {
            merged.merge(m);
        }
    }
    merged
}

/// Cross-device percentiles of one window's energy for one routine.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowPercentiles {
    /// Zero-based window index on the telemetry grid.
    pub window: u32,
    /// Devices (runs) that recorded this window.
    pub devices: usize,
    /// One nearest-rank percentile per requested quantile, in request
    /// order (µJ).
    pub values: Vec<f64>,
}

/// Fleet-level per-window aggregation: for each window index, the
/// nearest-rank percentiles of `routine`'s energy stack across every
/// telemetry-carrying run in `results`. Treat each run as one device of a
/// fleet; the output answers "what did the p50/p95 device spend on
/// interrupts in window 3?". Runs without telemetry contribute nothing;
/// values sort with `total_cmp`, so the aggregation is deterministic and
/// independent of `--jobs`.
#[must_use]
pub fn fleet_window_percentiles(
    results: &[RunResult],
    routine: iotse_energy::attribution::Routine,
    quantiles: &[f64],
) -> Vec<WindowPercentiles> {
    let windows = results
        .iter()
        .filter_map(|r| r.telemetry.as_ref())
        .map(|t| t.stacks.recorded())
        .max()
        .unwrap_or(0);
    let mut out = Vec::with_capacity(windows as usize);
    let mut values: Vec<f64> = Vec::with_capacity(results.len());
    for w in 0..windows {
        values.clear();
        for r in results {
            if let Some(t) = &r.telemetry {
                if let Some(stack) = t.stacks.window_stack(w) {
                    values.push(stack[iotse_energy::stacks::routine_index(routine)]);
                }
            }
        }
        values.sort_by(f64::total_cmp);
        out.push(WindowPercentiles {
            window: w,
            devices: values.len(),
            values: quantiles
                .iter()
                .map(|&q| iotse_sim::timeseries::percentile_sorted(&values, q).unwrap_or(f64::NAN))
                .collect(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use crate::workload::{AppId, AppOutput, ResourceProfile, SensorUsage, WindowData, Workload};
    use iotse_sensors::spec::SensorId;
    use iotse_sim::time::SimDuration;

    /// A tiny deterministic workload so runner tests don't depend on
    /// `iotse-apps`.
    struct Probe;

    impl Workload for Probe {
        fn id(&self) -> AppId {
            AppId::A2
        }
        fn name(&self) -> &'static str {
            "probe"
        }
        fn window(&self) -> SimDuration {
            SimDuration::from_secs(1)
        }
        fn sensors(&self) -> Vec<SensorUsage> {
            vec![SensorUsage::periodic(SensorId::S4, 50)]
        }
        fn resources(&self) -> ResourceProfile {
            ResourceProfile {
                heap_bytes: 1_000,
                stack_bytes: 100,
                mips: 1.0,
                cpu_compute: SimDuration::from_micros(100),
                mcu_compute: SimDuration::from_micros(1_000),
            }
        }
        fn compute(&mut self, data: &WindowData) -> AppOutput {
            AppOutput::Steps(data.sensor(SensorId::S4).len() as u32)
        }
    }

    fn fleet_of(seeds: &[u64]) -> Vec<Scenario> {
        seeds
            .iter()
            .map(|&seed| {
                Scenario::new(Scheme::Batching, vec![Box::new(Probe)])
                    .windows(1)
                    .seed(seed)
            })
            .collect()
    }

    #[test]
    fn empty_fleet_is_empty() {
        assert!(Fleet::new(4).run(Vec::new()).is_empty());
    }

    #[test]
    fn results_are_in_submission_order() {
        let seeds = [9u64, 1, 7, 3, 5, 2, 8, 4];
        let results = Fleet::new(4).run(fleet_of(&seeds));
        assert_eq!(results.len(), seeds.len());
        let reference: Vec<_> = fleet_of(&seeds).into_iter().map(Scenario::run).collect();
        assert_eq!(results, reference);
    }

    #[test]
    fn jobs_levels_agree_bitwise() {
        let seeds: Vec<u64> = (0..10).collect();
        let one = Fleet::new(1).run(fleet_of(&seeds));
        let four = Fleet::new(4).run(fleet_of(&seeds));
        let eight = Fleet::new(8).run(fleet_of(&seeds));
        assert_eq!(one, four);
        assert_eq!(one, eight);
    }

    #[test]
    fn more_jobs_than_scenarios_is_fine() {
        let results = Fleet::new(64).run(fleet_of(&[1, 2]));
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(Fleet::new(0).jobs(), 1);
        assert!(Fleet::default().jobs() >= 1);
    }

    /// A workload with a configurable tick layout.
    struct Layout {
        sensor: SensorId,
        rate: u32,
        window_s: u64,
    }

    impl Workload for Layout {
        fn id(&self) -> AppId {
            AppId::A7
        }
        fn name(&self) -> &'static str {
            "layout"
        }
        fn window(&self) -> SimDuration {
            SimDuration::from_secs(self.window_s)
        }
        fn sensors(&self) -> Vec<SensorUsage> {
            vec![SensorUsage::periodic(self.sensor, self.rate)]
        }
        fn resources(&self) -> ResourceProfile {
            Probe.resources()
        }
        fn compute(&mut self, data: &WindowData) -> AppOutput {
            AppOutput::Steps(data.sensor(self.sensor).len() as u32)
        }
    }

    fn layout(sensor: SensorId, rate: u32, window_s: u64) -> Box<dyn Workload> {
        Box::new(Layout {
            sensor,
            rate,
            window_s,
        })
    }

    /// The base scenario every grouping variant departs from.
    fn base(scheme: Scheme) -> Scenario {
        Scenario::new(scheme, vec![Box::new(Probe)])
            .windows(2)
            .seed(5)
    }

    fn storm() -> iotse_sim::faults::FaultScript {
        iotse_sim::faults::FaultScript::new(
            iotse_sim::faults::FaultKind::InterruptStorm { rate_hz: 100 },
            iotse_sim::time::SimTime::ZERO,
            SimDuration::from_millis(500),
        )
    }

    #[test]
    fn grouping_splits_on_each_input_separately() {
        use iotse_sensors::world::WorldConfig;
        let scenarios = vec![
            // 0: the base; 1-4 differ only where results may differ
            // without changing the reads, so they join it.
            base(Scheme::Baseline),
            base(Scheme::Batching),
            base(Scheme::Com).calibration(crate::calibration::Calibration::paper().with_dma()),
            base(Scheme::Bcom)
                .with_trace()
                .with_metrics()
                .with_telemetry(),
            base(Scheme::Baseline)
                .without_compute_cache()
                .with_timeline(),
            // 5-12 each differ from the base in one input.
            base(Scheme::Baseline).seed(6),
            base(Scheme::Baseline).windows(3),
            base(Scheme::Beam),
            base(Scheme::Baseline).world(WorldConfig {
                sensor_error_rate: 0.1,
                ..WorldConfig::default()
            }),
            base(Scheme::Baseline).fault(storm()),
            Scenario::new(Scheme::Baseline, vec![layout(SensorId::S4, 40, 1)])
                .windows(2)
                .seed(5),
            Scenario::new(Scheme::Baseline, vec![layout(SensorId::S2, 50, 1)])
                .windows(2)
                .seed(5),
            Scenario::new(Scheme::Baseline, vec![layout(SensorId::S4, 50, 2)])
                .windows(2)
                .seed(5),
            // 13: a second app changes the layout too.
            Scenario::new(Scheme::Baseline, vec![Box::new(Probe), Box::new(Probe)])
                .windows(2)
                .seed(5),
            // 14-15: equal fault scripts group; 16: another app with the
            // base's layout joins the base.
            base(Scheme::Batching).fault(storm()),
            base(Scheme::Com).fault(storm()),
            Scenario::new(Scheme::Batching, vec![layout(SensorId::S4, 50, 1)])
                .windows(2)
                .seed(5),
        ];
        let units = lockstep_units(&scenarios, 1);
        let expected: Vec<Vec<usize>> = vec![
            vec![0, 1, 2, 3, 4, 16],
            vec![5],
            vec![6],
            vec![7],
            vec![8],
            vec![9, 14, 15],
            vec![10],
            vec![11],
            vec![12],
            vec![13],
        ];
        assert_eq!(units, expected);
    }

    #[test]
    fn groups_are_capped_and_split_to_feed_every_worker() {
        let same = |n: usize| -> Vec<Scenario> { (0..n).map(|_| base(Scheme::Batching)).collect() };
        // The cap: 20 same-input scenarios make runs of 8, 8 and 4.
        let units = lockstep_units(&same(20), 1);
        let sizes: Vec<usize> = units.iter().map(Vec::len).collect();
        assert_eq!(sizes, [8, 8, 4]);
        assert_eq!(units.concat(), (0..20).collect::<Vec<_>>());
        // The split: at least `jobs` units once there are `jobs` scenarios,
        // halving the largest (first) unit each time.
        assert_eq!(lockstep_units(&same(3), 2), [vec![0], vec![1, 2]]);
        assert_eq!(
            lockstep_units(&same(6), 4),
            [vec![0], vec![1, 2], vec![3], vec![4, 5]]
        );
        assert_eq!(lockstep_units(&same(20), 8).len(), 8);
        // Fewer scenarios than jobs: nothing to gain from splitting.
        assert_eq!(lockstep_units(&same(3), 4), [vec![0, 1, 2]]);
        assert!(lockstep_units(&[], 4).is_empty());
    }

    #[test]
    fn lockstep_members_match_their_solo_runs() {
        let fleet = || -> Vec<Scenario> {
            vec![
                base(Scheme::Baseline),
                base(Scheme::Batching).with_trace(),
                base(Scheme::Com).fault(storm()),
                base(Scheme::Bcom).fault(storm()).with_telemetry(),
                base(Scheme::Beam),
            ]
        };
        let solo: Vec<RunResult> = fleet().into_iter().map(Scenario::run).collect();
        for jobs in [1, 2, 4] {
            assert_eq!(Fleet::new(jobs).run(fleet()), solo, "jobs {jobs}");
        }
    }

    #[test]
    fn window_percentiles_without_telemetry_are_empty() {
        let results = Fleet::new(1).run(fleet_of(&[1, 2, 3]));
        let agg = fleet_window_percentiles(
            &results,
            iotse_energy::attribution::Routine::Interrupt,
            &[0.5],
        );
        assert!(agg.is_empty());
    }

    #[test]
    fn window_percentiles_span_the_fleet() {
        let scenarios: Vec<Scenario> = [11u64, 22, 33]
            .iter()
            .map(|&seed| {
                Scenario::new(Scheme::Batching, vec![Box::new(Probe)])
                    .windows(2)
                    .seed(seed)
                    .with_telemetry()
            })
            .collect();
        let results = Fleet::new(2).run(scenarios);
        let agg = fleet_window_percentiles(
            &results,
            iotse_energy::attribution::Routine::Interrupt,
            &[0.0, 0.5, 1.0],
        );
        assert_eq!(agg.len(), 2);
        for wp in &agg {
            assert_eq!(wp.devices, 3);
            assert_eq!(wp.values.len(), 3);
            // min <= median <= max, and the extremes bracket every device.
            assert!(wp.values[0] <= wp.values[1]);
            assert!(wp.values[1] <= wp.values[2]);
        }
        // p100 of window 0 equals the largest window-0 interrupt stack.
        let max0 = results
            .iter()
            .filter_map(|r| r.telemetry.as_ref())
            .filter_map(|t| t.stacks.window_stack(0))
            .map(|s| {
                s[iotse_energy::stacks::routine_index(
                    iotse_energy::attribution::Routine::Interrupt,
                )]
            })
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(agg[0].values[2], max0);
    }

    #[test]
    fn window_percentiles_are_jobs_independent() {
        let scenarios = || -> Vec<Scenario> {
            (0..4)
                .map(|i| {
                    Scenario::new(Scheme::Batching, vec![Box::new(Probe)])
                        .windows(2)
                        .seed(100 + i)
                        .with_telemetry()
                })
                .collect()
        };
        let one = fleet_window_percentiles(
            &Fleet::new(1).run(scenarios()),
            iotse_energy::attribution::Routine::Idle,
            &[0.5, 0.95],
        );
        let four = fleet_window_percentiles(
            &Fleet::new(4).run(scenarios()),
            iotse_energy::attribution::Routine::Idle,
            &[0.5, 0.95],
        );
        assert_eq!(one, four);
    }
}
