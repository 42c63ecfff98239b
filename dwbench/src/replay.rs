//! Layer replays for the traced run.
//!
//! The executor calls acquisition, the event engine and the energy
//! accounts from inside `Scenario::run`, where the benchmark cannot put a
//! span. So the traced run replays one device-run's tick instants through
//! each layer's public functions on its own — `PhysicalWorld::new`/`read`,
//! `Engine::with_capacity`/`schedule_call_batch`/`run`, and
//! `CpuAccount::task`/`McuAccount::task`/`EnergyLedger::charge` — and
//! times each replay in its own span. Replays follow the fault-free tick
//! stream (plus a fault plan's storm interrupts for the engine); they
//! measure a layer's host cost, not the run's statistics.

use iotse_core::calibration::Calibration;
use iotse_core::cpu::{CpuAccount, GapPolicy, SleepPolicy};
use iotse_core::mcu::McuAccount;
use iotse_core::power::PowerBank;
use iotse_core::Workload;
use iotse_energy::attribution::{Device, EnergyLedger, Routine};
use iotse_sensors::spec::SensorId;
use iotse_sensors::world::{PhysicalWorld, WorldConfig};
use iotse_sim::engine::Engine;
use iotse_sim::faults::FaultPlan;
use iotse_sim::rng::SeedTree;
use iotse_sim::time::{SimDuration, SimTime};

use crate::spans;
use crate::workload::RunKey;

/// Task-I retries per sample, as in the executor.
const MAX_READ_RETRIES: u32 = 10;

/// What one replay did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Replayed {
    pub reads: u64,
    pub read_failures: u64,
    pub events: u64,
    pub tasks: u64,
}

impl std::ops::AddAssign for Replayed {
    fn add_assign(&mut self, o: Replayed) {
        self.reads += o.reads;
        self.read_failures += o.read_failures;
        self.events += o.events;
        self.tasks += o.tasks;
    }
}

/// One tick stream: a sensor at one rate (BEAM merges same-rate users of
/// a sensor into one stream, as the executor does).
#[derive(Debug, Clone)]
struct Stream {
    sensor: SensorId,
    per_window: u32,
    window: SimDuration,
    bytes: usize,
}

fn streams(key: &RunKey, apps: &[Box<dyn Workload>]) -> Vec<Stream> {
    let mut out: Vec<Stream> = Vec::new();
    for app in apps {
        for u in app.sensors() {
            if key.scheme.shares_sensors() {
                if let Some(s) = out
                    .iter_mut()
                    .find(|s| (s.sensor, s.per_window) == (u.sensor, u.samples_per_window))
                {
                    s.bytes = s.bytes.max(u.sample_bytes());
                    continue;
                }
            }
            out.push(Stream {
                sensor: u.sensor,
                per_window: u.samples_per_window,
                window: app.window(),
                bytes: u.sample_bytes(),
            });
        }
    }
    out
}

/// Every tick instant of `streams` over `windows`, in engine firing order
/// (time, then stream order).
fn ticks(streams: &[Stream], windows: u32) -> Vec<(SimTime, usize)> {
    let mut out = Vec::new();
    for (si, s) in streams.iter().enumerate() {
        let interval = s.window / u64::from(s.per_window);
        for w in 0..windows {
            for i in 0..s.per_window {
                let t = SimTime::ZERO + s.window * u64::from(w) + interval * u64::from(i);
                out.push((t, si));
            }
        }
    }
    out.sort_by_key(|&(t, _)| t);
    out
}

fn count_event(fired: &mut u64, _engine: &mut Engine<u64>, _a: u64, _b: u64) {
    *fired += 1;
}

/// Replays `key`'s tick instants through the sensor, engine and
/// accounting layers, each in its own span tagged with `request`.
pub fn replay(key: &RunKey, request: u64) -> Replayed {
    spans::time("replay", request, || {
        let apps: Vec<Box<dyn Workload>> = key
            .apps
            .iter()
            .map(|&id| iotse_apps::catalog::app(id, key.seed))
            .collect();
        let streams = streams(key, &apps);
        let ticks = ticks(&streams, key.windows);
        let horizon = streams
            .iter()
            .map(|s| SimTime::ZERO + s.window * u64::from(key.windows))
            .max()
            .unwrap_or(SimTime::ZERO);
        let seeds = SeedTree::new(key.seed);
        let mut done = Replayed::default();

        // Sensors: the world the executor builds, read at every tick.
        let mut config = WorldConfig::default();
        if config.horizon < horizon + SimDuration::from_secs(2) {
            config.horizon = horizon + SimDuration::from_secs(2);
        }
        let mut world = spans::time("sensors.world_new", request, || {
            PhysicalWorld::new(&seeds, config)
        });
        done.reads = spans::time("sensors.read", request, || {
            let mut reads = 0u64;
            for &(t, si) in &ticks {
                for _ in 0..MAX_READ_RETRIES {
                    reads += 1;
                    if world.read(streams[si].sensor, t).is_ok() {
                        break;
                    }
                }
            }
            reads
        });
        done.read_failures = world.read_counts().values().map(|&(_, bad)| bad).sum();

        // Engine: the same tick calls, plus any storm interrupts.
        let storm = if key.faults.is_empty() {
            Vec::new()
        } else {
            FaultPlan::new(&seeds, &key.faults).storm_schedule()
        };
        done.events = spans::time("sim.replay", request, || {
            let mut engine: Engine<u64> = Engine::with_capacity(ticks.len() + storm.len());
            for si in 0..streams.len() {
                engine.schedule_call_batch(
                    "tick",
                    count_event,
                    ticks
                        .iter()
                        .filter(|&&(_, s)| s == si)
                        .map(|&(t, s)| (t, s as u64, 0)),
                );
            }
            engine.schedule_call_batch("storm", count_event, storm.iter().map(|&t| (t, 0, 0)));
            let mut fired = 0u64;
            engine.run(&mut fired);
            engine.events_executed()
        });

        // Accounting: read, raise, handle and transfer for every tick.
        done.tasks = spans::time("accounting.replay", request, || {
            let cal = Calibration::paper();
            let mut bank: PowerBank<2> = PowerBank::new();
            let mut ledger = EnergyLedger::new();
            let mut mcu = McuAccount::new(cal.clone(), &mut bank, SimTime::ZERO);
            let policy = GapPolicy {
                sleep: SleepPolicy::Never,
                gap_routine: Routine::DataTransfer,
            };
            let mut cpu = CpuAccount::new(cal.clone(), policy, &mut bank, SimTime::ZERO);
            let mut tasks = 0u64;
            for &(t, si) in &ticks {
                let s = &streams[si];
                let spec = iotse_sensors::catalog::spec(s.sensor);
                let (_, read) = mcu.task(
                    &mut bank,
                    &mut ledger,
                    t,
                    cal.mcu_read_overhead,
                    Routine::DataCollection,
                    None,
                );
                ledger.charge(
                    Device::Sensor,
                    Routine::DataCollection,
                    spec.power_typical * spec.read_time,
                );
                let (_, raised) = mcu.task(
                    &mut bank,
                    &mut ledger,
                    read,
                    cal.mcu_interrupt_raise,
                    Routine::Interrupt,
                    None,
                );
                let (_, handled) = cpu.task(
                    &mut bank,
                    &mut ledger,
                    raised,
                    cal.cpu_interrupt_handling,
                    Routine::Interrupt,
                );
                let _ = cpu.task(
                    &mut bank,
                    &mut ledger,
                    handled,
                    cal.transfer_time(s.bytes),
                    Routine::DataTransfer,
                );
                tasks += 4;
            }
            let end = horizon
                .max(cpu.busy_until(&bank))
                .max(mcu.busy_until(&bank));
            cpu.finish(&mut bank, &mut ledger, end);
            mcu.finish(&mut bank, &mut ledger, end);
            std::hint::black_box(ledger.total());
            tasks
        });
        done
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotse_core::{AppId, Scenario, Scheme};
    use std::sync::Arc;

    #[test]
    fn the_engine_replay_fires_as_many_events_as_the_executor() {
        for scheme in [Scheme::Baseline, Scheme::Beam] {
            let key = RunKey {
                scheme,
                apps: vec![AppId::A2, AppId::A7],
                seed: 5,
                windows: 2,
                faults: Arc::new(Vec::new()),
            };
            let run = Scenario::new(scheme, iotse_apps::catalog::apps(&key.apps, key.seed))
                .windows(key.windows)
                .seed(key.seed)
                .run();
            let replayed = replay(&key, 0);
            assert_eq!(replayed.events, run.events_executed, "{scheme:?}");
            assert!(replayed.reads >= replayed.events);
        }
    }
}
