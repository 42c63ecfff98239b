//! The three workloads: their inputs, how a batch of device-runs is built
//! from them, and how each device-run's simulated statistics are checked.
//!
//! Every workload is a closed loop: one client builds a batch of
//! device-runs, submits it to a `Fleet`, waits for all of them, checks
//! them and submits the next. One operation is one device-run; one batch
//! always starts from cleared compute and signal caches, and every
//! device-run starts with a cold modelled CPU and MCU at t = 0.

use std::sync::Arc;

use iotse_core::scenario_spec::{output_checksum, AppFactory, ScenarioSpec};
use iotse_core::{AppId, RunResult, Scenario, Scheme};
use iotse_sim::faults::FaultScript;

use crate::gen::{self, SpecShape, SplitMix64};
use crate::spans::{self, NO_REQUEST};

/// The seed a run uses when none is given. Not 42, the seed EXPERIMENTS.md
/// was tuned on, so `paper_err_pp` is measured on held-back inputs.
pub const DEFAULT_SEED: u64 = 9001;

/// The paper's headline savings in percent: Fig 10 Batching and COM, Fig
/// 11 BEAM and BCOM.
pub const PAPER_SAVINGS_PCT: [f64; 4] = [52.0, 85.0, 29.0, 70.0];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Weighted wearable/seismic/hub cohorts under all five schemes, every
    /// device-run on its own seed, on a fleet as wide as the host.
    Population,
    /// Figures 10 and 11 over replica seeds; the three schemes of a figure
    /// share each replica's seed.
    PaperSweep,
    /// A2+A7 devices under the demo fault pack with every observability
    /// layer on.
    ObservedStorm,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Population, Kind::PaperSweep, Kind::ObservedStorm];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Population => "population",
            Kind::PaperSweep => "paper_sweep",
            Kind::ObservedStorm => "observed_storm",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Observability and faults as the workload itself runs them.
    pub fn base(self) -> Variant {
        match self {
            Kind::ObservedStorm => Variant {
                observed: true,
                faulted: true,
            },
            _ => Variant {
                observed: false,
                faulted: false,
            },
        }
    }

    /// Fleet width: the population uses every CPU, the others one.
    pub fn jobs(self) -> usize {
        match self {
            Kind::Population => iotse_core::Fleet::available_parallelism(),
            _ => 1,
        }
    }

    fn cohorts(self) -> &'static [gen::Cohort] {
        match self {
            Kind::ObservedStorm => gen::STORM,
            _ => gen::POPULATION,
        }
    }
}

/// How much one run's inputs hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Distinct batches; the loop cycles through them.
    pub batches: usize,
    /// Devices per scheme in one batch (spec workloads only).
    pub devices: u32,
    /// 1-second windows per device-run.
    pub windows: u32,
}

impl Size {
    /// The size every benchmark run uses; the pinned digests belong to it.
    pub fn standard(kind: Kind) -> Size {
        match kind {
            Kind::Population => Size {
                batches: 2,
                devices: 8,
                windows: 5,
            },
            Kind::PaperSweep => Size {
                batches: 2,
                devices: 1,
                windows: 5,
            },
            Kind::ObservedStorm => Size {
                batches: 2,
                devices: 2,
                windows: 5,
            },
        }
    }
}

/// Which optional layers a batch runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    /// Telemetry plus `with_trace`, `with_metrics` and `with_timeline`.
    pub observed: bool,
    /// The scenario language's `faults = "demo"` pack.
    pub faulted: bool,
}

/// Everything one run generates from its seed before building batches.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub kind: Kind,
    pub size: Size,
    /// Per batch: the base seed of each scheme's population (spec
    /// workloads) or the replica seed (paper sweep, one entry).
    batch_seeds: Vec<Vec<u64>>,
    /// Seed of the scenario text the paper sweep's faulted variant takes
    /// the demo fault pack from.
    fault_seed: u64,
}

impl Inputs {
    pub fn generate(kind: Kind, size: Size, seed: u64) -> Inputs {
        let mut rng = SplitMix64::new(seed);
        let per_batch = if kind == Kind::PaperSweep {
            1
        } else {
            Scheme::ALL.len()
        };
        let base = rng.next_seed();
        let batch_seeds = (0..size.batches)
            .map(|b| {
                (0..per_batch)
                    .map(|k| {
                        if kind == Kind::PaperSweep {
                            rng.next_seed()
                        } else {
                            // Disjoint device ranges: every device-run of
                            // the run has its own seed.
                            let slot = (b * per_batch + k) as u64;
                            base + slot * u64::from(size.devices)
                        }
                    })
                    .collect()
            })
            .collect();
        Inputs {
            kind,
            size,
            batch_seeds,
            fault_seed: rng.next_seed(),
        }
    }

    /// The scenario text of one scheme's population in batch `b`.
    pub fn spec_text(&self, b: usize, k: usize, v: Variant) -> String {
        let scheme = scheme_key(Scheme::ALL[k]);
        let name = format!("{}-b{b}-{scheme}", self.kind.name()).replace('_', "-");
        gen::spec_text(&SpecShape {
            name: &name,
            seed: self.batch_seeds[b][k],
            windows: self.size.windows,
            devices: self.size.devices,
            scheme,
            cohorts: self.kind.cohorts(),
            telemetry: v.observed,
            faults: v.faulted,
        })
    }

    /// The seed of paper-sweep replica `b`.
    pub fn replica_seed(&self, b: usize) -> u64 {
        self.batch_seeds[b][0]
    }
}

/// The demo fault pack, taken through the scenario language: a one-device
/// spec with `faults = "demo"` is parsed and compiled (so the paper sweep
/// exercises the scenario-language layer too), and its scripts are what
/// the paper sweep's faulted variant injects.
fn demo_faults(seed: u64, windows: u32) -> Vec<FaultScript> {
    let text = gen::spec_text(&SpecShape {
        name: "paper-sweep-faults",
        seed,
        windows,
        devices: 1,
        scheme: "baseline",
        cohorts: &[gen::Cohort {
            apps: &["A2"],
            weight: 1,
        }],
        telemetry: false,
        faults: true,
    });
    let spec = parse(&text);
    let runs = spans::time("scenario_spec.runs", NO_REQUEST, || spec.runs());
    for run in &runs {
        let scenario = spans::time("scenario_spec.scenario_for", NO_REQUEST, || {
            spec.scenario_for(run, &iotse_apps::catalog::app)
        });
        drop(scenario);
    }
    spec.faults
}

fn parse(text: &str) -> ScenarioSpec {
    spans::time("scenario_spec.parse", NO_REQUEST, || {
        ScenarioSpec::parse(text)
    })
    .unwrap_or_else(|e| panic!("generated scenario text must parse: {e}\n{text}"))
}

/// The scenario-language name of a scheme.
fn scheme_key(s: Scheme) -> &'static str {
    match s {
        Scheme::Baseline => "baseline",
        Scheme::Batching => "batching",
        Scheme::Com => "com",
        Scheme::Beam => "beam",
        Scheme::Bcom => "bcom",
    }
}

/// What a device-run is, independent of its `Scenario` value.
#[derive(Debug, Clone)]
pub struct RunKey {
    pub scheme: Scheme,
    pub apps: Vec<AppId>,
    pub seed: u64,
    pub windows: u32,
    pub faults: Arc<Vec<FaultScript>>,
}

/// One batch of device-runs, ready to submit.
#[derive(Debug)]
pub struct Batch {
    pub scenarios: Vec<Scenario>,
    pub keys: Vec<RunKey>,
    /// Spec workloads: the parsed specs and each run's spec index.
    pub specs: Vec<ScenarioSpec>,
    pub spec_of: Vec<usize>,
}

impl Batch {
    pub fn device_windows(&self) -> u64 {
        self.keys.iter().map(|k| u64::from(k.windows)).sum()
    }
}

/// The device-run id shared by every span of one request.
pub fn request_id(b: usize, i: usize) -> u64 {
    ((b as u64) << 32) | i as u64
}

/// Builds batch `b` of `inputs` in variant `v`, constructing every
/// workload through `factory`.
pub fn build(inputs: &Inputs, b: usize, v: Variant, factory: &AppFactory<'_>) -> Batch {
    spans::time("setup", NO_REQUEST, || match inputs.kind {
        Kind::PaperSweep => build_paper(inputs, b, v, factory),
        Kind::Population | Kind::ObservedStorm => build_specs(inputs, b, v, factory),
    })
}

fn build_specs(inputs: &Inputs, b: usize, v: Variant, factory: &AppFactory<'_>) -> Batch {
    let specs: Vec<ScenarioSpec> = (0..Scheme::ALL.len())
        .map(|k| parse(&inputs.spec_text(b, k, v)))
        .collect();
    let runs: Vec<_> = specs
        .iter()
        .map(|s| spans::time("scenario_spec.runs", NO_REQUEST, || s.runs()))
        .collect();
    let faults: Vec<Arc<Vec<FaultScript>>> =
        specs.iter().map(|s| Arc::new(s.faults.clone())).collect();
    let n = runs.iter().map(Vec::len).sum();
    let mut batch = Batch {
        scenarios: Vec::with_capacity(n),
        keys: Vec::with_capacity(n),
        specs: Vec::new(),
        spec_of: Vec::with_capacity(n),
    };
    // Device-major: the five schemes interleave in submission order.
    for d in 0..inputs.size.devices as usize {
        for (k, (spec, spec_runs)) in specs.iter().zip(&runs).enumerate() {
            let run = spec_runs[d];
            let request = request_id(b, batch.scenarios.len());
            let mut scenario = spans::time("scenario_spec.scenario_for", request, || {
                spec.scenario_for(&run, factory)
            });
            if v.observed {
                scenario = scenario.with_trace().with_metrics().with_timeline();
            }
            batch.scenarios.push(scenario);
            batch.keys.push(RunKey {
                scheme: run.scheme,
                apps: spec.mix[run.mix_index].apps.clone(),
                seed: run.seed,
                windows: spec.windows,
                faults: Arc::clone(&faults[k]),
            });
            batch.spec_of.push(k);
        }
    }
    batch.specs = specs;
    batch
}

/// The paper sweep's cells in `fig10::run` then `fig11::run` order.
fn paper_cells() -> Vec<(Scheme, Vec<AppId>)> {
    let fig10 = AppId::LIGHT
        .iter()
        .flat_map(|&id| Scheme::SINGLE_APP.map(|s| (s, vec![id])));
    let fig11 = iotse_apps::figure11_combinations()
        .into_iter()
        .flat_map(|combo| Scheme::MULTI_APP.map(|s| (s, combo.clone())));
    fig10.chain(fig11).collect()
}

fn build_paper(inputs: &Inputs, b: usize, v: Variant, factory: &AppFactory<'_>) -> Batch {
    let seed = inputs.replica_seed(b);
    let faults = Arc::new(if v.faulted {
        demo_faults(inputs.fault_seed, inputs.size.windows)
    } else {
        Vec::new()
    });
    let cells = paper_cells();
    let mut batch = Batch {
        scenarios: Vec::with_capacity(cells.len()),
        keys: Vec::with_capacity(cells.len()),
        specs: Vec::new(),
        spec_of: Vec::new(),
    };
    for (scheme, apps) in cells {
        let request = request_id(b, batch.scenarios.len());
        // The `ExperimentConfig::scenario` construction the figures use.
        let mut scenario = spans::time("scenario.new", request, || {
            let workloads = apps.iter().map(|&id| factory(id, seed)).collect();
            Scenario::new(scheme, workloads)
                .windows(inputs.size.windows)
                .seed(seed)
        });
        if v.observed {
            scenario = scenario
                .with_telemetry()
                .with_trace()
                .with_metrics()
                .with_timeline();
        }
        if v.faulted {
            scenario = scenario.faults(faults.to_vec());
        }
        batch.scenarios.push(scenario);
        batch.keys.push(RunKey {
            scheme,
            apps,
            seed,
            windows: inputs.size.windows,
            faults: Arc::clone(&faults),
        });
    }
    batch
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over a device-run's simulated statistics: events,
/// interrupts, sensor reads, bus bytes, ledger total bits, QoS misses and
/// the kernel-output checksum.
fn digest(r: &RunResult) -> u64 {
    let words = [
        r.events_executed,
        r.interrupts,
        r.sensor_reads,
        r.bytes_transferred,
        r.ledger.total().as_microjoules().to_bits(),
        r.qos_violations() as u64,
        output_checksum(std::slice::from_ref(r)),
    ];
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(FNV_OFFSET, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
        })
}

/// `true` if `r` is structurally the run `key` asked for.
fn well_formed(key: &RunKey, r: &RunResult) -> bool {
    r.scheme == key.scheme
        && r.seed == key.seed
        && r.apps.len() == key.apps.len()
        && r.apps
            .iter()
            .zip(&key.apps)
            .all(|(a, &id)| a.id == id && a.windows.len() == key.windows as usize)
        && r.ledger.total().as_microjoules().is_finite()
        && r.ledger.total().as_microjoules() > 0.0
}

/// Digests of a batch's results; a malformed run digests to 0, which no
/// reference holds.
pub fn digests(keys: &[RunKey], results: &[RunResult]) -> Vec<u64> {
    keys.iter()
        .zip(results)
        .map(|(k, r)| if well_formed(k, r) { digest(r) } else { 0 })
        .collect()
}

/// The digests every batch must reproduce: the pins for the default seed,
/// otherwise whatever the batch's first execution in this process gave.
#[derive(Debug, Clone)]
pub struct Reference {
    per_batch: Vec<Option<Vec<u64>>>,
    /// `true` if the batches are checked against `pins/<workload>.txt`.
    pub pinned: bool,
}

impl Reference {
    pub fn new(kind: Kind, size: Size, seed: u64) -> Reference {
        if seed == DEFAULT_SEED && size == Size::standard(kind) {
            Reference::pinned(kind)
        } else {
            Reference::empty(size.batches)
        }
    }

    /// The pinned digests of `kind`'s default-seed batches at the standard
    /// size. Missing or torn pins leave every batch an empty reference,
    /// which every device-run mismatches.
    pub fn pinned(kind: Kind) -> Reference {
        let batches = Size::standard(kind).batches;
        let pins = parse_pins(pin_text(kind));
        if pins.is_empty() || !pins.len().is_multiple_of(batches) {
            return Reference {
                per_batch: vec![Some(Vec::new()); batches],
                pinned: false,
            };
        }
        Reference {
            per_batch: pins
                .chunks(pins.len() / batches)
                .map(|c| Some(c.to_vec()))
                .collect(),
            pinned: true,
        }
    }

    pub fn empty(batches: usize) -> Reference {
        Reference {
            per_batch: vec![None; batches],
            pinned: false,
        }
    }

    /// Number of device-runs of batch `b` that are malformed or whose
    /// digest differs from the reference (recording `got` as the
    /// reference if there is none).
    pub fn mismatches(&mut self, b: usize, got: &[u64]) -> u64 {
        let want = self.per_batch[b].get_or_insert_with(|| got.to_vec());
        if want.len() != got.len() {
            return got.len() as u64;
        }
        want.iter()
            .zip(got)
            .filter(|&(w, g)| w != g || *g == 0)
            .count() as u64
    }
}

fn pin_text(kind: Kind) -> &'static str {
    match kind {
        Kind::Population => include_str!("../pins/population.txt"),
        Kind::PaperSweep => include_str!("../pins/paper_sweep.txt"),
        Kind::ObservedStorm => include_str!("../pins/observed_storm.txt"),
    }
}

fn parse_pins(text: &str) -> Vec<u64> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            u64::from_str_radix(l.trim_start_matches("0x"), 16)
                .unwrap_or_else(|e| panic!("bad pin `{l}`: {e}"))
        })
        .collect()
}

/// The four headline scheme savings of one paper-sweep replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperSavings(pub [f64; 4]);

/// Folds a paper-sweep batch into the figures' mean savings with the same
/// arithmetic as `Fig10::mean_*_saving` and `Fig11::mean_*_saving`.
pub fn paper_savings(results: &[RunResult]) -> PaperSavings {
    let fig10 = AppId::LIGHT.len() * 3;
    let mean = |rows: &[RunResult], pick: usize| -> f64 {
        let savings = rows.chunks(3).map(|row| {
            1.0 - row[pick]
                .breakdown()
                .total()
                .ratio_of(row[0].breakdown().total())
        });
        savings.sum::<f64>() / (rows.len() / 3) as f64
    };
    let (single, multi) = results.split_at(fig10);
    PaperSavings([
        mean(single, 1),
        mean(single, 2),
        mean(multi, 1),
        mean(multi, 2),
    ])
}

/// Mean absolute error, in percentage points, of the replica-averaged
/// headline savings against the paper.
pub fn paper_err_pp(replicas: &[PaperSavings]) -> f64 {
    let n = replicas.len() as f64;
    PAPER_SAVINGS_PCT
        .iter()
        .enumerate()
        .map(|(i, paper)| {
            let sim = replicas.iter().map(|r| r.0[i]).sum::<f64>() / n;
            (sim * 100.0 - paper).abs()
        })
        .sum::<f64>()
        / PAPER_SAVINGS_PCT.len() as f64
}

/// Empties both host caches so a batch starts cold and its hit/miss
/// counts are exact.
pub fn clear_caches() {
    iotse_core::compute_cache::clear();
    iotse_sensors::signal::cache::clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_record_first_then_count_mismatched_and_malformed_runs() {
        let mut r = Reference::empty(1);
        assert_eq!(
            r.mismatches(0, &[1, 2, 0]),
            1,
            "a malformed run fails at once"
        );
        assert_eq!(r.mismatches(0, &[1, 3, 0]), 2);
        assert_eq!(r.mismatches(0, &[1, 2]), 2, "a short batch fails whole");
    }

    #[test]
    fn paper_error_is_the_mean_absolute_gap_in_points() {
        let exact = PaperSavings(PAPER_SAVINGS_PCT.map(|p| p / 100.0));
        assert!(paper_err_pp(&[exact]) < 1e-9);
        let off = PaperSavings([0.50, 0.85, 0.29, 0.70]);
        assert!((paper_err_pp(&[exact, off]) - 0.25).abs() < 1e-9);
    }
}
