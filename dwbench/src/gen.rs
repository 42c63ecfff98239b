//! Input generation. Everything a run feeds the simulator derives from
//! the workload seed through SplitMix64, so one seed always yields the
//! same scenario texts and replica seeds, and nothing is read from disk.

/// SplitMix64: a tiny, well-mixed generator for deriving input seeds.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A 40-bit seed: far from `u64` wrap-around when device offsets are
    /// added, and small enough for any integer parser.
    pub fn next_seed(&mut self) -> u64 {
        self.next_u64() >> 24
    }
}

/// One `[[mix]]` entry of a generated scenario.
#[derive(Debug, Clone, Copy)]
pub struct Cohort {
    pub apps: &'static [&'static str],
    pub weight: u64,
}

/// Wearable, seismic station and smart-home hub, weighted 4:3:1 — the
/// `population_cohorts` corpus shape.
pub const POPULATION: &[Cohort] = &[
    Cohort {
        apps: &["A2", "A8"],
        weight: 4,
    },
    Cohort {
        apps: &["A7"],
        weight: 3,
    },
    Cohort {
        apps: &["A1", "A5"],
        weight: 1,
    },
];

/// Step counter and earthquake detector on one shared accelerometer.
pub const STORM: &[Cohort] = &[Cohort {
    apps: &["A2", "A7"],
    weight: 1,
}];

/// The scenario-language text of one generated population.
#[derive(Debug, Clone, Copy)]
pub struct SpecShape<'a> {
    pub name: &'a str,
    pub seed: u64,
    pub windows: u32,
    pub devices: u32,
    pub scheme: &'a str,
    pub cohorts: &'a [Cohort],
    pub telemetry: bool,
    pub faults: bool,
}

/// Renders `shape` as a scenario file.
pub fn spec_text(shape: &SpecShape<'_>) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(512);
    let _ = writeln!(out, "[scenario]");
    let _ = writeln!(out, "name = \"{}\"", shape.name);
    let _ = writeln!(out, "seed = {}", shape.seed);
    let _ = writeln!(out, "windows = {}", shape.windows);
    let _ = writeln!(out, "devices = {}", shape.devices);
    let _ = writeln!(out, "scheme = \"{}\"", shape.scheme);
    let _ = writeln!(out, "distribution = \"weighted\"");
    if shape.telemetry {
        let _ = writeln!(out, "telemetry = true");
    }
    if shape.faults {
        let _ = writeln!(out, "faults = \"demo\"");
    }
    for c in shape.cohorts {
        let apps: Vec<String> = c.apps.iter().map(|a| format!("\"{a}\"")).collect();
        let _ = writeln!(out, "\n[[mix]]");
        let _ = writeln!(out, "apps = [{}]", apps.join(", "));
        let _ = writeln!(out, "weight = {}", c.weight);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_a_pure_function_of_its_seed() {
        let a: Vec<u64> = (0..4)
            .scan(SplitMix64::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(SplitMix64::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .scan(SplitMix64::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(SplitMix64::new(1).next_seed() < 1 << 40);
    }

    #[test]
    fn generated_text_parses() {
        let text = spec_text(&SpecShape {
            name: "population-b0-beam",
            seed: 12,
            windows: 2,
            devices: 8,
            scheme: "beam",
            cohorts: POPULATION,
            telemetry: true,
            faults: true,
        });
        let spec = iotse_core::ScenarioSpec::parse(&text).expect("generated text parses");
        assert_eq!(spec.devices, 8);
        assert_eq!(spec.mix.len(), 3);
        assert!(spec.telemetry);
        assert!(!spec.faults.is_empty());
    }
}
