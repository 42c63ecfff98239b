//! The host-speed probe.
//!
//! On a shared host the simulator's speed drifts by up to 1.8x within
//! minutes as neighbours load the machine, all of it in user time, so
//! neither CPU time nor an in-run median removes it. A fixed probe of the
//! benchmark's own — random B-tree updates, an unstable sort and small
//! allocations with string formatting, the branchy, allocating kind of work
//! the simulator does, but none of its code — is timed right after every
//! cycle. Its time tracks the host's speed: scaling each cycle's figures by
//! it roughly halves the spread between runs. The probe's work is the same
//! in every run and on every commit, so a change to the program moves the
//! scaled figures as much as the raw ones.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;

use crate::clock::timed;
use crate::gen::SplitMix64;

/// The probe's nominal time in ns, about its one-thread time on an idle
/// 2-vCPU Xeon host. Scaled figures read as if the host ran the probe, at
/// the workload's width, in this time.
pub const NOMINAL_NS: f64 = 20e6;

/// Host nanoseconds one probe takes on each of `jobs` threads at once, so
/// the probe loads the host as wide as the workload's fleet does.
pub fn probe_ns(jobs: usize) -> u64 {
    let ((), ns) = timed(|| {
        if jobs <= 1 {
            black_box(probe(0));
        } else {
            std::thread::scope(|s| {
                for t in 0..jobs {
                    s.spawn(move || black_box(probe(t as u64)));
                }
            });
        }
    });
    ns
}

/// How much slower than nominal the host ran the probe.
pub fn slowdown(probe_ns: u64) -> f64 {
    probe_ns as f64 / NOMINAL_NS
}

/// The probe's fixed work; `lane` only varies the data between threads.
fn probe(lane: u64) -> u64 {
    let mut rng = SplitMix64::new(0x5eed ^ lane);
    let mut acc = 0u64;

    // Random B-tree inserts, lookups and removals.
    let mut map = BTreeMap::new();
    for _ in 0..20_000 {
        map.insert(rng.next_u64() % 65_536, rng.next_u64());
    }
    for _ in 0..20_000 {
        if let Some(v) = map.get(&(rng.next_u64() % 65_536)) {
            acc ^= v;
        }
        map.remove(&(rng.next_u64() % 65_536));
    }

    // An unstable sort of random keys.
    let mut keys: Vec<u32> = (0..320_000).map(|_| rng.next_u64() as u32).collect();
    keys.sort_unstable();
    acc ^= u64::from(keys[keys.len() / 2]);

    // Small allocations of random size, each formatted into a string.
    let mut text = String::new();
    for i in 0..40_000u64 {
        let len = (rng.next_u64() % 64) as usize;
        let v: Vec<u64> = (0..len as u64).map(|x| x + i).collect();
        text.clear();
        let _ = write!(text, "{:?}-{i}", &v[..len.min(3)]);
        acc += text.len() as u64 + v.len() as u64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_does_the_same_work_every_time() {
        assert_eq!(probe(0), probe(0));
        assert_ne!(probe(0), probe(1));
        assert!(probe_ns(2) > 0);
    }
}
