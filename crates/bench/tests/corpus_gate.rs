//! The `scenarios/corpus/check` bench case counts the same allocations from
//! every checkout directory.
//!
//! The bench gate compares `allocs`/`alloc_bytes` exactly, so any path
//! string built while a case's allocations are counted makes the gate
//! depend on where the repository lives. This test copies the committed
//! corpus under two directories whose names differ in length, builds the
//! case over each copy, and requires identical counters.
//!
//! It installs its own allocator that counts per thread, so the test
//! harness's other threads cannot perturb the numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

use iotse_bench::suite::corpus_case;

thread_local! {
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with` fails only during thread teardown, when nothing is measured.
    let _ = COUNTS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

/// Counts like the `bench` binary's allocator (allocations plus bytes
/// requested, reallocations at their new size), but per thread.
struct ThreadCountingAlloc;

// SAFETY: every method delegates to `System` with unchanged arguments; the
// counter is a const-initialized thread-local `Cell` with no destructor,
// so touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: ThreadCountingAlloc = ThreadCountingAlloc;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// Copies every committed `*.toml` scenario into `dir`.
fn copy_corpus(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create corpus copy");
    for entry in std::fs::read_dir(corpus_dir()).expect("read corpus") {
        let path = entry.expect("corpus entry").path();
        if path.extension().is_some_and(|x| x == "toml") {
            let name = path.file_name().expect("file name");
            std::fs::copy(&path, dir.join(name)).expect("copy scenario");
        }
    }
}

/// The case's counters plus the allocations of one counted run, measured
/// the way the suite does: a warm-up run, then a counted one. Both
/// process-wide caches start cold, so every measurement replays the same
/// cache history (each resets itself when full, so a warm cache's fill
/// level would otherwise leak into the count).
fn counted_run(dir: &Path) -> (u64, u64, u64, u64) {
    let mut case = corpus_case(dir);
    iotse_sensors::signal::cache::clear();
    iotse_core::compute_cache::clear();
    let warm = (case.run)();
    let (a0, b0) = COUNTS.with(Cell::get);
    let counted = (case.run)();
    let (a1, b1) = COUNTS.with(Cell::get);
    assert_eq!(counted, warm, "corpus case drifted between runs");
    (
        counted.scenarios_run,
        counted.expectations_evaluated,
        a1 - a0,
        b1 - b0,
    )
}

#[test]
fn corpus_counters_do_not_depend_on_the_checkout_path() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let short = root.join("c");
    let long = root.join(format!(
        "corpus-copy-with-a-much-longer-name-{}",
        "x".repeat(64)
    ));
    copy_corpus(&short);
    copy_corpus(&long);

    let at_short = counted_run(&short);
    let at_long = counted_run(&long);
    let committed = counted_run(&corpus_dir());
    let _ = std::fs::remove_dir_all(&short);
    let _ = std::fs::remove_dir_all(&long);

    assert!(at_short.0 >= 10, "corpus copy incomplete: {at_short:?}");
    assert!(at_short.2 > 0, "the counting allocator saw nothing");
    assert_eq!(at_short, at_long, "counters moved with the directory name");
    assert_eq!(
        at_short, committed,
        "copies differ from the committed corpus"
    );
}
