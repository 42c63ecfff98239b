//! Process-level probes and set-up: a counting allocator, the resident-set
//! high-water mark, and a re-execution with address-space randomisation
//! off.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts allocations and requested bytes, then delegates to [`System`].
/// Frees are not tracked: the traced run reads the allocator traffic of
/// one `Scenario::run` on the calling thread as a delta of two
/// monotonic counters.
pub struct CountingAlloc;

// SAFETY: every method delegates to `System` with unchanged arguments; the
// counter updates are lock-free atomics, safe in any allocation context.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` and `layout` come from this allocator, which
        // obtained them from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Cumulative `(allocations, bytes requested)` since process start.
pub fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the allocator's free pages to the kernel, then resets the
/// resident-set high-water mark to the current resident set (`5` to
/// `/proc/self/clear_refs`), so the next reading is the peak of what
/// follows rather than of what earlier cycles left behind. `false` where
/// the kernel refuses the reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` only releases memory glibc's allocator holds
    // free; it takes no pointers and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's resident-set high-water mark in MiB (`VmHWM` of
/// `/proc/self/status`), or `None` where that file is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(target_os = "linux")]
extern "C" {
    fn personality(persona: std::os::raw::c_ulong) -> std::os::raw::c_int;
}

/// Set in the environment of the re-executed benchmark, so it re-executes
/// at most once.
const REEXEC_ENV: &str = "DWBENCH_NO_ASLR";

/// Re-executes the benchmark, with the same arguments, with address-space
/// randomisation off, so that the heap lies out the same way in every run:
/// with it on, the one-job `paper_sweep` reads a peak resident set up to
/// 1 MiB apart on the same seed. Returns, and the run goes on as it is,
/// where randomisation cannot be turned off.
pub fn without_aslr() {
    #[cfg(target_os = "linux")]
    {
        use std::os::unix::process::CommandExt;
        /// Linux's `ADDR_NO_RANDOMIZE` personality flag.
        const ADDR_NO_RANDOMIZE: std::os::raw::c_ulong = 0x0040000;
        /// The argument that makes `personality` only report.
        const QUERY: std::os::raw::c_ulong = 0xffff_ffff;
        if std::env::var_os(REEXEC_ENV).is_some() {
            return;
        }
        // SAFETY: `personality` reads or sets a flag word of the calling
        // process; it takes no pointers.
        let current = unsafe { personality(QUERY) };
        let Ok(flags) = std::os::raw::c_ulong::try_from(current) else {
            return;
        };
        if flags & ADDR_NO_RANDOMIZE != 0 {
            return;
        }
        // SAFETY: as above; the flag takes effect at the next exec.
        if unsafe { personality(flags | ADDR_NO_RANDOMIZE) } < 0 {
            return;
        }
        let Ok(exe) = std::env::current_exe() else {
            return;
        };
        // `exec` only returns on failure, and then the run goes on.
        let _ = std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env(REEXEC_ENV, "1")
            .exec();
    }
}
