//! The traced run's span recorder.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions (and, through [`timed_app`], around every
//! `Workload::compute` the executor makes). They stay in memory — name,
//! start, end, parent, and the id of the device-run they belong to — and
//! are written out as JSON and as folded host-cost stacks when the
//! benchmark ends. With the recorder off, [`time`] is a plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use iotse_core::{AppId, AppOutput, ResourceProfile, SensorUsage, WindowData, Workload};
use iotse_sim::time::SimDuration;

use crate::clock::now_ns;

/// Request id of spans that belong to no single device-run.
pub const NO_REQUEST: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorded list.
    pub parent: Option<usize>,
    /// The device-run this span belongs to, inherited from the parent
    /// when the caller names none.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Recorder {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Turns recording on or off for the calling thread.
pub fn enable(on: bool) {
    RECORDER.with(|r| r.borrow_mut().on = on);
}

/// Number of spans recorded so far.
pub fn recorded() -> usize {
    RECORDER.with(|r| r.borrow().spans.len())
}

/// Takes every recorded span, leaving the recorder empty.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Runs `f` inside a span named `name`, a child of the innermost open
/// span. Only the call itself is inside the measured interval. The span is
/// closed even if `f` panics, so a caught panic leaves the stack as it was.
pub fn time<T>(name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let parent = r.open.last().copied();
        let request = match (request, parent) {
            (NO_REQUEST, Some(p)) => r.spans[p].request,
            _ => request,
        };
        r.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request,
        });
        let index = r.spans.len() - 1;
        r.open.push(index);
        r.spans[index].start_ns = now_ns();
        Some(index)
    });
    let _open = index.map(Open);
    f()
}

/// An open span; dropping it, on return or while unwinding, closes it.
struct Open(usize);

impl Drop for Open {
    fn drop(&mut self) {
        let end = now_ns();
        // Never panics: a drop that panicked while unwinding would abort.
        let _ = RECORDER.try_with(|r| {
            if let Ok(mut r) = r.try_borrow_mut() {
                if let Some(span) = r.spans.get_mut(self.0) {
                    span.end_ns = end;
                }
                r.open.pop();
            }
        });
    }
}

/// A workload whose every `compute` call is recorded as an `apps.<id>`
/// span. Everything else forwards unchanged, memoization included, so a
/// wrapped run is bitwise identical to a bare one.
struct Timed {
    inner: Box<dyn Workload>,
    span: &'static str,
}

impl Workload for Timed {
    fn id(&self) -> AppId {
        self.inner.id()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn window(&self) -> SimDuration {
        self.inner.window()
    }
    fn sensors(&self) -> Vec<SensorUsage> {
        self.inner.sensors()
    }
    fn resources(&self) -> ResourceProfile {
        self.inner.resources()
    }
    fn compute(&mut self, data: &WindowData) -> AppOutput {
        let inner = &mut self.inner;
        time(self.span, NO_REQUEST, || inner.compute(data))
    }
    fn memoizable(&self) -> bool {
        self.inner.memoizable()
    }
    fn memo_salt(&self) -> u128 {
        self.inner.memo_salt()
    }
}

/// The span name of one app's kernel.
fn app_span(id: AppId) -> &'static str {
    match id {
        AppId::A1 => "apps.A1",
        AppId::A2 => "apps.A2",
        AppId::A3 => "apps.A3",
        AppId::A4 => "apps.A4",
        AppId::A5 => "apps.A5",
        AppId::A6 => "apps.A6",
        AppId::A7 => "apps.A7",
        AppId::A8 => "apps.A8",
        AppId::A9 => "apps.A9",
        AppId::A10 => "apps.A10",
        AppId::A11 => "apps.A11",
    }
}

/// An `AppFactory` that builds the catalog app wrapped in kernel timing.
pub fn timed_app(id: AppId, seed: u64) -> Box<dyn Workload> {
    Box::new(Timed {
        inner: iotse_apps::catalog::app(id, seed),
        span: app_span(id),
    })
}

/// Host nanoseconds of each span's direct children.
pub fn child_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.duration_ns();
        }
    }
    child
}

/// Folded host-cost stacks: one `root;child;leaf <self ns>` line per
/// distinct stack, self time summed, lines sorted.
pub fn folded(spans: &[Span]) -> String {
    let child = child_ns(spans);
    let mut paths: Vec<String> = Vec::with_capacity(spans.len());
    let mut stacks: BTreeMap<&str, u64> = BTreeMap::new();
    for s in spans {
        // Parents are recorded before their children.
        let path = match s.parent {
            Some(p) => format!("{};{}", paths[p], s.name),
            None => s.name.to_string(),
        };
        paths.push(path);
    }
    for (i, s) in spans.iter().enumerate() {
        *stacks.entry(paths[i].as_str()).or_default() += s.duration_ns().saturating_sub(child[i]);
    }
    let mut out = String::new();
    for (path, ns) in stacks {
        let _ = writeln!(out, "{path} {ns}");
    }
    out
}

/// The spans as one JSON document, with the measured tracing overhead.
pub fn to_json(workload: &str, seed: u64, trace_overhead: f64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(96 * spans.len() + 128);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"bench.trace_overhead\":{trace_overhead},\"spans\":["
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
            s.name, s.start_ns, s.end_ns
        );
        match s.parent {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"request\":");
        if s.request == NO_REQUEST {
            out.push_str("null");
        } else {
            let _ = write!(out, "{}", s.request);
        }
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_requests_and_self_time() {
        enable(true);
        let _ = take();
        time("runner", NO_REQUEST, || {
            time("executor", 7, || {
                time("apps.A2", NO_REQUEST, || std::hint::black_box(1 + 1));
            });
        });
        let spans = take();
        enable(false);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].request, 7, "children inherit the device-run id");
        assert_eq!(spans[0].request, NO_REQUEST);
        let folded = folded(&spans);
        assert!(folded.contains("runner;executor;apps.A2 "));
        let json = to_json("population", 1, 1.0, &spans);
        assert!(json.contains("\"parent\":null"));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn a_panic_inside_a_span_closes_it_and_its_parents() {
        enable(true);
        let _ = take();
        let caught = std::panic::catch_unwind(|| {
            time("runner", NO_REQUEST, || {
                time("executor", 1, || panic!("a device-run panicked"))
            })
        });
        assert!(caught.is_err());
        time("setup", NO_REQUEST, || ());
        let spans = take();
        enable(false);
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.end_ns > 0));
        assert_eq!(spans[2].parent, None, "the unwind closed both spans");
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        enable(false);
        let before = recorded();
        assert_eq!(time("runner", NO_REQUEST, || 3), 3);
        assert_eq!(recorded(), before);
    }
}
