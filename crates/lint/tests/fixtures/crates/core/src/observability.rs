//! Fixture: metric/span label naming (`IOTSE-M09`).

/// Registers this module's metrics and spans.
pub fn register(reg: &mut MetricsRegistry, log: &mut TraceLog, t: SimTime) {
    // Well-named registrations stay silent.
    let good_counter = reg.counter("iotse_core_interrupts_total");
    let good_span = log.enter_span(t, TraceKind::Scheme, "iotse_core_tick", &[]);
    // Violations: no prefix, upper case, unknown crate segment, bare span.
    let bad_counter = reg.counter("interrupts");
    let bad_gauge = reg.gauge("iotse_core_Power");
    let bad_hist = reg.histogram("iotse_kernel_sizes", &[1.0, 10.0]);
    let bad_span = log.enter_span(t, TraceKind::Scheme, "tick", &[("bytes", n)]);
    // A suppressed legacy name is waived like any other rule.
    // iotse-lint: allow(IOTSE-M09) legacy dashboards expect this name
    let legacy = reg.counter("old_style_total");
    // Pass-through of a variable never fires, nor does a span field name.
    let looked_up = reg.gauge(name);
    let _ = (
        good_counter,
        good_span,
        bad_counter,
        bad_gauge,
        bad_hist,
        bad_span,
        legacy,
        looked_up,
    );
}
