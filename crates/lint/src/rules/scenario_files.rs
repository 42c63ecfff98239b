//! `IOTSE-F14` — scenario corpus files must satisfy the spec grammar.
//!
//! The `scenario` binary's corpus under `scenarios/` is executable CI
//! input: every file is parsed, run, and graded by
//! `iotse_core::scenario_spec`. This rule is the static half of that
//! gate — it audits each `scenarios/*.toml` without running anything, so
//! a malformed file fails `iotse-lint` (and the editor loop) before the
//! much slower corpus sweep does. It checks the structural invariants the
//! runtime parser enforces: only the known sections and keys, explicit
//! seeds in `[scenario]` and every `[[fault]]`, strictly positive mix
//! weights, app ids drawn from the Table 2 registry (`A1`–`A11`), and
//! scheme names from the five implemented schemes. Per-kind parameter
//! pairing (e.g. `probability` with `sensor-dropout`) stays the runtime
//! parser's job; this rule is the fast grammar audit.
//!
//! A root with no `scenarios/` directory is silently skipped — the rule
//! gates the corpus where one exists, it does not require one.

use std::path::Path;

use crate::toml_mini::{self, Table, Value};
use crate::Finding;

/// Rule ID.
pub const ID: &str = "IOTSE-F14";
/// One-line summary for `explain`.
pub const SUMMARY: &str =
    "scenarios/*.toml must use known sections/keys, explicit seeds, positive weights, and registry app/scheme names";

/// Corpus directory, relative to the scanned root.
pub const DIR: &str = "scenarios";

/// The Table 2 application registry.
const APP_IDS: &[&str] = &[
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10", "A11",
];

/// The implemented execution schemes.
const SCHEMES: &[&str] = &["baseline", "batching", "com", "beam", "bcom"];

/// Keys accepted in `[scenario]`.
const SCENARIO_KEYS: &[&str] = &[
    "name",
    "description",
    "seed",
    "windows",
    "devices",
    "scheme",
    "schemes",
    "distribution",
    "telemetry",
    "faults",
];

/// Keys accepted in a `[[mix]]` entry.
const MIX_KEYS: &[&str] = &["apps", "weight"];

/// Keys accepted in a `[[fault]]` entry (union over all kinds).
const FAULT_KEYS: &[&str] = &[
    "kind",
    "probability",
    "amplitude",
    "per_byte",
    "ppm",
    "rate_hz",
    "start_ms",
    "duration_ms",
    "seed",
    "target",
];

/// Fault kinds known to the scenario language.
const FAULT_KINDS: &[&str] = &[
    "sensor-dropout",
    "sensor-stuck-at",
    "sensor-noise-burst",
    "link-corruption",
    "link-partition",
    "clock-drift",
    "interrupt-storm",
];

/// Keys accepted in an `[[expect]]` entry (union over all kinds).
const EXPECT_KEYS: &[&str] = &[
    "kind",
    "max_miss_ratio",
    "max_total_uj",
    "max_ratio",
    "checksum",
];

/// Expectation kinds the grader implements.
const EXPECT_KINDS: &[&str] = &["qos", "energy-budget", "energy-ratio", "output-checksum"];

/// Audits every `.toml` file under `<root>/scenarios`, if the directory
/// exists.
pub fn check(root: &Path, out: &mut Vec<Finding>) {
    let Ok(entries) = std::fs::read_dir(root.join(DIR)) else {
        return;
    };
    let mut names: Vec<String> = entries
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".toml"))
        .collect();
    names.sort();
    for name in names {
        let rel = format!("{DIR}/{name}");
        match std::fs::read_to_string(root.join(DIR).join(&name)) {
            Ok(text) => check_file(&rel, &text, out),
            Err(e) => out.push(Finding::at(&rel, 1, ID, format!("unreadable: {e}"))),
        }
    }
}

fn check_file(rel: &str, text: &str, out: &mut Vec<Finding>) {
    let doc = match toml_mini::parse(text) {
        Ok(d) => d,
        Err((line, msg)) => {
            out.push(Finding::at(rel, line, ID, format!("malformed: {msg}")));
            return;
        }
    };

    for (section, (line, _)) in &doc.tables {
        match section.as_str() {
            "scenario" => {}
            "mix" | "fault" | "expect" => out.push(Finding::at(
                rel,
                *line,
                ID,
                format!("[{section}] must be an array-of-tables section: [[{section}]]"),
            )),
            other => out.push(Finding::at(
                rel,
                *line,
                ID,
                format!(
                    "unknown section `{other}` (allowed: [scenario], [[mix]], [[fault]], [[expect]])"
                ),
            )),
        }
    }
    for (section, entries) in &doc.arrays {
        let line = entries.first().map_or(1, |(l, _)| *l);
        match section.as_str() {
            "mix" | "fault" | "expect" => {}
            "scenario" => out.push(Finding::at(
                rel,
                line,
                ID,
                "[[scenario]] must be a single table: [scenario]".to_string(),
            )),
            other => out.push(Finding::at(
                rel,
                line,
                ID,
                format!(
                    "unknown section `{other}` (allowed: [scenario], [[mix]], [[fault]], [[expect]])"
                ),
            )),
        }
    }

    match doc.tables.get("scenario") {
        Some((line, table)) => check_scenario(rel, *line, table, out),
        None => out.push(Finding::at(
            rel,
            1,
            ID,
            "missing required [scenario] section".to_string(),
        )),
    }
    for (line, table) in doc.arrays.get("mix").map_or(&[][..], Vec::as_slice) {
        check_mix(rel, *line, table, out);
    }
    for (line, table) in doc.arrays.get("fault").map_or(&[][..], Vec::as_slice) {
        check_fault(rel, *line, table, out);
    }
    for (line, table) in doc.arrays.get("expect").map_or(&[][..], Vec::as_slice) {
        check_expect(rel, *line, table, out);
    }
}

fn unknown_keys(rel: &str, section: &str, table: &Table, allowed: &[&str], out: &mut Vec<Finding>) {
    for (key, (line, _)) in table {
        if !allowed.contains(&key.as_str()) {
            out.push(Finding::at(
                rel,
                *line,
                ID,
                format!("unknown key `{key}` in [{section}]"),
            ));
        }
    }
}

fn check_scenario(rel: &str, line: usize, table: &Table, out: &mut Vec<Finding>) {
    unknown_keys(rel, "scenario", table, SCENARIO_KEYS, out);
    if !table.contains_key("seed") {
        out.push(Finding::at(
            rel,
            line,
            ID,
            "[scenario] has no `seed` — seeds must be explicit".to_string(),
        ));
    }
    if let Some((kline, Value::Str(s))) = table.get("scheme") {
        check_scheme(rel, *kline, s, out);
    }
    if let Some((kline, Value::List(items))) = table.get("schemes") {
        for s in items {
            check_scheme(rel, *kline, s, out);
        }
    }
}

fn check_scheme(rel: &str, line: usize, name: &str, out: &mut Vec<Finding>) {
    if !SCHEMES.contains(&name) {
        out.push(Finding::at(
            rel,
            line,
            ID,
            format!("unknown scheme `{name}` (known: {})", SCHEMES.join(", ")),
        ));
    }
}

fn check_mix(rel: &str, line: usize, table: &Table, out: &mut Vec<Finding>) {
    unknown_keys(rel, "mix", table, MIX_KEYS, out);
    match table.get("apps") {
        Some((kline, Value::List(items))) => {
            for app in items {
                if !APP_IDS.contains(&app.as_str()) {
                    out.push(Finding::at(
                        rel,
                        *kline,
                        ID,
                        format!("unknown app id `{app}` (registry: A1–A11)"),
                    ));
                }
            }
        }
        Some((kline, _)) => out.push(Finding::at(
            rel,
            *kline,
            ID,
            "`apps` must be a [\"A1\", …] list".to_string(),
        )),
        None => out.push(Finding::at(
            rel,
            line,
            ID,
            "[[mix]] entry has no `apps` list".to_string(),
        )),
    }
    if let Some((kline, value)) = table.get("weight") {
        match value {
            Value::Num(n) if *n > 0.0 => {}
            Value::Num(n) => out.push(Finding::at(
                rel,
                *kline,
                ID,
                format!("mix `weight` must be positive, got {n}"),
            )),
            _ => out.push(Finding::at(
                rel,
                *kline,
                ID,
                "mix `weight` must be a positive number".to_string(),
            )),
        }
    }
}

fn check_fault(rel: &str, line: usize, table: &Table, out: &mut Vec<Finding>) {
    unknown_keys(rel, "fault", table, FAULT_KEYS, out);
    if !table.contains_key("seed") {
        out.push(Finding::at(
            rel,
            line,
            ID,
            "[[fault]] entry has no `seed` — seeds must be explicit".to_string(),
        ));
    }
    if let Some((kline, Value::Str(kind))) = table.get("kind") {
        if !FAULT_KINDS.contains(&kind.as_str()) {
            out.push(Finding::at(
                rel,
                *kline,
                ID,
                format!("unknown fault kind `{kind}`"),
            ));
        }
    }
}

fn check_expect(rel: &str, line: usize, table: &Table, out: &mut Vec<Finding>) {
    unknown_keys(rel, "expect", table, EXPECT_KEYS, out);
    match table.get("kind") {
        Some((kline, Value::Str(kind))) if !EXPECT_KINDS.contains(&kind.as_str()) => {
            out.push(Finding::at(
                rel,
                *kline,
                ID,
                format!(
                    "unknown expectation kind `{kind}` (known: {})",
                    EXPECT_KINDS.join(", ")
                ),
            ));
        }
        Some(_) => {}
        None => out.push(Finding::at(
            rel,
            line,
            ID,
            "[[expect]] entry has no `kind`".to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(text: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        check_file("scenarios/t.toml", text, &mut out);
        out
    }

    #[test]
    fn a_wellformed_file_is_clean() {
        let text = "[scenario]\nname = \"ok\"\nseed = 1\nwindows = 2\ndevices = 1\n\
                    scheme = \"beam\"\n[[mix]]\napps = [\"A2\"]\nweight = 3\n\
                    [[expect]]\nkind = \"qos\"\nmax_miss_ratio = 0.5\n";
        assert!(findings(text).is_empty(), "{:?}", findings(text));
    }

    #[test]
    fn each_grammar_violation_is_reported() {
        let text = "[scenario]\nname = \"bad\"\nscheme = \"warp\"\ncolor = \"red\"\n\
                    [[mix]]\napps = [\"A99\"]\nweight = 0\n[teleport]\nx = 1\n";
        let out = findings(text);
        let has = |needle: &str| out.iter().any(|f| f.message.contains(needle));
        assert!(has("no `seed`"), "{out:?}");
        assert!(has("unknown scheme `warp`"), "{out:?}");
        assert!(has("unknown key `color`"), "{out:?}");
        assert!(has("unknown app id `A99`"), "{out:?}");
        assert!(has("`weight` must be positive"), "{out:?}");
        assert!(has("unknown section `teleport`"), "{out:?}");
    }

    #[test]
    fn faults_and_expectations_are_audited() {
        let text = "[scenario]\nname = \"f\"\nseed = 1\n[[mix]]\napps = [\"A1\"]\n\
                    [[fault]]\nkind = \"gamma-ray\"\nstart_ms = 0\nduration_ms = 1\n\
                    [[expect]]\nkind = \"vibes\"\n";
        let out = findings(text);
        let has = |needle: &str| out.iter().any(|f| f.message.contains(needle));
        assert!(has("unknown fault kind `gamma-ray`"), "{out:?}");
        assert!(has("[[fault]] entry has no `seed`"), "{out:?}");
        assert!(has("unknown expectation kind `vibes`"), "{out:?}");
    }

    #[test]
    fn section_shape_mismatches_are_reported() {
        let out = findings("[mix]\napps = [\"A1\"]\n");
        assert!(
            out.iter()
                .any(|f| f.message.contains("[mix] must be an array-of-tables")),
            "{out:?}"
        );
        let out = findings("[[scenario]]\nname = \"x\"\nseed = 1\n");
        assert!(
            out.iter()
                .any(|f| f.message.contains("[[scenario]] must be a single table")),
            "{out:?}"
        );
    }
}
