//! `IOTSE-M09` — metric and span labels follow `iotse_<crate>_<name>`.
//!
//! The observability layer aggregates metrics across runs and folds span
//! stacks across crates; both only stay mergeable and greppable if every
//! registration site uses the shared naming scheme. The rule inspects the
//! label argument of each registration call — the third argument of
//! `enter_span(time, kind, "..", fields)`, the first of `.counter("..")`,
//! `.gauge("..")` and `.histogram("..", ..)` — and requires
//! `iotse_<crate>_<snake_case>` where `<crate>` is one of the workspace
//! crates. Arguments are split at top-level commas, so a call may span
//! lines, and the other arguments (such as a span's field names) are never
//! read. Lookup helpers share the method names, so well-named lookups are
//! checked for free; a label argument that is not a string literal
//! (definitions, variable-name pass-through) is never flagged.

use crate::scan::{FileKind, SourceFile};
use crate::Finding;

/// Rule ID.
pub const ID: &str = "IOTSE-M09";
/// One-line summary for `explain`.
pub const SUMMARY: &str =
    "metric and span label literals must match iotse_<crate>_<name> (lower snake_case)";

/// Call markers of label registrations, with the 0-based position of the
/// label among the call's arguments.
const CALL_SITES: &[(&str, usize)] = &[
    ("enter_span(", 2),
    (".counter(", 0),
    (".gauge(", 0),
    (".histogram(", 0),
];

/// Valid `<crate>` segments for the prefix.
const CRATES: &[&str] = &["sim", "energy", "sensors", "core", "apps", "bench"];

/// `true` if `label` matches `iotse_<crate>_<name>` with a lower
/// snake_case, non-empty `<name>`.
fn is_valid_label(label: &str) -> bool {
    let Some(rest) = label.strip_prefix("iotse_") else {
        return false;
    };
    let Some((crate_part, name)) = rest.split_once('_') else {
        return false;
    };
    CRATES.contains(&crate_part)
        && !name.is_empty()
        && !name.starts_with('_')
        && !name.ends_with('_')
        && !name.contains("__")
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// The `n`th (0-based) top-level argument of the call whose argument list
/// starts at byte `col` of 0-based line `line`: the 0-based line its text
/// starts on, and that text trimmed, with string literals kept. Brackets
/// and commas are read from the code view, where literals are blanked, so
/// those inside strings never split an argument. `None` if the call has
/// fewer arguments.
fn nth_argument(file: &SourceFile, line: usize, col: usize, n: usize) -> Option<(usize, String)> {
    let mut depth = 0usize;
    let mut index = 0;
    let mut text: Vec<u8> = Vec::new();
    let mut start = None;
    'scan: for (li, code) in file.code.iter().enumerate().skip(line) {
        let code = code.as_bytes();
        // The code view drops trailing blanks, so a literal ending its
        // line is only in the strings-kept view.
        let kept = file.code_str[li].as_bytes();
        let from = if li == line { col } else { 0 };
        for c in from..kept.len().max(code.len()) {
            match code.get(c).copied().unwrap_or(b' ') {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' if depth > 0 => depth -= 1,
                b')' | b']' | b'}' => break 'scan,
                b',' if depth == 0 => {
                    if index == n {
                        break 'scan;
                    }
                    index += 1;
                    continue;
                }
                _ => {}
            }
            if index == n {
                let b = kept.get(c).copied().unwrap_or(b' ');
                if start.is_none() && !b.is_ascii_whitespace() {
                    start = Some(li);
                }
                text.push(b);
            }
        }
        text.push(b' ');
    }
    let start = start.filter(|_| index == n)?;
    Some((start, String::from_utf8_lossy(&text).trim().to_string()))
}

/// The label literals passed at registration call sites, as 1-based line
/// and literal contents. Arguments that are not one plain string literal
/// are skipped.
fn label_literals(file: &SourceFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, code) in file.code.iter().enumerate() {
        for &(site, n) in CALL_SITES {
            let mut from = 0;
            while let Some(pos) = code[from..].find(site) {
                let open = from + pos + site.len();
                from = open;
                let Some((line, arg)) = nth_argument(file, i, open, n) else {
                    continue;
                };
                let literal = arg.strip_prefix('"').and_then(|a| a.strip_suffix('"'));
                if let Some(inner) = literal {
                    out.push((line + 1, inner.to_string()));
                }
            }
        }
    }
    out
}

/// Runs the rule over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.kind == FileKind::Test {
        return;
    }
    for (lineno, literal) in label_literals(file) {
        if file.in_test_span(lineno) || is_valid_label(&literal) {
            continue;
        }
        out.push(Finding::new(
            file,
            lineno,
            ID,
            format!(
                "label `{literal}` does not match iotse_<crate>_<name> \
                 (crates: {})",
                CRATES.join("|")
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_pattern_is_strict() {
        assert!(is_valid_label("iotse_core_transfer"));
        assert!(is_valid_label("iotse_energy_total_microjoules"));
        assert!(is_valid_label("iotse_bench_sizes2"));
        assert!(!is_valid_label("core_transfer"), "missing prefix");
        assert!(!is_valid_label("iotse_kernel_x"), "unknown crate");
        assert!(!is_valid_label("iotse_core_"), "empty name");
        assert!(!is_valid_label("iotse_core_Transfer"), "upper case");
        assert!(!is_valid_label("iotse_core__x"), "double underscore");
        assert!(!is_valid_label("iotse_core_x_"), "trailing underscore");
    }

    #[test]
    fn only_call_sites_with_literals_are_checked() {
        let src = "\
let id = reg.counter(\"iotse_core_ok_total\");
let bad = reg.gauge(\"power\");
let span = log.enter_span(t, kind, \"iotse_core_tick\", &[]);
pub fn gauge(&mut self, name: &str) -> GaugeId {
let v = reg.gauge(name);
";
        let file = SourceFile::parse("crates/core/src/x.rs", src);
        let mut findings = Vec::new();
        check(&file, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2);
        assert!(findings[0].message.contains("`power`"));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t(reg: &mut R) { reg.counter(\"x\"); }\n}";
        let file = SourceFile::parse("crates/core/src/x.rs", src);
        let mut findings = Vec::new();
        check(&file, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn a_multi_line_span_label_is_checked() {
        let src = "\
let tick = self.trace.enter_span(
    now,
    TraceKind::SensorRead,
    \"tick\",
    &[(\"sensor\", FieldValue::Str(lbl))],
);
";
        let file = SourceFile::parse("crates/core/src/x.rs", src);
        let mut findings = Vec::new();
        check(&file, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 4);
        assert!(findings[0].message.contains("`tick`"));
    }

    #[test]
    fn span_field_names_are_never_labels() {
        let src = "\
let a = log.enter_span(t, kind, \"iotse_core_transfer\", &[(\"bytes\", FieldValue::U64(n))]);
let b = log.enter_span(
    t,
    kind,
    \"iotse_core_tick\",
    &[(\"sensor\", FieldValue::Str(l)), (\"window\", FieldValue::U64(w))],
);
let c = log.enter_span(t, kind, name, &[(\"bytes\", FieldValue::U64(n))]);
pub fn enter_span(&mut self, time: SimTime, kind: TraceKind, label: &str) -> SpanId {
";
        let file = SourceFile::parse("crates/core/src/x.rs", src);
        let mut findings = Vec::new();
        check(&file, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn commas_and_brackets_inside_literals_do_not_split_arguments() {
        let src = "let s = log.enter_span(f(\"a,b)\"), kind, \"bad label\", &[]);\n";
        let file = SourceFile::parse("crates/core/src/x.rs", src);
        let mut findings = Vec::new();
        check(&file, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`bad label`"));
    }

    #[test]
    fn escaped_quotes_stay_inside_the_literal() {
        let src = "let c = reg.counter(\"iotse_core_\\\"x\");\n";
        let file = SourceFile::parse("crates/core/src/x.rs", src);
        let mut findings = Vec::new();
        check(&file, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("`iotse_core_\\\"x`"),
            "{findings:?}"
        );
    }
}
