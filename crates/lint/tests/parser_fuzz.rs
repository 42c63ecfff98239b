//! Seeded mutation fuzzing of the analyzer's parsers.
//!
//! `toml_mini::parse` reads `specs/table1.toml` and the scenario corpus and
//! promises an `Err((line, message))` for the first malformed line, never a
//! panic; `eval_expr` backs every numeric value; `ParsedFile::parse` reads
//! every `.rs` file in the workspace and must survive whatever text it is
//! handed. Each property starts from committed files and applies the
//! mutations real edits produce: byte flips, truncation, line shuffles and
//! huge numbers. The generator is a fixed-seed SplitMix64, so a failing
//! case replays exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use iotse_lint::parse::ParsedFile;
use iotse_lint::scan::SourceFile;
use iotse_lint::toml_mini::{eval_expr, parse};

/// Literals past every integer and float range the parsers convert to.
const HUGE: [&str; 6] = [
    "18446744073709551616",
    "340282366920938463463374607431768211457",
    "9007199254740993",
    "1e308",
    "1e400",
    "-1e400",
];

/// SplitMix64: a tiny, well-mixed, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Files under `dir` (relative to the repository root) with extension
/// `ext`, sorted by name, as `(name, text)`.
fn corpus(dir: &str, ext: &str) -> Vec<(String, String)> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(repo_root().join(dir))
        .expect("corpus directory is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == ext))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("corpus file is UTF-8");
            (
                format!("{dir}/{}", p.file_name().unwrap().to_string_lossy()),
                text,
            )
        })
        .collect()
}

fn toml_corpus() -> Vec<(String, String)> {
    let mut files = corpus("specs", "toml");
    files.extend(corpus("scenarios", "toml"));
    assert!(files.len() > 1, "no TOML corpus");
    files
}

fn rust_corpus() -> Vec<(String, String)> {
    let mut files = corpus("crates/lint/src", "rs");
    files.extend(corpus("crates/core/src", "rs"));
    assert!(files.len() > 1, "no Rust corpus");
    files
}

/// Every mutation of `text` one case applies: flipped bits, a cut at a
/// random byte, and swapped lines.
fn mutants(text: &str, rng: &mut Rng) -> Vec<(&'static str, String)> {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(bytes.len());
        bytes[at] ^= 1u8 << rng.below(8);
    }
    let flipped = String::from_utf8_lossy(&bytes).into_owned();
    let mut cut = rng.below(text.len() + 1);
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    let truncated = text[..cut].to_string();
    let mut lines: Vec<&str> = text.lines().collect();
    for _ in 0..1 + rng.below(3) {
        let (a, b) = (rng.below(lines.len()), rng.below(lines.len()));
        lines.swap(a, b);
    }
    vec![
        ("byte-flipped", flipped),
        ("truncated", truncated),
        ("shuffled", lines.join("\n")),
    ]
}

/// `toml_mini::parse` returns, and any error names a line of `text`.
fn assert_toml_is_total(what: &str, text: &str) {
    let lines = text.lines().count().max(1);
    match catch_unwind(|| parse(text)) {
        Err(_) => panic!("{what}: toml_mini::parse panicked on\n{text}"),
        Ok(Err((line, msg))) => assert!(
            (1..=lines).contains(&line),
            "{what}: error line {line} outside 1..={lines}: {msg}"
        ),
        Ok(Ok(_)) => {}
    }
}

/// `eval_expr` returns, and an `Err` says what it could not read.
fn assert_expr_is_total(what: &str, expr: &str) {
    match catch_unwind(|| eval_expr(expr)) {
        Err(_) => panic!("{what}: eval_expr panicked on `{expr}`"),
        Ok(Err(msg)) => assert!(!msg.is_empty(), "{what}: empty error for `{expr}`"),
        Ok(Ok(_)) => {}
    }
}

/// `ParsedFile::parse` returns on `text`.
fn assert_rust_is_total(what: &str, text: &str) {
    let parsed = catch_unwind(AssertUnwindSafe(|| {
        ParsedFile::parse(&SourceFile::parse("crates/core/src/fuzzed.rs", text))
    }));
    assert!(
        parsed.is_ok(),
        "{what}: ParsedFile::parse panicked on\n{text}"
    );
}

#[test]
fn toml_parser_survives_any_mutation() {
    let files = toml_corpus();
    for (name, text) in &files {
        assert_toml_is_total(name, text);
        let lines: Vec<&str> = text.lines().collect();
        for cut in 0..lines.len() {
            assert_toml_is_total(
                &format!("{name} cut after line {cut}"),
                &lines[..cut].join("\n"),
            );
        }
        for (i, line) in lines.iter().enumerate() {
            let Some((key, _)) = line.split_once('=') else {
                continue;
            };
            for huge in HUGE {
                for value in [huge.to_string(), format!("\"{huge} * {huge}\"")] {
                    let replaced = format!("{key}= {value}");
                    let mut mutated = lines.clone();
                    mutated[i] = &replaced;
                    let what = format!("{name} line {} = {value}", i + 1);
                    assert_toml_is_total(&what, &mutated.join("\n"));
                }
            }
        }
    }
    let mut rng = Rng(0x7011_5eed);
    for case in 0..300 {
        let (name, text) = &files[case % files.len()];
        for (how, mutated) in mutants(text, &mut rng) {
            assert_toml_is_total(&format!("case {case}: {name} {how}"), &mutated);
        }
    }
}

#[test]
fn malformed_toml_lines_are_reported_where_they_are() {
    // A line the grammar cannot read, dropped anywhere into a valid file,
    // is reported at exactly its own line.
    let files = toml_corpus();
    let mut rng = Rng(0x11e5);
    for case in 0..120 {
        let (name, text) = &files[case % files.len()];
        let mut lines: Vec<&str> = text.lines().collect();
        let at = rng.below(lines.len() + 1);
        lines.insert(at, "= this is not a key");
        let mutated = lines.join("\n");
        let err = parse(&mutated).expect_err("a bare `= value` line is malformed");
        // An earlier malformed line would win; the corpus has none.
        assert_eq!(err.0, at + 1, "case {case}: {name}: {}", err.1);
    }
}

#[test]
fn expression_evaluator_survives_any_mutation() {
    let seeds = [
        "80 * 1024",
        "5.0 * 13.0 / 77.0",
        "1_000_000.0",
        "24*1024/3",
        "0.5 / 0",
    ];
    let mut rng = Rng(0xe7a1);
    for seed in seeds {
        assert_expr_is_total(seed, seed);
        for huge in HUGE {
            assert_expr_is_total("huge", &format!("{seed} * {huge}"));
            assert_expr_is_total("huge", &format!("{huge} / {seed}"));
        }
    }
    for case in 0..2000 {
        let seed = seeds[case % seeds.len()];
        let mut bytes = seed.as_bytes().to_vec();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(bytes.len());
            bytes[at] ^= 1u8 << rng.below(8);
        }
        let flipped = String::from_utf8_lossy(&bytes).into_owned();
        assert_expr_is_total(&format!("case {case} byte-flipped"), &flipped);
        let cut = rng.below(seed.len() + 1);
        assert_expr_is_total(&format!("case {case} truncated"), &seed[..cut]);
        let ops: String = (0..rng.below(6))
            .map(|_| ["*", "/", " ", "_", "e", "."][rng.below(6)])
            .collect();
        assert_expr_is_total(&format!("case {case} operators"), &ops);
    }
    assert!(eval_expr("").is_err());
    assert!(eval_expr("* 3").is_err());
    assert!(eval_expr("3 * x").is_err());
}

#[test]
fn rust_item_parser_survives_any_mutation() {
    let files = rust_corpus();
    for (name, text) in &files {
        assert_rust_is_total(name, text);
        for huge in HUGE {
            let replaced = text.replace("1000", huge);
            assert_rust_is_total(&format!("{name} with {huge}"), &replaced);
        }
    }
    let mut rng = Rng(0x009a_25ed);
    for case in 0..120 {
        let (name, text) = &files[case % files.len()];
        for (how, mutated) in mutants(text, &mut rng) {
            assert_rust_is_total(&format!("case {case}: {name} {how}"), &mutated);
        }
    }
    // Unbalanced delimiters and unterminated literals at end of input.
    for tail in [
        "{",
        "}",
        "fn f(",
        "\"open",
        "r#\"raw",
        "'",
        "/* open",
        "impl X for",
        "<",
    ] {
        assert_rust_is_total(tail, &format!("pub fn ok() {{}}\n{tail}"));
    }
}
