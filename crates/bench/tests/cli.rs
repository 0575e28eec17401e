//! Command-line contract of the five checking CLIs.
//!
//! One table row per binary; each test walks the whole table, so a
//! contract change (exit code, schema tag, self-test finding) has to be
//! made for every binary at once or show up here. The shared contract:
//! `--help` exits 0, a usage error (unknown flag, unknown benchmark,
//! voltage outside 300-1000 mV) exits 2 without panicking. Per binary:
//! the exit code of a clean one-benchmark sweep, the schema tag of its
//! `--json` document, and the exit code and finding id of its seeded
//! self-test. Arguments are written as one whitespace-separated string.

use std::process::{Command, Output};

struct Row {
    bin: &'static str,
    /// A clean sweep over one benchmark and its documented exit code.
    clean: (&'static str, i32),
    /// A `--json` run exiting like the clean sweep: the document's
    /// required prefix (its schema tag) and further substrings it must
    /// contain.
    json: (&'static str, &'static str, &'static [&'static str]),
    /// The seeded self-test: arguments, exit code, and the finding id
    /// (or confirmation) it must print.
    self_test: Option<(&'static str, i32, &'static str)>,
}

const TABLE: [Row; 5] = [
    Row {
        bin: env!("CARGO_BIN_EXE_dvs-lint"),
        clean: ("--benchmarks crc32 --voltages 480 --maps 1", 0),
        json: (
            "--benchmarks qsort --voltages 440 --maps 1 --json",
            "{\"schema\":\"dvs-lint/1\",\"lints\":[",
            // The lint table names every registered lint with its level,
            // so CI can assert coverage rather than just findings.
            &[
                "{\"name\":\"chunk-containment\",\"level\":\"deny\"}",
                "{\"name\":\"verify/fault-reach\",\"level\":\"deny\"}",
                "\"reports\":[",
                "\"subject\":\"qsort@440mV/map0\"",
            ],
        ),
        self_test: Some((
            "--benchmarks crc32 --voltages 480 --maps 1 --inject-misplacement",
            1,
            "chunk-containment",
        )),
    },
    Row {
        bin: env!("CARGO_BIN_EXE_dvs-verify"),
        // Warn-only (remap-liveness capacity findings) exits 1.
        clean: (
            "--benchmarks crc32 --voltages 760,480 --maps 1 --bounded-depth 1",
            1,
        ),
        json: (
            "--benchmarks crc32 --voltages 760,480 --maps 1 --bounded-depth 1 --json",
            "{\"schema\":\"dvs-verify/1\",\"lints\":[",
            &[
                "{\"name\":\"verify/bounded-model\",\"level\":\"deny\"}",
                "\"subject\":\"crc32@480mV/chain0\"",
                "\"lint\":\"verify/remap-liveness\"",
                "\"denies\":0,",
            ],
        ),
        self_test: Some((
            "--benchmarks crc32 --voltages 480 --maps 1 --bounded-depth 0 --inject-misplacement",
            2,
            "verify/fault-reach",
        )),
    },
    Row {
        bin: env!("CARGO_BIN_EXE_dvs-diff"),
        clean: (
            "--benchmarks crc32 --voltages 760,480 --models iid --stream-len 200",
            0,
        ),
        json: (
            "--benchmarks crc32 --voltages 760,480 --models iid --stream-len 200 --json",
            "{\"schema\":\"dvs-diff/1\",\"lints\":[",
            &[
                "{\"name\":\"diff/clean-map\",\"level\":\"deny\"}",
                "{\"name\":\"diff/packed-reference\",\"level\":\"deny\"}",
                "\"subject\":\"hotpath@packed-reference/iid/seed0\"",
            ],
        ),
        self_test: Some((
            "--benchmarks crc32 --voltages 760 --models iid --stream-len 200 --inject-divergence",
            1,
            "diff/clean-map",
        )),
    },
    Row {
        bin: env!("CARGO_BIN_EXE_dvs-model"),
        clean: (
            "--benchmarks crc32 --voltages 760,480 --maps 1 --stream-len 200",
            0,
        ),
        json: (
            "--benchmarks crc32 --voltages 760,480 --maps 1 --stream-len 200 --json",
            "{\n  \"schema\": \"dvs-model/1\",",
            &["\"model\": \"clustered\"", "\"scheme\": \"TS-Cache\""],
        ),
        // dvs-model has no injection flag: its gates are the inline
        // nesting and monotonicity checks.
        self_test: None,
    },
    Row {
        bin: env!("CARGO_BIN_EXE_dvs-profile"),
        clean: (
            "--benchmarks crc32 --voltages 760 --maps 1 --trace-instrs 2000",
            0,
        ),
        json: (
            "--benchmarks crc32 --voltages 760 --maps 1 --trace-instrs 2000 --json --no-timings",
            "{\"schema\":\"dvs-profile/1\",",
            &["\"trials_computed\":1"],
        ),
        self_test: Some((
            "--benchmarks crc32 --voltages 760 --maps 1 --trace-instrs 2000 --json --selfcheck",
            0,
            "self-check passed",
        )),
    },
];

fn run(bin: &str, args: &str) -> Output {
    Command::new(bin)
        .args(args.split_whitespace())
        .output()
        .unwrap_or_else(|e| panic!("{bin} must run: {e}"))
}

fn name(bin: &str) -> &str {
    bin.rsplit(['/', '\\']).next().unwrap_or(bin)
}

/// Asserts `args` exit with `code`; returns stdout and stderr joined.
fn expect_exit(bin: &str, args: &str, code: i32) -> String {
    let out = run(bin, args);
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let tool = name(bin);
    assert_eq!(out.status.code(), Some(code), "{tool} {args}: {text}");
    assert!(!text.contains("panicked"), "{tool} {args}: {text}");
    text
}

#[test]
fn help_exits_zero_with_usage_on_stdout() {
    for row in &TABLE {
        for flag in ["--help", "-h"] {
            let out = run(row.bin, flag);
            assert_eq!(out.status.code(), Some(0), "{} {flag}", name(row.bin));
            let stdout = String::from_utf8_lossy(&out.stdout);
            let usage = format!("usage: {}", name(row.bin).trim_end_matches(".exe"));
            assert!(stdout.starts_with(&usage), "{stdout}");
        }
    }
}

#[test]
fn usage_errors_exit_two() {
    for row in &TABLE {
        for args in [
            "--no-such-flag",
            "--benchmarks not-a-benchmark",
            "--maps",
            "--seed x",
        ] {
            let text = expect_exit(row.bin, args, 2);
            assert!(text.contains("usage: "), "{text}");
        }
    }
}

#[test]
fn out_of_range_voltages_exit_two_without_panicking() {
    for row in &TABLE {
        for mv in ["0", "250", "1200", "760,0"] {
            let text = expect_exit(row.bin, &format!("--voltages {mv}"), 2);
            assert!(text.contains("300-1000 mV"), "{text}");
        }
    }
}

#[test]
fn clean_one_benchmark_sweep_gives_documented_exit() {
    for row in &TABLE {
        let (args, code) = row.clean;
        expect_exit(row.bin, args, code);
    }
}

#[test]
fn seeded_self_test_gives_documented_exit_and_finding() {
    for row in &TABLE {
        if let Some((args, code, finding)) = row.self_test {
            let text = expect_exit(row.bin, args, code);
            assert!(text.contains(finding), "{} {args}: {text}", name(row.bin));
        }
    }
}

#[test]
fn json_documents_carry_their_schema_tag() {
    for row in &TABLE {
        let (args, prefix, needles) = row.json;
        let out = run(row.bin, args);
        assert_eq!(out.status.code(), Some(row.clean.1), "{}", name(row.bin));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let json = stdout.trim();
        assert!(json.starts_with(prefix), "{json}");
        for needle in needles {
            assert!(json.contains(needle), "{} lacks {needle}", name(row.bin));
        }
        assert!(json.ends_with('}'));
        assert_eq!(
            json.matches(['{', '[']).count(),
            json.matches(['}', ']']).count()
        );
    }
}

/// A failed baseline gate exits 1, distinct from a usage error's 2.
#[test]
fn profile_baseline_mismatch_exits_one() {
    let path = std::env::temp_dir().join(format!("dvs-cli-baseline-{}.json", std::process::id()));
    let profile = |extra: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_dvs-profile"))
            .args("--benchmarks crc32 --voltages 760 --maps 1 --trace-instrs 2000".split(' '))
            .arg("--baseline-path")
            .arg(&path)
            .args(extra.split(' '))
            .output()
            .expect("dvs-profile must run");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (out.status.code(), stderr)
    };
    let (code, stderr) = profile("--bless-baseline");
    assert_eq!(code, Some(0), "{stderr}");
    let (code, stderr) = profile("--check-baseline --seed 7");
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("error: "), "{stderr}");
}
