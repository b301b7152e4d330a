//! The benchmark's contract with its driver, checked against the one table:
//! `BENCHMARK.json` says what the table says, every name fits the driver's
//! limits, and `--quick` smokes the whole pipeline for every workload.

use graphmat_benchmark::cli::RUN_SECONDS;
use graphmat_benchmark::json::Json;
use graphmat_benchmark::table::{self, Better, Kind, METRICS, WORKLOADS};
use std::collections::BTreeSet;
use std::process::Command;

fn committed() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_says_what_the_table_says() {
    let file = committed();
    assert_eq!(
        file.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ],
        "exactly the contract's keys"
    );
    assert_eq!(
        file,
        table::benchmark_json(RUN_SECONDS),
        "regenerate with `cargo run --release --manifest-path benchmark/Cargo.toml -- --benchmark-json > BENCHMARK.json`"
    );
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&s.len())
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&s.len()) && s.chars().all(ok)
}

#[test]
fn names_units_bounds_and_counts_fit_the_driver() {
    let mut seen = BTreeSet::new();
    for w in &WORKLOADS {
        assert!(is_name(w.name), "workload name {:?}", w.name);
        assert!(seen.insert(w.name), "{} is used twice", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "why of {} is {} characters",
            w.name,
            w.why.len()
        );
    }
    assert!((2..=8).contains(&WORKLOADS.len()));

    let (mut end_to_end, mut layers) = (0, 0);
    for m in METRICS {
        assert!(is_name(m.name), "metric name {:?}", m.name);
        assert!(seen.insert(m.name), "{} is used twice", m.name);
        assert!(is_unit(m.unit), "unit {:?} of {}", m.unit, m.name);
        assert!(!m.on.is_empty(), "{} is defined nowhere", m.name);
        match m.kind {
            Kind::EndToEnd { bound } => {
                end_to_end += 1;
                assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m.name);
                // The driver wants every end-to-end metric from every workload.
                assert_eq!(
                    m.on.len(),
                    WORKLOADS.len(),
                    "{} must be defined everywhere",
                    m.name
                );
            }
            Kind::Layer => {
                layers += 1;
                assert!(
                    !m.moves.is_empty(),
                    "{} names no end-to-end metric it should move",
                    m.name
                );
            }
        }
    }
    assert!((1..=16).contains(&end_to_end));
    assert!((1..=128).contains(&layers));

    let setup = table::metric("setup_s").expect("setup_s is mandatory");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    let Kind::EndToEnd { bound } = setup.kind else {
        panic!("setup_s must be end-to-end");
    };
    let widest = METRICS
        .iter()
        .filter_map(|m| match m.kind {
            Kind::EndToEnd { bound } => Some(bound),
            Kind::Layer => None,
        })
        .fold(0.0, f64::max);
    assert_eq!(bound, widest, "setup_s takes the largest bound");
    assert!((1..=60).contains(&RUN_SECONDS));
}

/// One driver-form run writing its files under `out` (tests run in
/// parallel, so each uses its own directory); returns the parsed last line
/// of stdout.
fn quick_run(workload: &str, trace: &str, out: &str) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_graphmat-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--trace",
            trace,
            "--quick",
        ])
        .args(["--out", out])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}"
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

#[test]
fn quick_runs_print_every_metric_of_their_kind_and_are_correct() {
    for w in &WORKLOADS {
        for (trace, end_to_end) in [("0", true), ("1", false)] {
            let result = quick_run(
                w.name,
                trace,
                concat!(env!("CARGO_TARGET_TMPDIR"), "/smoke"),
            );
            assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{} --trace {trace}",
                w.name
            );
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
                    >= 1.0
            );

            let metrics = result.get("metrics").expect("metrics");
            let want: Vec<&str> = METRICS
                .iter()
                .filter(|m| m.is_end_to_end() == end_to_end)
                .map(|m| m.name)
                .collect();
            assert_eq!(metrics.keys(), want, "{} --trace {trace}", w.name);
            for m in METRICS.iter().filter(|m| m.is_end_to_end() == end_to_end) {
                let entry = metrics.get(m.name).expect("listed above");
                assert_eq!(entry.keys(), ["value", "unit"]);
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
                let value = entry.get("value").and_then(Json::as_f64).expect("a number");
                if end_to_end {
                    assert!(value > 0.0, "{} is {value} on {}", m.name, w.name);
                }
            }
        }
    }
}

#[test]
fn a_traced_quick_run_writes_a_trace_whose_spans_nest() {
    quick_run(
        "serve_light",
        "1",
        concat!(env!("CARGO_TARGET_TMPDIR"), "/nesting"),
    );
    let path = concat!(
        env!("CARGO_TARGET_TMPDIR"),
        "/nesting/trace.serve_light.json"
    );
    let trace =
        Json::parse(&std::fs::read_to_string(path).expect("trace file")).expect("trace parses");
    let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
    assert!(!spans.is_empty());
    let number = |span: &Json, key: &str| span.get(key).and_then(Json::as_f64);
    for span in spans {
        assert!(number(span, "end_ns") >= number(span, "start_ns"));
        assert!(
            number(span, "self_ns")
                <= Some(number(span, "end_ns").unwrap() - number(span, "start_ns").unwrap())
        );
        if let Some(parent) = number(span, "parent") {
            let parent = &spans[parent as usize];
            assert!(number(parent, "start_ns") <= number(span, "start_ns"));
            assert_eq!(parent.get("name").and_then(Json::as_str), Some("request"));
        }
    }
}
