//! The command line: one workload for the driver, all six for a person,
//! the A/A check, and the table.

use crate::json::Json;
use crate::stats::{self, Stat};
use crate::table::{self, Kind, Workload, WORKLOADS};
use crate::trace;
use crate::workloads::{self, Config, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u32 = 10;

const USAGE: &str = "\
graphmat-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                   [--quick] [--aa [N]] [--out DIR] [--list] [--benchmark-json]

  no --workload     run all six workloads untraced, then traced; print one
                    `name unit value n q1 q3` line per metric per workload and
                    write <out>/run.json and <out>/trace.<workload>.json
  --workload NAME   run one workload once (the driver's form); the last line
                    of stdout is the result as one JSON object
  --trace 0|1       0: end-to-end metrics (default); 1: per-layer metrics
  --seconds S       how long one run measures (default 10)
  --quick           scale-10 inputs, one repetition: a smoke test
  --aa [N]          run the untraced set N (default 2) times on this build and
                    compare the spread of every end-to-end metric to its bound
  --out DIR         where result files go (default benchmark/out)
  --list            print the workload and metric table
  --benchmark-json  print BENCHMARK.json as the table defines it";

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    aa: Option<usize>,
    out: PathBuf,
    list: bool,
    benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        aa: None,
        out: PathBuf::from("benchmark/out"),
        list: false,
        benchmark_json: false,
    };
    let mut iter = std::env::args().skip(1).peekable();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    table::workload(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--aa" => {
                let n = match iter.peek().and_then(|next| next.parse::<usize>().ok()) {
                    Some(n) => {
                        iter.next();
                        n
                    }
                    None => 2,
                };
                if n < 2 {
                    return Err("--aa needs at least 2 sets".into());
                }
                args.aa = Some(n);
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--list" => args.list = true,
            "--benchmark-json" => args.benchmark_json = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

pub fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        print!("{}", table::list());
        return ExitCode::SUCCESS;
    }
    if args.benchmark_json {
        print!("{}", table::benchmark_json(RUN_SECONDS).pretty());
        return ExitCode::SUCCESS;
    }
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick {
            0.3
        } else {
            f64::from(RUN_SECONDS)
        }),
        quick: args.quick,
        trace: args.trace,
        threads: workloads::default_threads(),
    };
    let ok = match (args.aa, args.workload) {
        (Some(sets), only) => aa(&cfg, sets, only),
        (None, Some(workload)) => run_one(workload, &cfg, &args.out),
        (None, None) => run_all(&cfg, &args.out),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

fn unit_of(name: &str) -> &'static str {
    table::metric(name).map_or("", |m| m.unit)
}

/// `name unit value n q1 q3`, for the metrics this workload defines.
fn print_metrics(
    workload: &Workload,
    cfg: &Config,
    out: &Outcome,
    metrics: &[(&'static str, Stat)],
) {
    println!(
        "# {} seed={} seconds={} trace={} threads={}{}",
        workload.name,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.threads,
        if cfg.quick { " quick" } else { "" }
    );
    for (name, value) in &out.facts {
        println!("#   {name} = {value}");
    }
    for (name, stat) in metrics {
        let defined = table::metric(name).is_some_and(|m| m.defined_on(workload.id));
        if defined {
            println!(
                "{name} {} {} {} {} {}",
                unit_of(name),
                stat.value,
                stat.n,
                stat.q1,
                stat.q3
            );
        }
    }
    for failure in &out.failures {
        println!("# FAILED: {failure}");
    }
}

fn metrics_json(metrics: &[(&'static str, Stat)], detail: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, stat)| {
                let mut pairs = vec![
                    ("value", Json::Num(stat.value)),
                    ("unit", Json::str(unit_of(name))),
                ];
                if detail {
                    pairs.push(("n", Json::Num(stat.n as f64)));
                    pairs.push(("q1", Json::Num(stat.q1)));
                    pairs.push(("q3", Json::Num(stat.q3)));
                }
                (name.to_string(), Json::obj(pairs))
            })
            .collect(),
    )
}

fn write_file(path: &Path, text: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn write_trace(dir: &Path, workload: &Workload, out: &Outcome) {
    if !out.spans.is_empty() {
        let file = dir.join(format!("trace.{}.json", workload.name));
        write_file(
            &file,
            &trace::to_json(workload.name, &out.spans, out.dropped_spans).render(),
        );
    }
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

/// The driver's form: one workload, one run, the result as the last line.
fn run_one(workload: &Workload, cfg: &Config, dir: &Path) -> bool {
    let mut out = workloads::run(workload, cfg);
    let metrics = out.complete(workload, cfg.trace);
    print_metrics(workload, cfg, &out, &metrics);
    write_trace(dir, workload, &out);
    let result = Json::obj(vec![
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics_json(&metrics, false)),
    ]);
    println!("{}", result.render());
    out.correct()
}

/// All six workloads, untraced then traced, with `run.json` and the traces.
fn run_all(cfg: &Config, dir: &Path) -> bool {
    let env = environment(cfg);
    println!("# {}", env.render());
    let mut all_correct = true;
    let mut per_workload = Vec::new();
    for workload in &WORKLOADS {
        let mut merged: Vec<(&'static str, Stat)> = Vec::new();
        let (mut attempted, mut failed, mut failures, mut facts) = (0, 0, Vec::new(), Vec::new());
        for trace in [false, true] {
            let cfg = Config { trace, ..*cfg };
            let mut out = workloads::run(workload, &cfg);
            let metrics = out.complete(workload, trace);
            print_metrics(workload, &cfg, &out, &metrics);
            write_trace(dir, workload, &out);
            all_correct &= out.correct();
            attempted += out.attempted;
            failed += out.failed;
            failures.extend(out.failures.iter().cloned().map(Json::Str));
            if !trace {
                facts = out.facts.clone();
            }
            let defined =
                |name: &str| table::metric(name).is_some_and(|m| m.defined_on(workload.id));
            merged.extend(metrics.into_iter().filter(|(name, _)| defined(name)));
        }
        per_workload.push((
            workload.name.to_string(),
            Json::obj(vec![
                ("correct", Json::Bool(failed == 0)),
                ("attempted", Json::Num(attempted as f64)),
                ("failed", Json::Num(failed as f64)),
                ("failures", Json::Arr(failures)),
                (
                    "facts",
                    Json::Obj(
                        facts
                            .iter()
                            .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                            .collect(),
                    ),
                ),
                ("metrics", metrics_json(&merged, true)),
            ]),
        ));
    }
    let run = Json::obj(vec![
        ("environment", env),
        ("workloads", Json::Obj(per_workload)),
    ]);
    write_file(&dir.join("run.json"), &run.pretty());
    println!("# wrote {}", dir.join("run.json").display());
    all_correct
}

/// A/A: the same build measured `sets` times; every end-to-end metric's
/// spread, (max - min) / median, must stay within its bound.
fn aa(cfg: &Config, sets: usize, only: Option<&'static Workload>) -> bool {
    let cfg = Config {
        trace: false,
        ..*cfg
    };
    let chosen: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| only.map_or(true, |o| o.id == w.id))
        .collect();
    let mut values: Vec<Vec<Vec<f64>>> = Vec::new(); // [workload][metric][set]
    let end_to_end: Vec<_> = table::METRICS
        .iter()
        .filter(|m| m.is_end_to_end())
        .collect();
    let mut ok = true;
    for workload in &chosen {
        let mut per_metric = vec![Vec::new(); end_to_end.len()];
        for set in 0..sets {
            let mut out = workloads::run(workload, &cfg);
            let metrics = out.complete(workload, false);
            eprintln!(
                "# set {} of {sets}: {} done, {} of {} failed",
                set + 1,
                workload.name,
                out.failed,
                out.attempted
            );
            ok &= out.correct();
            for (slot, m) in per_metric.iter_mut().zip(&end_to_end) {
                slot.push(
                    metrics
                        .iter()
                        .find(|(n, _)| *n == m.name)
                        .map_or(0.0, |(_, s)| s.value),
                );
            }
        }
        values.push(per_metric);
    }
    println!("workload metric unit median spread bound verdict");
    for (workload, per_metric) in chosen.iter().zip(&values) {
        for (m, samples) in end_to_end.iter().zip(per_metric) {
            let Kind::EndToEnd { bound } = m.kind else {
                continue;
            };
            let median = stats::median(samples);
            let (lo, hi) = samples
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let spread = if median == 0.0 {
                0.0
            } else {
                (hi - lo) / median
            };
            let within = spread <= bound;
            ok &= within;
            println!(
                "{} {} {} {median} {spread:.4} {bound} {}",
                workload.name,
                m.name,
                m.unit,
                if within { "ok" } else { "EXCEEDS" }
            );
        }
    }
    ok
}

// ---------------------------------------------------------------------------
// Environment (all-workload runs only: it reads /sys and asks git)
// ---------------------------------------------------------------------------

/// Distinct caches of the machine as `(level, type, size, instances)`.
fn caches() -> Vec<(String, String, String, usize)> {
    let read = |path: PathBuf| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let mut seen: Vec<(String, String, String, String)> = Vec::new();
    for cpu in 0..1024 {
        let base = PathBuf::from(format!("/sys/devices/system/cpu/cpu{cpu}/cache"));
        if !base.exists() {
            break;
        }
        for index in 0..8 {
            let dir = base.join(format!("index{index}"));
            let (Some(level), Some(kind), Some(size), Some(shared)) = (
                read(dir.join("level")),
                read(dir.join("type")),
                read(dir.join("size")),
                read(dir.join("shared_cpu_list")),
            ) else {
                continue;
            };
            let entry = (level, kind, size, shared);
            if !seen.contains(&entry) {
                seen.push(entry);
            }
        }
    }
    let mut grouped: Vec<(String, String, String, usize)> = Vec::new();
    for (level, kind, size, _) in seen {
        match grouped
            .iter_mut()
            .find(|g| g.0 == level && g.1 == kind && g.2 == size)
        {
            Some(group) => group.3 += 1,
            None => grouped.push((level, kind, size, 1)),
        }
    }
    grouped
}

fn environment(cfg: &Config) -> Json {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("threads", Json::Num(cfg.threads as f64)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("quick", Json::Bool(cfg.quick)),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
        ("git_commit", Json::str(commit)),
        (
            "caches",
            Json::Arr(
                caches()
                    .into_iter()
                    .map(|(level, kind, size, instances)| {
                        Json::obj(vec![
                            ("level", Json::str(level)),
                            ("type", Json::str(kind)),
                            ("size", Json::str(size)),
                            ("instances", Json::Num(instances as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "note",
            Json::str("the L3 is shared with other tenants of the host and larger than any graph that fits the time budget: working sets leave the L2, not the L3"),
        ),
    ])
}
