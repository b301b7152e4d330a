//! Closed-loop load generator for the GraphMat query server.
//!
//! Opens N connections, each issuing back-to-back requests drawn from a
//! weighted algorithm mix for a fixed duration, then reports request
//! counts, QPS and exact latency quantiles as one JSON object on stdout
//! and, with `--json PATH`, in a file. No series of these files is kept
//! (the object's `series` field is a leftover label): serving
//! performance is judged by the repo benchmark's `serve_*` workloads, and
//! this report is for localizing a change they flag. Also doubles as the CI
//! smoke test via `--smoke`.
//!
//! With `--mutate-rate` each connection interleaves UPDATE batches of
//! random edge edits among its queries (mixed read/write serving — the
//! report then also carries an `updates` tally).
//!
//! With `--retries` each connection goes through [`ResilientClient`]:
//! idempotent requests that fail transiently are retried with backoff, and
//! the report carries a `resilience` block (attempts, retries, reconnects,
//! breaker trips). Failed requests make the exit code nonzero unless
//! `--allow-failures` (for fault-injection legs where failures are the
//! point).
//!
//! ```text
//! loadgen --addr HOST:PORT [--connections N] [--duration-secs N]
//!         [--mix pagerank:1,bfs:4,...] [--mutate-rate F] [--mutate-batch N]
//!         [--timeout-ms N] [--iterations N] [--seed N] [--retries N]
//!         [--allow-failures] [--json PATH]
//!         [--smoke] [--ping-only] [--shutdown-after]
//! ```

use graphmat_server::{
    Algorithm, BreakerConfig, Client, EdgeEdit, ResilienceStats, ResilientClient, RetryPolicy,
    RunRequest, Status,
};
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    connections: usize,
    duration_secs: u64,
    mix: Vec<(Algorithm, u32)>,
    mutate_rate: f64,
    mutate_batch: usize,
    timeout_ms: u32,
    iterations: u32,
    seed: u64,
    retries: u32,
    allow_failures: bool,
    json: Option<String>,
    smoke: bool,
    ping_only: bool,
    shutdown_after: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: "127.0.0.1:4617".into(),
            connections: 4,
            duration_secs: 10,
            mix: vec![
                (Algorithm::Bfs, 4),
                (Algorithm::Sssp, 2),
                (Algorithm::PageRank, 1),
                (Algorithm::ConnectedComponents, 1),
                (Algorithm::InDegrees, 1),
            ],
            mutate_rate: 0.0,
            mutate_batch: 16,
            timeout_ms: 0,
            iterations: 10,
            seed: 1,
            retries: 0,
            allow_failures: false,
            json: None,
            smoke: false,
            ping_only: false,
            shutdown_after: false,
        }
    }
}

fn parse_mix(spec: &str) -> Result<Vec<(Algorithm, u32)>, String> {
    let mut mix = Vec::new();
    for part in spec.split(',') {
        let (name, weight) = part
            .split_once(':')
            .ok_or_else(|| format!("mix entry {part:?} must be name:weight"))?;
        let algorithm = Algorithm::ALL
            .into_iter()
            .find(|a| a.name() == name)
            .ok_or_else(|| format!("unknown algorithm {name:?} in mix"))?;
        let weight: u32 = weight
            .parse()
            .map_err(|e| format!("mix weight for {name}: {e}"))?;
        if weight > 0 {
            mix.push((algorithm, weight));
        }
    }
    if mix.is_empty() {
        return Err("mix selects no algorithms".into());
    }
    Ok(mix)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |flag: &str| iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--connections" => {
                args.connections = value("--connections")?
                    .parse()
                    .map_err(|e| format!("--connections: {e}"))?
            }
            "--duration-secs" => {
                args.duration_secs = value("--duration-secs")?
                    .parse()
                    .map_err(|e| format!("--duration-secs: {e}"))?
            }
            "--mix" => args.mix = parse_mix(&value("--mix")?)?,
            "--mutate-rate" => {
                args.mutate_rate = value("--mutate-rate")?
                    .parse()
                    .map_err(|e| format!("--mutate-rate: {e}"))?;
                if !(0.0..=1.0).contains(&args.mutate_rate) {
                    return Err("--mutate-rate must be in [0, 1]".into());
                }
            }
            "--mutate-batch" => {
                args.mutate_batch = value("--mutate-batch")?
                    .parse()
                    .map_err(|e| format!("--mutate-batch: {e}"))?;
                if args.mutate_batch == 0 {
                    return Err("--mutate-batch must be at least 1".into());
                }
            }
            "--timeout-ms" => {
                args.timeout_ms = value("--timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--timeout-ms: {e}"))?
            }
            "--iterations" => {
                args.iterations = value("--iterations")?
                    .parse()
                    .map_err(|e| format!("--iterations: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--retries" => {
                args.retries = value("--retries")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?
            }
            "--allow-failures" => args.allow_failures = true,
            "--json" => args.json = Some(value("--json")?),
            "--smoke" => args.smoke = true,
            "--ping-only" => args.ping_only = true,
            "--shutdown-after" => args.shutdown_after = true,
            "--help" | "-h" => {
                return Err("usage: loadgen --addr HOST:PORT [--connections N] \
                     [--duration-secs N] [--mix pagerank:1,bfs:4,...] \
                     [--mutate-rate F] [--mutate-batch N] [--timeout-ms N] \
                     [--iterations N] [--seed N] [--retries N] \
                     [--allow-failures] [--json PATH] \
                     [--smoke] [--ping-only] [--shutdown-after]"
                    .into())
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(args)
}

/// splitmix64 step — deterministic per-connection randomness.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Pull `"key":<integer>` out of the STATS JSON without a JSON parser.
fn scrape_u64(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let digits: String = json[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

#[derive(Default)]
struct Tally {
    ok: u64,
    busy: u64,
    timeout: u64,
    failed: u64,
    latencies_us: Vec<u64>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.ok += other.ok;
        self.busy += other.busy;
        self.timeout += other.timeout;
        self.failed += other.failed;
        self.latencies_us.extend(other.latencies_us);
    }

    fn requests(&self) -> u64 {
        self.ok + self.busy + self.timeout + self.failed
    }
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn tally_json(name: &str, tally: &Tally, sorted: &[u64], elapsed_secs: f64) -> String {
    let mean = if sorted.is_empty() {
        0
    } else {
        sorted.iter().sum::<u64>() / sorted.len() as u64
    };
    format!(
        "\"{name}\":{{\"requests\":{},\"ok\":{},\"busy\":{},\"timeout\":{},\
         \"failed\":{},\"qps\":{:.2},\"latency_us\":{{\"mean\":{mean},\
         \"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}}}",
        tally.requests(),
        tally.ok,
        tally.busy,
        tally.timeout,
        tally.failed,
        tally.ok as f64 / elapsed_secs.max(1e-9),
        quantile(sorted, 0.50),
        quantile(sorted, 0.95),
        quantile(sorted, 0.99),
        sorted.last().copied().unwrap_or(0),
    )
}

fn run_smoke(args: &Args) -> Result<(), String> {
    let mut client =
        Client::connect(&args.addr).map_err(|e| format!("connect {}: {e}", args.addr))?;
    client.ping().map_err(|e| format!("ping: {e}"))?;
    for algorithm in Algorithm::ALL {
        let request = RunRequest::new(algorithm)
            .seed(0)
            .iterations(args.iterations)
            .timeout_ms(if args.timeout_ms > 0 {
                args.timeout_ms
            } else {
                60_000
            });
        let reply = client
            .run(&request)
            .map_err(|e| format!("{}: {e}", algorithm.name()))?;
        if !reply.is_ok() {
            return Err(format!(
                "{}: status {:?}: {}",
                algorithm.name(),
                reply.status,
                reply.message
            ));
        }
        println!(
            "smoke {}: ok in {} us, {} iterations, checksum {:#018x}",
            algorithm.name(),
            reply.elapsed_micros,
            reply.iterations,
            reply.checksum
        );
    }
    // Streaming path: push an UPDATE batch, re-run a query on the new
    // snapshot, then confirm STATS reflects the store state.
    let before = client
        .run(&RunRequest::new(Algorithm::ConnectedComponents).iterations(args.iterations))
        .map_err(|e| format!("pre-update run: {e}"))?;
    let reply = client
        .update(&[
            EdgeEdit::insert(0, 1, 1.0),
            EdgeEdit::insert(1, 0, 1.0),
            EdgeEdit::delete(0, 1),
        ])
        .map_err(|e| format!("update: {e}"))?;
    if !reply.is_ok() {
        return Err(format!(
            "update: status {:?}: {}",
            reply.status, reply.message
        ));
    }
    if reply.snapshot_version <= before.snapshot_version {
        return Err(format!(
            "update did not advance the snapshot version ({} -> {})",
            before.snapshot_version, reply.snapshot_version
        ));
    }
    let after = client
        .run(&RunRequest::new(Algorithm::ConnectedComponents).iterations(args.iterations))
        .map_err(|e| format!("post-update run: {e}"))?;
    if !after.is_ok() {
        return Err(format!(
            "post-update run: status {:?}: {}",
            after.status, after.message
        ));
    }
    if after.snapshot_version != reply.snapshot_version {
        return Err(format!(
            "post-update query served snapshot {} instead of {}",
            after.snapshot_version, reply.snapshot_version
        ));
    }
    println!(
        "smoke update: ok, snapshot version {} ({} delta edges), query checksum {:#018x}",
        reply.snapshot_version, reply.delta_edges, after.checksum
    );
    let stats = client.stats_json().map_err(|e| format!("stats: {e}"))?;
    println!("smoke stats: {stats}");
    let ok = scrape_u64(&stats, "ok").unwrap_or(0);
    if ok < Algorithm::ALL.len() as u64 {
        return Err(format!(
            "stats reports only {ok} ok requests after {} smoke runs",
            Algorithm::ALL.len()
        ));
    }
    if scrape_u64(&stats, "updates") != Some(1) {
        return Err(format!("stats does not report the smoke update: {stats}"));
    }
    if scrape_u64(&stats, "snapshot_version").unwrap_or(0) < reply.snapshot_version {
        return Err(format!("stats snapshot_version is stale: {stats}"));
    }
    if args.shutdown_after {
        client
            .shutdown_server()
            .map_err(|e| format!("shutdown: {e}"))?;
        println!("smoke shutdown: acknowledged");
    }
    Ok(())
}

/// Retry policy derived from the CLI: `--retries N` allows N retries per
/// idempotent request (N+1 attempts).
fn retry_policy(args: &Args, lane: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: args.retries + 1,
        seed: args.seed ^ (lane.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        ..RetryPolicy::default()
    }
}

fn run_load(args: &Args) -> Result<(String, u64), String> {
    // One scouting connection learns the graph size for seed sampling.
    // It gets the retry policy too, so a transient fault (e.g. an injected
    // chaos failpoint) cannot kill the run before it starts.
    let mut scout = ResilientClient::new(
        &args.addr,
        retry_policy(args, u64::MAX),
        BreakerConfig::default(),
    );
    let stats = scout.stats_json().map_err(|e| format!("stats: {e}"))?;
    let num_vertices = scrape_u64(&stats, "num_vertices").ok_or("stats JSON lacks num_vertices")?;
    drop(scout);

    let weight_total: u32 = args.mix.iter().map(|(_, w)| w).sum();
    // Probability scaled to integer space so the decision is one modulo on
    // the deterministic rng stream.
    let mutate_threshold = (args.mutate_rate * 1_000_000.0) as u64;
    let duration = Duration::from_secs(args.duration_secs);
    let started = Instant::now();
    let workers: Vec<_> = (0..args.connections.max(1))
        .map(|conn| {
            let addr = args.addr.clone();
            let mix = args.mix.clone();
            let (timeout_ms, iterations) = (args.timeout_ms, args.iterations);
            let mutate_batch = args.mutate_batch;
            let policy = retry_policy(args, conn as u64);
            let mut rng = args.seed ^ ((conn as u64 + 1) << 32);
            std::thread::spawn(
                move || -> (Vec<(Algorithm, Tally)>, Tally, ResilienceStats, u64, u64) {
                    let mut client = ResilientClient::new(&addr, policy, BreakerConfig::default());
                    let mut tallies: Vec<(Algorithm, Tally)> = mix
                        .iter()
                        .map(|(algorithm, _)| (*algorithm, Tally::default()))
                        .collect();
                    let mut updates = Tally::default();
                    let deadline = Instant::now() + duration;
                    while Instant::now() < deadline {
                        if mutate_threshold > 0
                            && next_rand(&mut rng) % 1_000_000 < mutate_threshold
                        {
                            let edits: Vec<EdgeEdit> = (0..mutate_batch)
                                .map(|_| {
                                    let src = (next_rand(&mut rng) % num_vertices) as u32;
                                    let dst = (next_rand(&mut rng) % num_vertices) as u32;
                                    if next_rand(&mut rng) % 4 == 0 {
                                        EdgeEdit::delete(src, dst)
                                    } else {
                                        let weight = (1 + next_rand(&mut rng) % 9) as f32;
                                        EdgeEdit::insert(src, dst, weight)
                                    }
                                })
                                .collect();
                            let sent = Instant::now();
                            match client.update(&edits) {
                                Ok(reply) => match reply.status {
                                    Status::Ok => {
                                        updates.ok += 1;
                                        updates
                                            .latencies_us
                                            .push(sent.elapsed().as_micros() as u64);
                                    }
                                    Status::Busy => updates.busy += 1,
                                    Status::Timeout => updates.timeout += 1,
                                    _ => updates.failed += 1,
                                },
                                Err(_) => {
                                    // Transport error: counted, connection
                                    // reconnects lazily. Brief pause so an
                                    // open breaker doesn't spin hot.
                                    updates.failed += 1;
                                    std::thread::sleep(Duration::from_millis(5));
                                }
                            }
                            continue;
                        }
                        let mut pick = (next_rand(&mut rng) % weight_total as u64) as u32;
                        let slot = mix
                            .iter()
                            .position(|(_, weight)| {
                                let hit = pick < *weight;
                                pick = pick.saturating_sub(*weight);
                                hit
                            })
                            .unwrap_or(0);
                        let algorithm = mix[slot].0;
                        let request = RunRequest::new(algorithm)
                            .seed(next_rand(&mut rng) % num_vertices)
                            .iterations(iterations)
                            .timeout_ms(timeout_ms);
                        let sent = Instant::now();
                        let tally = &mut tallies[slot].1;
                        match client.run(&request) {
                            Ok(reply) => match reply.status {
                                Status::Ok => {
                                    tally.ok += 1;
                                    tally.latencies_us.push(sent.elapsed().as_micros() as u64);
                                }
                                Status::Busy => tally.busy += 1,
                                Status::Timeout => tally.timeout += 1,
                                _ => tally.failed += 1,
                            },
                            Err(_) => {
                                tally.failed += 1;
                                std::thread::sleep(Duration::from_millis(5));
                            }
                        }
                    }
                    let stats = client.stats();
                    let breaker = client.breaker();
                    (
                        tallies,
                        updates,
                        stats,
                        breaker.opens(),
                        breaker.short_circuited(),
                    )
                },
            )
        })
        .collect();

    let mut per_algo: Vec<(Algorithm, Tally)> = args
        .mix
        .iter()
        .map(|(algorithm, _)| (*algorithm, Tally::default()))
        .collect();
    let mut update_tally = Tally::default();
    let mut resilience = ResilienceStats::default();
    let (mut breaker_opens, mut short_circuited) = (0u64, 0u64);
    for worker in workers {
        let (tallies, updates, stats, opens, shorted) = worker
            .join()
            .map_err(|_| "connection thread panicked".to_string())?;
        for (slot, (_, tally)) in tallies.into_iter().enumerate() {
            per_algo[slot].1.absorb(tally);
        }
        update_tally.absorb(updates);
        resilience.attempts += stats.attempts;
        resilience.retries += stats.retries;
        resilience.giveups += stats.giveups;
        resilience.reconnects += stats.reconnects;
        breaker_opens += opens;
        short_circuited += shorted;
    }
    let elapsed_secs = started.elapsed().as_secs_f64();

    // Final server-side snapshot rides along in the report.
    let mut scout = ResilientClient::new(
        &args.addr,
        retry_policy(args, u64::MAX - 1),
        BreakerConfig::default(),
    );
    let server_stats = scout.stats_json().map_err(|e| format!("stats: {e}"))?;
    if args.shutdown_after {
        scout
            .shutdown_server()
            .map_err(|e| format!("shutdown: {e}"))?;
    }

    let mut total = Tally::default();
    for (_, tally) in &per_algo {
        total.ok += tally.ok;
        total.busy += tally.busy;
        total.timeout += tally.timeout;
        total.failed += tally.failed;
        total.latencies_us.extend(&tally.latencies_us);
    }
    let mut sorted_total = total.latencies_us.clone();
    sorted_total.sort_unstable();

    let mut report = String::with_capacity(2048);
    report.push_str(&format!(
        "{{\"series\":\"BENCH_serving\",\"addr\":\"{}\",\"connections\":{},\
         \"duration_secs\":{:.2},\"num_vertices\":{num_vertices},\
         \"mutate_rate\":{},\"mutate_batch\":{},\"retries\":{},",
        args.addr,
        args.connections.max(1),
        elapsed_secs,
        args.mutate_rate,
        args.mutate_batch,
        args.retries,
    ));
    // `total` counts queries only — with --mutate-rate these are the read
    // latencies under concurrent ingest; writes get their own tally below.
    report.push_str(&tally_json("total", &total, &sorted_total, elapsed_secs));
    report.push(',');
    let mut sorted_updates = update_tally.latencies_us.clone();
    sorted_updates.sort_unstable();
    report.push_str(&tally_json(
        "updates",
        &update_tally,
        &sorted_updates,
        elapsed_secs,
    ));
    report.push_str(",\"per_algorithm\":{");
    for (i, (algorithm, tally)) in per_algo.iter().enumerate() {
        if i > 0 {
            report.push(',');
        }
        let mut sorted = tally.latencies_us.clone();
        sorted.sort_unstable();
        report.push_str(&tally_json(algorithm.name(), tally, &sorted, elapsed_secs));
    }
    report.push_str("},");
    report.push_str(&format!(
        "\"resilience\":{{\"attempts\":{},\"retries\":{},\"giveups\":{},\
         \"reconnects\":{},\"breaker_opens\":{breaker_opens},\
         \"breaker_short_circuited\":{short_circuited}}},",
        resilience.attempts, resilience.retries, resilience.giveups, resilience.reconnects,
    ));
    report.push_str("\"server_stats\":");
    report.push_str(&server_stats);
    report.push('}');
    Ok((report, total.failed + update_tally.failed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if args.ping_only {
        // Readiness probe: exit 0 iff the server answers a PING.
        let ping = Client::connect(&args.addr).and_then(|mut c| c.ping());
        return match ping {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("ping {} failed: {err}", args.addr);
                ExitCode::FAILURE
            }
        };
    }
    if args.smoke {
        return match run_smoke(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("smoke failed: {message}");
                ExitCode::FAILURE
            }
        };
    }
    match run_load(&args) {
        Ok((report, failed)) => {
            println!("{report}");
            if let Some(path) = &args.json {
                if let Err(err) = std::fs::write(path, &report) {
                    eprintln!("failed to write {path}: {err}");
                    return ExitCode::FAILURE;
                }
            }
            // Failed requests (not Busy/Timeout backpressure) are a
            // correctness signal: surface them in the exit code so CI legs
            // notice, unless the caller opted into expected faults.
            if failed > 0 && !args.allow_failures {
                eprintln!("loadgen: {failed} failed requests (pass --allow-failures to tolerate)");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("loadgen failed: {message}");
            ExitCode::FAILURE
        }
    }
}
