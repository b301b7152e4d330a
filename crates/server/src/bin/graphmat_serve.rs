//! The GraphMat query server binary.
//!
//! Loads one graph at startup (an RMAT sample or a Matrix Market file),
//! builds the resident topology through a session, and serves protocol
//! requests until a `SHUTDOWN` frame arrives.
//!
//! ```text
//! graphmat-serve [--listen ADDR] [--rmat-scale N] [--edge-factor N]
//!                [--seed N] [--mtx PATH] [--symmetrize]
//!                [--session-threads N] [--workers N] [--queue-depth N]
//!                [--timeout-ms N] [--stats-interval-secs N]
//! ```

use graphmat_core::{RunOptions, Session, SessionOptions};
use graphmat_io::edgelist::EdgeList;
use graphmat_io::rmat::RmatConfig;
use graphmat_server::{GraphService, Server, ServerConfig};
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    listen: String,
    rmat_scale: u32,
    edge_factor: usize,
    seed: u64,
    mtx: Option<String>,
    symmetrize: bool,
    session_threads: usize,
    workers: usize,
    queue_depth: usize,
    timeout_ms: u64,
    stats_interval_secs: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            listen: "127.0.0.1:4617".into(),
            rmat_scale: 14,
            edge_factor: 16,
            seed: 42,
            mtx: None,
            symmetrize: false,
            session_threads: 0, // 0 = all available cores
            workers: 2,
            queue_depth: 64,
            timeout_ms: 0, // 0 = no default deadline
            stats_interval_secs: 30,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |flag: &str| iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--rmat-scale" => {
                args.rmat_scale = value("--rmat-scale")?
                    .parse()
                    .map_err(|e| format!("--rmat-scale: {e}"))?
            }
            "--edge-factor" => {
                args.edge_factor = value("--edge-factor")?
                    .parse()
                    .map_err(|e| format!("--edge-factor: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--mtx" => args.mtx = Some(value("--mtx")?),
            "--symmetrize" => args.symmetrize = true,
            "--session-threads" => {
                args.session_threads = value("--session-threads")?
                    .parse()
                    .map_err(|e| format!("--session-threads: {e}"))?
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue-depth" => {
                args.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|e| format!("--queue-depth: {e}"))?
            }
            "--timeout-ms" => {
                args.timeout_ms = value("--timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--timeout-ms: {e}"))?
            }
            "--stats-interval-secs" => {
                args.stats_interval_secs = value("--stats-interval-secs")?
                    .parse()
                    .map_err(|e| format!("--stats-interval-secs: {e}"))?
            }
            "--help" | "-h" => {
                return Err("usage: graphmat-serve [--listen ADDR] [--rmat-scale N] \
                     [--edge-factor N] [--seed N] [--mtx PATH] [--symmetrize] \
                     [--session-threads N] [--workers N] [--queue-depth N] \
                     [--timeout-ms N] [--stats-interval-secs N]"
                    .into())
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    let load_start = Instant::now();
    let edges: EdgeList<f32> = match &args.mtx {
        Some(path) => match graphmat_io::mtx::read_file(path) {
            Ok(edges) => edges,
            Err(err) => {
                eprintln!("failed to read {path}: {err}");
                return ExitCode::FAILURE;
            }
        },
        None => graphmat_io::rmat::generate(
            &RmatConfig::graph500(args.rmat_scale)
                .with_edge_factor(args.edge_factor)
                .with_seed(args.seed)
                .with_weights(1, 10),
        ),
    };
    let edges = if args.symmetrize {
        edges.symmetrized()
    } else {
        edges
    };

    // The serving configuration `tests/zero_alloc.rs` pins: nothing in this
    // crate reads per-superstep detail, so a request does not grow a list of
    // it (~630 entries per road SSSP).
    let mut options = SessionOptions::default().with_run_defaults(RunOptions {
        record_supersteps: false,
        ..RunOptions::default()
    });
    if args.session_threads != 0 {
        options = options.with_threads(args.session_threads);
    }
    let session = match Session::new(options) {
        Ok(session) => session,
        Err(err) => {
            eprintln!("failed to start session: {err}");
            return ExitCode::FAILURE;
        }
    };
    let topology = match session.build_graph(&edges).finish() {
        Ok(topology) => topology,
        Err(err) => {
            eprintln!("failed to build topology: {err}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "[graphmat-serve] loaded {} vertices / {} edges in {:.2}s ({} session threads, {:.1} MiB matrices)",
        topology.num_vertices(),
        topology.num_edges(),
        load_start.elapsed().as_secs_f64(),
        session.nthreads(),
        topology.matrix_bytes() as f64 / (1024.0 * 1024.0),
    );

    let config = ServerConfig {
        workers: args.workers,
        queue_depth: args.queue_depth,
        default_timeout: (args.timeout_ms > 0).then(|| Duration::from_millis(args.timeout_ms)),
        stats_log_interval: (args.stats_interval_secs > 0)
            .then(|| Duration::from_secs(args.stats_interval_secs)),
        ..ServerConfig::default()
    };
    let server = match Server::bind(&args.listen, GraphService::new(session, topology), config) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("failed to bind {}: {err}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "[graphmat-serve] listening on {} ({} workers, queue depth {})",
        server.local_addr(),
        args.workers,
        args.queue_depth,
    );
    server.wait();
    eprintln!("[graphmat-serve] drained and stopped");
    ExitCode::SUCCESS
}
