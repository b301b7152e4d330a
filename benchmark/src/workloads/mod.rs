//! The six workloads. Each is one function from a [`Config`] to an
//! [`Outcome`]: it builds its inputs from the seed, sets up (three times, for
//! a median), measures for the configured time, and checks every answer
//! outside the timed spans.

mod inproc;
mod overlay;
mod serving;

use crate::stats::Stat;
use crate::table::{self, Kind, Workload, W};
use crate::trace::{Span, Tracer};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub seed: u64,
    /// How long one run measures. An untraced run spends all of it on the
    /// timed pass; a traced run splits it (see [`Config::split`]).
    pub seconds: f64,
    /// Scale-10 inputs and a single repetition: a smoke test, not a
    /// measurement.
    pub quick: bool,
    pub trace: bool,
    /// Engine threads = session threads = server workers.
    pub threads: usize,
}

/// How many times set-up runs in one run; its median is `setup_s`.
pub(crate) const SETUPS: usize = 3;

/// `min(nproc, 4)`: results are comparable only at equal thread count.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

impl Config {
    /// Traced runs: 40 % untraced pass (layer numbers that need no spans,
    /// and the base for the tracing overhead), 30 % traced pass, 30 % direct
    /// layer probes.
    pub fn split(&self) -> (f64, f64, f64) {
        (0.4 * self.seconds, 0.3 * self.seconds, 0.3 * self.seconds)
    }

    pub fn min_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for a person.
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, Stat)>,
    /// Facts about the input (sizes, roots): printed and kept in `run.json`.
    pub facts: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
    pub dropped_spans: u64,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, stat: Stat) {
        debug_assert!(table::metric(name).is_some(), "{name} is not in the table");
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = stat,
            None => self.metrics.push((name, stat)),
        }
    }

    pub fn put_exact(&mut self, name: &'static str, value: f64) {
        self.put(name, Stat::exact(value));
    }

    pub fn get(&self, name: &str) -> Option<Stat> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
    }

    pub fn fact(&mut self, name: &'static str, value: f64) {
        self.facts.push((name, value));
    }

    /// Count `n` operations as failed, keeping the first messages.
    pub fn fail(&mut self, n: u64, message: impl Into<String>) {
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(message.into());
        }
    }

    pub fn take_spans(&mut self, tracer: Tracer) {
        self.dropped_spans += tracer.dropped();
        self.spans.extend_from_slice(tracer.spans());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Every metric of the run's kind, by name: measured values where the
    /// workload defines the metric, 0 elsewhere (the driver's JSON must carry
    /// every name on every workload). A defined metric that was not measured
    /// is a failure of the run, not a 0.
    pub fn complete(&mut self, workload: &Workload, trace: bool) -> Vec<(&'static str, Stat)> {
        let mut full = Vec::new();
        for m in table::METRICS {
            if matches!(m.kind, Kind::EndToEnd { .. }) == trace {
                continue;
            }
            match (self.get(m.name), m.defined_on(workload.id)) {
                (Some(stat), _) => full.push((m.name, stat)),
                (None, false) => full.push((m.name, Stat::exact(0.0))),
                (None, true) => {
                    self.fail(1, format!("metric {} was not measured", m.name));
                    full.push((m.name, Stat::exact(0.0)));
                }
            }
        }
        full
    }
}

/// Run one workload once.
pub fn run(workload: &Workload, cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let result = match workload.id {
        W::PrDense | W::BfsFrontier | W::SsspRoad => inproc::run(workload.id, cfg, &mut out),
        W::PrOverlay => overlay::run(cfg, &mut out),
        W::ServeMixed | W::ServeLight => serving::run(workload.id, cfg, &mut out),
    };
    if let Err(message) = result {
        out.attempted = out.attempted.max(1);
        out.fail(1, format!("{}: {message}", workload.name));
    }
    out.attempted = out.attempted.max(1);
    let fail_share = out.failed as f64 / out.attempted as f64;
    out.put_exact("fail_share", fail_share);
    out
}

// ---------------------------------------------------------------------------
// Shared by the workloads
// ---------------------------------------------------------------------------

pub(crate) fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Time one call.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// What every set-up reports; the graph-shaped part of the layer table.
pub(crate) struct SetupTimes {
    generate_s: Vec<f64>,
    build_s: Vec<f64>,
    total_s: Vec<f64>,
}

impl SetupTimes {
    pub fn new() -> SetupTimes {
        SetupTimes {
            generate_s: Vec::new(),
            build_s: Vec::new(),
            total_s: Vec::new(),
        }
    }

    /// One set-up: generating the input, building the topology, and whatever
    /// else the workload needs before its first query (store, server).
    pub fn push(&mut self, generate: Duration, build: Duration, rest: Duration) {
        self.generate_s.push(secs(generate));
        self.build_s.push(secs(build));
        self.total_s.push(secs(generate + build + rest));
    }

    /// `setup_s`, `graph_mb` and, on traced runs, the io / topology layers.
    pub fn report(
        &self,
        out: &mut Outcome,
        num_edges: usize,
        matrix_bytes: usize,
        pull_bytes: usize,
    ) {
        out.put("setup_s", Stat::median(&self.total_s));
        out.put_exact("graph_mb", (matrix_bytes + pull_bytes) as f64 / 1e6);
        out.put("io.generate_s", Stat::median(&self.generate_s));
        let build = Stat::median(&self.build_s);
        out.put("core.topology.build_s", build);
        out.put_exact(
            "core.topology.build_medges_per_s",
            num_edges as f64 / build.value.max(1e-9) / 1e6,
        );
        out.put_exact("core.topology.matrix_bytes", matrix_bytes as f64);
        out.put_exact("core.topology.pull_bytes", pull_bytes as f64);
    }
}
