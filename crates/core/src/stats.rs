//! Per-run and per-superstep statistics.
//!
//! These numbers feed three consumers:
//!
//! * the benchmark harness, which needs wall-clock timings per phase to
//!   regenerate Figures 4, 5 and 7;
//! * the abstract cost counters of `graphmat-perf`, which count operations
//!   and bytes in the units the baseline engines report too;
//! * users debugging convergence of their own vertex programs.

use graphmat_perf::CostCounters;
use std::time::Duration;

/// Which SpMV backend executed a superstep's PROCESS/REDUCE phases.
///
/// The direction-optimized engine picks one per superstep unless
/// [`crate::options::RunOptions::backend`] pins it. Recorded in
/// [`SuperstepStats::backend`] so direction flips are visible in the perf
/// trajectory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Column-wise sparse push: walk the message vector's non-empty columns
    /// of the partitioned DCSC and scatter into output rows (the paper's
    /// only mode, §4.4.2).
    #[default]
    Push,
    /// Row-wise dense pull: iterate destination rows of the CSR mirror and
    /// gather messages by index — chosen when the frontier is dense.
    Pull,
}

impl Backend {
    /// Lower-case name used in bench/JSON output (`"push"` / `"pull"`).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Push => "push",
            Backend::Pull => "pull",
        }
    }
}

/// Statistics for one superstep (one SEND → SpMV → APPLY cycle). The engine
/// fills the SEND/SpMV fields, the runner the iteration and APPLY fields.
#[derive(Clone, Copy, Debug, Default)]
pub struct SuperstepStats {
    /// Superstep index, starting at 0.
    pub iteration: usize,
    /// Which SpMV backend ran this superstep (push = sparse column-wise,
    /// pull = dense row-wise over the CSR mirror).
    pub backend: Backend,
    /// Fraction of all vertices that were active at the start of the
    /// superstep (`active_vertices / num_vertices`) — the signal the
    /// direction selector thresholds on, recorded for the perf trajectory.
    pub frontier_density: f64,
    /// Number of vertices that were active at the start of the superstep.
    pub active_vertices: usize,
    /// Number of messages generated by SEND_MESSAGE.
    pub messages_sent: usize,
    /// Number of edges the frontier scatters along — exactly what the push
    /// SpMV traverses. Deliberately recorded the same way on a **pull**
    /// superstep (which sweeps every stored edge of the rows it gathers,
    /// probing more than it combines), so the field stays comparable across
    /// backends and `Auto` runs report the same trajectory as forced push.
    pub edges_processed: u64,
    /// Number of vertices that received at least one message. On a pull
    /// superstep of a program whose
    /// [`receives`](crate::program::GraphProgram::receives) turns vertices
    /// away, only admitted vertices are counted — a push delivers to the
    /// others too (and APPLY ignores it) — so this total may differ between
    /// a forced-push and an `Auto` run whose properties and active sets are
    /// identical.
    pub vertices_updated: usize,
    /// Number of vertices whose property changed in APPLY (active next
    /// superstep).
    pub vertices_changed: usize,
    /// Time spent building the message vector.
    pub send_time: Duration,
    /// Time spent in the generalized SpMV.
    pub spmv_time: Duration,
    /// Time spent applying reduced values and updating the active set.
    pub apply_time: Duration,
}

impl SuperstepStats {
    /// Total wall time of the superstep.
    pub fn total_time(&self) -> Duration {
        self.send_time + self.spmv_time + self.apply_time
    }
}

/// Statistics for one whole run of a vertex program.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Number of supersteps executed.
    pub iterations: usize,
    /// How many of those supersteps the direction selector (or a forced
    /// `Backend::Pull`) ran on the pull backend. Tracked in the totals —
    /// not derived from [`RunStats::supersteps`] — so it survives
    /// `record_supersteps: false`.
    pub pull_supersteps: usize,
    /// Total wall time.
    pub total_time: Duration,
    /// Total time in SEND_MESSAGE.
    pub send_time: Duration,
    /// Total time in the generalized SpMV (the paper reports this dominates,
    /// >80% of runtime, §5.4).
    pub spmv_time: Duration,
    /// Total time in APPLY.
    pub apply_time: Duration,
    /// Total edges traversed.
    pub edges_processed: u64,
    /// Total messages generated.
    pub messages_sent: u64,
    /// Total vertices that received at least one message, summed over
    /// supersteps. Tracked in the totals, like
    /// [`RunStats::pull_supersteps`], so [`RunStats::to_cost_counters`] does
    /// not depend on `record_supersteps`.
    pub vertices_updated: u64,
    /// Number of executor lanes the run used (the Figure 5 x-axis). The
    /// lanes belong to the session's persistent worker pool — never spawned
    /// inside the superstep loop.
    pub nthreads: usize,
    /// In-memory footprint of the graph's adjacency matrices in bytes,
    /// including stored edge values (zero value bytes for `Edge = ()` — this
    /// is where the unweighted fast path's memory saving shows up).
    pub matrix_bytes: usize,
    /// Per-superstep breakdown (present if `record_supersteps` was set).
    pub supersteps: Vec<SuperstepStats>,
}

impl RunStats {
    /// Fold one superstep's stats into the totals (and record it).
    pub fn record(&mut self, step: SuperstepStats, keep_detail: bool) {
        self.iterations += 1;
        if step.backend == Backend::Pull {
            self.pull_supersteps += 1;
        }
        self.send_time += step.send_time;
        self.spmv_time += step.spmv_time;
        self.apply_time += step.apply_time;
        self.total_time += step.total_time();
        self.edges_processed += step.edges_processed;
        self.messages_sent += step.messages_sent as u64;
        self.vertices_updated += step.vertices_updated as u64;
        if keep_detail {
            self.supersteps.push(step);
        }
    }

    /// Fraction of the total time spent inside the SpMV.
    pub fn spmv_fraction(&self) -> f64 {
        if self.total_time.is_zero() {
            0.0
        } else {
            self.spmv_time.as_secs_f64() / self.total_time.as_secs_f64()
        }
    }

    /// Translate the run into abstract cost counters.
    ///
    /// `vertex_prop_bytes` is the in-memory size of one vertex property,
    /// used for the byte-traffic estimate.
    pub fn to_cost_counters(&self, vertex_prop_bytes: usize) -> CostCounters {
        let mut c = CostCounters::new();
        c.add_edge_ops(self.edges_processed);
        c.add_messages(self.messages_sent);
        c.add_vertex_ops(self.vertices_updated.max(self.iterations as u64));
        // Each edge traversal reads one matrix entry (index + weight) plus
        // the destination vertex property; each message reads/writes one
        // property-sized value.
        c.add_bytes_read(self.edges_processed * (8 + vertex_prop_bytes as u64));
        c.add_bytes_written(self.messages_sent * vertex_prop_bytes as u64);
        // GraphMat's own overhead: the active-set scan each superstep.
        c.add_overhead(self.iterations as u64);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(i: usize, edges: u64, ms: u64) -> SuperstepStats {
        SuperstepStats {
            iteration: i,
            active_vertices: 10,
            messages_sent: 10,
            edges_processed: edges,
            vertices_updated: 5,
            vertices_changed: 5,
            send_time: Duration::from_millis(ms),
            spmv_time: Duration::from_millis(ms * 8),
            apply_time: Duration::from_millis(ms),
            ..Default::default()
        }
    }

    #[test]
    fn record_accumulates_totals() {
        let mut stats = RunStats::default();
        stats.record(step(0, 100, 1), true);
        stats.record(step(1, 50, 1), true);
        assert_eq!(stats.iterations, 2);
        assert_eq!(stats.edges_processed, 150);
        assert_eq!(stats.messages_sent, 20);
        assert_eq!(stats.supersteps.len(), 2);
        assert_eq!(stats.total_time, Duration::from_millis(20));
    }

    #[test]
    fn detail_can_be_suppressed() {
        let mut stats = RunStats::default();
        stats.record(step(0, 10, 1), false);
        assert_eq!(stats.iterations, 1);
        assert!(stats.supersteps.is_empty());
    }

    #[test]
    fn spmv_dominates_in_fraction() {
        let mut stats = RunStats::default();
        stats.record(step(0, 10, 1), true);
        assert!(stats.spmv_fraction() > 0.7);
    }

    #[test]
    fn cost_counters_reflect_work() {
        let mut stats = RunStats::default();
        stats.record(step(0, 1000, 1), true);
        let c = stats.to_cost_counters(8);
        assert_eq!(c.edge_ops, 1000);
        assert_eq!(c.messages, 10);
        assert!(c.bytes_read > 0);
    }

    #[test]
    fn superstep_total_time() {
        let s = step(0, 1, 2);
        assert_eq!(s.total_time(), Duration::from_millis(20));
    }

    #[test]
    fn pull_supersteps_survive_suppressed_detail() {
        let mut stats = RunStats::default();
        let mut pull_step = step(0, 10, 1);
        pull_step.backend = Backend::Pull;
        stats.record(pull_step, false);
        stats.record(step(1, 10, 1), false);
        assert_eq!(stats.iterations, 2);
        assert_eq!(stats.pull_supersteps, 1);
        assert!(stats.supersteps.is_empty());
    }

    #[test]
    fn backend_names_are_lowercase() {
        assert_eq!(Backend::Push.name(), "push");
        assert_eq!(Backend::Pull.name(), "pull");
        assert_eq!(Backend::default(), Backend::Push);
    }
}
