//! Observability: request counters, latency histograms and JSON snapshots.
//!
//! Everything is lock-free (`AtomicU64`, relaxed ordering) so the serving
//! hot path pays a handful of uncontended atomic increments per request.
//! Latencies go into power-of-two histograms; quantiles are read as the
//! upper bound of the bucket holding the target rank, which is exact to
//! within 2× — plenty for p50/p95/p99 dashboards and regression gates.
//!
//! The [`Metrics::to_json`] snapshot backs the `STATS` endpoint; the bench
//! harness's `BENCH_serving` series and the CI smoke test both scrape it.

use crate::protocol::Algorithm;
use graphmat_core::StoreStats;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Number of power-of-two latency buckets: bucket `i` counts latencies in
/// `[2^i, 2^(i+1))` microseconds, so 40 buckets span 1 µs to ~18 minutes.
const BUCKETS: usize = 40;

/// A fixed-bucket log₂ latency histogram.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one latency sample.
    pub fn record(&self, micros: u64) {
        let idx = (63 - micros.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum_micros.fetch_add(micros, Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_micros(&self) -> u64 {
        self.sum_micros
            .load(Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// Approximate quantile in microseconds: the upper bound of the bucket
    /// containing the `q`-th ranked sample (0 when empty).
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Relaxed);
            if seen >= target {
                return 1u64 << (i + 1);
            }
        }
        1u64 << BUCKETS
    }
}

/// Per-algorithm request accounting.
#[derive(Debug, Default)]
pub struct AlgoMetrics {
    /// Requests admitted for decode (every RUN with this algorithm id).
    pub requests: AtomicU64,
    /// Completed successfully.
    pub ok: AtomicU64,
    /// Rejected at admission because the queue was full.
    pub busy: AtomicU64,
    /// Deadline expired (queued or mid-run).
    pub timeout: AtomicU64,
    /// Failed inside the engine (or invalid seed).
    pub failed: AtomicU64,
    /// Service-time histogram of successful runs.
    pub latency: LatencyHistogram,
}

/// Server-wide metrics registry.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    algos: [AlgoMetrics; Algorithm::ALL.len()],
    /// STATS requests served.
    pub stats_requests: AtomicU64,
    /// PING requests served.
    pub pings: AtomicU64,
    /// Frames that failed to decode into a request.
    pub bad_requests: AtomicU64,
    /// UPDATE batches applied successfully.
    pub updates: AtomicU64,
    /// Edge edits contained in applied UPDATE batches.
    pub update_edits: AtomicU64,
    /// UPDATE batches rejected (out-of-range vertices, store errors).
    pub update_failed: AtomicU64,
    /// UPDATE batches shed because the store's pending-delta watermark was
    /// hit (a subset of `update_failed`'s sibling counter — overload is its
    /// own bucket, not a failure of the batch).
    pub update_overloaded: AtomicU64,
    /// Connections dropped for framing violations (oversized prefix,
    /// mid-frame stalls) or write-side stalls (half-open peers).
    pub dropped_connections: AtomicU64,
    /// Run executions that panicked and were isolated (typed `ServerError`
    /// reply, state quarantined, worker kept serving).
    pub worker_panics: AtomicU64,
    /// Worker lanes respawned by the supervisor after dying outside the
    /// panic-isolation guard.
    pub worker_restarts: AtomicU64,
    /// `VertexState`s allocated by worker pools — constant after warm-up
    /// ⇔ steady-state serving allocates no per-query state.
    pub pool_created: AtomicU64,
    /// Pool acquisitions served by recycling instead of allocation.
    pub pool_reused: AtomicU64,
    /// Possibly-corrupt `VertexState`s retired after a panic instead of
    /// recycled.
    pub pool_quarantined: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            algos: Default::default(),
            stats_requests: AtomicU64::new(0),
            pings: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            update_edits: AtomicU64::new(0),
            update_failed: AtomicU64::new(0),
            update_overloaded: AtomicU64::new(0),
            dropped_connections: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            pool_created: AtomicU64::new(0),
            pool_reused: AtomicU64::new(0),
            pool_quarantined: AtomicU64::new(0),
        }
    }
}

impl Metrics {
    /// The counter block for one algorithm.
    pub fn algo(&self, algorithm: Algorithm) -> &AlgoMetrics {
        &self.algos[algorithm as usize]
    }

    /// Seconds since the server started.
    pub fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Total successful runs across all algorithms.
    pub fn total_ok(&self) -> u64 {
        self.algos.iter().map(|a| a.ok.load(Relaxed)).sum()
    }

    /// Total RUN requests across all algorithms.
    pub fn total_requests(&self) -> u64 {
        self.algos.iter().map(|a| a.requests.load(Relaxed)).sum()
    }

    /// Total busy rejections across all algorithms.
    pub fn total_busy(&self) -> u64 {
        self.algos.iter().map(|a| a.busy.load(Relaxed)).sum()
    }

    /// Total timeouts across all algorithms.
    pub fn total_timeout(&self) -> u64 {
        self.algos.iter().map(|a| a.timeout.load(Relaxed)).sum()
    }

    /// Total engine failures across all algorithms.
    pub fn total_failed(&self) -> u64 {
        self.algos.iter().map(|a| a.failed.load(Relaxed)).sum()
    }

    /// The STATS endpoint snapshot. `num_vertices` and the `store` counters
    /// describe the currently published graph snapshot so clients can size
    /// seeds without a side channel; the store block also exposes the
    /// streaming state (`delta_edges`, `compactions`,
    /// `compaction_failures`, and `compaction_restarts`, which reads 0).
    pub fn to_json(&self, num_vertices: u64, store: &StoreStats) -> String {
        use std::fmt::Write;
        let uptime = self.uptime_secs();
        let ok = self.total_ok();
        let qps = if uptime > 0.0 {
            ok as f64 / uptime
        } else {
            0.0
        };
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"uptime_secs\":{uptime:.3},\"num_vertices\":{num_vertices},\
             \"num_edges\":{num_edges},\"qps\":{qps:.2},\
             \"store\":{{\"snapshot_version\":{snapshot_version},\
             \"delta_edges\":{delta_edges},\"compactions\":{compactions},\
             \"compaction_failures\":{compaction_failures},\
             \"compaction_restarts\":{compaction_restarts},\
             \"updates\":{},\"update_edits\":{},\"update_failed\":{},\
             \"update_overloaded\":{}}},\
             \"pool\":{{\"created\":{},\"reused\":{},\"quarantined\":{}}},\
             \"totals\":{{\"requests\":{},\"ok\":{ok},\"busy\":{},\
             \"timeout\":{},\"failed\":{},\"bad_requests\":{},\
             \"dropped_connections\":{},\"worker_panics\":{},\
             \"worker_restarts\":{},\"stats_requests\":{},\"pings\":{}}},\
             \"algorithms\":{{",
            self.updates.load(Relaxed),
            self.update_edits.load(Relaxed),
            self.update_failed.load(Relaxed),
            self.update_overloaded.load(Relaxed),
            self.pool_created.load(Relaxed),
            self.pool_reused.load(Relaxed),
            self.pool_quarantined.load(Relaxed),
            self.total_requests(),
            self.total_busy(),
            self.total_timeout(),
            self.total_failed(),
            self.bad_requests.load(Relaxed),
            self.dropped_connections.load(Relaxed),
            self.worker_panics.load(Relaxed),
            self.worker_restarts.load(Relaxed),
            self.stats_requests.load(Relaxed),
            self.pings.load(Relaxed),
            num_edges = store.num_edges as u64,
            snapshot_version = store.version,
            delta_edges = store.delta_edges as u64,
            compactions = store.compactions,
            compaction_failures = store.compaction_failures,
            compaction_restarts = store.compaction_restarts,
        );
        for (i, algorithm) in Algorithm::ALL.iter().enumerate() {
            let a = self.algo(*algorithm);
            let _ = write!(
                out,
                "{}\"{}\":{{\"requests\":{},\"ok\":{},\"busy\":{},\
                 \"timeout\":{},\"failed\":{},\"mean_us\":{},\
                 \"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
                if i == 0 { "" } else { "," },
                algorithm.name(),
                a.requests.load(Relaxed),
                a.ok.load(Relaxed),
                a.busy.load(Relaxed),
                a.timeout.load(Relaxed),
                a.failed.load(Relaxed),
                a.latency.mean_micros(),
                a.latency.quantile_micros(0.50),
                a.latency.quantile_micros(0.95),
                a.latency.quantile_micros(0.99),
            );
        }
        out.push_str("}}");
        out
    }

    /// One-line periodic log summary.
    pub fn log_line(&self) -> String {
        format!(
            "up={:.0}s qps={:.1} ok={} busy={} timeout={} failed={} bad={} pool_created={} pool_reused={}",
            self.uptime_secs(),
            if self.uptime_secs() > 0.0 {
                self.total_ok() as f64 / self.uptime_secs()
            } else {
                0.0
            },
            self.total_ok(),
            self.total_busy(),
            self.total_timeout(),
            self.total_failed(),
            self.bad_requests.load(Relaxed),
            self.pool_created.load(Relaxed),
            self.pool_reused.load(Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let h = LatencyHistogram::default();
        for micros in [10, 20, 30, 40, 1000] {
            h.record(micros);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean_micros(), 220);
        // p50 sample is 30 µs → bucket [16,32) → upper bound 32
        assert_eq!(h.quantile_micros(0.50), 32);
        // p99 sample is 1000 µs → bucket [512,1024) → upper bound 1024
        assert_eq!(h.quantile_micros(0.99), 1024);
        // empty histogram reports zeros
        let empty = LatencyHistogram::default();
        assert_eq!(empty.quantile_micros(0.99), 0);
        assert_eq!(empty.mean_micros(), 0);
    }

    #[test]
    fn snapshot_is_wellformed_json_with_all_algorithms() {
        let m = Metrics::default();
        m.algo(Algorithm::Bfs).requests.fetch_add(3, Relaxed);
        m.algo(Algorithm::Bfs).ok.fetch_add(2, Relaxed);
        m.algo(Algorithm::Bfs).latency.record(120);
        let json = m.to_json(
            100,
            &StoreStats {
                version: 3,
                num_edges: 500,
                delta_edges: 12,
                compactions: 1,
                compaction_failures: 2,
                compaction_restarts: 2,
            },
        );
        for key in [
            "\"num_vertices\":100",
            "\"num_edges\":500",
            "\"snapshot_version\":3",
            "\"delta_edges\":12",
            "\"compactions\":1",
            "\"compaction_failures\":2",
            "\"compaction_restarts\":2",
            "\"update_overloaded\"",
            "\"worker_panics\"",
            "\"worker_restarts\"",
            "\"quarantined\"",
            "\"update_edits\"",
            "\"pagerank\"",
            "\"bfs\"",
            "\"sssp\"",
            "\"components\"",
            "\"in_degrees\"",
            "\"p99_us\"",
            "\"pool\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // crude balance check — the snapshot must at least nest correctly
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
    }
}
