//! Run-time configuration.
//!
//! The paper stresses that GraphMat leaves almost no tuning to the user: "the
//! only tunable ones are number of threads and number of desired matrix
//! partitions" (§5.4). Those two belong to the [`crate::session::Session`]
//! (its pool size) and the graph builder. [`RunOptions`] holds only what one
//! *run* can vary — when it stops (iteration limit, deadline), which vertices
//! are active next superstep, whether per-superstep statistics are kept —
//! plus one override: [`RunOptions::backend`] pins every superstep to the
//! push or the pull SpMV instead of letting the engine choose per superstep.
//! The override never changes an answer (push, pull and the selector are
//! bit-for-bit identical); it exists for the tests that prove exactly that
//! and for the Figure 7 push-only / pull-only / auto comparison.
//!
//! The losing alternatives of the paper's ablations are not engine options.
//! Callbacks compiled without `-ipo` (§4.5) are reconstructed from outside by
//! `graphmat-bench` — an ordinary program wrapping another. Sorted-tuple
//! message vectors (§4.4.2) exist nowhere: the kernels take the bit-vector
//! `SparseVector` by name.

use crate::error::{GraphMatError, Result};
use crate::stats::Backend;
use std::time::Instant;

/// How the active set for the next superstep is determined after APPLY.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ActivityPolicy {
    /// Only vertices whose property changed become active (Algorithm 2
    /// lines 12–13) — the right semantics for frontier algorithms such as
    /// BFS, SSSP and label propagation.
    #[default]
    Changed,
    /// Every vertex is active every superstep — the right semantics for
    /// fixed-iteration algorithms such as PageRank and gradient-descent
    /// collaborative filtering, where every vertex must rebroadcast its
    /// state even if it happens not to have changed.
    AlwaysAll,
}

/// Options controlling one run of a vertex program.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Maximum number of supersteps; `None` runs until no vertex changes
    /// state (the paper's `-1` argument). `Some(0)` is rejected by
    /// [`RunOptions::validate`] — a zero-superstep "run" is a no-op the
    /// caller should skip instead of requesting.
    pub max_iterations: Option<usize>,
    /// SpMV backend override. `None` (the default) is direction-optimized:
    /// each superstep picks sparse push or dense pull with the cost rule of
    /// [`crate::engine::choose_backend`]. Pending edits change nothing
    /// here: both kernels read folds of them.
    /// `Some(Backend::Push)` is the paper's original always-push engine,
    /// and never makes a pull mirror.
    /// `Some(Backend::Pull)` always pulls through the row-major CSR mirrors,
    /// which the first pull derives.
    pub backend: Option<Backend>,
    /// How the next superstep's active set is derived.
    pub activity: ActivityPolicy,
    /// Record per-superstep statistics (cheap; on by default).
    pub record_supersteps: bool,
    /// Hard wall-clock deadline for the run. Checked **between** supersteps
    /// (the bulk-synchronous barrier is the natural cancellation point, so a
    /// run can overshoot by at most one superstep): when the deadline has
    /// passed, the run stops with [`GraphMatError::DeadlineExceeded`],
    /// leaving the completed supersteps' results in the vertex state. `None`
    /// (the default) runs without a time limit. This is the per-request
    /// timeout hook for serving layers — see `RunBuilder::deadline`.
    pub deadline: Option<Instant>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            max_iterations: None,
            backend: None,
            activity: ActivityPolicy::Changed,
            record_supersteps: true,
            deadline: None,
        }
    }
}

impl RunOptions {
    /// Set the maximum number of supersteps.
    pub fn with_max_iterations(mut self, max: usize) -> Self {
        self.max_iterations = Some(max);
        self
    }

    /// Force (or, with `None`, un-force) the SpMV backend — see
    /// [`RunOptions::backend`].
    pub fn with_backend(mut self, backend: impl Into<Option<Backend>>) -> Self {
        self.backend = backend.into();
        self
    }

    /// Set the activity policy.
    pub fn with_activity(mut self, activity: ActivityPolicy) -> Self {
        self.activity = activity;
        self
    }

    /// Set (or clear) the wall-clock deadline — see
    /// [`RunOptions::deadline`].
    pub fn with_deadline(mut self, deadline: impl Into<Option<Instant>>) -> Self {
        self.deadline = deadline.into();
        self
    }

    /// Check the options for values that cannot drive a run:
    /// `max_iterations == Some(0)` yields [`GraphMatError::ZeroIterations`].
    /// Called by the `Session` frontend at construction and before every
    /// builder-driven run.
    pub fn validate(&self) -> Result<()> {
        if self.max_iterations == Some(0) {
            return Err(GraphMatError::ZeroIterations);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_direction_optimized_and_unbounded() {
        let o = RunOptions::default();
        assert_eq!(o.backend, None);
        assert!(o.max_iterations.is_none());
        assert!(o.validate().is_ok());
    }

    #[test]
    fn builder_methods_compose() {
        let o = RunOptions::default()
            .with_max_iterations(7)
            .with_backend(Backend::Pull);
        assert_eq!(o.max_iterations, Some(7));
        assert_eq!(o.backend, Some(Backend::Pull));
        assert_eq!(o.with_backend(None).backend, None);
        assert!(o.validate().is_ok());
    }

    #[test]
    fn zero_iterations_fails_validation() {
        let o = RunOptions::default().with_max_iterations(0);
        assert_eq!(o.validate(), Err(GraphMatError::ZeroIterations));
        assert!(RunOptions::default()
            .with_max_iterations(1)
            .validate()
            .is_ok());
    }
}
