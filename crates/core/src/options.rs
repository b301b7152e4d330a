//! Run-time configuration and the Figure 7 ablation toggles.
//!
//! The paper stresses that GraphMat leaves almost no tuning to the user: "the
//! only tunable ones are number of threads and number of desired matrix
//! partitions" (§5.4). Those two belong to the [`crate::session::Session`]
//! (its pool size) and the graph builder; [`RunOptions`] holds what one run
//! can vary: the iteration limit, the two *ablation* switches that the
//! Figure 7 experiment needs to reconstruct the naive baselines
//! (sorted-tuple sparse vectors instead of bitvector-backed ones, and dynamic
//! dispatch of the user callbacks instead of monomorphised/inlined calls,
//! standing in for compiling without `-ipo`), and the direction-
//! optimization knobs this reproduction adds beyond the paper:
//! [`VectorKind`] grew `Dense` (force the row-wise pull backend) and `Auto`
//! (per-superstep push/pull selection, the default), with
//! [`RunOptions::pull_alpha`] tuning when `Auto` switches.

use crate::error::{GraphMatError, Result};
use std::time::Instant;

/// How the user's `process_message`/`reduce` callbacks are dispatched inside
/// the SpMV inner loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DispatchMode {
    /// Static dispatch: the engine is monomorphised over the program, so the
    /// callbacks inline into the SpMV kernel. This is the analogue of the
    /// paper's icc `-ipo` build (§4.5 optimization 2) and the default.
    #[default]
    Static,
    /// Dynamic dispatch: callbacks are invoked through trait objects,
    /// preventing inlining — the "before `-ipo`" configuration of Figure 7.
    Dynamic,
}

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

/// Which message-vector representation — and therefore which SpMV backend —
/// a superstep uses.
///
/// `Bitvector` and `Sorted` are *push* representations (column-wise sparse
/// SpMV over the DCSC); `Dense` is the *pull* representation (row-wise SpMV
/// over the CSR mirror); `Auto` switches between bitvector-push and
/// dense-pull per superstep based on frontier density. All four produce
/// **bit-for-bit identical results** — push and pull both reduce each
/// destination's incoming products in ascending source order — so the choice
/// is purely about performance. `Auto` is the default; the paper's original
/// always-push configuration is `Bitvector`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VectorKind {
    /// Bit vector + dense value array, always pushed (the paper's choice,
    /// §4.4.2).
    Bitvector,
    /// Sorted `(index, value)` tuples, always pushed (the rejected
    /// alternative, kept for the Figure 7 "+bitvector" ablation step).
    Sorted,
    /// Dense value array + validity bitmap, always **pulled** through the
    /// row-major CSR mirror. Requires a topology built with pull mirrors
    /// (the build default) — forcing `Dense` on a mirror-less topology is
    /// [`GraphMatError::MissingPullMirror`].
    Dense,
    /// Direction-optimized: per superstep, pick push (bitvector) or pull
    /// (dense) with the Beamer-style rule — pull when the frontier's
    /// out-edges outnumber `unexplored_edges / α` **and** the frontier
    /// itself is not tiny (see [`RunOptions::pull_alpha`]). On a topology
    /// without pull mirrors, `Auto` always pushes.
    #[default]
    Auto,
}

/// Options controlling one run of a vertex program.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Maximum number of supersteps; `None` runs until no vertex changes
    /// state (the paper's `-1` argument). `Some(0)` is rejected by
    /// [`RunOptions::validate`] — a zero-superstep "run" is a no-op the
    /// caller should skip instead of requesting.
    pub max_iterations: Option<usize>,
    /// Callback dispatch mode (Figure 7 "+ipo" ablation).
    pub dispatch: DispatchMode,
    /// Message-vector representation / SpMV backend selection (Figure 7
    /// "+bitvector" ablation and the direction-optimization forcing knob).
    pub vector: VectorKind,
    /// The α threshold of the [`VectorKind::Auto`] direction selector
    /// (Beamer et al.'s direction-switching rule): a superstep pulls when
    /// `frontier_out_edges > unexplored_edges / α`. Larger α switches to
    /// pull earlier. Must be positive and finite
    /// ([`RunOptions::validate`]); the default is
    /// [`DEFAULT_PULL_ALPHA`] (= 14, the value the direction-optimizing BFS
    /// paper tunes on scale-free graphs). Ignored by the forced kinds.
    pub pull_alpha: f64,
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

/// Default α of the direction selector: pull once the frontier's out-edges
/// exceed `unexplored_edges / 14` (Beamer et al.'s tuned value).
pub const DEFAULT_PULL_ALPHA: f64 = 14.0;

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            max_iterations: None,
            dispatch: DispatchMode::Static,
            vector: VectorKind::Auto,
            pull_alpha: DEFAULT_PULL_ALPHA,
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

    /// Set the dispatch mode.
    pub fn with_dispatch(mut self, dispatch: DispatchMode) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// Set the sparse-vector representation.
    pub fn with_vector(mut self, vector: VectorKind) -> Self {
        self.vector = vector;
        self
    }

    /// Set the α threshold of the [`VectorKind::Auto`] direction selector
    /// (must be positive and finite; see [`RunOptions::pull_alpha`]).
    pub fn with_pull_alpha(mut self, alpha: f64) -> Self {
        self.pull_alpha = alpha;
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
    /// `max_iterations == Some(0)` yields [`GraphMatError::ZeroIterations`];
    /// a non-positive or non-finite [`RunOptions::pull_alpha`] yields
    /// [`GraphMatError::InvalidParameter`].
    /// Called by the `Session` frontend at construction and before every
    /// builder-driven run.
    pub fn validate(&self) -> Result<()> {
        if self.max_iterations == Some(0) {
            return Err(GraphMatError::ZeroIterations);
        }
        if !(self.pull_alpha.is_finite() && self.pull_alpha > 0.0) {
            return Err(GraphMatError::InvalidParameter(
                "pull_alpha must be positive and finite",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_static_dispatch_and_direction_optimized() {
        let o = RunOptions::default();
        assert_eq!(o.dispatch, DispatchMode::Static);
        assert_eq!(o.vector, VectorKind::Auto);
        assert!(o.max_iterations.is_none());
        assert!(o.validate().is_ok());
    }

    #[test]
    fn builder_methods_compose() {
        let o = RunOptions::default()
            .with_max_iterations(7)
            .with_dispatch(DispatchMode::Dynamic)
            .with_vector(VectorKind::Sorted);
        assert_eq!(o.max_iterations, Some(7));
        assert_eq!(o.dispatch, DispatchMode::Dynamic);
        assert_eq!(o.vector, VectorKind::Sorted);
        assert!(o.validate().is_ok());
    }

    #[test]
    fn invalid_pull_alpha_fails_validation() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                RunOptions::default().with_pull_alpha(bad).validate(),
                Err(GraphMatError::InvalidParameter(
                    "pull_alpha must be positive and finite"
                )),
                "alpha {bad}"
            );
        }
        assert!(RunOptions::default()
            .with_pull_alpha(4.0)
            .validate()
            .is_ok());
        assert_eq!(RunOptions::default().pull_alpha, DEFAULT_PULL_ALPHA);
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
