//! The `shard-check` dynamic race detector: a runtime shadow of the
//! disjoint-write protocol.
//!
//! The engine's unsafe concurrency core is built on one informal argument,
//! repeated at every site: *each lane owns a disjoint set of rows / words /
//! slots, so plain (or per-value non-atomic) writes cannot race*. This
//! module makes that argument checkable on stable toolchains with no
//! external tooling — a ThreadSanitizer substitute that works offline.
//!
//! Compiled only under `--features shard-check`, each protected structure
//! carries a [`ClaimMap`]: one atomic cell per row/word/slot. Before a lane
//! performs the raw write the real protocol relies on, it *claims* the cell
//! with its [`lane_id`]. Two claim disciplines exist because the protocol
//! has two ownership shapes:
//!
//! * [`ClaimMap::claim_owner`] — *sticky ownership*: the first claimant owns
//!   the cell for the whole parallel region and may re-claim it freely
//!   (`Sharded::merge` merges into the same row many times from one lane).
//!   A claim by any second lane panics.
//! * [`ClaimMap::claim_exclusive`] — *write-once*: every claim must find the
//!   cell unclaimed (each element of a range carved from a
//!   [`DisjointSlice`](crate::parallel::DisjointSlice): SEND's word chunks,
//!   APPLY's property and active-word chunks). Even a same-lane double claim
//!   panics, because a second write is a protocol violation regardless of
//!   which lane does it.
//!
//! Claims happen **before** the shadowed write, so the panic fires before
//! any undefined behaviour — the detector turns a silent race into a
//! deterministic panic naming the structure, the index, and both lane ids.
//!
//! Release builds never see any of this: the feature is off by default and
//! the instrumented types compile back to their unchecked shapes.

use std::sync::atomic::{AtomicU32, Ordering};

/// Process-wide monotonically increasing lane-id source (0 is reserved for
/// "unclaimed").
static NEXT_LANE: AtomicU32 = AtomicU32::new(1);

std::thread_local! {
    static LANE: u32 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

/// A small dense id for the current thread, stable for the thread's
/// lifetime and never 0. Reported in violation diagnostics. (This is a
/// detector-local id, not the executor's lane number: the executor reuses
/// pooled threads, so the mapping is stable across supersteps.)
pub fn lane_id() -> u32 {
    LANE.with(|l| *l)
}

/// One atomic claim cell per protected row/word/slot: 0 = unclaimed,
/// otherwise the claiming thread's [`lane_id`].
pub struct ClaimMap {
    claims: Vec<AtomicU32>,
    label: &'static str,
}

impl ClaimMap {
    /// A map of `len` unclaimed cells; `label` names the protected
    /// structure in violation panics.
    pub fn new(len: usize, label: &'static str) -> ClaimMap {
        ClaimMap {
            claims: (0..len).map(|_| AtomicU32::new(0)).collect(),
            label,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.claims.len()
    }

    /// Whether the map has no cells.
    pub fn is_empty(&self) -> bool {
        self.claims.is_empty()
    }

    /// The structure label.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Release every claim — call at the start of each parallel region so
    /// ownership from the previous region does not carry over.
    pub fn reset(&self) {
        for cell in &self.claims {
            cell.store(0, Ordering::Relaxed);
        }
    }

    /// Sticky-ownership claim: first claimant wins the cell for the whole
    /// region; re-claims by the same lane are fine; any other lane panics.
    #[track_caller]
    pub fn claim_owner(&self, i: usize) {
        let lane = lane_id();
        let cell = &self.claims[i];
        match cell.compare_exchange(0, lane, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => {}
            Err(owner) if owner == lane => {}
            Err(owner) => self.violation(i, owner, lane, "claimed by two lanes"),
        }
    }

    /// Write-once claim: the cell must be unclaimed; even the same lane
    /// claiming twice panics (a double write is a violation whoever does it).
    #[track_caller]
    pub fn claim_exclusive(&self, i: usize) {
        let lane = lane_id();
        let cell = &self.claims[i];
        match cell.compare_exchange(0, lane, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => {}
            Err(owner) => self.violation(i, owner, lane, "written twice"),
        }
    }

    #[track_caller]
    fn violation(&self, i: usize, owner: u32, lane: u32, kind: &str) -> ! {
        // audit:allow(no-unwrap): the detector's entire purpose — a claim
        // violation means the disjointness invariant the unsafe writes rely
        // on is broken, and the panic must fire before the racing write.
        panic!(
            "shard-check: {}[{i}] {kind} (owner lane {owner}, second claim by lane {lane}); \
             the disjoint-write invariant the unsafe fast path relies on is violated",
            self.label
        );
    }
}

impl std::fmt::Debug for ClaimMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClaimMap")
            .field("label", &self.label)
            .field("len", &self.claims.len())
            .finish()
    }
}

/// Cloning a map clones its *shape* (length and label), not its claims: a
/// cloned `SparseVector` is an independent structure whose regions start
/// unclaimed.
impl Clone for ClaimMap {
    fn clone(&self) -> ClaimMap {
        ClaimMap::new(self.claims.len(), self.label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn owner_can_reclaim_exclusive_cannot() {
        let map = ClaimMap::new(4, "test");
        map.claim_owner(2);
        map.claim_owner(2); // same lane: fine
        let err = catch_unwind(AssertUnwindSafe(|| {
            let fresh = ClaimMap::new(4, "test");
            fresh.claim_exclusive(1);
            fresh.claim_exclusive(1); // same lane, write-once: fires
        }));
        assert!(err.is_err());
    }

    #[test]
    fn cross_thread_owner_claim_fires() {
        let map = ClaimMap::new(8, "cross");
        map.claim_owner(3);
        let result = std::thread::scope(|scope| {
            scope
                .spawn(|| catch_unwind(AssertUnwindSafe(|| map.claim_owner(3))))
                .join()
        });
        match result {
            Ok(caught) => assert!(caught.is_err(), "second lane's claim must panic"),
            Err(_) => panic!("detector thread itself must not die"),
        }
    }

    #[test]
    fn reset_releases_claims() {
        let map = ClaimMap::new(2, "reset");
        map.claim_exclusive(0);
        map.reset();
        map.claim_exclusive(0); // fresh region: fine again
    }

    #[test]
    fn lane_ids_are_stable_and_nonzero() {
        assert_ne!(lane_id(), 0);
        assert_eq!(lane_id(), lane_id());
        let other = std::thread::spawn(lane_id)
            .join()
            .unwrap_or_else(|_| panic!("join"));
        assert_ne!(other, lane_id());
    }

    #[test]
    fn clone_copies_shape_not_claims() {
        let map = ClaimMap::new(3, "clone");
        map.claim_exclusive(1);
        let copy = map.clone();
        assert_eq!(copy.len(), 3);
        assert_eq!(copy.label(), "clone");
        copy.claim_exclusive(1); // independent claims
    }
}
