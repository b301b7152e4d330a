//! Deterministic fault injection: named failpoints for chaos-testing the
//! serving path.
//!
//! The serving stack (`crates/server` + `GraphStore`) claims it survives the
//! bad day — a worker panicking mid-run, a compaction thread dying, a flaky
//! frame write. Those claims are only testable if the faults can be *made to
//! happen*, deterministically, at the exact hazard the recovery code guards.
//! This crate is that switchboard: instrumented crates plant named
//! [`fire`] calls at their hazards, and tests (or the
//! [`GRAPHMAT_FAILPOINTS`](ENV_VAR) environment variable) arm them with a
//! deterministic trigger.
//!
//! # Cost when disabled
//!
//! Everything here is gated on the `chaos` cargo feature, exactly like the
//! `shard-check` race detector: with the feature off (the default),
//! [`fire`] is an empty `#[inline(always)]` function returning `None` and
//! the registry does not exist — default builds compile the failpoints out
//! to nothing.
//!
//! # Arming a failpoint
//!
//! A failpoint is armed with an **action** and a **trigger**:
//!
//! * actions — `panic` (unwind at the callsite with a diagnostic message) or
//!   `error` (the callsite receives [`InjectedFault::Error`] and maps it to
//!   its own typed error);
//! * triggers — `always` (every hit), `n<K>` (exactly the K-th hit, 1-based;
//!   deterministic single-shot), or `p<F>[,s<SEED>]` (seeded probability:
//!   each hit fires independently with probability F, driven by a
//!   per-failpoint SplitMix64 stream so a given seed reproduces the same
//!   fault schedule).
//!
//! In-process (tests):
//!
//! ```
//! # #[cfg(feature = "chaos")] {
//! graphmat_chaos::configure("store.apply.publish", "panic@n2").unwrap();
//! graphmat_chaos::configure("server.frame.read", "error@p0.05,s42").unwrap();
//! graphmat_chaos::reset(); // disarm everything, zero the counters
//! # }
//! ```
//!
//! From outside (CI smoke legs, loadgen runs), the same specs via the
//! environment, `;`-separated:
//!
//! ```text
//! GRAPHMAT_FAILPOINTS='server.worker.execute=panic@p0.01,s7;store.apply.admit=error@n3'
//! ```
//!
//! The environment is read once, on the first [`fire`] anywhere in the
//! process; `configure`/`reset` calls override it.
//!
//! # Adding a failpoint
//!
//! Plant `graphmat_chaos::fire("crate.site.hazard")` at the hazard and
//! handle both variants: `Panic` never returns (the call panics inside
//! [`fire`]), `Error` must be mapped to the caller's error path. Names are
//! dotted `area.site.hazard` strings; the registry is open — firing an
//! unarmed name just counts the hit, so tests can assert coverage with
//! `hits`. See `crates/chaos/README.md` for the currently planted set.

/// Name of the environment variable holding `;`-separated failpoint specs.
pub const ENV_VAR: &str = "GRAPHMAT_FAILPOINTS";

/// What an armed failpoint injected at a callsite.
///
/// `Panic` is listed for completeness but is never *returned*: [`fire`]
/// panics directly so the unwind originates at the instrumented line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedFault {
    /// The callsite should fail its fallible path with an injected error.
    Error,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chaos-injected fault")
    }
}

#[cfg(not(feature = "chaos"))]
mod imp {
    /// Chaos disabled: hit the failpoint and do nothing (compiles to
    /// nothing — the name literal is dead and the branch folds away).
    #[inline(always)]
    pub fn fire(_name: &'static str) -> Option<super::InjectedFault> {
        None
    }
}

#[cfg(feature = "chaos")]
mod imp {
    use super::InjectedFault;
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// When an armed failpoint goes off.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Trigger {
        /// Every hit fires.
        Always,
        /// Exactly the K-th hit (1-based) fires; all others pass.
        Nth(u64),
        /// Each hit fires independently with this probability, scaled to
        /// parts-per-million and driven by the per-failpoint rng stream.
        ProbPpm(u64),
    }

    /// What firing does to the callsite.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Action {
        Panic,
        Error,
    }

    #[derive(Debug)]
    struct Failpoint {
        armed: Option<(Action, Trigger)>,
        /// SplitMix64 state for probabilistic triggers.
        rng: u64,
        hits: u64,
        fires: u64,
    }

    impl Default for Failpoint {
        fn default() -> Self {
            Failpoint {
                armed: None,
                rng: 0x9e37_79b9_7f4a_7c15,
                hits: 0,
                fires: 0,
            }
        }
    }

    struct Registry {
        points: HashMap<String, Failpoint>,
        env_loaded: bool,
    }

    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

    /// The registry mutex recovers from poisoning: a chaos `panic` action
    /// unwinds *after* the guard is dropped (the panic happens in `fire`'s
    /// caller frame below, outside the lock), but a test harness thread can
    /// still die while holding it — the map of counters is always
    /// consistent between statements.
    fn registry() -> MutexGuard<'static, Registry> {
        let lock = REGISTRY.get_or_init(|| {
            Mutex::new(Registry {
                points: HashMap::new(),
                env_loaded: false,
            })
        });
        match lock.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Parse one `action[@trigger]` spec (see crate docs for the grammar).
    fn parse_spec(spec: &str) -> Result<Option<(Action, Trigger, Option<u64>)>, String> {
        let spec = spec.trim();
        if spec == "off" {
            return Ok(None);
        }
        let (action, trigger) = match spec.split_once('@') {
            Some((a, t)) => (a.trim(), t.trim()),
            None => (spec, "always"),
        };
        let action = match action {
            "panic" => Action::Panic,
            "error" => Action::Error,
            other => {
                return Err(format!(
                    "unknown failpoint action {other:?} (panic|error|off)"
                ))
            }
        };
        if trigger == "always" {
            return Ok(Some((action, Trigger::Always, None)));
        }
        if let Some(n) = trigger.strip_prefix('n') {
            let n: u64 = n
                .parse()
                .map_err(|e| format!("failpoint trigger {trigger:?}: {e}"))?;
            if n == 0 {
                return Err("failpoint trigger n0: hits are 1-based".into());
            }
            return Ok(Some((action, Trigger::Nth(n), None)));
        }
        if let Some(rest) = trigger.strip_prefix('p') {
            let (p, seed) = match rest.split_once(",s") {
                Some((p, s)) => (
                    p,
                    Some(
                        s.parse::<u64>()
                            .map_err(|e| format!("failpoint seed {s:?}: {e}"))?,
                    ),
                ),
                None => (rest, None),
            };
            let p: f64 = p
                .parse()
                .map_err(|e| format!("failpoint probability {p:?}: {e}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("failpoint probability {p} outside [0, 1]"));
            }
            return Ok(Some((action, Trigger::ProbPpm((p * 1e6) as u64), seed)));
        }
        Err(format!(
            "unknown failpoint trigger {trigger:?} (always|n<K>|p<F>[,s<SEED>])"
        ))
    }

    fn configure_locked(reg: &mut Registry, name: &str, spec: &str) -> Result<(), String> {
        let armed = parse_spec(spec)?;
        let point = reg.points.entry(name.to_string()).or_default();
        match armed {
            Some((action, trigger, seed)) => {
                point.armed = Some((action, trigger));
                // Arming restarts the counters so triggers are relative to
                // the arming, not to process history: `n3` means "the 3rd
                // hit from now", regardless of earlier (unarmed) traffic.
                point.hits = 0;
                point.fires = 0;
                if let Some(seed) = seed {
                    point.rng = seed;
                }
            }
            None => point.armed = None,
        }
        Ok(())
    }

    fn load_env_locked(reg: &mut Registry) {
        if reg.env_loaded {
            return;
        }
        reg.env_loaded = true;
        let Ok(var) = std::env::var(super::ENV_VAR) else {
            return;
        };
        for entry in var.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let Some((name, spec)) = entry.split_once('=') else {
                // audit:allow(no-println): env parsing happens before any
                // logging exists; stderr is the only channel for a bad spec.
                eprintln!(
                    "[graphmat-chaos] ignoring malformed {}: {entry:?}",
                    super::ENV_VAR
                );
                continue;
            };
            if let Err(err) = configure_locked(reg, name.trim(), spec) {
                // audit:allow(no-println): same as above — warn and continue.
                eprintln!("[graphmat-chaos] ignoring {entry:?}: {err}");
            }
        }
    }

    /// Hit the named failpoint: count the hit, and if the point is armed
    /// and its trigger says so, inject the configured fault. `panic`
    /// actions unwind from here (so the panic's origin is the instrumented
    /// callsite); `error` actions return [`InjectedFault::Error`].
    pub fn fire(name: &'static str) -> Option<InjectedFault> {
        let fired = {
            let mut reg = registry();
            load_env_locked(&mut reg);
            let point = reg.points.entry(name.to_string()).or_default();
            point.hits += 1;
            let hit = point.hits;
            let go = match point.armed {
                None => None,
                Some((action, trigger)) => {
                    let fires = match trigger {
                        Trigger::Always => true,
                        Trigger::Nth(k) => hit == k,
                        Trigger::ProbPpm(ppm) => splitmix64(&mut point.rng) % 1_000_000 < ppm,
                    };
                    fires.then_some((action, hit))
                }
            };
            if go.is_some() {
                point.fires += 1;
            }
            go
            // guard drops here, BEFORE any panic, so the registry is never
            // poisoned by its own injected faults
        };
        match fired {
            None => None,
            Some((Action::Error, _)) => Some(InjectedFault::Error),
            Some((Action::Panic, hit)) => {
                // audit:allow(no-unwrap): this panic IS the injected fault —
                // the whole point of the `panic` action. It unwinds from the
                // instrumented callsite into that site's recovery path.
                panic!("chaos: injected panic at failpoint `{name}` (hit {hit})")
            }
        }
    }

    /// Arm (or, with `"off"`, disarm) one failpoint from a spec string.
    pub fn configure(name: &str, spec: &str) -> Result<(), String> {
        let mut reg = registry();
        load_env_locked(&mut reg);
        configure_locked(&mut reg, name, spec)
    }

    /// Disarm every failpoint and zero all hit/fire counters. Also marks
    /// the environment as consumed so a reset test run is hermetic.
    pub fn reset() {
        let mut reg = registry();
        reg.env_loaded = true;
        reg.points.clear();
    }

    /// Times the named failpoint has been hit (armed or not).
    pub fn hits(name: &str) -> u64 {
        registry().points.get(name).map_or(0, |p| p.hits)
    }

    /// Times the named failpoint actually injected a fault.
    pub fn fires(name: &str) -> u64 {
        registry().points.get(name).map_or(0, |p| p.fires)
    }

    /// Every failpoint the process has seen: `(name, hits, fires)`.
    pub fn snapshot() -> Vec<(String, u64, u64)> {
        let reg = registry();
        let mut out: Vec<(String, u64, u64)> = reg
            .points
            .iter()
            .map(|(name, p)| (name.clone(), p.hits, p.fires))
            .collect();
        out.sort();
        out
    }
}

pub use imp::fire;
#[cfg(feature = "chaos")]
pub use imp::{configure, fires, hits, reset, snapshot};

#[cfg(all(test, feature = "chaos"))]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};

    /// The registry is process-global; serialize the tests that mutate it.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        match LOCK.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn unarmed_failpoints_count_hits_but_never_fire() {
        let _g = guard();
        reset();
        for _ in 0..5 {
            assert_eq!(fire("test.unarmed"), None);
        }
        assert_eq!(hits("test.unarmed"), 5);
        assert_eq!(fires("test.unarmed"), 0);
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let _g = guard();
        reset();
        configure("test.nth", "error@n3").unwrap();
        let outcomes: Vec<_> = (0..5).map(|_| fire("test.nth")).collect();
        assert_eq!(
            outcomes,
            vec![None, None, Some(InjectedFault::Error), None, None]
        );
        assert_eq!(fires("test.nth"), 1);
    }

    #[test]
    fn always_trigger_fires_every_hit_until_disarmed() {
        let _g = guard();
        reset();
        configure("test.always", "error").unwrap();
        assert_eq!(fire("test.always"), Some(InjectedFault::Error));
        assert_eq!(fire("test.always"), Some(InjectedFault::Error));
        configure("test.always", "off").unwrap();
        assert_eq!(fire("test.always"), None);
        assert_eq!(hits("test.always"), 3);
        assert_eq!(fires("test.always"), 2);
    }

    #[test]
    fn probability_is_deterministic_per_seed() {
        let _g = guard();
        let schedule = |seed: u64| -> Vec<bool> {
            reset();
            configure("test.prob", &format!("error@p0.5,s{seed}")).unwrap();
            (0..64).map(|_| fire("test.prob").is_some()).collect()
        };
        let a = schedule(42);
        let b = schedule(42);
        let c = schedule(43);
        assert_eq!(a, b, "same seed must replay the same fault schedule");
        assert_ne!(a, c, "different seeds must differ (p=0.5 over 64 draws)");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f));
    }

    #[test]
    fn panic_action_unwinds_with_the_failpoint_name() {
        let _g = guard();
        reset();
        configure("test.panic", "panic@n1").unwrap();
        let err = std::panic::catch_unwind(|| fire("test.panic")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("test.panic"), "panic message was {msg:?}");
        // The registry survived its own injected panic un-poisoned.
        assert_eq!(fire("test.panic"), None);
        assert_eq!(hits("test.panic"), 2);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let _g = guard();
        for bad in [
            "explode",
            "panic@n0",
            "error@p1.5",
            "error@pxyz",
            "error@q7",
            "panic@p0.1,sboom",
        ] {
            assert!(
                configure("test.bad", bad).is_err(),
                "{bad:?} must be rejected"
            );
        }
        // `off` and bare actions parse.
        configure("test.bad", "off").unwrap();
        configure("test.bad", "panic").unwrap();
        configure("test.bad", "off").unwrap();
    }
}
