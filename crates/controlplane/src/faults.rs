//! Fault injection.
//!
//! At Azure scale everything fails: index builds, validation reads, state
//! writes, whole micro-services (§1.2, §8.3). The control plane's retry
//! and recovery machinery is only trustworthy if it is exercised, so
//! every fallible control-plane action asks the [`FaultInjector`] first.
//!
//! Faults can be injected stochastically (seeded probabilities per fault
//! point) or deterministically scripted ("fail the next N attempts at
//! this point") for tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Places where a fault can strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultPoint {
    /// Index build fails mid-way (resource pressure, node restart).
    IndexBuild,
    /// Index drop fails (lock timeout is modeled separately).
    IndexDrop,
    /// Validation could not read execution statistics.
    ValidationRead,
    /// DTA session killed (server restarts, interference abort).
    DtaSession,
    /// Control-plane state write failed.
    StateWrite,
    /// The process died mid-journal-write, tearing the final record.
    /// Opt-in only: [`FaultInjector::uniform`] does not arm it.
    JournalTear,
    /// The whole tenant worker panics mid-tick. Opt-in only; consumed by
    /// the fleet driver's supervisor, not by the control plane.
    TenantPanic,
    /// The process died mid-checkpoint-write, tearing the checkpoint
    /// frame compaction just appended. Recovery must step down the
    /// fallback ladder (previous checkpoint, then full replay).
    /// Opt-in only: [`FaultInjector::uniform`] does not arm it.
    CheckpointTear,
}

/// Kind of injected failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Retryable (the paper's Retry state).
    Transient,
    /// Irrecoverable (the paper's Error state).
    Fatal,
}

/// The injector.
#[derive(Debug)]
pub struct FaultInjector {
    rng: StdRng,
    /// Probability of a transient fault per point.
    transient_prob: BTreeMap<FaultPoint, f64>,
    /// Probability of a fatal fault per point.
    fatal_prob: BTreeMap<FaultPoint, f64>,
    /// Scripted faults: FIFO batches of (remaining count, kind) per
    /// point, consumed before any stochastic draw. Exhausted batches
    /// (and emptied queues) are removed so the map never accumulates
    /// dead entries.
    scripted: BTreeMap<FaultPoint, Vec<(u32, FaultKind)>>,
    /// Total faults injected (diagnostics).
    pub injected: u64,
}

impl FaultInjector {
    /// No faults at all.
    pub fn disabled() -> FaultInjector {
        FaultInjector {
            rng: StdRng::seed_from_u64(0),
            transient_prob: BTreeMap::new(),
            fatal_prob: BTreeMap::new(),
            scripted: BTreeMap::new(),
            injected: 0,
        }
    }

    /// Stochastic faults with one probability for all points.
    pub fn uniform(seed: u64, transient_prob: f64, fatal_prob: f64) -> FaultInjector {
        let mut f = FaultInjector::disabled();
        f.rng = StdRng::seed_from_u64(seed);
        for p in [
            FaultPoint::IndexBuild,
            FaultPoint::IndexDrop,
            FaultPoint::ValidationRead,
            FaultPoint::DtaSession,
            FaultPoint::StateWrite,
        ] {
            f.transient_prob.insert(p, transient_prob);
            f.fatal_prob.insert(p, fatal_prob);
        }
        f
    }

    /// Script the next `n` calls at `point` to fail with `kind`.
    /// Chainable: a second script on the same point queues up *after*
    /// any batches already pending rather than overwriting them, so a
    /// harness can program e.g. 2 transients followed by a fatal.
    pub fn script(&mut self, point: FaultPoint, n: u32, kind: FaultKind) {
        if n == 0 {
            return;
        }
        self.scripted.entry(point).or_default().push((n, kind));
    }

    /// True when no scripted faults are pending anywhere — exhausted
    /// scripts are removed, not left behind as zero-count residue.
    pub fn scripted_is_empty(&self) -> bool {
        self.scripted.is_empty()
    }

    /// Ask whether the current action fails. Consumes scripted faults
    /// first, then draws stochastically.
    pub(crate) fn check(&mut self, point: FaultPoint) -> Option<FaultKind> {
        if let Some(queue) = self.scripted.get_mut(&point) {
            if let Some((n, kind)) = queue.first_mut() {
                *n -= 1;
                let kind = *kind;
                if *n == 0 {
                    queue.remove(0);
                }
                if queue.is_empty() {
                    self.scripted.remove(&point);
                }
                self.injected += 1;
                return Some(kind);
            }
            self.scripted.remove(&point);
        }
        let fatal = self.fatal_prob.get(&point).copied().unwrap_or(0.0);
        if fatal > 0.0 && self.rng.random::<f64>() < fatal {
            self.injected += 1;
            return Some(FaultKind::Fatal);
        }
        let transient = self.transient_prob.get(&point).copied().unwrap_or(0.0);
        if transient > 0.0 && self.rng.random::<f64>() < transient {
            self.injected += 1;
            return Some(FaultKind::Transient);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_fails() {
        let mut f = FaultInjector::disabled();
        for _ in 0..1000 {
            assert_eq!(f.check(FaultPoint::IndexBuild), None);
        }
    }

    #[test]
    fn scripted_faults_consumed_in_order() {
        let mut f = FaultInjector::disabled();
        f.script(FaultPoint::IndexBuild, 2, FaultKind::Transient);
        assert_eq!(f.check(FaultPoint::IndexBuild), Some(FaultKind::Transient));
        assert_eq!(f.check(FaultPoint::IndexBuild), Some(FaultKind::Transient));
        assert_eq!(f.check(FaultPoint::IndexBuild), None);
        // Other points untouched.
        assert_eq!(f.check(FaultPoint::IndexDrop), None);
    }

    #[test]
    fn exhausted_scripts_are_removed() {
        let mut f = FaultInjector::disabled();
        f.script(FaultPoint::IndexBuild, 1, FaultKind::Transient);
        assert!(!f.scripted_is_empty());
        assert_eq!(f.check(FaultPoint::IndexBuild), Some(FaultKind::Transient));
        assert!(f.scripted_is_empty(), "exhausted entry must be dropped");
        assert_eq!(f.check(FaultPoint::IndexBuild), None);
    }

    #[test]
    fn scripts_chain_in_fifo_order() {
        let mut f = FaultInjector::disabled();
        f.script(FaultPoint::IndexBuild, 2, FaultKind::Transient);
        f.script(FaultPoint::IndexBuild, 1, FaultKind::Fatal);
        assert_eq!(f.check(FaultPoint::IndexBuild), Some(FaultKind::Transient));
        assert_eq!(f.check(FaultPoint::IndexBuild), Some(FaultKind::Transient));
        assert_eq!(f.check(FaultPoint::IndexBuild), Some(FaultKind::Fatal));
        assert_eq!(f.check(FaultPoint::IndexBuild), None);
        assert!(f.scripted_is_empty());
    }

    #[test]
    fn zero_count_script_is_a_noop() {
        let mut f = FaultInjector::disabled();
        f.script(FaultPoint::StateWrite, 0, FaultKind::Fatal);
        assert!(f.scripted_is_empty());
        assert_eq!(f.check(FaultPoint::StateWrite), None);
    }

    #[test]
    fn uniform_leaves_opt_in_points_unarmed() {
        // JournalTear and TenantPanic must never fire from the blanket
        // stochastic config — they are armed explicitly by chaos tests.
        let mut f = FaultInjector::uniform(3, 1.0, 1.0);
        assert_eq!(f.check(FaultPoint::JournalTear), None);
        assert_eq!(f.check(FaultPoint::TenantPanic), None);
        assert_eq!(f.check(FaultPoint::CheckpointTear), None);
        assert_eq!(f.check(FaultPoint::IndexBuild), Some(FaultKind::Fatal));
    }

    #[test]
    fn stochastic_rates_approximate_config() {
        let mut f = FaultInjector::uniform(7, 0.2, 0.0);
        let mut hits = 0;
        for _ in 0..5000 {
            if f.check(FaultPoint::ValidationRead).is_some() {
                hits += 1;
            }
        }
        let rate = hits as f64 / 5000.0;
        assert!((rate - 0.2).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn fatal_beats_transient() {
        let mut f = FaultInjector::uniform(1, 0.0, 1.0);
        assert_eq!(f.check(FaultPoint::DtaSession), Some(FaultKind::Fatal));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = FaultInjector::uniform(42, 0.3, 0.01);
        let mut b = FaultInjector::uniform(42, 0.3, 0.01);
        for _ in 0..200 {
            assert_eq!(
                a.check(FaultPoint::StateWrite),
                b.check(FaultPoint::StateWrite)
            );
        }
    }
}
