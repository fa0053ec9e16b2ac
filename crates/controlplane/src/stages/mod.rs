//! The tick pipeline as explicit stage units.
//!
//! §4's micro-services used to be private methods on a 1.3k-line
//! `ControlPlane`; here each phase is its own module with two entry
//! points:
//!
//! * `run(plane, mdb)` — execute the phase once (exactly the old tick
//!   body);
//! * `due(plane, mdb)` — report, from current state alone, when the
//!   phase next has work ([`NextDue`]).
//!
//! The [`WakeSchedule`] computed from the `due` answers at the end of a
//! tick is what lets the fleet driver skip idle tenants: a tenant whose
//! schedule is entirely in the future is not ticked at all until the
//! soonest due instant. Correctness of sparse scheduling rests on two
//! invariants the stage implementations maintain:
//!
//! 1. **No-op ticks are free.** On a dense tick where no stage has due
//!    work, the pipeline changes no state, emits no telemetry or
//!    metrics, and draws no fault RNG (armed fault points are only
//!    consulted once a recommendation is actually due). Skipping such a
//!    tick is therefore unobservable.
//! 2. **Every behavior flip is a due instant.** Anything time-driven —
//!    analysis cadence, retry backoff expiry, validation windows, reco
//!    expiry, the stuck horizon — maps to an `At(t)` no later than the
//!    flip, and anything driven by signals outside the store (workload
//!    activity, validator data accumulation) maps to `NextTick`.
//!
//! Over-waking is harmless (the dense oracle runs every stage every tick
//! and must no-op); under-waking is the only bug class, which is why
//! `NextTick` is the conservative fallback.

mod expire;
mod health;
pub(crate) mod implement;
mod recommend;
mod retry;
mod revert;
mod validate;

use crate::plane::{ControlPlane, ManagedDb};
use sqlmini::clock::{Duration, Timestamp};

/// The six tick phases, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    Recommend,
    Retry,
    Implement,
    Validate,
    Expire,
    Health,
}

impl Stage {
    /// Pipeline order. Also the span-name order the trace tests pin.
    pub(crate) const ALL: [Stage; 6] = [
        Stage::Recommend,
        Stage::Retry,
        Stage::Implement,
        Stage::Validate,
        Stage::Expire,
        Stage::Health,
    ];

    /// Stable span / phase name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Stage::Recommend => "recommend",
            Stage::Retry => "retry",
            Stage::Implement => "implement",
            Stage::Validate => "validate",
            Stage::Expire => "expire",
            Stage::Health => "health",
        }
    }

    /// Execute this stage once against one managed database.
    pub(crate) fn run(self, plane: &mut ControlPlane, mdb: &mut ManagedDb) {
        match self {
            Stage::Recommend => recommend::run(plane, mdb),
            Stage::Retry => retry::run(plane, mdb),
            Stage::Implement => implement::run(plane, mdb),
            Stage::Validate => validate::run(plane, mdb),
            Stage::Expire => expire::run(plane, mdb),
            Stage::Health => health::run(plane, mdb),
        }
    }

    /// When this stage next has work, judged from current state.
    fn due(self, plane: &ControlPlane, mdb: &ManagedDb) -> NextDue {
        match self {
            Stage::Recommend => recommend::due(plane, mdb),
            Stage::Retry => retry::due(plane, mdb),
            Stage::Implement => implement::due(plane, mdb),
            Stage::Validate => validate::due(plane, mdb),
            Stage::Expire => expire::due(plane, mdb),
            Stage::Health => health::due(plane, mdb),
        }
    }
}

/// When a stage next needs to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextDue {
    /// No pending work and nothing that could become due on its own:
    /// only a state change from another stage (or a user action) can
    /// create work for this stage.
    Idle,
    /// Work becomes due at this instant (absolute simulated time).
    At(Timestamp),
    /// Must be re-polled every tick: the stage is gated on a signal the
    /// store cannot see coming (workload activity windows, validator
    /// data accumulation).
    NextTick,
}

impl NextDue {
    /// Min-combine: the sooner of two wake requirements.
    fn sooner(self, other: NextDue) -> NextDue {
        match (self, other) {
            (NextDue::NextTick, _) | (_, NextDue::NextTick) => NextDue::NextTick,
            (NextDue::Idle, o) => o,
            (s, NextDue::Idle) => s,
            (NextDue::At(a), NextDue::At(b)) => NextDue::At(a.min(b)),
        }
    }
}

/// Per-database wake schedule: each stage's next-due answer, computed at
/// the end of a tick from final state. Journaled by the store (so crash
/// recovery reconstructs it) and mapped onto the tick grid by the fleet
/// driver as the tenant's next wake tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakeSchedule {
    pub recommend: NextDue,
    pub retry: NextDue,
    pub implement: NextDue,
    pub validate: NextDue,
    pub expire: NextDue,
    pub health: NextDue,
}

impl WakeSchedule {
    pub(crate) fn compute(plane: &ControlPlane, mdb: &ManagedDb) -> WakeSchedule {
        WakeSchedule {
            recommend: Stage::Recommend.due(plane, mdb),
            retry: Stage::Retry.due(plane, mdb),
            implement: Stage::Implement.due(plane, mdb),
            validate: Stage::Validate.due(plane, mdb),
            expire: Stage::Expire.due(plane, mdb),
            health: Stage::Health.due(plane, mdb),
        }
    }

    /// The maximally conservative schedule: every stage re-polled next
    /// tick. Crash recovery journals this over a schedule invalidated by
    /// a re-park — over-waking is harmless (invariant above), while a
    /// stale `At` could sleep through the retry it just created.
    pub(crate) fn immediate() -> WakeSchedule {
        WakeSchedule {
            recommend: NextDue::NextTick,
            retry: NextDue::NextTick,
            implement: NextDue::NextTick,
            validate: NextDue::NextTick,
            expire: NextDue::NextTick,
            health: NextDue::NextTick,
        }
    }

    /// Stage dues in pipeline order (parallel to [`Stage::ALL`]).
    fn stages(&self) -> [NextDue; 6] {
        [
            self.recommend,
            self.retry,
            self.implement,
            self.validate,
            self.expire,
            self.health,
        ]
    }

    /// The soonest wake requirement across all stages.
    fn soonest(&self) -> NextDue {
        self.stages()
            .into_iter()
            .fold(NextDue::Idle, NextDue::sooner)
    }

    /// First tick index strictly after `tick` at which the plane must
    /// run again, given the tick cadence. `now` is the simulated time of
    /// tick `tick`; tick `tick + k` happens at `now + k × tick_interval`.
    /// `None` means no stage can ever become due without an external
    /// state change — the tenant may sleep forever.
    pub(crate) fn next_wake_tick(
        &self,
        now: Timestamp,
        tick: u64,
        tick_interval: Duration,
    ) -> Option<u64> {
        match self.soonest() {
            NextDue::Idle => None,
            NextDue::NextTick => Some(tick.saturating_add(1)),
            NextDue::At(due) => {
                if due <= now {
                    return Some(tick.saturating_add(1));
                }
                let gap = due.millis() - now.millis();
                let step = tick_interval.millis().max(1);
                // Ceiling division without the `gap + step - 1` overflow
                // near u64::MAX.
                let k = (gap / step + u64::from(!gap.is_multiple_of(step))).max(1);
                Some(tick.saturating_add(k))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sooner_prefers_next_tick_then_earliest_instant() {
        let a = NextDue::At(Timestamp(5));
        let b = NextDue::At(Timestamp(9));
        assert_eq!(a.sooner(b), a);
        assert_eq!(b.sooner(a), a);
        assert_eq!(NextDue::Idle.sooner(a), a);
        assert_eq!(a.sooner(NextDue::Idle), a);
        assert_eq!(NextDue::Idle.sooner(NextDue::Idle), NextDue::Idle);
        assert_eq!(a.sooner(NextDue::NextTick), NextDue::NextTick);
        assert_eq!(NextDue::NextTick.sooner(NextDue::Idle), NextDue::NextTick);
    }

    fn all_idle() -> WakeSchedule {
        WakeSchedule {
            recommend: NextDue::Idle,
            retry: NextDue::Idle,
            implement: NextDue::Idle,
            validate: NextDue::Idle,
            expire: NextDue::Idle,
            health: NextDue::Idle,
        }
    }

    #[test]
    fn next_wake_tick_maps_instants_onto_the_tick_grid() {
        let hour = Duration::from_hours(1);
        let now = Timestamp(Duration::from_hours(10).millis());
        let mut s = all_idle();
        assert_eq!(s.next_wake_tick(now, 9, hour), None, "all idle sleeps");

        s.retry = NextDue::NextTick;
        assert_eq!(s.next_wake_tick(now, 9, hour), Some(10));

        // An instant in the past (or right now) wakes on the next tick.
        s.retry = NextDue::At(now);
        assert_eq!(s.next_wake_tick(now, 9, hour), Some(10));
        s.retry = NextDue::At(Timestamp::EPOCH);
        assert_eq!(s.next_wake_tick(now, 9, hour), Some(10));

        // One millisecond into the future still needs the next tick.
        s.retry = NextDue::At(Timestamp(now.millis() + 1));
        assert_eq!(s.next_wake_tick(now, 9, hour), Some(10));

        // Exactly on a tick boundary lands on that tick, not one later.
        s.retry = NextDue::At(now.saturating_add(Duration::from_hours(3)));
        assert_eq!(s.next_wake_tick(now, 9, hour), Some(12));
        // Just past a boundary rounds up.
        s.retry = NextDue::At(Timestamp(
            now.millis() + Duration::from_hours(3).millis() + 1,
        ));
        assert_eq!(s.next_wake_tick(now, 9, hour), Some(13));
    }

    #[test]
    fn next_wake_tick_survives_near_max_due_times() {
        let hour = Duration::from_hours(1);
        let now = Timestamp(Duration::from_hours(1).millis());
        let mut s = all_idle();
        s.expire = NextDue::At(Timestamp(u64::MAX));
        // Must not overflow: the wake lands unfathomably far out.
        let wake = s.next_wake_tick(now, 0, hour).unwrap();
        assert!(wake > 1_000_000_000);
        // Degenerate zero-length interval: clamped, still no panic.
        assert!(s.next_wake_tick(now, 0, Duration(0)).is_some());
    }
}
