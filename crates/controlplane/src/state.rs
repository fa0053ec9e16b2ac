//! Recommendation and database state machines (§4).
//!
//! Every recommendation moves through the paper's nine states; every
//! transition is checked against the legal-transition relation, and the
//! full history is recorded for the transparency surface (§2's history
//! view). Databases carry the auto-indexing configuration the portal
//! exposes (auto-create / auto-drop toggles with server-level
//! inheritance).

use autoindex::Recommendation;
use sqlmini::clock::Timestamp;

/// The nine recommendation states of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum RecoState {
    /// Ready to be applied.
    Active,
    /// Terminal: stale (aged out or invalidated by a newer recommendation).
    Expired,
    /// Being implemented on the database.
    Implementing,
    /// Implemented; execution statistics being analyzed.
    Validating,
    /// Terminal: applied and validated.
    Success,
    /// Validation found a regression; revert in progress.
    Reverting,
    /// Terminal: reverted.
    Reverted,
    /// Transient error; the failed action will be retried.
    Retry,
    /// Terminal: irrecoverable error.
    Error,
}

impl RecoState {
    /// Terminal states never transition further.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            RecoState::Expired | RecoState::Success | RecoState::Reverted | RecoState::Error
        )
    }

    /// The retry phase a crash-interrupted state maps to. `Implementing`
    /// and `Reverting` are the two states where the control plane was
    /// mid-engine-action when it died; recovery re-parks them into Retry
    /// with this phase so the action is re-driven, never silently
    /// presumed complete.
    pub fn retry_phase(self) -> Option<RetryPhase> {
        match self {
            RecoState::Implementing => Some(RetryPhase::Implement),
            RecoState::Reverting => Some(RetryPhase::Revert),
            _ => None,
        }
    }

    /// The legal transition relation. `Retry` remembers no target itself —
    /// the sub-state carries what is being retried.
    pub fn can_transition_to(self, next: RecoState) -> bool {
        use RecoState::*;
        matches!(
            (self, next),
            (Active, Implementing)
                | (Active, Expired)
                | (Implementing, Validating)
                | (Implementing, Retry)
                | (Implementing, Error)
                | (Validating, Success)
                | (Validating, Reverting)
                | (Validating, Retry)
                | (Validating, Error)
                | (Reverting, Reverted)
                | (Reverting, Retry)
                | (Reverting, Error)
                | (Retry, Implementing)
                | (Retry, Validating)
                | (Retry, Reverting)
                | (Retry, Error)
                | (Retry, Expired)
        )
    }
}

/// Sub-states for diagnosis (§4: "many of the above states have
/// sub-states").
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize)]
pub enum RecoSubState {
    #[default]
    None,
    /// Retry: which phase failed and how many attempts so far.
    RetryOf { phase: RetryPhase, attempts: u32 },
    /// Error detail.
    ErrorDetail(String),
    /// Validation detail (verdict text).
    ValidationDetail(String),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum RetryPhase {
    Implement,
    Validate,
    Revert,
}

/// Unique id of a tracked recommendation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize)]
pub struct RecoId(pub u64);

impl std::fmt::Display for RecoId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rec{}", self.0)
    }
}

/// One state-machine transition, kept for the history view.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Transition {
    pub at: Timestamp,
    pub from: RecoState,
    pub to: RecoState,
    pub note: String,
}

/// A tracked recommendation: the payload plus its state machine.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TrackedReco {
    pub id: RecoId,
    pub(crate) database: String,
    pub recommendation: Recommendation,
    pub state: RecoState,
    pub substate: RecoSubState,
    pub history: Vec<Transition>,
    pub(crate) created_at: Timestamp,
    /// Set while validating: the window boundaries being compared.
    pub(crate) implemented_at: Option<Timestamp>,
    /// The engine index id once implemented (creates only).
    pub(crate) implemented_index: Option<sqlmini::schema::IndexId>,
    /// For drop recommendations: the dropped definition, kept so a
    /// regression-triggered revert can re-create the index (§6).
    pub(crate) dropped_def: Option<sqlmini::schema::IndexDef>,
}

/// Error returned on an illegal state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IllegalTransition {
    from: RecoState,
    to: RecoState,
}

impl std::fmt::Display for IllegalTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "illegal transition {:?} -> {:?}", self.from, self.to)
    }
}

impl std::error::Error for IllegalTransition {}

impl TrackedReco {
    pub fn new(
        id: RecoId,
        database: impl Into<String>,
        recommendation: Recommendation,
        now: Timestamp,
    ) -> TrackedReco {
        TrackedReco {
            id,
            database: database.into(),
            recommendation,
            state: RecoState::Active,
            substate: RecoSubState::None,
            history: Vec::new(),
            created_at: now,
            implemented_at: None,
            implemented_index: None,
            dropped_def: None,
        }
    }

    /// Attempt a transition; record it in the history on success.
    pub fn transition(
        &mut self,
        to: RecoState,
        now: Timestamp,
        note: impl Into<String>,
    ) -> Result<(), IllegalTransition> {
        if !self.state.can_transition_to(to) {
            return Err(IllegalTransition {
                from: self.state,
                to,
            });
        }
        self.history.push(Transition {
            at: now,
            from: self.state,
            to,
            note: note.into(),
        });
        self.state = to;
        // Retry bookkeeping survives the Retry -> phase hop so attempt
        // counts accumulate; it is cleared on reaching a terminal state.
        if to.is_terminal() && !matches!(to, RecoState::Error) {
            self.substate = RecoSubState::None;
        }
        Ok(())
    }

    /// Move into Retry, tracking the failing phase and attempt count.
    pub(crate) fn enter_retry(
        &mut self,
        phase: RetryPhase,
        now: Timestamp,
        note: impl Into<String>,
    ) -> Result<u32, IllegalTransition> {
        let attempts = match &self.substate {
            RecoSubState::RetryOf { phase: p, attempts } if *p == phase => attempts + 1,
            _ => 1,
        };
        self.transition(RecoState::Retry, now, note)?;
        self.substate = RecoSubState::RetryOf { phase, attempts };
        Ok(attempts)
    }
}

/// Portal-level auto-indexing settings (§2): each option can be set at
/// the database or inherited from the logical server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Setting {
    On,
    Off,
    #[default]
    InheritFromServer,
}

/// Auto-indexing configuration for one database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DbSettings {
    /// Automatically implement CREATE INDEX recommendations.
    pub auto_create: Setting,
    /// Automatically implement DROP INDEX recommendations.
    pub auto_drop: Setting,
}

impl DbSettings {
    /// Fully-automated tuning — what the fleet driver applies to every
    /// tenant unless configured otherwise.
    pub fn all_on() -> DbSettings {
        DbSettings {
            auto_create: Setting::On,
            auto_drop: Setting::On,
        }
    }
}

/// Server-level defaults that databases inherit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerSettings {
    pub auto_create: bool,
    pub auto_drop: bool,
}

/// Resolve a database's effective settings against its server.
pub(crate) fn effective(db: DbSettings, server: ServerSettings) -> (bool, bool) {
    let create = match db.auto_create {
        Setting::On => true,
        Setting::Off => false,
        Setting::InheritFromServer => server.auto_create,
    };
    let drop = match db.auto_drop {
        Setting::On => true,
        Setting::Off => false,
        Setting::InheritFromServer => server.auto_drop,
    };
    (create, drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoindex::{RecoAction, RecoSource};
    use sqlmini::schema::{ColumnId, IndexDef, TableId};

    fn reco() -> Recommendation {
        Recommendation {
            action: RecoAction::CreateIndex {
                def: IndexDef::new("ix", TableId(0), vec![ColumnId(1)], vec![]),
            },
            source: RecoSource::MissingIndex,
            estimated_benefit: 10.0,
            estimated_improvement: 0.5,
            estimated_size_bytes: 1,
            impacted_queries: vec![],
            generated_at: Timestamp(0),
        }
    }

    #[test]
    fn happy_path_transitions() {
        let mut r = TrackedReco::new(RecoId(1), "db", reco(), Timestamp(0));
        r.transition(RecoState::Implementing, Timestamp(1), "auto")
            .unwrap();
        r.transition(RecoState::Validating, Timestamp(2), "built")
            .unwrap();
        r.transition(RecoState::Success, Timestamp(3), "validated")
            .unwrap();
        assert!(r.state.is_terminal());
        assert_eq!(r.history.len(), 3);
        assert_eq!(r.history[0].from, RecoState::Active);
        assert_eq!(r.history[2].to, RecoState::Success);
    }

    #[test]
    fn revert_path() {
        let mut r = TrackedReco::new(RecoId(1), "db", reco(), Timestamp(0));
        r.transition(RecoState::Implementing, Timestamp(1), "")
            .unwrap();
        r.transition(RecoState::Validating, Timestamp(2), "")
            .unwrap();
        r.transition(RecoState::Reverting, Timestamp(3), "regression")
            .unwrap();
        r.transition(RecoState::Reverted, Timestamp(4), "dropped")
            .unwrap();
        assert!(r.state.is_terminal());
    }

    #[test]
    fn illegal_transitions_rejected() {
        let mut r = TrackedReco::new(RecoId(1), "db", reco(), Timestamp(0));
        assert!(r.transition(RecoState::Success, Timestamp(1), "").is_err());
        assert!(r
            .transition(RecoState::Reverting, Timestamp(1), "")
            .is_err());
        r.transition(RecoState::Expired, Timestamp(1), "aged")
            .unwrap();
        // Terminal: nothing further.
        for s in [
            RecoState::Active,
            RecoState::Implementing,
            RecoState::Validating,
            RecoState::Success,
        ] {
            assert!(r.transition(s, Timestamp(2), "").is_err());
        }
    }

    #[test]
    fn terminal_classification() {
        assert!(RecoState::Expired.is_terminal());
        assert!(RecoState::Success.is_terminal());
        assert!(RecoState::Reverted.is_terminal());
        assert!(RecoState::Error.is_terminal());
        assert!(!RecoState::Active.is_terminal());
        assert!(!RecoState::Retry.is_terminal());
    }

    #[test]
    fn retry_counts_attempts() {
        let mut r = TrackedReco::new(RecoId(1), "db", reco(), Timestamp(0));
        r.transition(RecoState::Implementing, Timestamp(1), "")
            .unwrap();
        let a1 = r
            .enter_retry(RetryPhase::Implement, Timestamp(2), "io error")
            .unwrap();
        assert_eq!(a1, 1);
        r.transition(RecoState::Implementing, Timestamp(3), "retrying")
            .unwrap();
        // Substate persisted across the Retry->Implementing hop? Attempts
        // restart per phase entry into retry:
        let a2 = r
            .enter_retry(RetryPhase::Implement, Timestamp(4), "io again")
            .unwrap();
        assert_eq!(a2, 2, "attempts accumulate across retries of one phase");
    }

    #[test]
    fn retry_phase_covers_exactly_the_mid_flight_states() {
        assert_eq!(
            RecoState::Implementing.retry_phase(),
            Some(RetryPhase::Implement)
        );
        assert_eq!(RecoState::Reverting.retry_phase(), Some(RetryPhase::Revert));
        for s in [
            RecoState::Active,
            RecoState::Expired,
            RecoState::Validating,
            RecoState::Success,
            RecoState::Reverted,
            RecoState::Retry,
            RecoState::Error,
        ] {
            assert_eq!(s.retry_phase(), None, "{s:?}");
        }
    }

    #[test]
    fn settings_inheritance() {
        let server = ServerSettings {
            auto_create: true,
            auto_drop: false,
        };
        let inherit = DbSettings::default();
        assert_eq!(effective(inherit, server), (true, false));
        let explicit = DbSettings {
            auto_create: Setting::Off,
            auto_drop: Setting::On,
        };
        assert_eq!(effective(explicit, server), (false, true));
    }

    #[test]
    fn every_state_reachable_from_active() {
        // BFS over the transition relation: all nine states reachable.
        use std::collections::BTreeSet;
        let all = [
            RecoState::Active,
            RecoState::Expired,
            RecoState::Implementing,
            RecoState::Validating,
            RecoState::Success,
            RecoState::Reverting,
            RecoState::Reverted,
            RecoState::Retry,
            RecoState::Error,
        ];
        let mut seen = BTreeSet::new();
        seen.insert(format!("{:?}", RecoState::Active));
        let mut frontier = vec![RecoState::Active];
        while let Some(s) = frontier.pop() {
            for n in all {
                if s.can_transition_to(n) && seen.insert(format!("{n:?}")) {
                    frontier.push(n);
                }
            }
        }
        assert_eq!(seen.len(), 9, "all states reachable: {seen:?}");
    }
}
