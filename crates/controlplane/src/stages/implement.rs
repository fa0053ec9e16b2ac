//! Implementation stage (§4's Implementation micro-service): apply
//! Active recommendations when the user's settings allow, preferring
//! low-activity windows, with fault-aware retry.

use super::NextDue;
use crate::faults::{FaultKind, FaultPoint};
use crate::plane::{action_kind, ControlPlane, ManagedDb};
use crate::scheduler::is_low_activity;
use crate::state::{RecoId, RecoState, RecoSubState, RetryPhase};
use crate::telemetry::EventKind;
use autoindex::RecoAction;
use sqlmini::clock::Timestamp;

pub(crate) fn run(plane: &mut ControlPlane, mdb: &mut ManagedDb) {
    let now = mdb.db.clock().now();
    let (auto_create, auto_drop) = plane.effective_settings(mdb);
    if plane.policy.schedule_builds && !is_low_activity(&mdb.db, now) {
        return;
    }
    let due: Vec<RecoId> = plane
        .store
        .for_database(&mdb.db.name)
        .filter(|r| r.state == RecoState::Active)
        .filter(|r| match &r.recommendation.action {
            RecoAction::CreateIndex { .. } => auto_create,
            RecoAction::DropIndex { .. } => auto_drop,
        })
        .map(|r| r.id)
        .collect();
    for id in due {
        implement_one(plane, mdb, id);
    }
}

/// Implementable backlog exists ⇒ poll every tick: even with builds
/// unscheduled this is the tick after creation, and with
/// `schedule_builds` the low-activity window is a time-varying signal
/// the store cannot predict.
pub(crate) fn due(plane: &ControlPlane, mdb: &ManagedDb) -> NextDue {
    let (auto_create, auto_drop) = plane.effective_settings(mdb);
    let pending = plane
        .store
        .for_database(&mdb.db.name)
        .filter(|r| r.state == RecoState::Active)
        .any(|r| match &r.recommendation.action {
            RecoAction::CreateIndex { .. } => auto_create,
            RecoAction::DropIndex { .. } => auto_drop,
        });
    if pending {
        NextDue::NextTick
    } else {
        NextDue::Idle
    }
}

pub(crate) fn implement_one(plane: &mut ControlPlane, mdb: &mut ManagedDb, id: RecoId) -> bool {
    let now = mdb.db.clock().now();
    let action = match plane.store.get(id) {
        Some(r) => r.recommendation.action.clone(),
        None => return false,
    };
    plane.store.update(id, |r| {
        r.transition(RecoState::Implementing, now, "implementation started")
            .expect("Active/Retry -> Implementing");
    });
    plane
        .telemetry
        .emit(EventKind::ImplementStarted, &mdb.db.name, "", now);

    let fault_point = match &action {
        RecoAction::CreateIndex { .. } => FaultPoint::IndexBuild,
        RecoAction::DropIndex { .. } => FaultPoint::IndexDrop,
    };
    if let Some(kind) = plane.faults.check(fault_point) {
        return handle_fault(plane, mdb, id, RetryPhase::Implement, kind, now);
    }

    let result: Result<(), String> = match &action {
        RecoAction::CreateIndex { def } => match mdb.db.create_index(def.clone()) {
            Ok((ix_id, _report)) => {
                plane.store.update(id, |r| {
                    r.implemented_index = Some(ix_id);
                });
                Ok(())
            }
            Err(e) => Err(e.to_string()),
        },
        RecoAction::DropIndex { index, .. } => match mdb.db.drop_index(*index) {
            Ok(def) => {
                plane.store.update(id, |r| {
                    r.dropped_def = Some(def);
                });
                Ok(())
            }
            Err(e) => Err(e.to_string()),
        },
    };

    match result {
        Ok(()) => {
            plane.store.update(id, |r| {
                r.implemented_at = Some(now);
                r.transition(RecoState::Validating, now, "implemented")
                    .expect("Implementing -> Validating");
            });
            plane
                .telemetry
                .emit(EventKind::ImplementSucceeded, &mdb.db.name, "", now);
            plane
                .metrics
                .inc(&format!("implement.succeeded.{}", action_kind(&action)));
            plane
                .telemetry
                .emit(EventKind::ValidationStarted, &mdb.db.name, "", now);
            true
        }
        Err(e) => {
            // Engine-level failures (duplicate name, missing table)
            // are irrecoverable: the paper's Error terminal state.
            plane.store.update(id, |r| {
                r.transition(RecoState::Error, now, e.clone())
                    .expect("Implementing -> Error");
                r.substate = RecoSubState::ErrorDetail(e.clone());
            });
            plane
                .telemetry
                .emit(EventKind::ImplementFailedFatal, &mdb.db.name, e, now);
            false
        }
    }
}

fn handle_fault(
    plane: &mut ControlPlane,
    mdb: &ManagedDb,
    id: RecoId,
    phase: RetryPhase,
    kind: FaultKind,
    now: Timestamp,
) -> bool {
    match kind {
        FaultKind::Transient => {
            let attempts = plane
                .store
                .update(id, |r| r.enter_retry(phase, now, "transient fault"))
                .and_then(Result::ok)
                .unwrap_or(0);
            plane.telemetry.emit(
                EventKind::ImplementFailedTransient,
                &mdb.db.name,
                format!("attempt {attempts}"),
                now,
            );
            if attempts > plane.policy.max_retry_attempts {
                plane.store.update(id, |r| {
                    r.transition(RecoState::Error, now, "retry budget exhausted")
                        .expect("Retry -> Error");
                });
                plane.metrics.inc("retry.exhausted");
                plane
                    .telemetry
                    .incident(&mdb.db.name, format!("{id}: retries exhausted"), now);
            } else {
                park_backoff(plane, &mdb.db.name, attempts, now);
            }
            false
        }
        FaultKind::Fatal => {
            plane.store.update(id, |r| {
                r.transition(RecoState::Error, now, "fatal fault")
                    .expect("-> Error");
            });
            plane
                .telemetry
                .emit(EventKind::ImplementFailedFatal, &mdb.db.name, "fault", now);
            plane
                .telemetry
                .incident(&mdb.db.name, format!("{id}: fatal fault"), now);
            false
        }
    }
}

/// Record the backoff wait once, at park time. The retry stage no
/// longer re-announces the wait on every pass over an ineligible reco —
/// an event-driven scheduler has no pass to announce it from.
pub(crate) fn park_backoff(plane: &mut ControlPlane, db_name: &str, attempts: u32, now: Timestamp) {
    plane.telemetry.emit(
        EventKind::RetryBackoffWait,
        db_name,
        format!("attempt {attempts}"),
        now,
    );
}
