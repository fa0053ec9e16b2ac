//! Revert: undo an implemented recommendation (auto-revert after a
//! validation regression, or a retried revert). Not a pipeline stage of
//! its own — reached from the validate and retry stages — but kept as a
//! unit beside them since both call into it.

use crate::faults::{FaultKind, FaultPoint};
use crate::plane::{action_kind, ControlPlane, ManagedDb};
use crate::state::{RecoId, RecoState, RetryPhase};
use crate::telemetry::EventKind;
use autoindex::RecoAction;

pub(crate) fn revert_one(plane: &mut ControlPlane, mdb: &mut ManagedDb, id: RecoId) {
    let now = mdb.db.clock().now();
    let Some(r) = plane.store.get(id) else { return };
    let action = r.recommendation.action.clone();
    let source = r.recommendation.source;
    let implemented_index = r.implemented_index;
    let dropped_def = r.dropped_def.clone();
    plane.tracer.start("revert", now);
    plane.tracer.attr("action", action_kind(&action));

    if let Some(kind) = plane.faults.check(FaultPoint::IndexDrop) {
        match kind {
            FaultKind::Transient => {
                let attempts = plane
                    .store
                    .update(id, |r| {
                        r.enter_retry(RetryPhase::Revert, now, "revert fault")
                    })
                    .and_then(Result::ok)
                    .unwrap_or(0);
                plane
                    .telemetry
                    .emit(EventKind::RevertFailedTransient, &mdb.db.name, "", now);
                if attempts > plane.policy.max_retry_attempts {
                    plane.store.update(id, |r| {
                        r.transition(RecoState::Error, now, "revert retries exhausted")
                            .expect("Retry -> Error");
                    });
                    plane.metrics.inc("retry.exhausted");
                    plane.telemetry.incident(
                        &mdb.db.name,
                        format!("{id}: revert retries exhausted"),
                        now,
                    );
                } else {
                    super::implement::park_backoff(plane, &mdb.db.name, attempts, now);
                }
            }
            FaultKind::Fatal => {
                plane.store.update(id, |r| {
                    r.transition(RecoState::Error, now, "revert fatal")
                        .expect("Reverting -> Error");
                });
                plane.metrics.inc("revert.failed.fatal");
                plane
                    .telemetry
                    .incident(&mdb.db.name, format!("{id}: revert fatal"), now);
            }
        }
        plane.tracer.attr("outcome", "faulted");
        plane.tracer.end(mdb.db.clock().now());
        return;
    }

    let ok = match (&action, implemented_index, dropped_def) {
        (RecoAction::CreateIndex { .. }, Some(ix), _) => mdb.db.drop_index(ix).is_ok(),
        (RecoAction::DropIndex { .. }, _, Some(def)) => mdb.db.create_index(def).is_ok(),
        _ => false,
    };
    if ok {
        plane.store.update(id, |r| {
            r.transition(RecoState::Reverted, now, "reverted")
                .expect("Reverting -> Reverted");
        });
        plane
            .telemetry
            .emit(EventKind::RevertSucceeded, &mdb.db.name, "", now);
        plane
            .metrics
            .inc(&format!("revert.action.{}", action_kind(&action)));
        plane.metrics.inc(&format!("revert.source.{source:?}"));
        plane.tracer.attr("outcome", "reverted");
    } else {
        // Index already gone / recreated externally: §4's well-known
        // error class, processed automatically.
        plane.store.update(id, |r| {
            r.transition(RecoState::Error, now, "revert target missing")
                .expect("Reverting -> Error");
        });
        plane.metrics.inc("revert.target_missing");
        plane.tracer.attr("outcome", "target_missing");
    }
    plane.tracer.end(mdb.db.clock().now());
}
