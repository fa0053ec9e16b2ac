//! Expiry stage: Active recommendations the user never acted on age out
//! after `reco_expiry` rather than lingering forever.

use super::NextDue;
use crate::plane::{ControlPlane, ManagedDb};
use crate::state::{RecoId, RecoState};
use crate::telemetry::EventKind;

pub(crate) fn run(plane: &mut ControlPlane, mdb: &mut ManagedDb) {
    let now = mdb.db.clock().now();
    let expiry = plane.policy.reco_expiry;
    let stale: Vec<RecoId> = plane
        .store
        .for_database(&mdb.db.name)
        .filter(|r| r.state == RecoState::Active && now.since(r.created_at) >= expiry)
        .map(|r| r.id)
        .collect();
    for id in stale {
        plane.store.update(id, |r| {
            r.transition(RecoState::Expired, now, "aged out")
                .expect("Active -> Expired");
        });
        plane
            .telemetry
            .emit(EventKind::RecommendationExpired, &mdb.db.name, "", now);
    }
}

/// Every Active recommendation expires at exactly `created_at +
/// reco_expiry`; the soonest such instant is the next due time.
pub(crate) fn due(plane: &ControlPlane, mdb: &ManagedDb) -> NextDue {
    let mut next = NextDue::Idle;
    for r in plane.store.for_database(&mdb.db.name) {
        if r.state != RecoState::Active {
            continue;
        }
        next = next.sooner(NextDue::At(
            r.created_at.saturating_add(plane.policy.reco_expiry),
        ));
    }
    next
}
