//! Health stage (§4's Health micro-service): detect stuck
//! recommendations and raise incidents, taking automated corrective
//! action where safe.

use super::NextDue;
use crate::plane::{ControlPlane, ManagedDb};
use crate::state::RecoState;
use sqlmini::clock::{Duration, Timestamp};

pub(crate) fn run(plane: &mut ControlPlane, mdb: &mut ManagedDb) {
    let now = mdb.db.clock().now();
    let horizon = Timestamp(
        now.millis()
            .saturating_sub(plane.policy.stuck_horizon.millis()),
    );
    for id in plane.store.stuck_since(horizon) {
        let Some(r) = plane.store.get(id) else {
            continue;
        };
        if r.database != mdb.db.name {
            continue;
        }
        // Active recommendations awaiting the user are not stuck; the
        // expiry path ages them out without paging anyone.
        if r.state == RecoState::Active {
            continue;
        }
        let state = r.state;
        plane
            .telemetry
            .incident(&mdb.db.name, format!("{id} stuck in {state:?}"), now);
        plane.metrics.inc("health.stuck_closed");
        // Automated corrective action where safe: park in a terminal
        // state so the pipeline doesn't wedge.
        plane.store.update(id, |r| {
            let target = if r.state == RecoState::Active {
                RecoState::Expired
            } else {
                RecoState::Error
            };
            let _ = r.transition(target, now, "auto-closed by health check");
        });
    }
}

/// A non-terminal, non-Active reco becomes "stuck" the millisecond its
/// last transition falls strictly before `now - stuck_horizon`
/// (mirroring `StateStore::stuck_since`), i.e. at `last + horizon + 1`.
pub(crate) fn due(plane: &ControlPlane, mdb: &ManagedDb) -> NextDue {
    let mut next = NextDue::Idle;
    for r in plane.store.for_database(&mdb.db.name) {
        if r.state.is_terminal() || r.state == RecoState::Active {
            continue;
        }
        let last = r.history.last().map(|t| t.at).unwrap_or(r.created_at);
        next = next.sooner(NextDue::At(
            last.saturating_add(plane.policy.stuck_horizon)
                .saturating_add(Duration::from_millis(1)),
        ));
    }
    next
}
