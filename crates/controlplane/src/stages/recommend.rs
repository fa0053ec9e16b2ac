//! Analysis stage (§4's Analysis micro-service): invoke the recommender
//! (MI or DTA per the tier policy) plus the drop analyzer, and register
//! new recommendations.

use super::NextDue;
use crate::faults::FaultPoint;
use crate::plane::{action_kind, ControlPlane, ManagedDb, RecommenderPolicy};
use crate::scheduler::is_low_activity;
use crate::telemetry::EventKind;
use autoindex::drops::recommend_drops;
use autoindex::dta::tune;
use autoindex::mi::recommend as mi_recommend;
use autoindex::Recommendation;
use sqlmini::engine::ServiceTier;

pub(crate) fn run(plane: &mut ControlPlane, mdb: &mut ManagedDb) {
    let now = mdb.db.clock().now();
    if let Some(last) = mdb.last_analysis {
        if now.since(last) < plane.policy.analysis_interval {
            return;
        }
    }
    mdb.last_analysis = Some(now);
    // MI snapshots fold into a reset-tolerant cumulative series, so one
    // snapshot per analysis pass gives the slope test the resolution it
    // needs while keeping off-cadence ticks entirely free of work.
    mdb.mi_store.take_snapshot(&mdb.db);
    plane
        .telemetry
        .emit(EventKind::AnalysisStarted, &mdb.db.name, "", now);

    let use_dta = match plane.policy.recommender {
        RecommenderPolicy::MiOnly => false,
        RecommenderPolicy::DtaOnly => true,
        RecommenderPolicy::ByTier => mdb.db.config.tier == ServiceTier::Premium,
    };
    // Interference avoidance: a DTA session competes with the customer's
    // workload for the primary's resources, so it can be restricted to
    // low-activity windows. MI analysis is DMV-snapshot arithmetic and
    // is always safe.
    let use_dta = use_dta && (!plane.policy.dta_low_activity_only || is_low_activity(&mdb.db, now));

    let mut new_recos: Vec<Recommendation> = Vec::new();
    if use_dta {
        if let Some(kind) = plane.faults.check(FaultPoint::DtaSession) {
            plane.telemetry.emit(
                EventKind::DtaSessionAborted,
                &mdb.db.name,
                format!("{kind:?}"),
                now,
            );
        } else {
            let report = tune(&mut mdb.db, &plane.policy.dta);
            plane.metrics.inc("dta.sessions");
            plane
                .metrics
                .add("dta.whatif.issued", report.what_if.issued);
            plane
                .metrics
                .add("dta.whatif.saved.cache", report.what_if.saved_cache);
            plane
                .metrics
                .add("dta.whatif.saved.pruning", report.what_if.saved_pruning);
            if report.aborted {
                plane.metrics.inc("dta.sessions.aborted");
                plane
                    .telemetry
                    .emit(EventKind::DtaSessionAborted, &mdb.db.name, "budget", now);
            }
            new_recos.extend(report.recommendations);
        }
    } else {
        let analysis = mi_recommend(&mdb.db, &mdb.mi_store, &plane.policy.mi, &plane.classifier);
        new_recos.extend(analysis.recommendations);
    }

    // Drop analysis runs for everyone.
    new_recos.extend(recommend_drops(
        &mdb.db,
        &plane.policy.drops,
        mdb.observed_since,
    ));

    for reco in new_recos {
        if plane.is_duplicate_reco(&mdb.db.name, &reco) {
            continue;
        }
        plane
            .metrics
            .inc(&format!("reco.created.{}", action_kind(&reco.action)));
        plane
            .metrics
            .inc(&format!("reco.created.source.{:?}", reco.source));
        plane.store.insert(&mdb.db.name, reco, now);
        plane
            .telemetry
            .emit(EventKind::RecommendationCreated, &mdb.db.name, "", now);
    }
    plane
        .telemetry
        .emit(EventKind::AnalysisCompleted, &mdb.db.name, "", now);
}

/// Analysis runs on a pure cadence: the next pass is due exactly one
/// interval after the last, independent of what it will find.
pub(crate) fn due(plane: &ControlPlane, mdb: &ManagedDb) -> NextDue {
    match mdb.last_analysis {
        // Never analyzed — due immediately (the first tick always runs
        // analysis, so this is only reachable before tick one).
        None => NextDue::NextTick,
        Some(last) => NextDue::At(last.saturating_add(plane.policy.analysis_interval)),
    }
}
