//! Validation stage (§4's Validation micro-service): once enough
//! post-change statistics accumulated, run the statistical validator and
//! either confirm (Success) or auto-revert (Reverting → Reverted);
//! validation outcomes also train the MI classifier online (§5.2).

use super::NextDue;
use crate::faults::{FaultKind, FaultPoint};
use crate::plane::{ControlPlane, ManagedDb};
use crate::state::{RecoId, RecoState, RecoSubState, RetryPhase};
use crate::telemetry::EventKind;
use autoindex::classifier::TrainingExample;
use autoindex::validator::{validate, ChangeKind, Verdict};
use autoindex::{CandidateFeatures, RecoAction, RecoSource};
use sqlmini::clock::{Duration, Timestamp};

/// Length of the pre-change comparison window the validator reads.
const BEFORE_WINDOW: Duration = Duration::from_hours(12);

pub(crate) fn run(plane: &mut ControlPlane, mdb: &mut ManagedDb) {
    let now = mdb.db.clock().now();
    let due: Vec<(RecoId, Timestamp)> = plane
        .store
        .for_database(&mdb.db.name)
        .filter(|r| r.state == RecoState::Validating)
        .filter_map(|r| r.implemented_at.map(|t| (r.id, t)))
        .collect();
    for (id, implemented_at) in due {
        let waited = now.since(implemented_at);
        if waited < plane.policy.validation_min_wait {
            continue;
        }
        if let Some(kind) = plane.faults.check(FaultPoint::ValidationRead) {
            match kind {
                FaultKind::Transient => {
                    let attempts = plane
                        .store
                        .update(id, |r| {
                            r.enter_retry(RetryPhase::Validate, now, "stats unavailable")
                        })
                        .and_then(Result::ok)
                        .unwrap_or(0);
                    plane.metrics.inc("validate.failed.transient");
                    if attempts > plane.policy.max_retry_attempts {
                        plane.store.update(id, |r| {
                            r.transition(RecoState::Error, now, "validation retries exhausted")
                                .expect("Retry -> Error");
                        });
                        plane.metrics.inc("retry.exhausted");
                        plane.telemetry.incident(
                            &mdb.db.name,
                            format!("{id}: validation retries exhausted"),
                            now,
                        );
                    } else {
                        super::implement::park_backoff(plane, &mdb.db.name, attempts, now);
                    }
                }
                FaultKind::Fatal => {
                    plane.store.update(id, |r| {
                        r.transition(RecoState::Error, now, "validation fatal")
                            .expect("Validating -> Error");
                    });
                    plane.metrics.inc("validate.failed.fatal");
                }
            }
            continue;
        }

        let (index_name, kind) = match plane.store.get(id) {
            Some(r) => match &r.recommendation.action {
                RecoAction::CreateIndex { def } => (def.name.clone(), ChangeKind::Created),
                RecoAction::DropIndex { name, .. } => (name.clone(), ChangeKind::Dropped),
            },
            None => continue,
        };
        let before = (
            Timestamp(
                implemented_at
                    .millis()
                    .saturating_sub(BEFORE_WINDOW.millis()),
            ),
            implemented_at,
        );
        let after = (implemented_at, now);
        let outcome = validate(
            &mdb.db,
            &index_name,
            kind,
            before,
            after,
            &plane.policy.validator,
        );

        match outcome.verdict {
            Verdict::NoData => {
                if waited >= plane.policy.validation_max_wait {
                    finish_validation(plane, id, "no qualifying data", now);
                    plane
                        .telemetry
                        .emit(EventKind::ValidationNoData, &mdb.db.name, "", now);
                    plane
                        .metrics
                        .observe_time("validation.wait_ms", waited.millis());
                }
                // else: keep waiting.
            }
            Verdict::Improved => {
                train_classifier(plane, mdb, id, true);
                finish_validation(plane, id, "improved", now);
                plane.telemetry.emit(
                    EventKind::ValidationImproved,
                    &mdb.db.name,
                    format!("{:.0}%", -outcome.aggregate_cpu_change * 100.0),
                    now,
                );
                plane
                    .metrics
                    .observe_time("validation.wait_ms", waited.millis());
            }
            Verdict::Inconclusive => {
                if waited >= plane.policy.validation_max_wait {
                    train_classifier(plane, mdb, id, false);
                    finish_validation(plane, id, "inconclusive", now);
                    plane
                        .telemetry
                        .emit(EventKind::ValidationInconclusive, &mdb.db.name, "", now);
                    plane
                        .metrics
                        .observe_time("validation.wait_ms", waited.millis());
                }
            }
            Verdict::Regressed => {
                train_classifier(plane, mdb, id, false);
                plane.store.update(id, |r| {
                    r.transition(RecoState::Reverting, now, "regression detected")
                        .expect("Validating -> Reverting");
                    r.substate = RecoSubState::ValidationDetail(format!(
                        "aggregate cpu change {:+.0}%",
                        outcome.aggregate_cpu_change * 100.0
                    ));
                });
                plane.telemetry.emit(
                    EventKind::ValidationRegressed,
                    &mdb.db.name,
                    format!("{:+.0}%", outcome.aggregate_cpu_change * 100.0),
                    now,
                );
                plane
                    .metrics
                    .observe_time("validation.wait_ms", waited.millis());
                plane
                    .telemetry
                    .emit(EventKind::RevertStarted, &mdb.db.name, "", now);
                plane.metrics.inc("revert.cause.validation_regression");
                super::revert::revert_one(plane, mdb, id);
            }
        }
    }
}

/// Before `implemented_at + validation_min_wait` nothing can happen and
/// the exact instant is known; past it, the validator's verdict depends
/// on what statistics the workload accumulates, so the stage polls.
pub(crate) fn due(plane: &ControlPlane, mdb: &ManagedDb) -> NextDue {
    let now = mdb.db.clock().now();
    let mut next = NextDue::Idle;
    for r in plane.store.for_database(&mdb.db.name) {
        if r.state != RecoState::Validating {
            continue;
        }
        let Some(implemented_at) = r.implemented_at else {
            continue;
        };
        let ready = implemented_at.saturating_add(plane.policy.validation_min_wait);
        next = next.sooner(if now < ready {
            NextDue::At(ready)
        } else {
            NextDue::NextTick
        });
    }
    next
}

fn finish_validation(plane: &mut ControlPlane, id: RecoId, note: &str, now: Timestamp) {
    plane.store.update(id, |r| {
        r.transition(RecoState::Success, now, note)
            .expect("Validating -> Success");
    });
}

/// Feed a validation outcome back into the MI classifier (§5.2: "we use
/// data from previous index validations ... to train a classifier").
fn train_classifier(plane: &mut ControlPlane, mdb: &ManagedDb, id: RecoId, improved: bool) {
    let Some(r) = plane.store.get(id) else { return };
    if r.recommendation.source != RecoSource::MissingIndex {
        return;
    }
    let RecoAction::CreateIndex { def } = &r.recommendation.action else {
        return;
    };
    let rows = mdb.db.table_rows(def.table) as f64;
    let ex = TrainingExample {
        features: CandidateFeatures {
            est_impact_pct: r.recommendation.estimated_improvement * 100.0,
            log_table_rows: rows.max(1.0).log10(),
            log_index_size: (r.recommendation.estimated_size_bytes as f64)
                .max(1.0)
                .log10(),
            log_demand: (1.0 + r.recommendation.impacted_queries.len() as f64).log10(),
            n_key_columns: def.key_columns.len() as f64,
        },
        improved,
    };
    plane.classifier.train_one(&ex, 0.05);
}
