//! The drop-index lock protocol (§8.3).
//!
//! Dropping an index is a metadata flash, but it needs an exclusive
//! schema lock; under SQL Server's FIFO lock scheduler a drop blocked
//! behind one long reader convoys every later query. The production fix —
//! reproduced here — issues the drop at **low lock priority** (it never
//! blocks user requests while waiting) with a timeout, and retries with
//! exponential back-off when the timeout fires. The control plane manages
//! this fault-tolerant protocol.

use sqlmini::clock::{Duration, Timestamp};
use sqlmini::lock::{
    simulate, summarize_convoy, ConvoySummary, LockMode, LockOutcome, LockPriority, LockRequest,
};

/// Low-priority wait timeout for each attempt.
const ATTEMPT_TIMEOUT: Duration = Duration::from_secs(30);

/// Protocol configuration.
#[derive(Debug, Clone)]
pub struct DropProtocolConfig {
    /// Back-off after a timed-out attempt (doubles per retry).
    pub initial_backoff: Duration,
    pub max_attempts: u32,
    /// Use the naive normal-priority drop instead (the ablation arm).
    pub naive_fifo: bool,
}

impl Default for DropProtocolConfig {
    fn default() -> DropProtocolConfig {
        DropProtocolConfig {
            initial_backoff: Duration::from_secs(60),
            max_attempts: 5,
            naive_fifo: false,
        }
    }
}

/// Result of running the protocol against a concurrent workload.
#[derive(Debug, Clone, PartialEq)]
pub struct DropProtocolOutcome {
    pub succeeded: bool,
    pub attempts: u32,
    /// When the drop lock was finally granted.
    granted_at: Option<Timestamp>,
    /// Convoy damage inflicted on the concurrent workload.
    pub convoy: ConvoySummary,
}

/// Run the drop protocol over a simulated concurrent workload.
///
/// `workload` is the stream of shared schema-lock requests (the user's
/// queries) that will execute around the drop; `drop_at` is when the
/// control plane first tries the drop.
pub fn run_drop_protocol(
    workload: &[LockRequest],
    drop_at: Timestamp,
    cfg: &DropProtocolConfig,
) -> DropProtocolOutcome {
    let drop_id_base = workload.iter().map(|r| r.id).max().unwrap_or(0) + 1;
    let mut attempt_at = drop_at;
    let mut backoff = cfg.initial_backoff;

    if cfg.naive_fifo {
        // Single normal-priority attempt: always "succeeds" eventually but
        // can convoy the workload behind it.
        let mut reqs = workload.to_vec();
        reqs.push(LockRequest {
            id: drop_id_base,
            mode: LockMode::Exclusive,
            priority: LockPriority::Normal,
            arrival: drop_at,
            hold: Duration::from_millis(10),
        });
        let outcomes = simulate(&reqs);
        let drop_outcome = outcome_of(&outcomes, drop_id_base);
        let convoy = summarize_convoy(&reqs, &outcomes);
        return DropProtocolOutcome {
            succeeded: !drop_outcome.timed_out,
            attempts: 1,
            granted_at: drop_outcome.granted_at,
            convoy,
        };
    }

    // Low-priority attempts with back-off. Each attempt is simulated over
    // the same workload with a drop request at `attempt_at`; a timeout
    // triggers the next attempt later.
    let mut attempts = 0;
    while attempts < cfg.max_attempts {
        attempts += 1;
        let drop_id = drop_id_base + attempts as u64;
        let mut reqs = workload.to_vec();
        reqs.push(LockRequest {
            id: drop_id,
            mode: LockMode::Exclusive,
            priority: LockPriority::Low {
                timeout: ATTEMPT_TIMEOUT,
            },
            arrival: attempt_at,
            hold: Duration::from_millis(10),
        });
        let outcomes = simulate(&reqs);
        let drop_outcome = outcome_of(&outcomes, drop_id);
        if !drop_outcome.timed_out {
            let convoy = summarize_convoy(&reqs, &outcomes);
            return DropProtocolOutcome {
                succeeded: true,
                attempts,
                granted_at: drop_outcome.granted_at,
                convoy,
            };
        }
        attempt_at = attempt_at + ATTEMPT_TIMEOUT + backoff;
        backoff = backoff.saturating_mul(2);
    }

    // All attempts timed out: report the convoy of the *final* simulation
    // (low-priority attempts never blocked anyone by construction).
    let outcomes = simulate(workload);
    let convoy = summarize_convoy(workload, &outcomes);
    DropProtocolOutcome {
        succeeded: false,
        attempts,
        granted_at: None,
        convoy,
    }
}

fn outcome_of(outcomes: &[LockOutcome], id: u64) -> LockOutcome {
    outcomes
        .iter()
        .find(|o| o.id == id)
        .cloned()
        .unwrap_or(LockOutcome {
            id,
            granted_at: None,
            waited: Duration::ZERO,
            timed_out: true,
        })
}

/// Build a shared-lock workload: `n` queries arriving every `gap`, each
/// holding for `hold`, starting at `start`. Long-running readers can be
/// added on top.
pub fn steady_workload(
    n: u64,
    start: Timestamp,
    gap: Duration,
    hold: Duration,
) -> Vec<LockRequest> {
    (0..n)
        .map(|i| LockRequest {
            id: i + 1,
            mode: LockMode::Shared,
            priority: LockPriority::Normal,
            arrival: start + Duration(gap.millis() * i),
            hold,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload_with_long_reader() -> Vec<LockRequest> {
        let mut w = steady_workload(
            50,
            Timestamp(2_000),
            Duration::from_millis(500),
            Duration::from_millis(200),
        );
        w.push(LockRequest {
            id: 900,
            mode: LockMode::Shared,
            priority: LockPriority::Normal,
            arrival: Timestamp(0),
            hold: Duration::from_secs(120), // 2-minute reader
        });
        w
    }

    #[test]
    fn naive_fifo_drop_convoys_workload() {
        let w = workload_with_long_reader();
        let out = run_drop_protocol(
            &w,
            Timestamp(1_000),
            &DropProtocolConfig {
                naive_fifo: true,
                ..DropProtocolConfig::default()
            },
        );
        assert!(out.succeeded);
        assert!(
            out.convoy.blocked_shared >= 40,
            "FIFO drop must convoy the workload: {:?}",
            out.convoy
        );
        assert!(out.convoy.max_shared_wait >= Duration::from_secs(60));
    }

    #[test]
    fn low_priority_drop_avoids_convoy_and_retries() {
        let w = workload_with_long_reader();
        let out = run_drop_protocol(&w, Timestamp(1_000), &DropProtocolConfig::default());
        assert!(out.succeeded, "{out:?}");
        assert!(out.attempts >= 2, "first 30s attempt must time out");
        assert_eq!(
            out.convoy.blocked_shared, 0,
            "low-priority waiting must not block shared requests: {:?}",
            out.convoy
        );
        // Granted only after the long reader finished.
        assert!(out.granted_at.unwrap() >= Timestamp(120_000));
    }

    #[test]
    fn gives_up_after_max_attempts() {
        // A reader that never ends within the protocol's horizon.
        let w = vec![LockRequest {
            id: 1,
            mode: LockMode::Shared,
            priority: LockPriority::Normal,
            arrival: Timestamp(0),
            hold: Duration::from_days(1),
        }];
        let cfg = DropProtocolConfig {
            max_attempts: 3,
            ..DropProtocolConfig::default()
        };
        let out = run_drop_protocol(&w, Timestamp(100), &cfg);
        assert!(!out.succeeded);
        assert_eq!(out.attempts, 3);
        assert_eq!(out.granted_at, None);
    }

    #[test]
    fn aborted_attempts_requeue_on_the_exponential_backoff_schedule() {
        // One reader holds for 300s. Default protocol: 30s attempt
        // timeout, 60s initial back-off, doubling per retry. Attempt
        // windows are [0,30], [90,120], [240,270] — all aborted — and
        // the 4th requeue arrives at 510s, after the reader drained, so
        // it is granted immediately at its own arrival instant.
        let w = vec![LockRequest {
            id: 1,
            mode: LockMode::Shared,
            priority: LockPriority::Normal,
            arrival: Timestamp(0),
            hold: Duration::from_secs(300),
        }];
        let out = run_drop_protocol(&w, Timestamp(0), &DropProtocolConfig::default());
        assert!(out.succeeded);
        assert_eq!(out.attempts, 4, "three aborts before the free slot");
        assert_eq!(out.granted_at, Some(Timestamp(510_000)));
    }

    #[test]
    fn wait_window_grant_lands_at_reader_release() {
        // Reader ends at 100s, inside the second attempt's [90,120]
        // wait window: the attempt is NOT aborted — the waiter picks up
        // the lock the instant the reader releases it.
        let w = vec![LockRequest {
            id: 1,
            mode: LockMode::Shared,
            priority: LockPriority::Normal,
            arrival: Timestamp(0),
            hold: Duration::from_secs(100),
        }];
        let out = run_drop_protocol(&w, Timestamp(0), &DropProtocolConfig::default());
        assert!(out.succeeded);
        assert_eq!(out.attempts, 2, "first window aborts, second waits it out");
        assert_eq!(out.granted_at, Some(Timestamp(100_000)));
    }

    #[test]
    fn zero_backoff_requeues_back_to_back() {
        // With no back-off, aborted attempts requeue immediately after
        // their timeout: windows [0,30], [30,60], [60,90], then the
        // fourth waits from 90s and is granted at the 100s release.
        let w = vec![LockRequest {
            id: 1,
            mode: LockMode::Shared,
            priority: LockPriority::Normal,
            arrival: Timestamp(0),
            hold: Duration::from_secs(100),
        }];
        let cfg = DropProtocolConfig {
            initial_backoff: Duration::ZERO,
            ..DropProtocolConfig::default()
        };
        let out = run_drop_protocol(&w, Timestamp(0), &cfg);
        assert!(out.succeeded);
        assert_eq!(out.attempts, 4);
        assert_eq!(out.granted_at, Some(Timestamp(100_000)));
    }

    #[test]
    fn aborts_under_steady_traffic_never_block_and_count_their_waits() {
        // The aborted low-priority waits happen *while* shared traffic
        // keeps flowing; none of it may queue behind the drop, and the
        // drop must still land on its requeue schedule.
        let mut w = steady_workload(
            120,
            Timestamp(0),
            Duration::from_secs(2),
            Duration::from_millis(200),
        );
        w.push(LockRequest {
            id: 900,
            mode: LockMode::Shared,
            priority: LockPriority::Normal,
            arrival: Timestamp(0),
            hold: Duration::from_secs(300),
        });
        let out = run_drop_protocol(&w, Timestamp(0), &DropProtocolConfig::default());
        assert!(out.succeeded);
        assert!(
            out.attempts >= 4,
            "the 300s reader aborts the early windows"
        );
        assert_eq!(
            out.convoy.blocked_shared, 0,
            "aborted low-priority waits must not convoy anyone: {:?}",
            out.convoy
        );
        assert!(out.granted_at.unwrap() >= Timestamp(300_000));
    }

    #[test]
    fn uncontended_drop_succeeds_first_try() {
        let w = steady_workload(
            5,
            Timestamp(100_000),
            Duration::from_secs(10),
            Duration::from_millis(10),
        );
        let out = run_drop_protocol(&w, Timestamp(0), &DropProtocolConfig::default());
        assert!(out.succeeded);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.granted_at, Some(Timestamp(0)));
    }
}
