//! Schema-lock scheduler simulation.
//!
//! SQL Server's lock scheduler is FIFO: a blocked exclusive request also
//! blocks every *later* shared request, so dropping an index — a metadata
//! flash — can convoy an entire workload behind one long-running reader
//! (§8.3). SQL Server 2014 added *managed lock priorities* \[43\], letting
//! online operations wait at low priority without blocking later normal
//! requests, with a timeout after which the operation backs off.
//!
//! This module simulates that scheduler over a timeline of lock requests
//! and reports per-request wait times, so the control plane's drop-index
//! protocol (low priority + back-off/retry) can be exercised and its
//! benefit over naive FIFO dropping can be measured (the `lock_convoy`
//! ablation bench).

use crate::clock::{Duration, Timestamp};

/// Lock mode on the table's schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Schema-stability (shared): acquired by every query on the table.
    Shared,
    /// Schema-modification (exclusive): required by index drop/create.
    Exclusive,
}

/// Priority class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockPriority {
    /// Participates in FIFO ordering (blocks later requests while waiting).
    Normal,
    /// Waits on the side: does not block later normal-priority requests;
    /// gives up after `timeout`.
    Low {
        /// Maximum time to wait before abandoning the request.
        timeout: Duration,
    },
}

/// One lock request in the simulated timeline.
#[derive(Debug, Clone)]
pub struct LockRequest {
    /// Caller-assigned identifier (reported back in outcomes).
    pub id: u64,
    pub mode: LockMode,
    pub priority: LockPriority,
    /// When the request arrives.
    pub arrival: Timestamp,
    /// How long the lock is held once granted.
    pub hold: Duration,
}

/// What happened to one request.
#[derive(Debug, Clone, PartialEq)]
pub struct LockOutcome {
    pub id: u64,
    /// When the lock was granted (None if timed out).
    pub granted_at: Option<Timestamp>,
    /// Time spent waiting (arrival → grant, or arrival → timeout).
    pub waited: Duration,
    pub timed_out: bool,
}

/// Simulate the FIFO lock scheduler over a set of requests.
///
/// Semantics:
/// * Shared locks are compatible with shared locks.
/// * An exclusive request must wait for all current holders to release.
/// * **Normal**-priority requests are granted strictly FIFO: a waiting
///   normal X blocks every later arrival (shared or not) — the convoy.
/// * **Low**-priority requests never block later normal requests; they are
///   granted only at an instant when nothing is held and no normal request
///   is waiting, and they abandon after their timeout.
pub fn simulate(requests: &[LockRequest]) -> Vec<LockOutcome> {
    let mut reqs: Vec<LockRequest> = requests.to_vec();
    reqs.sort_by_key(|r| (r.arrival, r.id));

    // State: set of current holds (end_time, mode).
    let mut holds: Vec<(Timestamp, LockMode)> = Vec::new();
    // FIFO queue of normal-priority waiting requests (indices into reqs).
    let mut outcomes: Vec<LockOutcome> = Vec::new();

    // Event-driven: we process in arrival order but must interleave grants.
    // Simpler robust approach: time-step through grant instants. Because
    // everything is driven by a finite set of candidate instants (arrivals
    // and hold expiries), iterate a priority queue of pending requests.
    let mut pending: std::collections::VecDeque<LockRequest> = reqs.iter().cloned().collect();
    let mut fifo: Vec<LockRequest> = Vec::new(); // normal waiting, FIFO
    let mut low_wait: Vec<LockRequest> = Vec::new(); // low-priority waiting

    // Candidate instants to examine.
    let mut instants: Vec<Timestamp> = reqs.iter().map(|r| r.arrival).collect();
    instants.sort_unstable();
    instants.dedup();

    let mut i = 0usize;
    while i < instants.len() {
        let now = instants[i];
        i += 1;

        // Release expired holds.
        holds.retain(|(end, _)| *end > now);

        // Admit arrivals at this instant.
        while let Some(front) = pending.front() {
            if front.arrival > now {
                break;
            }
            let r = pending.pop_front().expect("front checked");
            match r.priority {
                LockPriority::Normal => fifo.push(r),
                LockPriority::Low { .. } => low_wait.push(r),
            }
        }

        // Expire low-priority waiters whose timeout passed.
        low_wait.retain(|r| {
            let deadline = match r.priority {
                LockPriority::Low { timeout } => r.arrival + timeout,
                LockPriority::Normal => unreachable!(),
            };
            if now >= deadline {
                outcomes.push(LockOutcome {
                    id: r.id,
                    granted_at: None,
                    waited: deadline.since(r.arrival),
                    timed_out: true,
                });
                false
            } else {
                true
            }
        });

        // Grant from the FIFO head while compatible.
        loop {
            let mut granted_any = false;
            if let Some(head) = fifo.first() {
                let compatible = match head.mode {
                    LockMode::Shared => holds.iter().all(|(_, m)| *m == LockMode::Shared),
                    LockMode::Exclusive => holds.is_empty(),
                };
                if compatible {
                    let r = fifo.remove(0);
                    let end = now + r.hold;
                    holds.push((end, r.mode));
                    outcomes.push(LockOutcome {
                        id: r.id,
                        granted_at: Some(now),
                        waited: now.since(r.arrival),
                        timed_out: false,
                    });
                    // New expiry instant becomes a candidate.
                    insert_instant(&mut instants, &mut i, end);
                    granted_any = true;
                }
            }
            if !granted_any {
                break;
            }
        }

        // Low-priority grants: only when nothing is queued at normal
        // priority and the hold set is compatible.
        if fifo.is_empty() {
            let mut k = 0;
            while k < low_wait.len() {
                let compatible = match low_wait[k].mode {
                    LockMode::Shared => holds.iter().all(|(_, m)| *m == LockMode::Shared),
                    LockMode::Exclusive => holds.is_empty(),
                };
                if compatible {
                    let r = low_wait.remove(k);
                    let end = now + r.hold;
                    holds.push((end, r.mode));
                    outcomes.push(LockOutcome {
                        id: r.id,
                        granted_at: Some(now),
                        waited: now.since(r.arrival),
                        timed_out: false,
                    });
                    insert_instant(&mut instants, &mut i, end);
                } else {
                    k += 1;
                }
            }
        }

        // Also make low-priority timeout deadlines candidate instants.
        for r in &low_wait {
            if let LockPriority::Low { timeout } = r.priority {
                insert_instant(&mut instants, &mut i, r.arrival + timeout);
            }
        }
    }

    // Anything still waiting at the end never got granted; report with the
    // wait accrued to the last instant.
    let last = instants.last().copied().unwrap_or(Timestamp::EPOCH);
    for r in fifo.into_iter().chain(low_wait) {
        outcomes.push(LockOutcome {
            id: r.id,
            granted_at: None,
            waited: last.since(r.arrival),
            timed_out: true,
        });
    }

    outcomes.sort_by_key(|o| o.id);
    outcomes
}

/// Insert a future instant keeping order, adjusting the cursor.
fn insert_instant(instants: &mut Vec<Timestamp>, cursor: &mut usize, t: Timestamp) {
    match instants.binary_search(&t) {
        Ok(_) => {}
        Err(pos) => {
            instants.insert(pos, t);
            if pos < *cursor {
                *cursor += 1;
            }
        }
    }
}

/// Summary of convoy behaviour in a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvoySummary {
    /// Number of shared requests that waited at all.
    pub blocked_shared: usize,
    /// Total wait time across shared requests.
    pub total_shared_wait: Duration,
    /// Maximum single shared wait.
    pub max_shared_wait: Duration,
    /// Whether the exclusive request(s) eventually succeeded.
    exclusive_succeeded: bool,
}

/// Summarize outcomes, classifying by the mode recorded in `requests`.
pub fn summarize_convoy(requests: &[LockRequest], outcomes: &[LockOutcome]) -> ConvoySummary {
    let mode_of = |id: u64| requests.iter().find(|r| r.id == id).map(|r| r.mode);
    let mut blocked = 0;
    let mut total = Duration::ZERO;
    let mut max = Duration::ZERO;
    let mut excl_ok = true;
    for o in outcomes {
        match mode_of(o.id) {
            Some(LockMode::Shared) => {
                if o.waited > Duration::ZERO {
                    blocked += 1;
                }
                total = total + o.waited;
                if o.waited > max {
                    max = o.waited;
                }
            }
            Some(LockMode::Exclusive) if o.timed_out => excl_ok = false,
            Some(LockMode::Exclusive) | None => {}
        }
    }
    ConvoySummary {
        blocked_shared: blocked,
        total_shared_wait: total,
        max_shared_wait: max,
        exclusive_succeeded: excl_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, at: u64, hold: u64) -> LockRequest {
        LockRequest {
            id,
            mode: LockMode::Shared,
            priority: LockPriority::Normal,
            arrival: Timestamp(at),
            hold: Duration(hold),
        }
    }

    fn x(id: u64, at: u64, hold: u64) -> LockRequest {
        LockRequest {
            id,
            mode: LockMode::Exclusive,
            priority: LockPriority::Normal,
            arrival: Timestamp(at),
            hold: Duration(hold),
        }
    }

    fn x_low(id: u64, at: u64, hold: u64, timeout: u64) -> LockRequest {
        LockRequest {
            id,
            mode: LockMode::Exclusive,
            priority: LockPriority::Low {
                timeout: Duration(timeout),
            },
            arrival: Timestamp(at),
            hold: Duration(hold),
        }
    }

    #[test]
    fn shared_locks_dont_block_each_other() {
        let reqs = vec![s(1, 0, 100), s(2, 10, 100), s(3, 20, 100)];
        let out = simulate(&reqs);
        assert!(out.iter().all(|o| o.waited == Duration::ZERO));
    }

    #[test]
    fn exclusive_waits_for_holders() {
        let reqs = vec![s(1, 0, 1000), x(2, 100, 10)];
        let out = simulate(&reqs);
        assert_eq!(out[1].granted_at, Some(Timestamp(1000)));
        assert_eq!(out[1].waited, Duration(900));
    }

    #[test]
    fn fifo_convoy_forms_behind_normal_exclusive() {
        // Long reader holds S; X arrives; many later S requests convoy.
        let mut reqs = vec![s(1, 0, 10_000), x(2, 100, 10)];
        for i in 0..20 {
            reqs.push(s(3 + i, 200 + i * 10, 50));
        }
        let out = simulate(&reqs);
        let summary = summarize_convoy(&reqs, &out);
        assert!(
            summary.blocked_shared >= 20,
            "later shared requests must convoy: {summary:?}"
        );
        assert!(summary.max_shared_wait >= Duration(9000));
        assert!(summary.exclusive_succeeded);
    }

    #[test]
    fn low_priority_exclusive_does_not_convoy() {
        let mut reqs = vec![s(1, 0, 10_000), x_low(2, 100, 10, 60_000)];
        for i in 0..20 {
            reqs.push(s(3 + i, 200 + i * 10, 50));
        }
        let out = simulate(&reqs);
        let summary = summarize_convoy(&reqs, &out);
        assert_eq!(
            summary.blocked_shared, 0,
            "low-priority X must not block shared requests: {summary:?}"
        );
        // The drop eventually succeeds once the long reader finishes.
        let drop_outcome = out.iter().find(|o| o.id == 2).unwrap();
        assert!(!drop_outcome.timed_out);
        assert!(drop_outcome.granted_at.unwrap() >= Timestamp(10_000));
    }

    #[test]
    fn low_priority_times_out_under_continuous_load() {
        // Overlapping shared holds leave no gap before the timeout.
        let mut reqs = vec![x_low(1, 0, 10, 500)];
        for i in 0..10 {
            reqs.push(s(10 + i, i * 100, 300));
        }
        let out = simulate(&reqs);
        let drop_outcome = out.iter().find(|o| o.id == 1).unwrap();
        assert!(drop_outcome.timed_out, "{drop_outcome:?}");
        assert_eq!(drop_outcome.waited, Duration(500));
        // No shared request waited.
        assert!(out
            .iter()
            .filter(|o| o.id >= 10)
            .all(|o| o.waited == Duration::ZERO));
    }

    #[test]
    fn convoy_summary_counts_waiters_only() {
        // Reader holds 1000ms; X at 100 convoys two later S requests
        // (at 200 and 300) behind it while an early S (at 0..) rides
        // free. Only the two that actually waited count as blocked.
        let reqs = vec![s(1, 0, 1000), x(2, 100, 10), s(3, 200, 50), s(4, 300, 50)];
        let out = simulate(&reqs);
        let summary = summarize_convoy(&reqs, &out);
        assert_eq!(summary.blocked_shared, 2);
        assert!(summary.total_shared_wait > Duration::ZERO);
        let free = simulate(&[s(1, 0, 10)]);
        let none = summarize_convoy(&[s(1, 0, 10)], &free);
        assert_eq!(none.blocked_shared, 0);
        assert_eq!(none.total_shared_wait, Duration::ZERO);
    }

    #[test]
    fn exclusive_grants_when_free() {
        let reqs = vec![x(1, 0, 10)];
        let out = simulate(&reqs);
        assert_eq!(out[0].granted_at, Some(Timestamp(0)));
    }

    #[test]
    fn fifo_order_preserved_between_exclusives() {
        let reqs = vec![x(1, 0, 100), x(2, 10, 100), x(3, 20, 100)];
        let out = simulate(&reqs);
        assert_eq!(out[0].granted_at, Some(Timestamp(0)));
        assert_eq!(out[1].granted_at, Some(Timestamp(100)));
        assert_eq!(out[2].granted_at, Some(Timestamp(200)));
    }
}
