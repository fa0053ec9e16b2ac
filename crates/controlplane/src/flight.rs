//! Fleet-scale policy flighting (§7 wired into the control plane).
//!
//! A *flight* validates a candidate [`PlanePolicy`] against the control
//! policy before region-wide rollout. A deterministic cohort of tenants
//! is sampled by a pure splitmix hash keyed on the flight id + seed
//! (consistent with the auto-fraction assignment in
//! [`crate::fleet_driver`]); each cohort tenant's database is forked into
//! two B-instance clones — a control arm and a candidate arm — which
//! replay the same forked traffic trace while their own control planes
//! tune them under the respective policies. The §7.3 fixed-count Welch
//! comparison turns each tenant into an improved/regressed/wash verdict
//! (or discarded, when the divergence guard trips), and the verdicts
//! aggregate into a region-level ship/no-ship decision.
//!
//! Per-tenant execution runs inside the §7.2 workflow engine, so a
//! failed pipeline (e.g. excessive divergence) cleans up the clone forks
//! in reverse order and leaves zero debris. Flight state transitions are
//! journaled as [`crate::store::StateStore`] `Flight` frames: a crash
//! mid-flight recovers the completed verdicts, resumes the remainder,
//! and converges on the identical [`FlightReport`].
//!
//! Determinism contract (the headline claim, pinned by the
//! `flight_equivalence` proptests and the chaos suite): a flight's
//! cohort, per-tenant verdicts, and region verdict are byte-identical
//! across {serial, parallel} × {plan cache on, off} and across a resume
//! from any prefix of the flight's journal. Everything a verdict depends
//! on is a pure function of `(config, tenant index, tenant)` — thread
//! interleaving and cache setting never enter. Arms schedule their
//! control passes sparsely, which is byte-identical to running every
//! pass (the fleet driver's dense oracle proves the same gate).

use crate::dashboard::DashboardSnapshot;
use crate::fleet_driver::index_hash01;
use crate::hash::{fnv1a64_extend, FNV_OFFSET};
use crate::metrics::MetricsRegistry;
use crate::plane::{ControlPlane, ManagedDb, PlanePolicy};
use crate::pool;
use crate::state::{DbSettings, ServerSettings};
use crate::store::StateStore;
use crate::telemetry::Telemetry;
use experiment::analysis::{compare_costs, workload_cost_fixed_counts, CostSample};
use experiment::binstance::{create_b_instance, divergence_between};
use experiment::workflow::{FnStep, Workflow, WorkflowRun};
use sqlmini::clock::{Duration, Timestamp};
use sqlmini::engine::Database;
use sqlmini::querystore::Metric;
use std::collections::BTreeMap;
use workload::runner::{replay, ReplayFidelity, Trace};
use workload::{Tenant, WorkloadModel, WorkloadRunner};

/// Parked-forever sentinel for sparse arm scheduling.
const NEVER: u64 = u64::MAX;

/// Simulated time per flight tick: one hour.
const TICK_INTERVAL: Duration = Duration(3_600_000);

/// Configuration of one policy flight.
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Flight identifier — keys the cohort hash and the journal frames.
    pub id: String,
    /// Flight seed — keys the cohort hash, arm fork noise, and replay
    /// fidelity streams.
    pub seed: u64,
    /// Fraction of the fleet sampled into the cohort, in [0, 1].
    pub cohort_fraction: f64,
    /// The incumbent policy (the A arm).
    pub control: PlanePolicy,
    /// The policy under test (the B arm).
    pub candidate: PlanePolicy,
    /// Ticks of untouched traffic before tuning starts — the §7.3 base
    /// window that pins the fixed execution counts.
    pub baseline_ticks: u32,
    /// Ticks of tuned traffic — the measurement window.
    pub measure_ticks: u32,
    /// Welch-test significance level for per-tenant verdicts.
    pub alpha: f64,
    /// Practical-significance margin as a fraction of the control cost.
    pub margin: f64,
    /// Divergence-guard tolerance: a tenant whose arm diverges from the
    /// traffic primary by more than this (max relative row count) is
    /// discarded, not measured.
    pub divergence_tolerance: f64,
    /// Replay infidelity: probability an event is dropped on replay.
    /// Identical (same seed) for both arms — there is one traffic fork.
    pub replay_drop_prob: f64,
}

impl Default for FlightConfig {
    fn default() -> FlightConfig {
        FlightConfig {
            id: "flight-0".to_string(),
            seed: 0,
            cohort_fraction: 0.5,
            control: PlanePolicy::default(),
            candidate: PlanePolicy::default(),
            baseline_ticks: 6,
            measure_ticks: 18,
            alpha: 0.05,
            margin: 0.01,
            divergence_tolerance: 0.25,
            replay_drop_prob: 0.01,
        }
    }
}

impl FlightConfig {
    /// The salt for this flight's cohort stream: id + seed, independent
    /// of the auto-fraction stream's fixed salt.
    fn cohort_salt(&self) -> u64 {
        fnv1a64_extend(FNV_OFFSET, self.id.as_bytes()) ^ self.seed.rotate_left(17)
    }

    /// Is fleet index `index` in this flight's cohort? A pure hash — no
    /// RNG state — so membership replays regardless of threading.
    fn in_cohort(&self, index: usize) -> bool {
        index_hash01(index, self.cohort_salt()) < self.cohort_fraction
    }

    /// The cohort over a fleet of `fleet_size` tenants, in fleet order.
    pub fn cohort(&self, fleet_size: usize) -> Vec<usize> {
        self.cohort_of(0..fleet_size)
    }

    /// Cohort membership over an arbitrary set of *global* indices —
    /// the sharded view, where each shard filters its own member list.
    /// Because membership hashes the global index (never the shard or
    /// the position within a shard), the union over any partition of
    /// the fleet equals the unsharded cohort exactly — resharding can
    /// never move a tenant in or out of a flight.
    pub fn cohort_of(&self, indices: impl IntoIterator<Item = usize>) -> Vec<usize> {
        indices.into_iter().filter(|&i| self.in_cohort(i)).collect()
    }

    fn total_ticks(&self) -> u32 {
        self.baseline_ticks + self.measure_ticks
    }

    /// Simulated time one tenant's arms are driven.
    fn sim_time(&self) -> Duration {
        Duration::from_millis(TICK_INTERVAL.millis() * self.total_ticks() as u64)
    }
}

/// One cohort tenant's A/B outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum TenantVerdict {
    /// The candidate arm was significantly and meaningfully cheaper.
    Improved,
    /// The candidate arm was significantly and meaningfully costlier.
    Regressed,
    /// No significant difference (or no comparable data).
    Wash,
    /// The divergence guard tripped; the tenant contributes no evidence.
    Discarded,
}

/// The journaled record of one tenant's verdict, plus the measurements
/// behind it. Values are clamped finite, so every float reaches the
/// canonical JSON line as a number (the writer prints non-finite floats
/// as `null`).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TenantVerdictRecord {
    pub verdict: TenantVerdict,
    /// Fixed-count workload cost of the control arm's measurement window.
    pub control_cost: f64,
    /// Fixed-count workload cost of the candidate arm's window.
    pub candidate_cost: f64,
    /// One-sided p that the candidate arm is costlier (`None` when the
    /// comparison had no variance or the tenant was discarded).
    pub(crate) p_candidate_greater: Option<f64>,
    /// Max relative divergence of either arm vs the traffic primary.
    pub(crate) divergence: f64,
    /// Trace events replayed across both arms.
    pub(crate) replayed: u64,
    /// Simulated CPU microseconds spent replaying both arms.
    pub(crate) replay_cpu_us: u64,
}

/// Lifecycle of a flight, as journaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlightState {
    Running,
    Shipped,
    Aborted,
}

/// The journaled state of one flight: cohort, per-tenant verdicts as
/// they land, and the terminal decision. This is what a
/// [`crate::store::StateStore`] `Flight` frame carries; recovery from
/// any journal prefix plus a resumed run converges on the same record.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    pub id: String,
    pub(crate) seed: u64,
    pub(crate) state: FlightState,
    /// Cohort tenant indexes, in fleet order.
    pub cohort: Vec<usize>,
    /// Per-tenant verdicts keyed by fleet index.
    pub verdicts: BTreeMap<usize, TenantVerdictRecord>,
}

/// The region-level decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightDecision {
    Ship,
    Abort,
}

/// Per-tenant verdict from the two arms' cost samples: regressed when
/// the candidate is significantly costlier by more than `margin` of the
/// control cost, improved when significantly cheaper by the same margin,
/// wash otherwise (including incomparable samples). Returns the verdict
/// and the one-sided p that the candidate is costlier, when defined.
pub fn tenant_verdict(
    control: &CostSample,
    candidate: &CostSample,
    alpha: f64,
    margin: f64,
) -> (TenantVerdict, Option<f64>) {
    let Some(c) = compare_costs(control, candidate) else {
        return (TenantVerdict::Wash, None);
    };
    let abs_margin = margin * control.total;
    let verdict = if c.p_b_greater < alpha && (candidate.total - control.total) > abs_margin {
        TenantVerdict::Regressed
    } else if c.p_b_greater > 1.0 - alpha && (control.total - candidate.total) > abs_margin {
        TenantVerdict::Improved
    } else {
        TenantVerdict::Wash
    };
    (verdict, Some(c.p_b_greater))
}

/// The region-level ship/no-ship rule over per-tenant verdicts: ship
/// iff at least one tenant measurably improved and none regressed.
/// Washes are neutral; discarded tenants contribute no evidence.
pub fn region_decision<'a>(
    verdicts: impl IntoIterator<Item = &'a TenantVerdict>,
) -> FlightDecision {
    let mut improved = 0usize;
    let mut regressed = 0usize;
    for v in verdicts {
        match v {
            TenantVerdict::Improved => improved += 1,
            TenantVerdict::Regressed => regressed += 1,
            TenantVerdict::Wash | TenantVerdict::Discarded => {}
        }
    }
    if improved >= 1 && regressed == 0 {
        FlightDecision::Ship
    } else {
        FlightDecision::Abort
    }
}

/// End-of-flight state: the journaled record, the decision, verdict
/// tallies, and replay-cost accounting. Everything but the telemetry is
/// identical across {serial, parallel} × {cache on, off} ×
/// {fresh, resumed} runs of the same flight.
#[derive(Debug)]
pub struct FlightReport {
    pub record: FlightRecord,
    pub decision: FlightDecision,
    pub improved: u64,
    pub regressed: u64,
    pub washed: u64,
    pub discarded: u64,
    /// Trace events replayed across all arms of all cohort tenants.
    pub replayed_events: u64,
    /// Simulated CPU microseconds spent on replay, fleet-wide.
    replay_cpu_us: u64,
    /// Simulated time each tenant's arms were driven.
    sim_time: Duration,
}

impl FlightReport {
    fn tally(record: &FlightRecord, verdict: TenantVerdict) -> u64 {
        record
            .verdicts
            .values()
            .filter(|v| v.verdict == verdict)
            .count() as u64
    }

    fn from_record(record: FlightRecord, sim_time: Duration) -> FlightReport {
        let decision = match record.state {
            FlightState::Shipped => FlightDecision::Ship,
            _ => FlightDecision::Abort,
        };
        let improved = FlightReport::tally(&record, TenantVerdict::Improved);
        let regressed = FlightReport::tally(&record, TenantVerdict::Regressed);
        let washed = FlightReport::tally(&record, TenantVerdict::Wash);
        let discarded = FlightReport::tally(&record, TenantVerdict::Discarded);
        let replayed_events = record.verdicts.values().map(|v| v.replayed).sum();
        let replay_cpu_us = record.verdicts.values().map(|v| v.replay_cpu_us).sum();
        FlightReport {
            record,
            decision,
            improved,
            regressed,
            washed,
            discarded,
            replayed_events,
            replay_cpu_us,
            sim_time,
        }
    }

    /// Canonical serialization of the flight outcome: one JSON line per
    /// cohort tenant (in fleet order) plus the decision line. Serial,
    /// parallel, cache-off, and resumed runs of the same flight produce
    /// byte-identical output — the determinism contract the property and
    /// chaos tests pin down.
    pub fn canonical_string(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "flight {} seed {} cohort {:?}\n",
            self.record.id, self.record.seed, self.record.cohort
        ));
        for (index, v) in &self.record.verdicts {
            out.push_str(&format!(
                "{index}: {}\n",
                serde_json::to_string(v).expect("verdict serializes")
            ));
        }
        out.push_str(&format!(
            "decision:{:?} state:{:?} improved={} regressed={} wash={} discarded={} \
             replayed={} replay_cpu_us={}\n",
            self.decision,
            self.record.state,
            self.improved,
            self.regressed,
            self.washed,
            self.discarded,
            self.replayed_events,
            self.replay_cpu_us,
        ));
        out
    }

    /// The verdict as the dashboard renders it.
    fn verdict_label(&self) -> &'static str {
        match self.decision {
            FlightDecision::Ship => "ship",
            FlightDecision::Abort => "abort",
        }
    }

    /// Attach this flight's block to an existing §8.1 dashboard.
    fn annotate(&self, dash: DashboardSnapshot) -> DashboardSnapshot {
        dash.with_flight(
            self.record.cohort.len() as u64,
            self.improved,
            self.regressed,
            self.washed,
            self.discarded,
            self.verdict_label(),
        )
    }

    /// A standalone dashboard carrying only the flight block (the §8.1
    /// golden snapshots render this).
    pub fn dashboard(&self) -> DashboardSnapshot {
        self.annotate(DashboardSnapshot::new(
            &Telemetry::new(),
            &MetricsRegistry::new(),
            self.sim_time,
        ))
    }
}

/// One arm (control or candidate) of a tenant's flight: a B-instance
/// clone under its own control plane.
struct Arm {
    plane: ControlPlane,
    mdb: ManagedDb,
    next_wake: u64,
    replayed: u64,
    replay_cpu_us: f64,
}

/// The workflow context for one tenant's flight pipeline.
struct FlightCtx {
    primary: Database,
    model: WorkloadModel,
    runner: WorkloadRunner,
    t0: Timestamp,
    slices: Vec<Trace>,
    control: Option<Arm>,
    candidate: Option<Arm>,
    divergence: f64,
    samples: Option<(CostSample, CostSample)>,
    /// Forks torn down by reverse cleanup (the zero-debris assertion).
    cleaned_forks: usize,
}

/// The flight driver: samples the cohort, runs each cohort tenant's
/// two-arm pipeline, journals verdicts, and decides ship/no-ship.
#[derive(Debug, Clone, Default)]
pub struct FlightDriver {
    config: FlightConfig,
}

impl FlightDriver {
    pub fn new(config: FlightConfig) -> FlightDriver {
        FlightDriver { config }
    }

    /// Run the flight against `fleet` with a fresh (ephemeral) region
    /// store. The fleet is borrowed: flights operate on clones only.
    pub fn run(&self, fleet: &[Tenant], threads: usize) -> FlightReport {
        let mut store = StateStore::new();
        self.run_with_store(fleet, &mut store, threads)
    }

    /// Run the flight, journaling state transitions into `store`. If the
    /// store already holds this flight id, the run *resumes*: journaled
    /// verdicts are not recomputed, and a terminal record returns its
    /// report immediately — so crash recovery from any journal prefix
    /// followed by a resume converges on the same verdict.
    pub fn run_with_store(
        &self,
        fleet: &[Tenant],
        store: &mut StateStore,
        threads: usize,
    ) -> FlightReport {
        let cfg = &self.config;
        let mut record = match store.flight(&cfg.id) {
            Some(r) => r.clone(),
            None => FlightRecord {
                id: cfg.id.clone(),
                seed: cfg.seed,
                state: FlightState::Running,
                cohort: cfg.cohort(fleet.len()),
                verdicts: BTreeMap::new(),
            },
        };
        // A terminal record skips all of this: the journaled verdict stands.
        if record.state == FlightState::Running {
            store.record_flight(&record);
            let missing: Vec<usize> = record
                .cohort
                .iter()
                .copied()
                .filter(|i| !record.verdicts.contains_key(i))
                .collect();
            // Journal the verdicts one write each, in cohort order.
            for (index, verdict) in self.flight_tenants(fleet, &missing, threads) {
                record.verdicts.insert(index, verdict);
                store.record_flight(&record);
            }
            // Region decision: auto-promote or auto-abort, journaled.
            let decision = region_decision(record.verdicts.values().map(|v| &v.verdict));
            record.state = match decision {
                FlightDecision::Ship => FlightState::Shipped,
                FlightDecision::Abort => FlightState::Aborted,
            };
            store.record_flight(&record);
        }
        FlightReport::from_record(record, cfg.sim_time())
    }

    /// Run the per-tenant pipelines for `missing` (fleet indexes) on the
    /// pool, returning `(index, verdict)` in `missing` order — order of
    /// completion never matters because each verdict is a pure function
    /// of its own tenant. `Tenant` is Send but not Sync (interior clock
    /// cells), so each pipeline owns a clone; the flight never touches
    /// the real tenant.
    fn flight_tenants(
        &self,
        fleet: &[Tenant],
        missing: &[usize],
        threads: usize,
    ) -> Vec<(usize, TenantVerdictRecord)> {
        let cohort = missing.iter().map(|&i| (i, fleet[i].clone())).collect();
        pool::map_ordered(cohort, threads, |_, (i, tenant)| {
            self.flight_tenant(i, tenant)
        })
    }

    /// Deterministic per-(tenant, arm) fork noise seed.
    fn arm_seed(&self, index: usize, arm: u64) -> u64 {
        self.config.seed
            ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ arm.wrapping_mul(0x0F1E_2D3C_4B5A_6978)
    }

    /// One cohort tenant's full §7 pipeline, as a workflow with
    /// guaranteed reverse-order cleanup: fork the two arms, fork the
    /// traffic, interleave replay with per-arm control passes, check the
    /// divergence guard, measure. A guard trip fails the workflow — the
    /// completed steps clean up in reverse and the tenant is discarded.
    /// Returns the journal row `(index, verdict)`.
    fn flight_tenant(&self, index: usize, tenant: Tenant) -> (usize, TenantVerdictRecord) {
        // The traffic primary: the caller's private copy of the tenant,
        // on its own clock. Its `DbConfig` (plan cache included) is what
        // both arms fork.
        let mut primary = tenant.db;
        primary.detach_clock();
        let t0 = primary.clock().now();
        let mut ctx = FlightCtx {
            primary,
            model: tenant.model,
            runner: tenant.runner,
            t0,
            slices: Vec::new(),
            control: None,
            candidate: None,
            divergence: 0.0,
            samples: None,
            cleaned_forks: 0,
        };

        let run = self.tenant_workflow(index).execute(&mut ctx);
        (index, self.verdict_from_ctx(&ctx, &run))
    }

    /// Build the per-tenant workflow. Split out so tests can drive it
    /// directly and assert on step statuses.
    fn tenant_workflow(&self, index: usize) -> Workflow<FlightCtx> {
        let cfg = self.config.clone();
        let total_ticks = cfg.total_ticks();
        let interval = TICK_INTERVAL;
        let fidelity_seed =
            cfg.seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0046_4C49;

        let make_arm = |policy: PlanePolicy, seed: u64| {
            move |ctx: &mut FlightCtx| {
                let mut db = create_b_instance(&ctx.primary, seed);
                // Forks share the primary's clock; each arm owns its
                // own time stream.
                db.detach_clock();
                let mdb = ManagedDb::new(db, DbSettings::all_on(), ServerSettings::default());
                Ok::<Arm, String>(Arm {
                    plane: ControlPlane::new(policy.clone()),
                    mdb,
                    next_wake: 0,
                    replayed: 0,
                    replay_cpu_us: 0.0,
                })
            }
        };
        let fork_control = make_arm(cfg.control.clone(), self.arm_seed(index, 0xA));
        let fork_candidate = make_arm(cfg.candidate.clone(), self.arm_seed(index, 0xB));
        let baseline_ticks = cfg.baseline_ticks;
        let tolerance = cfg.divergence_tolerance;
        let drop_prob = cfg.replay_drop_prob;

        Workflow::default()
            .step(
                FnStep::new("fork-control", move |ctx: &mut FlightCtx| {
                    ctx.control = Some(fork_control(ctx)?);
                    Ok(())
                })
                .with_cleanup(|ctx: &mut FlightCtx| {
                    // Drop the clone — B-instances are disposable.
                    ctx.control = None;
                    ctx.cleaned_forks += 1;
                }),
            )
            .step(
                FnStep::new("fork-candidate", move |ctx: &mut FlightCtx| {
                    ctx.candidate = Some(fork_candidate(ctx)?);
                    Ok(())
                })
                .with_cleanup(|ctx: &mut FlightCtx| {
                    ctx.candidate = None;
                    ctx.cleaned_forks += 1;
                }),
            )
            .step(FnStep::new("fork-traffic", move |ctx: &mut FlightCtx| {
                // One traced run on the primary is the traffic fork both
                // arms replay; slice it into per-tick sub-traces.
                let dur = Duration::from_millis(interval.millis() * total_ticks as u64);
                let mut runner = ctx.runner.clone();
                let model = ctx.model.clone();
                let (_, trace) = runner.run_traced(&mut ctx.primary, &model, dur);
                let mut slices: Vec<Trace> = (0..total_ticks)
                    .map(|_| Trace { events: Vec::new() })
                    .collect();
                for e in trace.events {
                    let k = (e.at.0.saturating_sub(ctx.t0.0)) / interval.millis().max(1);
                    let k = (k as usize).min(total_ticks.saturating_sub(1) as usize);
                    slices[k].events.push(e);
                }
                ctx.slices = slices;
                Ok(())
            }))
            .step(FnStep::new("replay", move |ctx: &mut FlightCtx| {
                let t0 = ctx.t0;
                let slices = std::mem::take(&mut ctx.slices);
                let model = ctx.model.clone();
                for (k, slice) in slices.iter().enumerate() {
                    let fidelity = ReplayFidelity {
                        drop_prob,
                        reorder_window: 4,
                        seed: fidelity_seed ^ (k as u64) << 8,
                    };
                    let tick_end = Timestamp(t0.0 + interval.millis() * (k as u64 + 1));
                    for arm in [ctx.control.as_mut(), ctx.candidate.as_mut()] {
                        let arm = arm.ok_or("arm missing")?;
                        let s = replay(&mut arm.mdb.db, &model, slice, fidelity);
                        arm.replayed += s.replayed;
                        arm.replay_cpu_us += s.total_cpu_us;
                        arm.mdb.db.clock().advance_to(tick_end);
                        // Tuning starts after the baseline window; the
                        // sparse schedule gates passes after that, and
                        // must be unobservable (a skipped pass is
                        // provably a no-op).
                        let due = k as u64 >= baseline_ticks as u64 && k as u64 >= arm.next_wake;
                        if due {
                            let schedule = arm.plane.tick(&mut arm.mdb);
                            arm.next_wake = schedule
                                .next_wake_tick(arm.mdb.db.clock().now(), k as u64, interval)
                                .unwrap_or(NEVER);
                        }
                    }
                }
                Ok(())
            }))
            .step(FnStep::new(
                "divergence-guard",
                move |ctx: &mut FlightCtx| {
                    let mut worst = 0.0f64;
                    for arm in [ctx.control.as_ref(), ctx.candidate.as_ref()] {
                        let arm = arm.ok_or("arm missing")?;
                        let d = divergence_between(&ctx.primary, &arm.mdb.db);
                        worst = worst.max(d.max_relative());
                    }
                    // Clamp finite: the JSON views of a flight record
                    // have no encoding for infinity.
                    ctx.divergence = worst.min(f64::MAX);
                    if worst > tolerance {
                        Err(format!(
                            "divergence {worst:.4} exceeds tolerance {tolerance:.4}"
                        ))
                    } else {
                        Ok(())
                    }
                },
            ))
            .step(FnStep::new("measure", move |ctx: &mut FlightCtx| {
                let base = (
                    ctx.t0,
                    Timestamp(ctx.t0.0 + interval.millis() * baseline_ticks as u64),
                );
                let window = (
                    base.1,
                    Timestamp(ctx.t0.0 + interval.millis() * total_ticks as u64),
                );
                let sample = |arm: Option<&Arm>| {
                    arm.map(|a| {
                        workload_cost_fixed_counts(&a.mdb.db, Metric::CpuTime, base, window)
                    })
                    .ok_or("arm missing")
                };
                let control = sample(ctx.control.as_ref())?;
                let candidate = sample(ctx.candidate.as_ref())?;
                ctx.samples = Some((control, candidate));
                Ok(())
            }))
    }

    /// Fold the executed workflow into the journaled verdict record.
    fn verdict_from_ctx(&self, ctx: &FlightCtx, run: &WorkflowRun) -> TenantVerdictRecord {
        let cfg = &self.config;
        let (replayed, replay_cpu) = [ctx.control.as_ref(), ctx.candidate.as_ref()]
            .into_iter()
            .flatten()
            .fold((0u64, 0.0f64), |(n, us), a| {
                (n + a.replayed, us + a.replay_cpu_us)
            });
        let replay_cpu_us = replay_cpu.round() as u64;
        if let (true, Some((control, candidate))) = (run.succeeded(), ctx.samples.as_ref()) {
            let (verdict, p) = tenant_verdict(control, candidate, cfg.alpha, cfg.margin);
            TenantVerdictRecord {
                verdict,
                control_cost: control.total,
                candidate_cost: candidate.total,
                p_candidate_greater: p,
                divergence: ctx.divergence,
                replayed,
                replay_cpu_us,
            }
        } else {
            // Guard trip (or pipeline failure): the forks were cleaned
            // up in reverse order; the tenant contributes no evidence.
            TenantVerdictRecord {
                verdict: TenantVerdict::Discarded,
                control_cost: 0.0,
                candidate_cost: 0.0,
                p_candidate_greater: None,
                divergence: ctx.divergence,
                replayed: 0,
                replay_cpu_us: 0,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiment::workflow::StepStatus;
    use sqlmini::engine::ServiceTier;
    use workload::{generate_tenant, TenantConfig};

    fn small_fleet(n: usize, seed: u64) -> Vec<Tenant> {
        (0..n)
            .map(|i| {
                let s = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(i as u64 + 1);
                let mut cfg = TenantConfig::new(format!("fl{i}"), s, ServiceTier::Basic);
                cfg.schema.min_tables = 1;
                cfg.schema.max_tables = 2;
                cfg.schema.min_rows = 1_000;
                cfg.schema.max_rows = 3_000;
                cfg.workload.base_rate_per_hour = 120.0;
                generate_tenant(&cfg)
            })
            .collect()
    }

    fn quick_config() -> FlightConfig {
        FlightConfig {
            cohort_fraction: 0.6,
            baseline_ticks: 3,
            measure_ticks: 6,
            ..FlightConfig::default()
        }
    }

    #[test]
    fn cohort_is_deterministic_and_salted() {
        let a = FlightConfig {
            id: "fl-a".into(),
            seed: 7,
            cohort_fraction: 0.5,
            ..FlightConfig::default()
        };
        assert_eq!(a.cohort(64), a.cohort(64));
        // A prefix of the fleet keeps its membership under growth.
        let big = a.cohort(128);
        let small = a.cohort(64);
        assert_eq!(
            small,
            big.iter().copied().filter(|&i| i < 64).collect::<Vec<_>>()
        );
        // Different flight id or seed re-rolls the cohort.
        let b = FlightConfig {
            id: "fl-b".into(),
            ..a.clone()
        };
        let c = FlightConfig { seed: 8, ..a };
        assert_ne!(b.cohort(64), c.cohort(64));
    }

    #[test]
    fn cohort_fraction_bounds() {
        let none = FlightConfig {
            cohort_fraction: 0.0,
            ..FlightConfig::default()
        };
        assert!(none.cohort(100).is_empty());
        let all = FlightConfig {
            cohort_fraction: 1.0,
            ..FlightConfig::default()
        };
        assert_eq!(all.cohort(100).len(), 100);
    }

    #[test]
    fn identical_policies_never_ship() {
        // Control == candidate: every tenant is a wash (same policy,
        // same traffic, same noise seeds per arm differ — but verdicts
        // need significance + margin), so the flight must abort rather
        // than promote noise.
        let fleet = small_fleet(4, 11);
        let driver = FlightDriver::new(quick_config());
        let report = driver.run(&fleet, 1);
        assert_eq!(report.improved, 0, "{}", report.canonical_string());
        assert_eq!(report.decision, FlightDecision::Abort);
        assert_eq!(report.record.state, FlightState::Aborted);
    }

    #[test]
    fn flight_leaves_primary_untouched() {
        let fleet = small_fleet(3, 5);
        let before: Vec<(Timestamp, usize)> = fleet
            .iter()
            .map(|t| (t.db.clock().now(), t.db.catalog().n_indexes()))
            .collect();
        let driver = FlightDriver::new(quick_config());
        let _ = driver.run(&fleet, 2);
        let after: Vec<(Timestamp, usize)> = fleet
            .iter()
            .map(|t| (t.db.clock().now(), t.db.catalog().n_indexes()))
            .collect();
        assert_eq!(before, after, "flights must only ever touch clones");
    }

    #[test]
    fn divergence_guard_discards_and_cleans_up_in_reverse() {
        let fleet = small_fleet(1, 3);
        let cfg = FlightConfig {
            cohort_fraction: 1.0,
            replay_drop_prob: 0.95,
            divergence_tolerance: 0.05,
            baseline_ticks: 2,
            measure_ticks: 4,
            ..FlightConfig::default()
        };
        let driver = FlightDriver::new(cfg);
        // Drive the workflow directly to inspect step statuses.
        let tenant = &fleet[0];
        let mut primary = tenant.db.clone();
        primary.detach_clock();
        let t0 = primary.clock().now();
        let mut ctx = FlightCtx {
            primary,
            model: tenant.model.clone(),
            runner: tenant.runner.clone(),
            t0,
            slices: Vec::new(),
            control: None,
            candidate: None,
            divergence: 0.0,
            samples: None,
            cleaned_forks: 0,
        };
        let run = driver.tenant_workflow(0).execute(&mut ctx);
        assert!(!run.succeeded(), "95% drops must trip the guard");
        let status = |name: &str| {
            run.statuses
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| s.clone())
                .unwrap()
        };
        assert!(matches!(status("divergence-guard"), StepStatus::Failed(_)));
        assert_eq!(status("fork-control"), StepStatus::CleanedUp);
        assert_eq!(status("fork-candidate"), StepStatus::CleanedUp);
        assert_eq!(status("measure"), StepStatus::Pending);
        assert!(ctx.control.is_none() && ctx.candidate.is_none());
        assert_eq!(ctx.cleaned_forks, 2, "both forks torn down");
        let verdict = driver.verdict_from_ctx(&ctx, &run);
        assert_eq!(verdict.verdict, TenantVerdict::Discarded);

        // End-to-end: the discarded tenant yields no evidence → abort.
        let report = driver.run(&fleet, 1);
        assert_eq!(report.discarded, 1);
        assert_eq!(report.decision, FlightDecision::Abort);
        assert_eq!(report.record.state, FlightState::Aborted);
    }

    #[test]
    fn verdict_rules_hand_checked() {
        let s = |total: f64, var: f64| CostSample {
            total,
            variance: var,
            df: 30.0,
            queries: 5,
        };
        // Candidate much cheaper: improved.
        let (v, p) = tenant_verdict(&s(1000.0, 100.0), &s(800.0, 100.0), 0.05, 0.05);
        assert_eq!(v, TenantVerdict::Improved);
        assert!(p.unwrap() > 0.95);
        // Candidate much costlier: regressed.
        let (v, p) = tenant_verdict(&s(800.0, 100.0), &s(1000.0, 100.0), 0.05, 0.05);
        assert_eq!(v, TenantVerdict::Regressed);
        assert!(p.unwrap() < 0.05);
        // Significant but below the practical margin: wash.
        let (v, _) = tenant_verdict(&s(1000.0, 1.0), &s(990.0, 1.0), 0.05, 0.05);
        assert_eq!(v, TenantVerdict::Wash);
        // Incomparable (zero variance): wash, no p.
        let (v, p) = tenant_verdict(&s(1000.0, 0.0), &s(500.0, 0.0), 0.05, 0.05);
        assert_eq!(v, TenantVerdict::Wash);
        assert!(p.is_none());
    }

    #[test]
    fn region_rule_ship_iff_improvement_and_no_regression() {
        use TenantVerdict::*;
        let d = |vs: &[TenantVerdict]| region_decision(vs.iter());
        assert_eq!(d(&[Improved]), FlightDecision::Ship);
        assert_eq!(d(&[Improved, Wash, Discarded]), FlightDecision::Ship);
        assert_eq!(d(&[Improved, Regressed]), FlightDecision::Abort);
        assert_eq!(d(&[Wash, Wash]), FlightDecision::Abort);
        assert_eq!(d(&[]), FlightDecision::Abort);
        assert_eq!(d(&[Regressed]), FlightDecision::Abort);
    }

    #[test]
    fn resume_skips_journaled_verdicts_and_terminal_flights_return() {
        let fleet = small_fleet(4, 21);
        let driver = FlightDriver::new(quick_config());
        let mut store = StateStore::new();
        let first = driver.run_with_store(&fleet, &mut store, 1);
        let writes_after = store.journal_writes();
        // Terminal record: a resumed run must not recompute or journal.
        let second = driver.run_with_store(&fleet, &mut store, 1);
        assert_eq!(first.canonical_string(), second.canonical_string());
        assert_eq!(store.journal_writes(), writes_after);
        assert_eq!(second.decision, first.decision);
        assert_eq!(second.record.verdicts.len(), first.record.verdicts.len());
    }

    #[test]
    fn crash_recovery_preserves_flight_frames() {
        let fleet = small_fleet(3, 9);
        let driver = FlightDriver::new(quick_config());
        let mut store = StateStore::new();
        let report = driver.run_with_store(&fleet, &mut store, 1);
        let before = store.flight(&driver.config.id).cloned();
        store.crash_and_recover();
        assert_eq!(store.flight(&driver.config.id).cloned(), before);
        let resumed = driver.run_with_store(&fleet, &mut store, 1);
        assert_eq!(report.canonical_string(), resumed.canonical_string());
    }

    #[test]
    fn dashboard_flight_block_renders() {
        let fleet = small_fleet(3, 13);
        let driver = FlightDriver::new(quick_config());
        let report = driver.run(&fleet, 1);
        let dash = report.dashboard();
        let rendered = dash.render();
        assert!(rendered.contains("flight (\u{a7}7 policy A/B)"));
        assert!(rendered.contains("cohort tenants"));
        assert!(rendered.contains(report.verdict_label()));
        // The snapshot's serde surface writes JSON that parses and prints back.
        let json = serde_json::to_string(&dash).unwrap();
        let parsed: serde::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&parsed).unwrap(), json);
    }
}
