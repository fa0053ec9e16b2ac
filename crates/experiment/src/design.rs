//! The Figure-6 experiment design (§7.3): phased A/B comparison of the
//! MI recommender, the DTA recommender, and emulated user tuning, on a
//! B-instance of each candidate database.
//!
//! Phases (each collecting execution statistics for "more than a day"):
//!
//! 1. **Setup** — create a B-instance; identify the `N` most beneficial
//!    existing user indexes; drop a random `k` of them (the emulated
//!    pre-user-tuning state). `N = 20, k = 5` in the paper.
//! 2. **Baseline** — run the replayed workload on the dropped state; the
//!    MI DMV accumulates and is snapshotted throughout.
//! 3. **MI phase** — implement up to `k` MI recommendations, measure,
//!    revert.
//! 4. **DTA phase** — implement up to `k` DTA recommendations, measure,
//!    revert.
//! 5. **User phase** — re-create the dropped user indexes, measure.
//! 6. **Analysis** — fixed-execution-count workload costs per phase;
//!    Welch comparisons decide the winner (or Comparable).
//!
//! The workflow engine (§7.2) drives the steps; a failure at any step
//! triggers reverse cleanup so the B-instance never leaks state into a
//! subsequent experiment.

use crate::analysis::{determine_winner, workload_cost_fixed_counts, Winner, WinnerAnalysis};
use crate::binstance::{create_b_instance, divergence_between};
use crate::user_emulation::select_user_tuning;
use crate::workflow::{FnStep, Workflow, WorkflowRun};
use autoindex::classifier::ImpactClassifier;
use autoindex::dta::{tune, DtaConfig};
use autoindex::mi::{recommend as mi_recommend, MiConfig, MiSnapshotStore};
use autoindex::RecoAction;
use sqlmini::clock::{Duration, Timestamp};
use sqlmini::engine::Database;
use sqlmini::querystore::Metric;
use sqlmini::schema::{IndexDef, IndexId};
use std::collections::BTreeMap;
use workload::{Tenant, WorkloadModel, WorkloadRunner};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Top-N beneficial user indexes considered (paper: 20).
    pub n_user_indexes: usize,
    /// Random subset dropped / recommenders' budget (paper: 5).
    pub k: usize,
    /// Length of each measurement phase (paper: "more than a day").
    pub phase_duration: Duration,
    pub alpha: f64,
    /// Practical-significance margin: a winner must beat the others by at
    /// least this fraction of the baseline workload cost.
    pub margin: f64,
    pub seed: u64,
    pub mi: MiConfig,
    pub dta: DtaConfig,
}

impl Default for ExperimentConfig {
    fn default() -> ExperimentConfig {
        ExperimentConfig {
            n_user_indexes: 20,
            k: 5,
            phase_duration: Duration::from_hours(26),
            alpha: 0.05,
            margin: 0.05,
            seed: 0,
            mi: MiConfig::default(),
            dta: DtaConfig::default(),
        }
    }
}

/// Outcome of one database's experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// None when the experiment was infeasible (e.g. no user indexes).
    pub analysis: Option<WinnerAnalysis>,
    pub run: WorkflowRun,
    /// Phase measurement windows by name.
    pub windows: BTreeMap<String, (Timestamp, Timestamp)>,
    #[cfg(test)]
    dropped_user_indexes: usize,
    /// Row-count divergence of the B-instance vs the primary at the end.
    pub divergence: f64,
}

impl ExperimentOutcome {
    pub fn winner(&self) -> Winner {
        self.analysis
            .as_ref()
            .map(|a| a.winner)
            .unwrap_or(Winner::Comparable)
    }
}

/// Context shared by the workflow steps.
struct ExpCtx {
    b: Database,
    model: WorkloadModel,
    runner: WorkloadRunner,
    mi_store: MiSnapshotStore,
    cfg: ExperimentConfig,
    /// Dropped user-index definitions (to re-create in the User phase).
    dropped: Vec<IndexDef>,
    /// Indexes created by the current arm (reverted at arm end).
    arm_created: Vec<IndexId>,
    windows: BTreeMap<String, (Timestamp, Timestamp)>,
    analysis: Option<WinnerAnalysis>,
}

impl ExpCtx {
    /// Run one measurement phase: align to a Query Store interval
    /// boundary, run the workload in hour slices (snapshotting the MI DMV
    /// each slice), and record the window.
    fn run_phase(&mut self, name: &str) {
        let aligned = self.b.query_store().align_up(self.b.clock().now());
        self.b.clock().advance_to(aligned);
        let start = self.b.clock().now();
        let hours = (self.cfg.phase_duration.millis() / 3_600_000).max(1);
        for _ in 0..hours {
            self.runner
                .run(&mut self.b, &self.model.clone(), Duration::from_hours(1));
            self.mi_store.take_snapshot(&self.b);
        }
        let end = self.b.clock().now();
        self.windows.insert(name.to_string(), (start, end));
    }

    fn revert_arm(&mut self) {
        for id in std::mem::take(&mut self.arm_created) {
            let _ = self.b.drop_index(id);
        }
    }
}

/// Run the full phased experiment for one tenant. The tenant's primary
/// database is untouched; everything happens on a B-instance.
pub fn run_phased_experiment(tenant: &Tenant, cfg: &ExperimentConfig) -> ExperimentOutcome {
    let mut ctx = ExpCtx {
        b: create_b_instance(&tenant.db, cfg.seed ^ 0xB),
        model: tenant.model.clone(),
        runner: WorkloadRunner::new(cfg.seed ^ 0xE),
        mi_store: MiSnapshotStore::new(),
        cfg: cfg.clone(),
        dropped: Vec::new(),
        arm_created: Vec::new(),
        windows: BTreeMap::new(),
        analysis: None,
    };

    let n = cfg.n_user_indexes;
    let k = cfg.k;
    let seed = cfg.seed;
    let alpha = cfg.alpha;
    let margin = cfg.margin;

    let mut wf: Workflow<ExpCtx> = Workflow::default()
        .step(FnStep::new("drop-user-indexes", move |ctx: &mut ExpCtx| {
            let picked = select_user_tuning(&ctx.b, n, k, seed);
            if picked.is_empty() {
                return Err("no user indexes to emulate tuning with".into());
            }
            for (id, def) in picked {
                ctx.b
                    .drop_index(id)
                    .map_err(|e| format!("drop {}: {e}", def.name))?;
                ctx.dropped.push(def);
            }
            Ok(())
        }))
        .step(FnStep::new("baseline-phase", |ctx: &mut ExpCtx| {
            ctx.run_phase("baseline");
            Ok(())
        }))
        .step(
            FnStep::new("mi-phase", |ctx: &mut ExpCtx| {
                let mut mi_cfg = ctx.cfg.mi.clone();
                mi_cfg.max_recommendations = ctx.cfg.k;
                let analysis =
                    mi_recommend(&ctx.b, &ctx.mi_store, &mi_cfg, &ImpactClassifier::default());
                for r in &analysis.recommendations {
                    if let RecoAction::CreateIndex { def } = &r.action {
                        if let Ok((id, _)) = ctx.b.create_index(def.clone()) {
                            ctx.arm_created.push(id);
                        }
                    }
                }
                ctx.run_phase("mi");
                ctx.revert_arm();
                Ok(())
            })
            .with_cleanup(|ctx: &mut ExpCtx| ctx.revert_arm()),
        )
        .step(
            FnStep::new("dta-phase", |ctx: &mut ExpCtx| {
                let mut dta_cfg = ctx.cfg.dta.clone();
                dta_cfg.max_indexes = ctx.cfg.k;
                // The tuning window must reach back to the baseline phase,
                // whose executions carry the pre-index costs.
                dta_cfg.window = Duration(ctx.cfg.phase_duration.millis() * 3);
                let report = tune(&mut ctx.b, &dta_cfg);
                for r in &report.recommendations {
                    if let RecoAction::CreateIndex { def } = &r.action {
                        if let Ok((id, _)) = ctx.b.create_index(def.clone()) {
                            ctx.arm_created.push(id);
                        }
                    }
                }
                ctx.run_phase("dta");
                ctx.revert_arm();
                Ok(())
            })
            .with_cleanup(|ctx: &mut ExpCtx| ctx.revert_arm()),
        )
        .step(FnStep::new("user-phase", |ctx: &mut ExpCtx| {
            for def in ctx.dropped.clone() {
                if let Ok((id, _)) = ctx.b.create_index(def) {
                    ctx.arm_created.push(id);
                }
            }
            ctx.run_phase("user");
            // The user's indexes stay (they were the original state).
            ctx.arm_created.clear();
            Ok(())
        }))
        .step(FnStep::new("analyze", move |ctx: &mut ExpCtx| {
            let get = |ctx: &ExpCtx, name: &str| {
                ctx.windows
                    .get(name)
                    .copied()
                    .ok_or_else(|| format!("missing window {name}"))
            };
            let base_w = get(ctx, "baseline")?;
            let cost =
                |ctx: &ExpCtx, w| workload_cost_fixed_counts(&ctx.b, Metric::CpuTime, base_w, w);
            let baseline = cost(ctx, base_w);
            let user = cost(ctx, get(ctx, "user")?);
            let mi = cost(ctx, get(ctx, "mi")?);
            let dta = cost(ctx, get(ctx, "dta")?);
            ctx.analysis = Some(determine_winner(&baseline, &user, &mi, &dta, alpha, margin));
            Ok(())
        }));

    let run = wf.execute(&mut ctx);

    // End-of-experiment divergence (writes during phases diverge B).
    let divergence = divergence_between(&tenant.db, &ctx.b).max_relative();

    ExperimentOutcome {
        analysis: ctx.analysis,
        run,
        windows: ctx.windows,
        #[cfg(test)]
        dropped_user_indexes: ctx.dropped.len(),
        divergence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlmini::engine::ServiceTier;
    use workload::{generate_tenant, TenantConfig};

    fn tenant(seed: u64) -> Tenant {
        let mut cfg = TenantConfig::new(format!("exp{seed}"), seed, ServiceTier::Standard);
        cfg.schema.min_tables = 2;
        cfg.schema.max_tables = 3;
        cfg.schema.min_rows = 3_000;
        cfg.schema.max_rows = 8_000;
        cfg.workload.base_rate_per_hour = 200.0;
        cfg.user_indexes.n_useful = 3;
        generate_tenant(&cfg)
    }

    fn quick_cfg(seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            n_user_indexes: 5,
            k: 3,
            phase_duration: Duration::from_hours(8),
            seed,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn experiment_completes_with_all_windows() {
        let mut t = tenant(1);
        // Warm usage stats so user-index selection has signal.
        t.runner.run(&mut t.db, &t.model, Duration::from_hours(4));
        let out = run_phased_experiment(&t, &quick_cfg(1));
        assert!(out.run.succeeded(), "{}", out.run);
        for w in ["baseline", "mi", "dta", "user"] {
            assert!(out.windows.contains_key(w), "missing window {w}");
        }
        assert!(out.dropped_user_indexes >= 1);
        let a = out.analysis.as_ref().expect("analysis present");
        // The user's indexes were genuinely useful, so re-creating them
        // must not make things dramatically worse.
        assert!(a.user_improvement > -0.5, "{a:?}");
        // Primary untouched.
        assert!(t.db.catalog().n_indexes() > 0);
    }

    #[test]
    fn primary_is_never_modified() {
        let mut t = tenant(2);
        t.runner.run(&mut t.db, &t.model, Duration::from_hours(4));
        let idx_before: Vec<String> =
            t.db.catalog()
                .indexes()
                .map(|(_, d)| d.name.clone())
                .collect();
        let rows_before: Vec<u64> = t.table_ids.iter().map(|&x| t.db.table_rows(x)).collect();
        let _ = run_phased_experiment(&t, &quick_cfg(2));
        let idx_after: Vec<String> =
            t.db.catalog()
                .indexes()
                .map(|(_, d)| d.name.clone())
                .collect();
        let rows_after: Vec<u64> = t.table_ids.iter().map(|&x| t.db.table_rows(x)).collect();
        assert_eq!(idx_before, idx_after);
        assert_eq!(rows_before, rows_after);
    }

    #[test]
    fn infeasible_without_user_indexes() {
        let mut cfg = TenantConfig::new("bare", 3, ServiceTier::Basic);
        cfg.user_indexes.n_useful = 0;
        cfg.user_indexes.n_duplicate = 0;
        cfg.user_indexes.n_unused = 0;
        let t = generate_tenant(&cfg);
        let out = run_phased_experiment(&t, &quick_cfg(3));
        assert!(!out.run.succeeded());
        assert!(out.analysis.is_none());
        assert_eq!(out.dropped_user_indexes, 0);
    }

    #[test]
    fn automated_arms_find_improvements() {
        let mut t = tenant(4);
        t.runner.run(&mut t.db, &t.model, Duration::from_hours(4));
        let out = run_phased_experiment(&t, &quick_cfg(4));
        assert!(out.run.succeeded(), "{}", out.run);
        let a = out.analysis.unwrap();
        // At least one automated arm should improve over the dropped
        // baseline (the dropped indexes were useful).
        assert!(
            a.mi_improvement > 0.0 || a.dta_improvement > 0.0,
            "MI {:.3} DTA {:.3}",
            a.mi_improvement,
            a.dta_improvement
        );
    }
}
