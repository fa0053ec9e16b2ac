//! Tenant and fleet generation.
//!
//! A *tenant* is one database: generated schema, loaded data, statistics,
//! a set of pre-existing user indexes (some genuinely useful, some
//! duplicated, some unused — the situation §5.4's drop analysis targets),
//! and a workload model. A *fleet* is many tenants across service tiers,
//! the population the paper's experiments sample from.

use crate::gen::{generate_schema, SchemaGenConfig};
use crate::model::{generate_workload, WorkloadGenConfig, WorkloadModel};
use crate::runner::WorkloadRunner;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlmini::clock::SimClock;
use sqlmini::engine::{Database, DbConfig, ServiceTier};
use sqlmini::query::Statement;
use sqlmini::schema::{ColumnId, IndexDef, IndexOrigin, TableId};

/// How many pre-existing user indexes a tenant gets.
#[derive(Debug, Clone, Copy)]
pub struct UserIndexPolicy {
    /// Indexes matched to actual query templates (the user tuned these).
    pub n_useful: usize,
    /// Exact-duplicate indexes (same keys, different name).
    pub n_duplicate: usize,
    /// Indexes on columns no query filters by (pure maintenance cost).
    pub n_unused: usize,
    /// Probability a useful index is referenced by a query hint.
    pub hint_prob: f64,
}

impl Default for UserIndexPolicy {
    fn default() -> UserIndexPolicy {
        UserIndexPolicy {
            n_useful: 3,
            n_duplicate: 1,
            n_unused: 1,
            hint_prob: 0.1,
        }
    }
}

/// Everything needed to generate one tenant.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    pub name: String,
    seed: u64,
    pub tier: ServiceTier,
    pub schema: SchemaGenConfig,
    pub workload: WorkloadGenConfig,
    pub user_indexes: UserIndexPolicy,
    pub db: DbConfig,
}

impl TenantConfig {
    /// Tier-appropriate defaults: premium tenants are bigger and more
    /// complex; basic tenants are small and simple.
    pub fn new(name: impl Into<String>, seed: u64, tier: ServiceTier) -> TenantConfig {
        let (schema, workload) = match tier {
            ServiceTier::Basic => (
                SchemaGenConfig {
                    min_tables: 1,
                    max_tables: 3,
                    min_columns: 3,
                    max_columns: 6,
                    min_rows: 500,
                    max_rows: 5_000,
                    ..SchemaGenConfig::default()
                },
                WorkloadGenConfig {
                    reads_per_table: 2,
                    with_joins: false,
                    with_report: false,
                    base_rate_per_hour: 60.0,
                    ..WorkloadGenConfig::default()
                },
            ),
            ServiceTier::Standard => (SchemaGenConfig::default(), WorkloadGenConfig::default()),
            ServiceTier::Premium => (
                SchemaGenConfig {
                    min_tables: 4,
                    max_tables: 8,
                    min_columns: 6,
                    max_columns: 12,
                    min_rows: 10_000,
                    max_rows: 60_000,
                    correlation_prob: 0.2,
                },
                WorkloadGenConfig {
                    reads_per_table: 6,
                    base_rate_per_hour: 2_000.0,
                    ..WorkloadGenConfig::default()
                },
            ),
        };
        let mut db = DbConfig {
            tier,
            ..DbConfig::default()
        };
        db.seed = seed;
        TenantConfig {
            name: name.into(),
            seed,
            tier,
            schema,
            workload,
            user_indexes: UserIndexPolicy::default(),
            db,
        }
    }
}

/// A generated tenant: live database + workload.
#[derive(Debug, Clone)]
pub struct Tenant {
    pub name: String,
    pub tier: ServiceTier,
    pub db: Database,
    pub model: WorkloadModel,
    pub table_ids: Vec<TableId>,
    pub runner: WorkloadRunner,
}

/// Generate one tenant.
pub fn generate_tenant(cfg: &TenantConfig) -> Tenant {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x54454e414e54);
    let clock = SimClock::new();
    let mut db = Database::new(cfg.name.clone(), cfg.db.clone(), clock);

    let specs = generate_schema(&cfg.schema, cfg.seed);
    let mut table_ids = Vec::with_capacity(specs.len());
    for spec in &specs {
        let tid = db.create_table(spec.to_table_def()).expect("fresh table");
        db.load_columns(tid, spec.generate_columns(&mut rng));
        db.rebuild_stats(tid);
        table_ids.push(tid);
    }

    let model = generate_workload(&specs, &table_ids, &cfg.workload, cfg.seed);

    create_user_indexes(&mut db, &model, &cfg.user_indexes, &mut rng);

    Tenant {
        name: cfg.name.clone(),
        tier: cfg.tier,
        db,
        model,
        table_ids,
        runner: WorkloadRunner::new(cfg.seed ^ 0xABCD),
    }
}

/// Create the tenant's pre-existing user indexes: useful ones derived from
/// actual templates, plus duplicates and dead weight.
fn create_user_indexes(
    db: &mut Database,
    model: &WorkloadModel,
    policy: &UserIndexPolicy,
    rng: &mut StdRng,
) {
    let mut created: Vec<IndexDef> = Vec::new();
    let mut counter = 0usize;

    // Useful: derive from read templates with equality predicates.
    let mut candidates: Vec<(TableId, Vec<ColumnId>, Vec<ColumnId>)> = Vec::new();
    for t in &model.templates {
        if t.kind.is_write() {
            continue;
        }
        if let Statement::Select(q) = &t.template.statement {
            let eq_cols: Vec<ColumnId> = q
                .predicates
                .iter()
                .filter(|p| p.op.is_equality())
                .map(|p| p.column)
                .collect();
            if eq_cols.is_empty() {
                continue;
            }
            let includes: Vec<ColumnId> = q
                .needed_columns()
                .into_iter()
                .filter(|c| !eq_cols.contains(c))
                .collect();
            candidates.push((q.table, eq_cols, includes));
        }
    }
    // Deterministic shuffle.
    for i in (1..candidates.len()).rev() {
        let j = rng.random_range(0..=i);
        candidates.swap(i, j);
    }
    for (table, keys, includes) in candidates.into_iter().take(policy.n_useful) {
        let name = format!("usr_ix_{counter}");
        counter += 1;
        let mut def = IndexDef::new(name, table, keys, includes).with_origin(IndexOrigin::User);
        if rng.random::<f64>() < policy.hint_prob {
            def = def.hinted();
        }
        if db.create_index(def.clone()).is_ok() {
            created.push(def);
        }
    }

    // Duplicates of already-created useful indexes.
    for i in 0..policy.n_duplicate {
        if created.is_empty() {
            break;
        }
        let base = &created[rng.random_range(0..created.len())];
        let def = IndexDef::new(
            format!("usr_dup_{i}"),
            base.table,
            base.key_columns.clone(),
            vec![],
        )
        .with_origin(IndexOrigin::User);
        let _ = db.create_index(def);
    }

    // Unused: index a column no template filters on — approximate by
    // picking the last column of each table (rarely a filter target).
    let tables: Vec<(TableId, u32)> = db
        .catalog()
        .tables()
        .map(|(t, d)| (t, d.columns.len() as u32))
        .collect();
    for i in 0..policy.n_unused {
        let (t, ncols) = tables[rng.random_range(0..tables.len())];
        let col = ColumnId(ncols - 1);
        let def = IndexDef::new(format!("usr_unused_{i}"), t, vec![col], vec![])
            .with_origin(IndexOrigin::User);
        let _ = db.create_index(def);
    }
}

/// Tier mix for fleet generation (fractions must sum to ~1).
#[derive(Debug, Clone, Copy)]
pub struct TierMix {
    pub basic: f64,
    pub standard: f64,
    pub premium: f64,
}

impl Default for TierMix {
    fn default() -> TierMix {
        TierMix {
            basic: 0.3,
            standard: 0.5,
            premium: 0.2,
        }
    }
}

/// A fleet whose tenants are pure functions of their *global index*.
///
/// A million-tenant fleet cannot be a `Vec<Tenant>` — materializing it
/// would pin every database in memory at once. A `FleetSpec` is the
/// recipe instead: `hydrate(i)` constructs tenant `i` on demand (and the
/// caller drops it when done), so a sharded driver can stream through a
/// fleet with only the tenants it is actively driving resident.
///
/// The contract that makes lazy hydration sound: `hydrate(i)` must
/// depend only on `(self, i)` — no shared RNG sequence, no
/// neighbor-dependent state — so hydrating any subset, in any order, on
/// any thread yields the same tenants a full `materialize()` would.
/// `Sync` is required because shard workers hydrate concurrently.
pub trait FleetSpec: Sync {
    /// Fleet size (global indices are `0..len()`).
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Construct tenant `index`. Pure in `(self, index)`.
    fn hydrate(&self, index: usize) -> Tenant;

    /// Hydrate the whole fleet eagerly — the small-fleet / oracle path.
    fn materialize(&self) -> Vec<Tenant> {
        (0..self.len()).map(|i| self.hydrate(i)).collect()
    }
}

/// The classic mixed-tier fleet as a [`FleetSpec`].
///
/// [`generate_fleet`] historically drew each tenant's tier from one
/// sequential `StdRng` stream, which cannot be random-accessed. The spec
/// precomputes those draws at construction (one `u64`-sized decision per
/// tenant), after which `hydrate(i)` is pure per-index and byte-identical
/// to the `generate_fleet` tenant at position `i`.
#[derive(Debug, Clone)]
pub struct MixedFleetSpec {
    seed: u64,
    tiers: Vec<ServiceTier>,
}

impl MixedFleetSpec {
    pub fn new(n: usize, mix: TierMix, seed: u64) -> MixedFleetSpec {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x464c454554);
        let tiers = (0..n)
            .map(|_| {
                let r: f64 = rng.random();
                if r < mix.basic {
                    ServiceTier::Basic
                } else if r < mix.basic + mix.standard {
                    ServiceTier::Standard
                } else {
                    ServiceTier::Premium
                }
            })
            .collect();
        MixedFleetSpec { seed, tiers }
    }
}

impl FleetSpec for MixedFleetSpec {
    fn len(&self) -> usize {
        self.tiers.len()
    }

    fn hydrate(&self, index: usize) -> Tenant {
        let tenant_seed = self
            .seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(index as u64);
        generate_tenant(&TenantConfig::new(
            format!("db{index:04}"),
            tenant_seed,
            self.tiers[index],
        ))
    }
}

/// Generate a fleet of `n` tenants with the given tier mix.
pub fn generate_fleet(n: usize, mix: TierMix, seed: u64) -> Vec<Tenant> {
    MixedFleetSpec::new(n, mix, seed).materialize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_generation_loads_data_and_indexes() {
        let cfg = TenantConfig::new("t0", 7, ServiceTier::Standard);
        let t = generate_tenant(&cfg);
        assert!(!t.table_ids.is_empty());
        let specs = generate_schema(&cfg.schema, cfg.seed);
        for (&tid, spec) in t.table_ids.iter().zip(&specs) {
            assert_eq!(t.db.table_rows(tid), spec.rows);
        }
        assert!(t.db.catalog().n_indexes() >= 2, "user indexes created");
        assert!(!t.model.templates.is_empty());
    }

    #[test]
    fn tenant_deterministic() {
        let cfg = TenantConfig::new("t0", 11, ServiceTier::Standard);
        let a = generate_tenant(&cfg);
        let b = generate_tenant(&cfg);
        assert_eq!(a.db.catalog().n_indexes(), b.db.catalog().n_indexes());
        assert_eq!(a.db.storage_bytes(), b.db.storage_bytes());
        assert_eq!(a.model.templates.len(), b.model.templates.len());
    }

    #[test]
    fn tiers_scale_size() {
        let basic = generate_tenant(&TenantConfig::new("b", 3, ServiceTier::Basic));
        let prem = generate_tenant(&TenantConfig::new("p", 3, ServiceTier::Premium));
        let basic_rows: u64 = basic
            .table_ids
            .iter()
            .map(|&t| basic.db.table_rows(t))
            .sum();
        let prem_rows: u64 = prem.table_ids.iter().map(|&t| prem.db.table_rows(t)).sum();
        assert!(
            prem_rows > basic_rows * 2,
            "premium {prem_rows} vs basic {basic_rows}"
        );
        assert!(prem.model.templates.len() >= basic.model.templates.len());
    }

    #[test]
    fn mixed_spec_hydrates_identically_to_generate_fleet() {
        let spec = MixedFleetSpec::new(8, TierMix::default(), 13);
        let eager = generate_fleet(8, TierMix::default(), 13);
        assert_eq!(spec.len(), eager.len());
        // Hydrate out of order: per-index purity must hold anyway.
        for i in [5usize, 0, 7, 2] {
            let lazy = spec.hydrate(i);
            assert_eq!(lazy.name, eager[i].name);
            assert_eq!(lazy.tier, eager[i].tier);
            assert_eq!(
                lazy.db.catalog().n_indexes(),
                eager[i].db.catalog().n_indexes()
            );
            assert_eq!(lazy.db.storage_bytes(), eager[i].db.storage_bytes());
            assert_eq!(lazy.model.templates.len(), eager[i].model.templates.len());
        }
    }

    #[test]
    fn fleet_mix_roughly_respected() {
        let fleet = generate_fleet(24, TierMix::default(), 1);
        assert_eq!(fleet.len(), 24);
        let premium = fleet
            .iter()
            .filter(|t| t.tier == ServiceTier::Premium)
            .count();
        assert!((1..15).contains(&premium), "premium count {premium}");
        // Names unique.
        let mut names: Vec<&str> = fleet.iter().map(|t| t.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 24);
    }

    #[test]
    fn duplicate_indexes_exist() {
        // With the default policy some tenant must have a duplicate pair.
        let t = generate_tenant(&TenantConfig::new("d", 5, ServiceTier::Standard));
        let defs: Vec<_> = t.db.catalog().indexes().map(|(_, d)| d.clone()).collect();
        let has_dup = defs
            .iter()
            .enumerate()
            .any(|(i, a)| defs.iter().skip(i + 1).any(|b| a.duplicate_of(b)));
        assert!(has_dup, "expected at least one duplicate index pair");
    }
}
