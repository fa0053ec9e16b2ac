//! Shared helpers for the figure/table harnesses, the examples and the
//! cross-crate tests. Nothing here times anything, and no harness bin
//! prints a rate: measurements live in `benchmark/`.

use sqlmini::engine::ServiceTier;
use std::collections::BTreeMap;
use std::str::FromStr;
use workload::fleet::{generate_tenant, FleetSpec, Tenant, UserIndexPolicy};
use workload::TenantConfig;

/// Minimal `--key value` argument parsing (no external CLI crates).
pub struct Args {
    map: BTreeMap<String, String>,
}

impl Args {
    pub fn parse() -> Args {
        Self::from_iter(std::env::args().skip(1))
    }

    #[allow(clippy::should_implement_trait)]
    fn from_iter(iter: impl IntoIterator<Item = String>) -> Args {
        let mut map = BTreeMap::new();
        let argv: Vec<String> = iter.into_iter().collect();
        let mut i = 0;
        while i < argv.len() {
            if let Some(key) = argv[i].strip_prefix("--") {
                if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    map.insert(key.to_string(), argv[i + 1].clone());
                    i += 2;
                } else {
                    map.insert(key.to_string(), "true".to_string());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        Args { map }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    /// The value of `--key` parsed as `T`, or `default` when the flag is
    /// absent. A value that does not parse panics and names the flag: a
    /// typo must not silently run with the default.
    pub fn get_or<T: FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("--{key}: cannot parse {v:?}")),
        }
    }

    pub fn get_str<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    pub fn has(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }
}

/// Tenant presets sized for harness runs (smaller/faster than the library
/// defaults but preserving tier relationships).
pub fn harness_tenant(name: String, seed: u64, tier: ServiceTier) -> TenantConfig {
    let mut cfg = TenantConfig::new(name, seed, tier);
    match tier {
        ServiceTier::Basic => {
            cfg.schema.min_rows = 1_000;
            cfg.schema.max_rows = 4_000;
            cfg.workload.base_rate_per_hour = 50.0;
            cfg.workload.write_fraction = 0.12;
        }
        ServiceTier::Standard => {
            cfg.db.cpu_noise_sigma = 0.25;
            cfg.schema.min_tables = 2;
            cfg.schema.max_tables = 4;
            cfg.schema.min_rows = 2_000;
            cfg.schema.max_rows = 10_000;
            cfg.workload.base_rate_per_hour = 150.0;
            cfg.workload.write_fraction = 0.12;
        }
        ServiceTier::Premium => {
            cfg.db.cpu_noise_sigma = 0.20;
            cfg.schema.min_tables = 3;
            cfg.schema.max_tables = 5;
            cfg.schema.min_rows = 5_000;
            cfg.schema.max_rows = 15_000;
            cfg.workload.base_rate_per_hour = 250.0;
            cfg.workload.reads_per_table = 6;
            cfg.workload.write_fraction = 0.12;
        }
    }
    cfg
}

/// A mostly-idle fleet for scheduler tests and million-tenant region
/// runs, as a lazily-hydratable [`FleetSpec`]: `active_pct` of
/// the tenants run the Basic-tier harness workload; the rest are
/// *provably* idle — no statements, no user indexes (so the drop
/// analyzer finds nothing and no validation window ever opens), a
/// one-table schema. Which tenants are active is a pure hash of the
/// global fleet index, so every tenant is a pure function of
/// `(n, active_pct, seed, index)` — the property that lets a sharded
/// region driver hydrate any slice of the fleet, in any order, and get
/// byte-identical tenants to a full materialization.
#[derive(Debug, Clone)]
pub struct SparseFleetSpec {
    n: usize,
    active_pct: f64,
    seed: u64,
}

impl SparseFleetSpec {
    pub fn new(n: usize, active_pct: f64, seed: u64) -> SparseFleetSpec {
        SparseFleetSpec {
            n,
            active_pct,
            seed,
        }
    }

    /// The per-index hash that decides active-vs-idle: the fleet
    /// driver's index stream salted with the spec's seed.
    fn index_hash(&self, i: usize) -> u64 {
        controlplane::index_hash_bits(i, self.seed)
    }

    /// Is tenant `i` one of the active minority?
    fn is_active(&self, i: usize) -> bool {
        (self.index_hash(i) % 10_000) as f64 / 10_000.0 < self.active_pct
    }
}

impl FleetSpec for SparseFleetSpec {
    fn len(&self) -> usize {
        self.n
    }

    fn hydrate(&self, i: usize) -> Tenant {
        let s = self.index_hash(i);
        let active = self.is_active(i);
        let mut cfg = if active {
            harness_tenant(format!("sf{i:05}"), s, ServiceTier::Basic)
        } else {
            let mut cfg = TenantConfig::new(format!("sf{i:05}"), s, ServiceTier::Basic);
            cfg.schema.min_tables = 1;
            cfg.schema.max_tables = 1;
            cfg.schema.min_rows = 50;
            cfg.schema.max_rows = 100;
            cfg.workload.base_rate_per_hour = 0.0;
            cfg.workload.reads_per_table = 0;
            cfg.workload.write_fraction = 0.0;
            cfg.workload.with_joins = false;
            cfg.workload.with_report = false;
            cfg
        };
        if !active {
            cfg.user_indexes = UserIndexPolicy {
                n_useful: 0,
                n_duplicate: 0,
                n_unused: 0,
                hint_prob: 0.0,
            };
        }
        let mut t = generate_tenant(&cfg);
        if !active {
            t.model.templates.clear();
        }
        t
    }
}

/// Eagerly materialize a [`SparseFleetSpec`], for unsharded
/// `FleetDriver::run` callers that want the whole fleet resident.
pub fn sparse_fleet(n: usize, active_pct: f64, seed: u64) -> Vec<Tenant> {
    SparseFleetSpec::new(n, active_pct, seed).materialize()
}

/// Render a labelled percentage bar (terminal pie-chart stand-in).
pub fn render_share(label: &str, pct: f64, width: usize) -> String {
    let filled = ((pct / 100.0) * width as f64).round() as usize;
    let bar: String = "#".repeat(filled.min(width));
    format!("{label:>12} {pct:5.1}%  {bar}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parsing() {
        let a = Args::from_iter(
            ["--tier", "premium", "--databases", "30", "--verbose"]
                .into_iter()
                .map(String::from),
        );
        assert_eq!(a.get_str("tier", "standard"), "premium");
        assert_eq!(a.get_or::<usize>("databases", 10), 30);
        assert_eq!(a.get_or::<f64>("databases", 1.5), 30.0);
        assert!(a.has("verbose"));
        assert_eq!(a.get_or::<u64>("missing", 7), 7);
    }

    #[test]
    #[should_panic(expected = "--databases")]
    fn args_reject_an_unparsable_value() {
        let a = Args::from_iter(["--databases", "2O"].into_iter().map(String::from));
        a.get_or::<usize>("databases", 3);
    }

    #[test]
    fn share_bar_renders() {
        let s = render_share("DTA", 50.0, 20);
        assert!(s.contains("50.0%"));
        assert!(s.contains("##########"));
    }
}
