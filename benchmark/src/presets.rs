//! The benchmark's inputs: tenant shapes and fleet mixes, as plain data.
//!
//! The numbers are copies of `bench::harness_tenant` and
//! `bench::SparseFleetSpec` as of the commit that added the benchmark.
//! They live here, not in `crates/bench`, so that a later change cannot
//! alter the load by editing the harness crate. `adapter.rs` maps a
//! [`TenantShape`] onto the library's `TenantConfig`.

/// Service tier of a tenant (mapped to `sqlmini::engine::ServiceTier`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    Basic,
    Standard,
    Premium,
}

impl Tier {
    pub fn name(self) -> &'static str {
        match self {
            Tier::Basic => "basic",
            Tier::Standard => "standard",
            Tier::Premium => "premium",
        }
    }
}

/// Everything that distinguishes one generated tenant from another,
/// besides its name and seed. `None` keeps the library's tier default.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantShape {
    pub tier: Tier,
    pub tables: Option<(usize, usize)>,
    pub rows: (u64, u64),
    pub rate_per_hour: f64,
    pub write_fraction: f64,
    pub reads_per_table: Option<usize>,
    pub cpu_noise_sigma: Option<f64>,
    /// Provably idle: no templates, no user indexes, no joins or reports.
    pub idle: bool,
}

/// The harness preset of a tier (read-mostly, 12% writes).
pub fn tier_preset(tier: Tier) -> TenantShape {
    match tier {
        Tier::Basic => TenantShape {
            tier,
            tables: None,
            rows: (1_000, 4_000),
            rate_per_hour: 50.0,
            write_fraction: 0.12,
            reads_per_table: None,
            cpu_noise_sigma: None,
            idle: false,
        },
        Tier::Standard => TenantShape {
            tier,
            tables: Some((2, 4)),
            rows: (2_000, 10_000),
            rate_per_hour: 150.0,
            write_fraction: 0.12,
            reads_per_table: None,
            cpu_noise_sigma: Some(0.25),
            idle: false,
        },
        Tier::Premium => TenantShape {
            tier,
            tables: Some((3, 5)),
            rows: (5_000, 15_000),
            rate_per_hour: 250.0,
            write_fraction: 0.12,
            reads_per_table: Some(6),
            cpu_noise_sigma: Some(0.20),
            idle: false,
        },
    }
}

/// A provably idle tenant: one 50–100-row table and nothing to run.
pub fn idle_preset() -> TenantShape {
    TenantShape {
        tier: Tier::Basic,
        tables: Some((1, 1)),
        rows: (50, 100),
        rate_per_hour: 0.0,
        write_fraction: 0.0,
        reads_per_table: Some(0),
        cpu_noise_sigma: None,
        idle: true,
    }
}

/// Which tenants a fleet holds, as a function of the fleet index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// One tenant in every block of `one_in` consecutive indices runs the
    /// Basic preset, chosen by a hash of the seed and the block; the rest
    /// are provably idle. The active share is exact, so that throughput
    /// per tenant does not move with the seed's luck in drawing actives.
    MostlyIdle { one_in: usize },
    /// All active; tier by `index % 21`: 0 Premium, 1..=4 Standard, else
    /// Basic (4 P + 16 S + 64 B in 84).
    Tiered,
    /// Premium preset slowed to 20 statements/h, half of them writes.
    WriteHeavy,
    /// Basic preset slowed to 20 statements/h.
    SlowBasic,
}

/// Seed of the tenant population: which schema, data and templates the
/// tenant at a fleet index has.
///
/// It is a constant, not the run's seed. Per-tenant cost is heavy-tailed
/// (of 64 Basic tenants driven for 80 ticks, the median spent 27 ms
/// executing statements and the costliest 629 ms; eight of them carried
/// 54% of the fleet's statement time), so a fleet small enough to drive
/// in seconds changes throughput by a fifth or more when its shapes are
/// drawn again, far beyond any regression bound. The population is
/// therefore part of the workload's definition, as a schema is in TPC-C,
/// and the run's seed draws everything that executes against it.
pub const POPULATION_SEED: u64 = 42;

/// splitmix64 finalizer over a seed and an index.
fn mix64(seed: u64, i: usize) -> u64 {
    let mut s = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    s = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    s = (s ^ (s >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    s ^ (s >> 31)
}

/// One tenant of a fleet, before it is generated.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    pub name: String,
    /// Seeds schema, rows, templates and user indexes.
    pub shape_seed: u64,
    /// Seeds the statement stream (template sampling, parameter draws)
    /// and the engine's noise.
    pub stream_seed: u64,
    pub shape: TenantShape,
}

/// A fleet whose tenant `i` is a pure function of `(n, mix, seed, i)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Fleet {
    pub n: usize,
    pub mix: Mix,
    /// The run's seed: statement streams, engine noise and, in a
    /// mostly-idle fleet, which tenants are the active ones.
    pub seed: u64,
}

impl Fleet {
    pub fn tenant(&self, i: usize) -> TenantSpec {
        let shape = match self.mix {
            Mix::MostlyIdle { one_in } => {
                // Block hashes come from indices past the fleet's end, so
                // they share nothing with the tenants' own streams.
                let block = usize::MAX / 2 + i / one_in;
                if i % one_in == mix64(self.seed, block) as usize % one_in {
                    tier_preset(Tier::Basic)
                } else {
                    idle_preset()
                }
            }
            Mix::Tiered => tier_preset(match i % 21 {
                0 => Tier::Premium,
                1..=4 => Tier::Standard,
                _ => Tier::Basic,
            }),
            Mix::WriteHeavy => TenantShape {
                rate_per_hour: 20.0,
                write_fraction: 0.5,
                ..tier_preset(Tier::Premium)
            },
            Mix::SlowBasic => TenantShape {
                rate_per_hour: 20.0,
                ..tier_preset(Tier::Basic)
            },
        };
        TenantSpec {
            name: format!("bf{i:06}"),
            shape_seed: mix64(POPULATION_SEED, i),
            stream_seed: mix64(self.seed, i),
            shape,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiered_mix_is_4_16_64_in_84() {
        let fleet = Fleet {
            n: 84,
            mix: Mix::Tiered,
            seed: 42,
        };
        let mut counts = std::collections::BTreeMap::new();
        for i in 0..fleet.n {
            *counts.entry(fleet.tenant(i).shape.tier).or_insert(0usize) += 1;
        }
        assert_eq!(counts[&Tier::Premium], 4);
        assert_eq!(counts[&Tier::Standard], 16);
        assert_eq!(counts[&Tier::Basic], 64);
    }

    #[test]
    fn mostly_idle_share_is_exact_and_placement_moves_with_the_seed() {
        let actives = |seed: u64| -> Vec<usize> {
            let fleet = Fleet {
                n: 2_000,
                mix: Mix::MostlyIdle { one_in: 20 },
                seed,
            };
            (0..fleet.n)
                .filter(|&i| !fleet.tenant(i).shape.idle)
                .collect()
        };
        assert_eq!(actives(42).len(), 100);
        assert_eq!(actives(7).len(), 100);
        assert_ne!(actives(42), actives(7));
    }

    #[test]
    fn the_seed_moves_streams_and_leaves_shapes_alone() {
        let fleet = |seed: u64| Fleet {
            n: 8,
            mix: Mix::Tiered,
            seed,
        };
        let (a, b) = (fleet(42).tenant(3), fleet(7).tenant(3));
        assert_eq!(a.shape_seed, b.shape_seed);
        assert_ne!(a.stream_seed, b.stream_seed);
        assert_ne!(a.shape_seed, fleet(42).tenant(4).shape_seed);
    }
}
