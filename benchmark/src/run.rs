//! One run of one workload in this process: either the end-to-end
//! repetitions (tracing off) or the traced run with its probes.

use crate::adapter::{self, Bucket, LayeredTenant, Outcome};
use crate::json::{arr, num, obj, text, uint};
use crate::presets::{Fleet, Tier};
use crate::report::{Metric, RunReport};
use crate::trace::{self, Recorder};
use crate::workloads::{nproc, Driver, Workload, PEAK_HYDRATED_CAP};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// How long the end-to-end repetitions go on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    Reps(usize),
    Seconds(f64),
}

/// Fewest repetitions a time budget may end on: a median needs three.
const MIN_REPS: usize = 3;
/// A run must exit within 180 s; stop starting repetitions well before.
const HARD_STOP_S: f64 = 120.0;

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn sim_facts(out: &Outcome) -> Vec<(String, Value)> {
    vec![
        ("digest".into(), text(format!("{:016x}", out.digest))),
        ("statements".into(), uint(out.statements)),
        (
            "by_state".into(),
            obj(out
                .by_state
                .iter()
                .map(|(k, v)| (k.clone(), uint(*v as u64)))),
        ),
        ("passes_executed".into(), uint(out.passes_executed)),
        ("passes_skipped".into(), uint(out.passes_skipped)),
        ("recoveries".into(), uint(out.recoveries)),
    ]
}

fn run_facts(w: &Workload, threads: usize) -> Vec<(String, Value)> {
    vec![
        ("tenants".into(), uint(w.tenants as u64)),
        ("ticks".into(), uint(w.ticks as u64)),
        ("threads".into(), uint(threads as u64)),
        ("nproc".into(), uint(nproc() as u64)),
        ("timed_region".into(), text(w.timed_region)),
        ("why".into(), text(w.why)),
    ]
}

/// Checks every drive's outcome must pass; returns the failures counted
/// against `attempted`.
fn check_outcome(w: &Workload, out: &Outcome, violations: &mut Vec<String>) -> u64 {
    let mut failed = out.errors + out.poisoned as u64;
    if out.errors > 0 {
        violations.push(format!("{} statements failed", out.errors));
    }
    if out.poisoned > 0 {
        violations.push(format!("{} tenants poisoned", out.poisoned));
    }
    if out.tenants != w.tenants {
        violations.push(format!("{} of {} tenants driven", out.tenants, w.tenants));
        failed += 1;
    }
    if let Some(peak) = out.peak_hydrated {
        if peak > PEAK_HYDRATED_CAP {
            violations.push(format!("peak_hydrated {peak} exceeds {PEAK_HYDRATED_CAP}"));
            failed += 1;
        }
    }
    failed
}

/// The end-to-end repetitions, tracing off: set-up then the timed drive,
/// until the budget is used.
pub fn end_to_end(
    w: &Workload,
    seed: u64,
    quick: bool,
    budget: Budget,
) -> Result<RunReport, String> {
    let fleet = w.fleet(seed);
    let threads = w.threads();
    let mut violations = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // The un-crashed oracle runs outside both timers.
    let oracle = w.oracle(&fleet);

    let started = Instant::now();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut first: Option<Outcome> = None;
    loop {
        let rep_start = Instant::now();
        let inputs = w.setup(&fleet)?;
        let setup_s = rep_start.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let out = w.drive(&fleet, inputs, threads);
        let wall_s = t0.elapsed().as_secs_f64();
        setups.push(setup_s);
        walls.push(wall_s);

        attempted += out.statements + out.errors + w.tenants as u64;
        failed += check_outcome(w, &out, &mut violations);
        match &first {
            None => first = Some(out),
            Some(reference) => {
                attempted += 1;
                if reference.digest != out.digest || reference.statements != out.statements {
                    failed += 1;
                    violations.push(format!(
                        "repetition {} digest {:016x} differs from the first's {:016x}",
                        walls.len(),
                        out.digest,
                        reference.digest
                    ));
                }
            }
        }

        let elapsed = started.elapsed().as_secs_f64();
        let rep_s = rep_start.elapsed().as_secs_f64();
        let done = match budget {
            Budget::Reps(n) => walls.len() >= n,
            Budget::Seconds(s) => walls.len() >= MIN_REPS && elapsed + rep_s > s,
        };
        if done || elapsed + rep_s > HARD_STOP_S {
            break;
        }
    }
    let reference = first.expect("at least one repetition ran");
    if let Some(oracle) = &oracle {
        attempted += 1;
        if oracle.digest != reference.digest {
            failed += 1;
            violations.push(format!(
                "crashed digest {:016x} differs from the un-crashed oracle's {:016x}",
                reference.digest, oracle.digest
            ));
        }
    }

    let tenant_ticks = (w.tenants as u64 * w.ticks as u64) as f64;
    let per_s = |count: f64| -> Vec<f64> { walls.iter().map(|wall| count / wall).collect() };
    let mut metrics = vec![
        Metric::median_of_reps("setup_s", "s", &setups),
        Metric::median_of_reps("tenant_ticks_per_s", "1/s", &per_s(tenant_ticks)),
        Metric::median_of_reps(
            "statements_per_s",
            "1/s",
            &per_s(reference.statements as f64),
        ),
    ];
    if reference.recoveries > 0 {
        metrics.push(Metric::median_of_reps(
            "recoveries_per_s",
            "1/s",
            &per_s(reference.recoveries as f64),
        ));
    }
    metrics.push(Metric::single(
        "peak_rss_mb",
        "MiB",
        peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
    ));
    metrics.push(Metric::single(
        "failed_share",
        "ratio",
        failed as f64 / attempted.max(1) as f64,
    ));

    let mut facts = run_facts(w, threads);
    facts.push(("reps".into(), uint(walls.len() as u64)));
    facts.push(("rep_walls_s".into(), arr(walls.iter().map(|&v| num(v)))));
    facts.push(("rep_setups_s".into(), arr(setups.iter().map(|&v| num(v)))));
    let mut sim = sim_facts(&reference);
    if let Some(peak) = reference.peak_hydrated {
        sim.push(("peak_hydrated".into(), uint(peak as u64)));
    }
    let mut notes = Vec::new();
    if matches!(w.driver, Driver::ResidentFleet { parallel: true, .. }) && threads < 2 {
        notes.push(format!(
            "nproc = {}: {} ran single-threaded",
            nproc(),
            w.name
        ));
    }
    Ok(RunReport {
        workload: w.name,
        traced: false,
        seed,
        quick,
        attempted,
        failed,
        violations,
        metrics,
        facts,
        sim,
        notes,
    })
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// Span durations collected by the layered drive, in nanoseconds.
#[derive(Default)]
struct LayerSamples {
    hydrate_idle: Vec<f64>,
    hydrate_active: Vec<f64>,
    slice_idle: Vec<f64>,
    tick: Vec<f64>,
    tick_noop: Vec<f64>,
    recover: Vec<f64>,
    recover_frames: u64,
    /// End-of-run recovery probes (outside the traced wall).
    recover_probe: Vec<f64>,
    statements: u64,
    attempted: u64,
    errors: u64,
    journal_writes: u64,
    journal_bytes: u64,
    plan_cache: (u64, u64, u64),
}

/// Drive every tenant through the layers' public functions, tenant-major
/// and single-threaded, with a span around each call.
fn layered_drive(w: &Workload, fleet: &Fleet, rec: &mut Recorder) -> LayerSamples {
    let crash = matches!(
        w.driver,
        Driver::ResidentFleet {
            crash_every_tick: true,
            ..
        }
    );
    let mut s = LayerSamples::default();
    for i in 0..fleet.n {
        let id = i as u32;
        rec.enter("tenant", id);
        let (hydrated, ns) = rec.span("workload.fleet.hydrate", id, || adapter::hydrate(fleet, i));
        let (mut tenant, _) = rec.span("controlplane.plane.manage", id, || {
            LayeredTenant::new(hydrated, i, &w.policy)
        });
        if tenant.is_idle() {
            s.hydrate_idle.push(ns as f64);
        } else {
            s.hydrate_active.push(ns as f64);
        }
        for tick in 0..w.ticks {
            if crash && tick > 0 {
                let (frames, ns) = rec.span("controlplane.store.recover", id, || tenant.recover());
                s.recover.push(ns as f64);
                s.recover_frames += frames as u64;
            }
            let (attempted, ns) = rec.span("workload.runner.slice", id, || tenant.slice());
            s.attempted += attempted;
            if attempted == 0 {
                s.slice_idle.push(ns as f64);
            }
            let (writes, ns) = rec.span("controlplane.plane.tick", id, || tenant.tick());
            // A pass that journaled nothing beyond its schedule record.
            if writes <= 1 {
                s.tick_noop.push(ns as f64);
            }
            s.tick.push(ns as f64);
        }
        rec.exit();
        s.statements += tenant.statements();
        s.errors += tenant.errors();
        s.journal_writes += tenant.journal_writes();
        s.journal_bytes += tenant.journal_bytes();
        let (hits, misses, invalidations) = tenant.plan_cache();
        s.plan_cache.0 += hits;
        s.plan_cache.1 += misses;
        s.plan_cache.2 += invalidations;
        if !crash {
            let t0 = Instant::now();
            std::hint::black_box(tenant.probe_recover());
            s.recover_probe.push(t0.elapsed().as_nanos() as f64);
        }
        rec.span("workload.fleet.release", id, || drop(tenant));
    }
    s
}

/// Active tenants to probe: up to `per_tier` of each tier in the fleet,
/// lowest indices first.
fn probe_tenants(fleet: &Fleet, per_tier: usize) -> Vec<(usize, Tier)> {
    let mut taken: BTreeMap<Tier, usize> = BTreeMap::new();
    let mut picked = Vec::new();
    // A mostly-idle fleet needs a long look to find its active tenants.
    for i in 0..fleet.n.min(4_096) {
        let shape = fleet.tenant(i).shape;
        if shape.idle {
            continue;
        }
        let n = taken.entry(shape.tier).or_insert(0);
        if *n < per_tier {
            *n += 1;
            picked.push((i, shape.tier));
        }
    }
    picked
}

/// The metrics of a traced run, in the order they are printed.
#[derive(Default)]
struct MetricList(Vec<Metric>);

impl MetricList {
    fn single(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push(Metric::single(name, unit, value));
    }

    /// The median of durations given in nanoseconds, reported in
    /// microseconds; a layer that never ran reports nothing.
    fn median_us(&mut self, name: &str, ns: &[f64]) {
        if !ns.is_empty() {
            let us: Vec<f64> = ns.iter().map(|v| v / 1e3).collect();
            self.0.push(Metric::median_of(name, "us", &us));
        }
    }
}

/// Where the layered drive's time went, from its spans.
struct LayerTotals {
    /// Sum of the root spans' durations.
    traced_wall_s: f64,
    /// Sum of the named layers' self times.
    busy_s: f64,
    by_layer: BTreeMap<&'static str, f64>,
}

impl LayerTotals {
    fn of(spans: &[trace::Span]) -> LayerTotals {
        let own = trace::self_times(spans);
        let mut totals = LayerTotals {
            traced_wall_s: 0.0,
            busy_s: 0.0,
            by_layer: BTreeMap::new(),
        };
        for (span, &own_ns) in spans.iter().zip(&own) {
            if span.parent.is_none() {
                totals.traced_wall_s += secs(span.duration_ns());
            }
            // "tenant" only groups one tenant's spans; its self time is
            // the drive's own bookkeeping, attributed to no layer.
            if span.name != "tenant" {
                totals.busy_s += secs(own_ns);
                *totals.by_layer.entry(span.name).or_default() += secs(own_ns);
            }
        }
        totals
    }

    fn busy(&self, layer: &str) -> f64 {
        self.by_layer.get(layer).copied().unwrap_or(0.0)
    }
}

/// Metrics the layered drive's spans and counters give.
fn layer_metrics(s: &LayerSamples, totals: &LayerTotals, m: &mut MetricList) {
    let hydrate_all: Vec<f64> = [s.hydrate_idle.as_slice(), &s.hydrate_active].concat();
    m.single(
        "workload.fleet.hydrate_busy_s",
        "s",
        totals.busy("workload.fleet.hydrate"),
    );
    m.median_us("workload.fleet.hydrate_us", &hydrate_all);
    m.single(
        "workload.fleet.hydrate_count",
        "count",
        hydrate_all.len() as f64,
    );
    if !s.hydrate_idle.is_empty() {
        m.median_us("workload.fleet.hydrate_idle_us", &s.hydrate_idle);
        m.median_us("workload.fleet.hydrate_active_us", &s.hydrate_active);
    }
    m.single(
        "workload.fleet.release_busy_s",
        "s",
        totals.busy("workload.fleet.release"),
    );
    let slice_busy_s = totals.busy("workload.runner.slice");
    m.single("workload.runner.slice_busy_s", "s", slice_busy_s);
    m.single(
        "workload.runner.stmt_us",
        "us",
        slice_busy_s * 1e6 / s.attempted.max(1) as f64,
    );
    m.single("workload.runner.statements", "count", s.statements as f64);
    m.median_us("workload.runner.slice_idle_us", &s.slice_idle);
    m.single(
        "sqlmini.engine.plan_cache_hits",
        "count",
        s.plan_cache.0 as f64,
    );
    m.single(
        "sqlmini.engine.plan_cache_misses",
        "count",
        s.plan_cache.1 as f64,
    );
    m.single(
        "sqlmini.engine.plan_cache_invalidations",
        "count",
        s.plan_cache.2 as f64,
    );
    m.single(
        "controlplane.plane.manage_busy_s",
        "s",
        totals.busy("controlplane.plane.manage"),
    );
    m.single(
        "controlplane.plane.tick_busy_s",
        "s",
        totals.busy("controlplane.plane.tick"),
    );
    m.single(
        "controlplane.plane.tick_count",
        "count",
        s.tick.len() as f64,
    );
    m.median_us("controlplane.plane.tick_us", &s.tick);
    m.median_us("controlplane.plane.tick_noop_us", &s.tick_noop);
    if s.recover.is_empty() {
        m.median_us("controlplane.store.recover_us", &s.recover_probe);
    } else {
        let recover_busy_s = totals.busy("controlplane.store.recover");
        m.median_us("controlplane.store.recover_us", &s.recover);
        m.single("controlplane.store.recover_busy_s", "s", recover_busy_s);
        m.single(
            "controlplane.store.recover_frames_per_s",
            "1/s",
            s.recover_frames as f64 / recover_busy_s,
        );
    }
    m.single(
        "controlplane.store.journal_writes",
        "count",
        s.journal_writes as f64,
    );
    m.single(
        "controlplane.store.journal_bytes",
        "count",
        s.journal_bytes as f64,
    );
}

/// Hours of statements the statement probe records per tenant.
const PROBE_HOURS: u64 = 12;
/// Tenants of each tier the probes sample.
const PROBE_TENANTS_PER_TIER: usize = 2;

/// The probes, all outside the traced wall: statement-level timings from
/// replayed traces, the recommender entry points on detached clones, and
/// the observability sinks' hot path.
fn probe_metrics(w: &Workload, fleet: &Fleet, tenants: &[(usize, Tier)], m: &mut MetricList) {
    let mut by_bucket: BTreeMap<Bucket, Vec<f64>> = BTreeMap::new();
    for &(index, _) in tenants {
        for (bucket, ns) in adapter::statement_probe(fleet, index, PROBE_HOURS) {
            by_bucket.entry(bucket).or_default().push(ns as f64);
        }
    }
    for bucket in Bucket::ALL {
        let samples = by_bucket.remove(&bucket).unwrap_or_default();
        m.median_us(
            &format!("sqlmini.engine.execute_{}_us", bucket.name()),
            &samples,
        );
    }

    let reco: Vec<adapter::RecommenderSample> = tenants
        .iter()
        .map(|&(index, _)| adapter::recommender_probe(fleet, index, &w.policy, w.ticks.min(24)))
        .collect();
    let each = |f: fn(&adapter::RecommenderSample) -> u64| -> Vec<f64> {
        reco.iter().map(|r| f(r) as f64).collect()
    };
    let pooled = |f: fn(&adapter::RecommenderSample) -> &[u64]| -> Vec<f64> {
        reco.iter()
            .flat_map(|r| f(r).iter().map(|&ns| ns as f64))
            .collect()
    };
    m.median_us(
        "sqlmini.engine.what_if_cost_us",
        &pooled(|r| &r.what_if_cost_ns),
    );
    m.median_us(
        "sqlmini.engine.create_index_us",
        &each(|r| r.create_index_ns),
    );
    m.median_us(
        "sqlmini.parser.parse_template_us",
        &pooled(|r| &r.parse_template_ns),
    );
    m.median_us("autoindex.mi.recommend_us", &each(|r| r.mi_recommend_ns));
    m.median_us("autoindex.dta.tune_us", &each(|r| r.dta_tune_ns));
    m.single(
        "autoindex.dta.whatif_issued",
        "count",
        reco.iter().map(|r| r.whatif_issued).sum::<u64>() as f64,
    );
    m.single(
        "autoindex.dta.whatif_saved",
        "count",
        reco.iter().map(|r| r.whatif_saved).sum::<u64>() as f64,
    );
    m.median_us("autoindex.validator.validate_us", &each(|r| r.validate_ns));
    m.median_us(
        "autoindex.drops.recommend_us",
        &each(|r| r.drops_recommend_ns),
    );

    let (inc_ns, emit_ns) = adapter::sink_probe(1_000_000);
    m.single("controlplane.metrics.inc_ns", "ns", inc_ns);
    m.single("controlplane.telemetry.emit_ns", "ns", emit_ns);
}

/// The traced run: the workload's own driver once untraced at one thread
/// (the reference), the layered drive with spans, then the probes.
pub fn traced(w: &Workload, seed: u64, quick: bool, out_dir: &Path) -> Result<RunReport, String> {
    let fleet = w.fleet(seed);
    let mut violations = Vec::new();
    let mut notes = Vec::new();

    // 1. Untraced reference at one thread.
    let inputs = w.setup(&fleet)?;
    let t0 = Instant::now();
    let base = w.drive(&fleet, inputs, 1);
    let run_1t_s = t0.elapsed().as_secs_f64();
    let mut attempted = base.statements + base.errors + w.tenants as u64;
    let mut failed = check_outcome(w, &base, &mut violations);

    // 2. The parallel pool, where the workload uses it.
    let threads = w.threads();
    let mut run_nt_s = None;
    if matches!(w.driver, Driver::ResidentFleet { parallel: true, .. }) {
        if threads >= 2 {
            let inputs = w.setup(&fleet)?;
            let t0 = Instant::now();
            let pooled = w.drive(&fleet, inputs, threads);
            run_nt_s = Some(t0.elapsed().as_secs_f64());
            attempted += 1;
            if pooled.digest != base.digest {
                failed += 1;
                violations.push(format!(
                    "{threads}-thread digest {:016x} differs from the 1-thread {:016x}",
                    pooled.digest, base.digest
                ));
            }
        } else {
            notes.push(format!(
                "nproc = {}: no pooled run, parallel_efficiency omitted",
                nproc()
            ));
        }
    }

    // 3. The layered drive.
    let mut rec = Recorder::new();
    let s = layered_drive(w, &fleet, &mut rec);
    let spans = rec.spans();
    let totals = LayerTotals::of(spans);
    attempted += 1;
    if s.statements != base.statements || s.errors != base.errors {
        failed += 1;
        violations.push(format!(
            "layered drive executed {} statements, the driver {}",
            s.statements, base.statements
        ));
    }
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let trace_path = out_dir.join(format!("trace-{}.json", w.name));
    std::fs::write(&trace_path, trace::to_json(w.name, seed, spans))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let mut m = MetricList::default();
    layer_metrics(&s, &totals, &mut m);

    // 4. The probes.
    let probed = probe_tenants(&fleet, PROBE_TENANTS_PER_TIER);
    probe_metrics(w, &fleet, &probed, &mut m);

    // 5. The workload's own driver against the traced layer sum. A
    // resident fleet is hydrated during set-up, outside the reference
    // wall, so its hydration is left out of both sides.
    let outside_reference_s = match w.driver {
        Driver::ResidentFleet { .. } => totals.busy("workload.fleet.hydrate"),
        Driver::Region { .. } => 0.0,
    };
    let overhead_s = run_1t_s - (totals.busy_s - outside_reference_s);
    m.single("controlplane.driver.run_1t_s", "s", run_1t_s);
    m.single("controlplane.driver.overhead_s", "s", overhead_s);
    m.single(
        "controlplane.driver.passes_executed",
        "count",
        base.passes_executed as f64,
    );
    m.single(
        "controlplane.driver.passes_skipped",
        "count",
        base.passes_skipped as f64,
    );
    if let Some(nt) = run_nt_s {
        m.single("controlplane.fleet_driver.run_nt_s", "s", nt);
        m.single(
            "controlplane.fleet_driver.parallel_efficiency",
            "ratio",
            run_1t_s / (threads as f64 * nt),
        );
    }
    if let Some(peak) = base.peak_hydrated {
        m.single(
            "controlplane.coordinator.peak_hydrated",
            "count",
            peak as f64,
        );
        m.single(
            "controlplane.coordinator.overhead_us_per_tenant",
            "us",
            overhead_s * 1e6 / w.tenants as f64,
        );
    }
    let overhead_share = (totals.traced_wall_s - outside_reference_s - run_1t_s) / run_1t_s;
    let attributed_share = totals.busy_s / totals.traced_wall_s;
    m.single("trace.traced_wall_s", "s", totals.traced_wall_s);
    m.single("trace.overhead_share", "ratio", overhead_share);
    m.single("trace.attributed_share", "ratio", attributed_share);
    if overhead_share >= 0.05 {
        notes.push(format!(
            "traced wall is {:.1}% over the untraced 1-thread wall (bar: under 5%)",
            overhead_share * 100.0
        ));
    }
    if attributed_share < 0.90 {
        notes.push(format!(
            "{:.1}% of the traced wall is attributed to named layers (bar: 90%)",
            attributed_share * 100.0
        ));
    }

    let mut facts = run_facts(w, threads);
    facts.push(("trace_file".into(), text(trace_path.display().to_string())));
    facts.push(("spans".into(), uint(spans.len() as u64)));
    facts.push((
        "layer_busy_s".into(),
        obj(totals.by_layer.iter().map(|(k, v)| (*k, num(*v)))),
    ));
    facts.push((
        "layer_share_of_traced_wall".into(),
        obj(totals
            .by_layer
            .iter()
            .map(|(k, v)| (*k, num(v / totals.traced_wall_s)))),
    ));
    facts.push((
        "probed_tenants".into(),
        arr(probed
            .iter()
            .map(|&(i, tier)| obj([("index", uint(i as u64)), ("tier", text(tier.name()))]))),
    ));
    let mut sim = sim_facts(&base);
    sim.push(("traced_statements".into(), uint(s.statements)));
    Ok(RunReport {
        workload: w.name,
        traced: true,
        seed,
        quick,
        attempted,
        failed,
        violations,
        metrics: m.0,
        facts,
        sim,
        notes,
    })
}
