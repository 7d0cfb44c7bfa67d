//! The traced run: untraced and traced windows in alternation, then
//! out-of-band timed calls into each layer on the same inputs. Every
//! per-layer metric is computed here from the benchmark's own spans, the
//! counting allocator, and the service's existing phase profiler and
//! counters; nothing inside the program is instrumented for it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use starqo_catalog::SharedCatalog;
use starqo_core::Optimizer;
use starqo_exec::Executor;
use starqo_plan::PlanRef;
use starqo_query::{canonicalize, Query};
use starqo_serve::ExecutorChoice;
use starqo_trace::{Phase, PhaseKind};
use starqo_vexec::{supports, VexecExecutor};

use crate::alloc::counted;
use crate::drive::{run, Bench, RequestSpans, Served, Stage, Window};
use crate::stats::{geomean, median, percentile};
use crate::workload::vexec_workers;
use crate::Metric;

/// Windows per traced run, alternating untraced and traced so slow drift
/// in the machine's load affects both alike.
const SLICES: u32 = 4;
/// Wall-clock cap for each group of out-of-band calls.
const OOB_CAP: Duration = Duration::from_millis(1500);

/// The measured part of a traced run.
pub struct Traced {
    pub untraced: Window,
    pub traced: Window,
    /// Phase-profiler nanos accrued during the traced windows.
    pub phase_ns: [u64; PhaseKind::COUNT],
    /// Service counter deltas over the traced windows.
    pub invalidations: u64,
    pub evictions: u64,
    pub executions: u64,
    pub vexec_fallbacks: u64,
    /// Stream positions handed out.
    pub consumed: usize,
}

pub fn traced_run(b: &Bench, dur: Duration) -> Traced {
    let stages: Vec<Stage> = (0..SLICES)
        .map(|i| Stage {
            dur: dur / SLICES,
            traced: i % 2 == 1,
        })
        .collect();
    let mut marks = Vec::new();
    let r = run(b, &stages, || {
        let phases = PhaseKind::ALL.map(|p| b.svc.telemetry().phase(p).0);
        marks.push((phases, b.svc.counters()));
    });
    let mut t = Traced {
        untraced: Window::default(),
        traced: Window::default(),
        phase_ns: [0; PhaseKind::COUNT],
        invalidations: 0,
        evictions: 0,
        executions: 0,
        vexec_fallbacks: 0,
        consumed: r.consumed,
    };
    for (i, (stage, window)) in stages.iter().zip(r.windows).enumerate() {
        if !stage.traced {
            t.untraced.absorb(window);
            continue;
        }
        let ((p0, c0), (p1, c1)) = (&marks[i], &marks[i + 1]);
        for k in 0..PhaseKind::COUNT {
            t.phase_ns[k] += p1[k] - p0[k];
        }
        t.invalidations += c1.invalidations - c0.invalidations;
        t.evictions += c1.evictions - c0.evictions;
        t.executions += c1.executions - c0.executions;
        t.vexec_fallbacks += c1.vexec_fallbacks - c0.vexec_fallbacks;
        t.traced.absorb(window);
    }
    t
}

/// Run `f` over `items` in order, cycling, until at least one full pass
/// and `min` calls are done — or, after `OOB_CAP`, as soon as 10 are.
fn sample<T>(items: &[T], min: usize, mut f: impl FnMut(&T)) -> usize {
    let started = Instant::now();
    let mut done = 0;
    while !items.is_empty() {
        f(&items[done % items.len()]);
        done += 1;
        if done >= min.max(items.len()) || (done >= 10 && started.elapsed() > OOB_CAP) {
            break;
        }
    }
    done
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn elapsed_us(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64 / 1e3
}

// Each metric is `None` when the run gave it nothing to be computed from;
// `layer_metrics` then refuses to report rather than print a stand-in.

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0).then(|| num / den)
}

fn pct_us(ns: &[u64], p: f64) -> Option<f64> {
    (!ns.is_empty()).then(|| us(percentile(ns, p)))
}

fn med(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| median(samples))
}

/// Per-layer metrics of a traced run, plus the out-of-band output
/// mismatches (vexec against serial on the same plan). Fails with the
/// names of the metrics that had no samples.
pub fn layer_metrics(
    b: &Bench,
    t: &Traced,
    load_s: &[f64],
) -> Result<(Vec<Metric>, u64), Vec<&'static str>> {
    let svc = &b.svc;
    let spans = &t.traced.spans;
    let requests = spans.len() as f64;
    let total_ns: u64 = spans.iter().map(|s| s.total_ns()).sum();
    let traced_ns: Vec<u64> = spans.iter().map(|s| s.total_ns()).collect();
    let untraced_p50 = pct_us(&t.untraced.lat_ns(), 50.0);
    let phase = |p: PhaseKind| t.phase_ns[p as usize] as f64;
    // Glue nanos are nested inside enumerate; every other phase is a
    // disjoint slice of a request.
    let attributed: f64 = PhaseKind::ALL
        .iter()
        .filter(|&&p| p != PhaseKind::Glue)
        .map(|&p| phase(p))
        .sum();

    // Distinct served queries and (query, plan) pairs, in query order.
    let served: BTreeMap<(u32, u64), &Served> =
        t.traced.served.iter().map(|(k, s)| (*k, s)).collect();
    let mut seen_fp = BTreeSet::new();
    let opt_queries: Vec<Query> = served
        .iter()
        .filter(|(_, s)| seen_fp.insert(s.fp))
        .take(200)
        .map(|((q, _), _)| canonicalize(&b.inputs.queries[*q as usize]).query)
        .collect();
    let exec_keys: Vec<(u32, &Served)> =
        served.iter().take(64).map(|((q, _), s)| (*q, *s)).collect();

    // Rule compile: `Optimizer::new` on the service's current catalog.
    let catalog = svc.shared_catalog().catalog();
    let mut compile_us = Vec::new();
    for _ in 0..9 {
        let started = Instant::now();
        std::hint::black_box(Optimizer::new(catalog.clone()).expect("rules compile"));
        compile_us.push(elapsed_us(started));
    }

    // Cold optimization with the service's configuration.
    let opt = Optimizer::new(catalog.clone()).expect("rules compile");
    let config = &svc.config().opt_config;
    let mut opt_ns = Vec::new();
    let (mut allocs, mut bytes, mut star_refs, mut plans_built) = (0u64, 0u64, 0u64, 0u64);
    let (mut glue, mut enumerate, mut offered, mut dominated) = (0u64, 0u64, 0u64, 0u64);
    let n_opt = sample(&opt_queries, 100, |q| {
        let ((out, ns), a) = counted(|| {
            let started = Instant::now();
            let out = opt.optimize(q, config).expect("out-of-band optimize");
            (out, started.elapsed().as_nanos() as u64)
        });
        opt_ns.push(ns);
        allocs += a.allocs;
        bytes += a.bytes;
        star_refs += out.stats.star_refs;
        plans_built += out.stats.plans_built;
        glue += out.metrics.phase(Phase::Glue).unwrap_or(0);
        enumerate += out.metrics.phase(Phase::Enumerate).unwrap_or(0);
        offered += out.table_stats.offered;
        dominated += out.table_stats.dominated;
    }) as f64;

    // Serial execution of the served plans, and vectorized execution of
    // each served plan vexec supports. Where it supports none (the default
    // configuration plans no hash joins, and vexec hands nested-loop
    // plans back to the serial engine), vexec runs the plan the optimizer
    // picks for the same query with hash joins enabled, so every workload
    // measures the vectorized layer on its own queries. A speedup compares
    // serial and vexec time on the same plan.
    let db = &b.inputs.db;
    let hash_config = config.clone().enable("hashjoin");
    let mut serial_us = Vec::new();
    let mut vexec_us = Vec::new();
    let mut per_template: BTreeMap<u32, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    let (mut exec_allocs, mut vx_rows, mut vx_batches, mut mismatches) = (0u64, 0u64, 0u64, 0u64);
    let n_exec = sample(&exec_keys, 0, |&(q, s)| {
        let canon = canonicalize(&b.inputs.queries[q as usize]).query;
        let serial_run = |plan: &PlanRef| {
            let started = Instant::now();
            let r = Executor::new(db, &canon).run(plan).expect("serial run");
            (r.rows, elapsed_us(started))
        };
        let (served_run, a) = counted(|| serial_run(&s.plan));
        exec_allocs += a.allocs;
        serial_us.push(served_run.1);
        let (plan, (rows, us_serial)) = if supports(&s.plan, &canon).is_ok() {
            (s.plan.clone(), served_run)
        } else {
            let alt = opt
                .optimize(&canon, &hash_config)
                .expect("out-of-band optimize")
                .best;
            if supports(&alt, &canon).is_err() {
                return;
            }
            let alt_run = serial_run(&alt);
            (alt, alt_run)
        };
        let mut vx = VexecExecutor::new(db, &canon);
        vx.set_workers(vexec_workers());
        let started = Instant::now();
        let r = vx.run(&plan).expect("vexec run");
        let us_vexec = elapsed_us(started);
        vexec_us.push(us_vexec);
        vx_rows += vx.stats().rows;
        vx_batches += vx.stats().batches;
        if r.rows != rows {
            mismatches += 1;
        }
        let e = per_template
            .entry(b.inputs.template_of[q as usize])
            .or_default();
        e.0.push(us_serial);
        e.1.push(us_vexec);
    }) as f64;
    let speedups: Vec<f64> = per_template
        .values()
        .map(|(s, v)| median(s) / median(v))
        .collect();
    // Where the service runs vexec, its own counters say how often it fell
    // back; elsewhere, the share of traced requests whose served plan
    // vexec would hand back.
    let fallback_frac = if matches!(svc.config().executor, ExecutorChoice::Vexec { .. }) {
        ratio(t.vexec_fallbacks as f64, t.executions as f64)
    } else {
        let fallback_requests: u64 = served
            .iter()
            .filter(|((q, _), s)| {
                let canon = canonicalize(&b.inputs.queries[*q as usize]).query;
                supports(&s.plan, &canon).is_err()
            })
            .map(|(_, s)| s.requests)
            .sum();
        ratio(fallback_requests as f64, requests)
    };

    // Cache hits: serve each sample query twice and time the second call.
    let mut hit_ns = Vec::new();
    let hit_queries: Vec<u32> = served.keys().map(|(q, _)| *q).take(200).collect();
    sample(&hit_queries, 100, |&q| {
        let p = svc.prepare(&b.inputs.queries[q as usize]);
        svc.optimize_prepared(&p, None).expect("serve");
        let started = Instant::now();
        let out = svc.optimize_prepared(&p, None).expect("serve");
        if out.cache_hit {
            hit_ns.push(started.elapsed().as_nanos() as u64);
        }
    });

    // Epoch bumps: the in-loop refreshes of stats-churn, otherwise timed
    // out of band on a private copy of the catalog.
    let mut bump_ns: Vec<u64> = t
        .untraced
        .bumps_ns
        .iter()
        .chain(&t.traced.bumps_ns)
        .copied()
        .collect();
    if bump_ns.is_empty() {
        let shared = SharedCatalog::new(Arc::clone(&catalog));
        let table = &catalog.tables()[0];
        for _ in 0..50 {
            let started = Instant::now();
            shared
                .set_table_card(&table.name, table.card)
                .expect("statistics refresh");
            bump_ns.push(started.elapsed().as_nanos() as u64);
        }
    }

    let mut snapshot_us = Vec::new();
    for _ in 0..20 {
        let started = Instant::now();
        std::hint::black_box(svc.telemetry_snapshot());
        snapshot_us.push(elapsed_us(started));
    }

    let prepare_ns: Vec<u64> = spans.iter().map(|s| s.prepare_ns).collect();
    let count = |f: fn(&RequestSpans) -> bool| spans.iter().filter(|s| f(s)).count() as f64;
    let per_kreq = |n: u64| ratio(n as f64 * 1e3, requests);
    let per_opt = |n: u64| ratio(n as f64, n_opt);
    let values = [
        ("query.canonicalize_us", pct_us(&prepare_ns, 50.0), "us"),
        ("serve.hit_us", pct_us(&hit_ns, 50.0), "us"),
        (
            "serve.hit_ratio",
            ratio(count(|s| s.hit), requests),
            "ratio",
        ),
        (
            "serve.coalesced_frac",
            ratio(count(|s| s.coalesced), requests),
            "ratio",
        ),
        (
            "serve.invalidations_per_kreq",
            per_kreq(t.invalidations),
            "1/kreq",
        ),
        ("serve.evictions_per_kreq", per_kreq(t.evictions), "1/kreq"),
        (
            "serve.execute_frac",
            ratio(phase(PhaseKind::Execute), total_ns as f64),
            "ratio",
        ),
        (
            "serve.unattributed_frac",
            ratio(total_ns as f64 - attributed, total_ns as f64),
            "ratio",
        ),
        ("core.optimize_us_p50", pct_us(&opt_ns, 50.0), "us"),
        ("core.optimize_us_p99", pct_us(&opt_ns, 99.0), "us"),
        ("core.allocs_per_opt", per_opt(allocs), "count"),
        ("core.alloc_bytes_per_opt", per_opt(bytes), "bytes"),
        ("core.star_refs_per_opt", per_opt(star_refs), "count"),
        ("core.plans_built_per_opt", per_opt(plans_built), "count"),
        (
            "core.glue_frac",
            ratio(glue as f64, enumerate as f64),
            "ratio",
        ),
        (
            "core.prune_ratio",
            ratio(dominated as f64, offered as f64),
            "ratio",
        ),
        ("dsl.rule_compile_us", med(&compile_us), "us"),
        ("catalog.epoch_bump_us", pct_us(&bump_ns, 50.0), "us"),
        ("exec.serial_run_us", med(&serial_us), "us"),
        (
            "exec.allocs_per_run",
            ratio(exec_allocs as f64, n_exec),
            "count",
        ),
        ("vexec.run_us", med(&vexec_us), "us"),
        ("vexec.fallback_frac", fallback_frac, "ratio"),
        (
            "vexec.rows_per_batch",
            ratio(vx_rows as f64, vx_batches as f64),
            "rows",
        ),
        ("vexec.speedup_geomean", geomean(&speedups), "x"),
        ("storage.load_s", med(load_s), "s"),
        ("trace.snapshot_us", med(&snapshot_us), "us"),
        (
            "bench.tracing_overhead_frac",
            pct_us(&traced_ns, 50.0)
                .zip(untraced_p50)
                .and_then(|(traced, untraced)| ratio(traced, untraced))
                .map(|r| r - 1.0),
            "ratio",
        ),
    ];
    let empty: Vec<&'static str> = values
        .iter()
        .filter(|(_, v, _)| v.is_none())
        .map(|(name, _, _)| *name)
        .collect();
    if !empty.is_empty() {
        return Err(empty);
    }
    let metrics = values
        .into_iter()
        .map(|(name, value, unit)| Metric {
            name,
            value: value.expect("checked above"),
            unit,
        })
        .collect();
    Ok((metrics, mismatches))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Size, Workload};

    #[test]
    fn metrics_without_samples_are_refused() {
        let b = Bench::setup(Workload::HotServe, 5, Size::Tiny);
        let t = Traced {
            untraced: Window::default(),
            traced: Window::default(),
            phase_ns: [0; PhaseKind::COUNT],
            invalidations: 0,
            evictions: 0,
            executions: 0,
            vexec_fallbacks: 0,
            consumed: 0,
        };
        let empty = layer_metrics(&b, &t, &[])
            .err()
            .expect("nothing was measured");
        for name in [
            "query.canonicalize_us",
            "serve.hit_ratio",
            "vexec.run_us",
            "vexec.speedup_geomean",
            "storage.load_s",
            "bench.tracing_overhead_frac",
        ] {
            assert!(empty.contains(&name), "{name} not refused: {empty:?}");
        }
    }
}
