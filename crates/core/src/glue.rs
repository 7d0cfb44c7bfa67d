//! Glue (§3.2, Figure 3): impedance matching between the plans that exist
//! and the properties a STAR requires.
//!
//! Glue:
//! 1. checks if any plans exist for the required relational properties,
//!    "referencing the top-most STAR with those parameters if not" — for a
//!    single table with pushed-down predicates this re-references
//!    `AccessRoot` so access methods can exploit the converted join
//!    predicates "rather than retrofitting a FILTER LOLEPOP" (§4.4); for
//!    composite streams the FILTER retrofit is exactly what happens;
//! 2. adds Glue operators as a veneer to achieve the required properties:
//!    `SORT` for ORDER, `SHIP` for SITE, `STORE` for TEMP, and
//!    `STORE`+`BUILD_INDEX` for a required access path (§4.5.3); and
//! 3. returns the cheapest plan satisfying the requirements, or optionally
//!    all of them (`OptConfig::glue_keep_all`).
//!
//! Veneers are injected in the canonical order SORT → SHIP → STORE →
//! BUILD_INDEX, so a temp required at a remote site is shipped first and
//! stored at its destination (which is why §4.3's `SitedJoin` stores a
//! shipped inner: rescans then stay local).

use std::sync::{Arc, OnceLock};

use starqo_plan::{AccessSpec, Lolepop, PlanRef};
use starqo_query::{PredSet, QSet};
use starqo_trace::{SpanGuard, TraceEvent};

use crate::engine::{dedup, Engine, GlueKey};
use crate::error::{CoreError, Result};
use crate::value::{ReqVec, RuleValue, StreamRef};

/// Discharge a stream's accumulated requirements (plus pushdown predicates).
pub fn glue(
    engine: &mut Engine<'_>,
    stream: StreamRef,
    pushdown: PredSet,
) -> Result<Arc<Vec<PlanRef>>> {
    engine.stats.glue_refs += 1;
    let key = GlueKey {
        tables: stream.tables,
        pushdown,
        reqs: stream.reqs,
    };
    if let Some(hit) = engine.glue_cache.get(&key) {
        engine.stats.glue_cache_hits += 1;
        let hit = hit.clone();
        engine.tracer.emit(|| TraceEvent::GlueRef {
            ref_id: engine.cur_ref(),
            cache_hit: true,
            candidates: hit.len(),
            veneers: 0,
        });
        return Ok(hit);
    }

    // Only depth-0 invocations accumulate glue wall time: Glue re-enters
    // itself through AccessRoot's Glue expressions, and nested time is
    // already inside the outer measurement.
    engine.glue_depth += 1;
    // Only the outermost invocation gets a span — nested Glue time is
    // already inside it, mirroring the `glue_nanos` accounting below.
    let glue_span = if engine.glue_depth == 1 && engine.spans.enabled() {
        engine.spans.enter("glue")
    } else {
        SpanGuard::noop()
    };
    let started = std::time::Instant::now();
    let veneers_before = engine.stats.glue_veneers;
    let result = glue_miss(engine, key.tables, pushdown, &key.reqs);
    drop(glue_span);
    engine.glue_depth -= 1;
    if engine.glue_depth == 0 {
        engine.glue_nanos += started.elapsed().as_nanos() as u64;
    }
    let out = result?;
    engine.tracer.emit(|| TraceEvent::GlueRef {
        ref_id: engine.cur_ref(),
        cache_hit: false,
        candidates: out.len(),
        veneers: (engine.stats.glue_veneers - veneers_before) as usize,
    });
    engine.glue_cache.insert(key, out.clone());
    Ok(out)
}

/// The cache-miss path of [`glue`]: find candidates, veneer, register.
fn glue_miss(
    engine: &mut Engine<'_>,
    tables: QSet,
    pushdown: PredSet,
    reqs: &ReqVec,
) -> Result<Arc<Vec<PlanRef>>> {
    let candidates = candidate_plans(engine, tables, pushdown, reqs)?;
    let mut satisfied: Vec<PlanRef> = Vec::new();
    for plan in candidates {
        if let Some(p) = veneer(engine, plan, reqs)? {
            satisfied.push(p);
        }
    }
    let mut satisfied = dedup(&mut engine.dedup_seen, satisfied);
    for p in &satisfied {
        engine
            .provenance
            .entry(p.fingerprint())
            .or_insert_with(glue_origin);
    }
    if satisfied.is_empty() {
        return Err(CoreError::Glue(format!(
            "no plan for tables {tables} satisfies requirements {reqs:?}"
        )));
    }
    // Register Glue products so later references find them ("Glue may
    // generate some new plans having different properties").
    for p in &satisfied {
        engine.table.insert(p.clone());
    }
    if !engine.config.glue_keep_all {
        satisfied.sort_by(|a, b| a.props.cost.total().total_cmp(&b.props.cost.total()));
        satisfied.truncate(1);
    }
    Ok(Arc::new(satisfied))
}

/// The provenance label of Glue products, shared by every run.
fn glue_origin() -> Arc<str> {
    static GLUE: OnceLock<Arc<str>> = OnceLock::new();
    Arc::clone(GLUE.get_or_init(|| Arc::from("Glue")))
}

/// Glue over an already-computed SAP: no requirements travel with a SAP, so
/// only pushdown predicates remain to discharge (FILTER retrofit).
pub fn glue_plans(
    engine: &mut Engine<'_>,
    plans: &Arc<Vec<PlanRef>>,
    pushdown: PredSet,
) -> Result<Arc<Vec<PlanRef>>> {
    engine.stats.glue_refs += 1;
    if pushdown.is_empty() {
        return Ok(plans.clone());
    }
    let veneers_before = engine.stats.glue_veneers;
    let mut out = Vec::new();
    for p in plans.iter() {
        let extra = pushdown.minus(p.props.preds);
        if extra.is_empty() {
            out.push(p.clone());
            continue;
        }
        out.push(engine.build_veneer(Lolepop::Filter { preds: extra }, vec![p.clone()])?);
    }
    let out = dedup(&mut engine.dedup_seen, out);
    engine.tracer.emit(|| TraceEvent::GlueRef {
        ref_id: engine.cur_ref(),
        cache_hit: false,
        candidates: out.len(),
        veneers: (engine.stats.glue_veneers - veneers_before) as usize,
    });
    Ok(Arc::new(out))
}

/// Step 1: find or create plans with the required relational properties.
fn candidate_plans(
    engine: &mut Engine<'_>,
    tables: QSet,
    pushdown: PredSet,
    reqs: &ReqVec,
) -> Result<Vec<PlanRef>> {
    let base_preds = engine.query.eligible_preds(tables);
    let extra = pushdown.minus(base_preds);
    let target = base_preds.union(extra);

    // A required access path is built below (STORE + BUILD_INDEX) from base
    // plans; pushed predicates are applied by the probe, not by re-accessing
    // the table.
    if let Some(ix) = reqs.paths.clone() {
        let base = existing_or_access(engine, tables, base_preds)?;
        let Some(cheapest) = base
            .iter()
            .min_by(|a, b| a.props.cost.total().total_cmp(&b.props.cost.total()))
            .cloned()
        else {
            return Err(CoreError::Glue(format!("no base plans for {tables}")));
        };
        // SHIP to the required site first so the temp and its index live
        // where the join runs.
        let mut p = cheapest;
        if let Some(site) = reqs.site {
            if p.props.site != site {
                p = engine.build_veneer(Lolepop::Ship { to: site }, vec![p])?;
            }
        }
        if !p.props.temp {
            p = engine.build_veneer(Lolepop::Store, vec![p])?;
        }
        let ix_cols: Vec<_> = ix
            .iter()
            .filter(|c| p.props.cols.contains(c))
            .copied()
            .collect();
        if ix_cols.is_empty() {
            return Err(CoreError::Glue(
                "required path columns not in stream".into(),
            ));
        }
        p = engine.build_veneer(
            Lolepop::BuildIndex {
                key: ix_cols.clone(),
            },
            vec![p],
        )?;
        let cols = p.props.cols.clone();
        let probe = engine.build_veneer(
            Lolepop::Access {
                spec: AccessSpec::TempIndex { key: ix_cols },
                cols,
                preds: extra,
            },
            vec![p],
        )?;
        return Ok(vec![probe]);
    }

    if extra.is_empty() {
        return existing_or_access(engine, tables, base_preds);
    }

    if tables.len() == 1 {
        // Re-reference the top-most single-table STAR so the access path can
        // exploit the pushed-down (converted) join predicates.
        let plans = access_root(engine, tables, target)?;
        for p in plans.iter() {
            engine.table.insert(p.clone());
        }
        Ok(plans.as_ref().clone())
    } else {
        // Composite stream: retrofit a FILTER.
        let base = existing_or_access(engine, tables, base_preds)?;
        let mut out = Vec::new();
        for p in base {
            out.push(engine.build_veneer(Lolepop::Filter { preds: extra }, vec![p])?);
        }
        Ok(out)
    }
}

/// Look plans up in the table; reference `AccessRoot` for single tables when
/// none exist yet.
fn existing_or_access(
    engine: &mut Engine<'_>,
    tables: QSet,
    preds: PredSet,
) -> Result<Vec<PlanRef>> {
    let found = engine.table.get((tables, preds));
    if !found.is_empty() {
        return Ok(found.to_vec());
    }
    if tables.len() == 1 {
        let plans = access_root(engine, tables, preds)?;
        for p in plans.iter() {
            engine.table.insert(p.clone());
        }
        return Ok(plans.as_ref().clone());
    }
    Err(CoreError::Glue(format!(
        "no plans exist for composite {tables} with predicates {preds} (enumeration order bug?)"
    )))
}

/// Reference the AccessRoot STAR for a single-table stream.
fn access_root(engine: &mut Engine<'_>, tables: QSet, preds: PredSet) -> Result<Arc<Vec<PlanRef>>> {
    let q = tables
        .as_single()
        .ok_or_else(|| CoreError::Glue(format!("AccessRoot on multi-table stream {tables}")))?;
    let cols = engine.query.required_cols(q);
    engine.eval_star_by_name(
        "AccessRoot",
        vec![
            RuleValue::Stream(StreamRef::new(tables)),
            RuleValue::ColSet(Arc::new(cols)),
            RuleValue::Preds(preds),
        ],
    )
}

/// Step 2: inject SORT / SHIP / STORE veneers to satisfy physical
/// requirements. Returns `None` if the plan cannot be made to satisfy them
/// (e.g. the sort columns are not in the stream).
fn veneer(engine: &mut Engine<'_>, plan: PlanRef, reqs: &ReqVec) -> Result<Option<PlanRef>> {
    let mut p = plan;
    if let Some(order) = &reqs.order {
        if !p.props.order_satisfies(order) {
            if !order.iter().all(|c| p.props.cols.contains(c)) {
                return Ok(None);
            }
            p = engine.build_veneer(Lolepop::Sort { key: order.clone() }, vec![p])?;
        }
    }
    if let Some(site) = reqs.site {
        if p.props.site != site {
            p = engine.build_veneer(Lolepop::Ship { to: site }, vec![p])?;
        }
    }
    if reqs.temp && !p.props.temp {
        p = engine.build_veneer(Lolepop::Store, vec![p])?;
    }
    Ok(Some(p))
}
