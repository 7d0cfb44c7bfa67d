//! The STAR interpreter.
//!
//! §2.3: "Each reference of a STAR is evaluated by replacing the reference
//! with its alternative definitions that satisfy the condition of
//! applicability, and replacing the parameters of those definitions with
//! the arguments of the reference. [...] this substitution process is
//! remarkably simple and fast; the fanout of any reference of a STAR is
//! limited to just those STARs referenced in its definition."
//!
//! The engine also memoizes STAR references by (star, arguments), realizing
//! "alternative plans may incorporate the same plan fragment, whose
//! alternatives need be evaluated only once" (§1) — the E12 counters come
//! from here.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use starqo_catalog::{Catalog, ColId};
use starqo_plan::{
    AccessSpec, CostModel, ExtArg, JoinFlavor, Lolepop, PlanRef, PropCtx, PropEngine,
};
use starqo_query::{PredSet, QCol, QSet, Query};
use starqo_trace::{CostBreakdownEv, Histogram, SpanContext, SpanGuard, TraceEvent, Tracer};

use crate::error::{panic_msg, CoreError, Result};
use crate::faults::{self, FaultPlan};
use crate::glue;
use crate::natives::{NativeCtx, Natives};
use crate::optimizer::OptConfig;
use crate::rules::{Alt, BinOp, Expr, Guard, ReqExpr, RuleSet, StarDef, StarId};
use crate::table::PlanTable;
use crate::value::{ReqVec, RuleValue, StreamRef};

/// Work counters for the optimization run — the currency of experiment E8
/// (STAR expansion vs. transformational search).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// STAR references evaluated.
    pub star_refs: u64,
    /// STAR references answered from the memo.
    pub memo_hits: u64,
    /// Alternative definitions considered.
    pub alts_considered: u64,
    /// Conditions of applicability evaluated.
    pub conds_evaluated: u64,
    /// Plan nodes successfully built (property functions run).
    pub plans_built: u64,
    /// Operator applications rejected by a property function (illegal combo).
    pub plans_rejected: u64,
    /// Glue references.
    pub glue_refs: u64,
    /// Glue references answered from the glue cache.
    pub glue_cache_hits: u64,
    /// Glue operators injected.
    pub glue_veneers: u64,
    /// Native ("C function") calls.
    pub native_calls: u64,
}

/// Memo key: a STAR reference with its argument values.
struct MemoKey {
    star: StarId,
    args: Vec<RuleValue>,
}

impl PartialEq for MemoKey {
    fn eq(&self, other: &Self) -> bool {
        self.star == other.star && self.args == other.args
    }
}

impl Eq for MemoKey {}

impl Hash for MemoKey {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.star.hash(h);
        for a in &self.args {
            a.digest(h);
        }
    }
}

/// One quarantined rule alternative: the diagnostic surfaced on
/// [`crate::Optimized::quarantined`] and in `rule_quarantined` trace
/// events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    pub star: String,
    /// 1-based alternative index within the STAR.
    pub alt: usize,
    /// Rendered condition of applicability (or the alternative's
    /// expression when unguarded).
    pub cond: String,
    /// The panic or error message that triggered quarantine.
    pub reason: String,
}

/// Glue cache key.
#[derive(PartialEq, Eq, Hash)]
pub(crate) struct GlueKey {
    pub tables: QSet,
    pub pushdown: PredSet,
    pub reqs: ReqVec,
}

/// One optimization run's interpreter state.
pub struct Engine<'a> {
    pub rules: &'a RuleSet,
    pub natives: &'a Natives,
    pub prop: &'a PropEngine,
    pub catalog: &'a Catalog,
    pub query: &'a Query,
    pub model: &'a CostModel,
    pub config: &'a OptConfig,
    pub table: PlanTable,
    pub stats: OptStats,
    /// Plan provenance: fingerprint → "Star[alt k]" of the alternative that
    /// first produced the node, realizing §1's "traced to explain the
    /// origin of any execution plan". Glue veneers record as "Glue".
    pub provenance: HashMap<u64, Arc<str>>,
    /// Structured event sink; `Tracer::off()` by default (zero overhead).
    pub tracer: Tracer,
    /// Request-scoped span recorder; `SpanContext::off()` by default.
    /// When live, every non-memoized STAR expansion and top-level Glue
    /// invocation appends a span to the owning request's tree.
    pub(crate) spans: SpanContext,
    /// Per-reference inclusive latency distribution (recorded only when a
    /// tracer is attached — timing a reference costs a clock read).
    pub star_nanos: Histogram,
    /// Distribution of `cost.once` over every plan node built (always on:
    /// recording is two adds).
    pub plan_cost: Histogram,
    /// Wall-clock nanos spent inside top-level Glue invocations.
    pub(crate) glue_nanos: u64,
    /// Current Glue recursion depth (Glue can re-enter via AccessRoot);
    /// only depth-0 invocations accumulate `glue_nanos`.
    pub(crate) glue_depth: u32,
    memo: HashMap<MemoKey, Arc<Vec<PlanRef>>>,
    /// Cleared value buffers recycled across references: argument lists
    /// of native and LOLEPOP calls, memo-hit keys, and group environments.
    bufs: Vec<Vec<RuleValue>>,
    pub(crate) glue_cache: HashMap<GlueKey, Arc<Vec<PlanRef>>>,
    /// Scratch fingerprint set of every [`dedup`] call this run.
    pub(crate) dedup_seen: HashSet<u64>,
    /// Armed fault-injection plan (`native`/`prop` sites), from the config.
    faults: Option<Arc<FaultPlan>>,
    /// Absolute deadline computed from the budget at construction.
    deadline: Option<Instant>,
    /// First exhausted budget resource ("resource: detail"); once set, the
    /// engine explores greedily (first productive alternative wins).
    exhausted: Option<String>,
    /// Alternatives disabled after panicking or erroring, keyed by
    /// (star, group, alternative).
    quarantined: HashSet<(StarId, usize, usize)>,
    /// Quarantine diagnostics in order of occurrence.
    pub quarantine_log: Vec<QuarantineRecord>,
    depth: u32,
    /// Unique-per-run STAR reference ids (0 is reserved for "the driver");
    /// only advanced when a tracer is attached.
    next_ref_id: u64,
    /// Stack of in-flight reference ids — the top is the `parent` of any
    /// reference (and the `ref_id` of any event) emitted right now.
    ref_stack: Vec<u64>,
}

/// Default STAR-reference nesting limit (`max_star_depth` overrides). A
/// safety valve against cyclic definitions: real rule sets nest a handful
/// of levels, and the valve must trip with comfortable stack headroom on
/// a 2 MiB thread — at 128 a debug build ran within a few percent of the
/// guard page before the typed error fired.
const MAX_DEPTH: u32 = 64;

impl<'a> Engine<'a> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        rules: &'a RuleSet,
        natives: &'a Natives,
        prop: &'a PropEngine,
        catalog: &'a Catalog,
        query: &'a Query,
        model: &'a CostModel,
        config: &'a OptConfig,
    ) -> Self {
        let mut table = PlanTable::new();
        table.ablate_pruning = config.ablate_pruning;
        Engine {
            rules,
            natives,
            prop,
            catalog,
            query,
            model,
            config,
            table,
            stats: OptStats::default(),
            provenance: HashMap::new(),
            tracer: Tracer::off(),
            spans: SpanContext::off(),
            star_nanos: Histogram::new(),
            plan_cost: Histogram::new(),
            glue_nanos: 0,
            glue_depth: 0,
            memo: HashMap::new(),
            bufs: Vec::new(),
            glue_cache: HashMap::new(),
            dedup_seen: HashSet::new(),
            faults: config.faults.clone(),
            deadline: config.budget.deadline.map(|d| Instant::now() + d),
            exhausted: None,
            quarantined: HashSet::new(),
            quarantine_log: Vec::new(),
            depth: 0,
            next_ref_id: 0,
            ref_stack: Vec::new(),
        }
    }

    /// Attach a tracer; the plan table shares it (insert/prune events).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.table.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Attach a request's span recorder (per-STAR and Glue spans).
    pub fn set_spans(&mut self, spans: SpanContext) {
        self.spans = spans;
    }

    /// Nanoseconds spent in top-level Glue invocations so far.
    pub fn glue_nanos(&self) -> u64 {
        self.glue_nanos
    }

    pub fn prop_ctx(&self) -> PropCtx<'a> {
        PropCtx::new(self.catalog, self.query, self.model)
    }

    fn native_ctx(&self) -> NativeCtx<'_> {
        NativeCtx {
            catalog: self.catalog,
            query: self.query,
            model: self.model,
            config: self.config,
            table: &self.table,
        }
    }

    fn eval_err(&self, star: &str, msg: impl Into<String>) -> CoreError {
        CoreError::Eval {
            star: star.to_string(),
            msg: msg.into(),
        }
    }

    // ---- resource governor ----------------------------------------------

    /// True once any budget resource ran out: the engine is in greedy,
    /// best-so-far mode and the result will be flagged degraded.
    pub fn degraded(&self) -> bool {
        self.exhausted.is_some()
    }

    /// Which resource ran out first ("resource: detail"), when degraded.
    pub fn degraded_reason(&self) -> Option<&str> {
        self.exhausted.as_deref()
    }

    /// Record budget exhaustion (first one wins) and switch to greedy
    /// exploration. Never an error: any complete plan the greedy pass
    /// keeps can be veneered by Glue to meet the root requirements.
    fn exhaust(&mut self, resource: &str, detail: String) {
        if self.exhausted.is_some() {
            return;
        }
        self.tracer.emit(|| TraceEvent::BudgetExhausted {
            resource: resource.to_string(),
            detail: detail.clone(),
        });
        self.exhausted = Some(format!("{resource}: {detail}"));
    }

    /// Deadline check, paid once per STAR reference (one clock read).
    fn check_deadline(&mut self) {
        if self.exhausted.is_some() {
            return;
        }
        if let Some(dl) = self.deadline {
            if Instant::now() >= dl {
                let ms = self
                    .config
                    .budget
                    .deadline
                    .map(|d| d.as_millis())
                    .unwrap_or(0);
                self.exhaust("deadline", format!("deadline of {ms} ms elapsed"));
            }
        }
    }

    /// Reference a STAR by name (driver entry point).
    pub fn eval_star_by_name(
        &mut self,
        name: &str,
        args: Vec<RuleValue>,
    ) -> Result<Arc<Vec<PlanRef>>> {
        let id = self
            .rules
            .lookup(name)
            .ok_or_else(|| self.eval_err(name, "no such STAR"))?;
        self.eval_star(id, args)
    }

    /// The reference id events emitted right now should attribute to.
    pub(crate) fn cur_ref(&self) -> u64 {
        self.ref_stack.last().copied().unwrap_or(0)
    }

    /// Reference a STAR: expand its alternative definitions.
    pub fn eval_star(&mut self, id: StarId, args: Vec<RuleValue>) -> Result<Arc<Vec<PlanRef>>> {
        self.stats.star_refs += 1;
        self.check_deadline();
        let key = MemoKey { star: id, args };
        let traced = self.tracer.enabled();
        let spanned = self.spans.enabled();
        // Reference ids advance whenever either consumer needs them: trace
        // events and spans share the same id space, so a span's `meta`
        // cross-references the `star_ref` events of the same request.
        let ref_id = if traced || spanned {
            self.next_ref_id += 1;
            self.next_ref_id
        } else {
            0
        };
        let parent = self.cur_ref();
        if !self.config.ablate_memo {
            if let Some(hit) = self.memo.get(&key) {
                self.stats.memo_hits += 1;
                let hit = hit.clone();
                self.give_buf(key.args);
                self.tracer.emit(|| TraceEvent::StarRef {
                    star: self.rules.star(id).name.clone(),
                    sid: id.0,
                    id: ref_id,
                    parent,
                    memo_hit: true,
                });
                return Ok(hit);
            }
        }
        self.tracer.emit(|| TraceEvent::StarRef {
            star: self.rules.star(id).name.clone(),
            sid: id.0,
            id: ref_id,
            parent,
            memo_hit: false,
        });
        let max_depth = self.config.budget.max_star_depth.unwrap_or(MAX_DEPTH);
        if self.depth >= max_depth {
            return Err(self.eval_err(
                &self.rules.star(id).name,
                "recursion limit exceeded (cyclic STAR definitions?)",
            ));
        }
        self.depth += 1;
        if traced || spanned {
            self.ref_stack.push(ref_id);
        }
        // The expansion's span: nested references nest naturally (one
        // request is expanded by one thread), `meta` carries the ref id.
        let star_span = if spanned {
            self.spans
                .enter_meta(format!("star:{}", self.rules.star(id).name), ref_id)
        } else {
            SpanGuard::noop()
        };
        let start = traced.then(std::time::Instant::now);
        let result = self.eval_star_inner(id, &key.args);
        if traced || spanned {
            self.ref_stack.pop();
        }
        self.depth -= 1;
        let plans = result?;
        let plans = Arc::new(dedup(&mut self.dedup_seen, plans));
        drop(star_span);
        if let Some(start) = start {
            let nanos = start.elapsed().as_nanos() as u64;
            self.star_nanos.record(nanos);
            self.tracer.emit(|| TraceEvent::StarDone {
                star: self.rules.star(id).name.clone(),
                id: ref_id,
                plans: plans.len(),
                nanos,
            });
        }
        match self.config.budget.max_memo_entries {
            // A full memo stops growing (references re-expand from here
            // on) and flips the engine into greedy mode.
            Some(cap) if self.memo.len() >= cap => {
                self.exhaust("memo_entries", format!("memo cap of {cap} entries reached"));
            }
            _ => {
                self.memo.insert(key, plans.clone());
            }
        }
        Ok(plans)
    }

    fn eval_star_inner(&mut self, id: StarId, args: &[RuleValue]) -> Result<Vec<PlanRef>> {
        let star: &'a StarDef = self.rules.star(id);
        let mut out: Vec<PlanRef> = Vec::new();
        let mut first_err: Option<CoreError> = None;
        for (group_idx, group) in star.groups.iter().enumerate() {
            // Environment: parameters, then this group's bindings, then one
            // slot for the forall variable.
            let mut env = self.take_buf();
            env.extend_from_slice(args);
            for b in &group.bindings {
                let v = self.eval_expr(b, &env, &star.name)?;
                env.push(v);
            }
            let mut any_fired = false;
            for (alt_idx, alt) in group.alts.iter().enumerate() {
                if self.quarantined.contains(&(id, group_idx, alt_idx)) {
                    continue;
                }
                self.stats.alts_considered += 1;
                // Quarantine boundary: rules are data, so a panicking or
                // erroring alternative (guard included) disables itself
                // while its siblings keep optimizing. A panic unwinding
                // through nested references leaves depth/ref/glue counters
                // advanced; snapshot them for repair. The alternative
                // appends its plans to `out`; a failed one is cut back off.
                let depth0 = self.depth;
                let stack0 = self.ref_stack.len();
                let glue_depth0 = self.glue_depth;
                let start = out.len();
                let step = catch_unwind(AssertUnwindSafe(|| -> Result<bool> {
                    let fire = match &alt.guard {
                        Guard::Always => true,
                        Guard::Otherwise => !any_fired,
                        Guard::If(cond) => {
                            self.stats.conds_evaluated += 1;
                            // The forall variable is not in scope in the
                            // guard; guards are per-alternative, not
                            // per-item.
                            let v = self.eval_expr(cond, &env, &star.name)?;
                            v.as_bool().ok_or_else(|| {
                                self.eval_err(&star.name, "condition did not evaluate to a boolean")
                            })?
                        }
                    };
                    if !fire {
                        if let Guard::If(cond) = &alt.guard {
                            self.tracer.emit(|| TraceEvent::CondFailed {
                                star: star.name.clone(),
                                alt: alt_idx + 1,
                                ref_id: self.cur_ref(),
                                cond: self.rules.render_expr(cond, &star.params, self.natives),
                            });
                        }
                        return Ok(false);
                    }
                    self.eval_alt(alt, &env, &star.name, alt_idx, &mut out)?;
                    Ok(true)
                }));
                match step {
                    Ok(Ok(false)) => {} // condition of applicability failed
                    Ok(Ok(true)) => {
                        any_fired = true;
                        let produced = &out[start..];
                        self.tracer.emit(|| TraceEvent::AltFired {
                            star: star.name.clone(),
                            alt: alt_idx + 1,
                            ref_id: self.cur_ref(),
                            plans: produced.len(),
                        });
                        for p in produced {
                            self.provenance
                                .entry(p.fingerprint())
                                .or_insert_with(|| Arc::clone(&alt.origin));
                        }
                        let productive = !produced.is_empty();
                        if group.exclusive {
                            break;
                        }
                        // Greedy (degraded) mode: an inclusive group stops
                        // at its first productive alternative.
                        if self.exhausted.is_some() && productive {
                            break;
                        }
                    }
                    Ok(Err(e)) => {
                        out.truncate(start);
                        let e = self.quarantine_alt(id, group_idx, alt_idx, star, alt, e);
                        first_err.get_or_insert(e);
                    }
                    Err(payload) => {
                        out.truncate(start);
                        self.depth = depth0;
                        self.ref_stack.truncate(stack0);
                        self.glue_depth = glue_depth0;
                        let e = CoreError::Panicked {
                            context: format!("STAR {}[alt {}]", star.name, alt_idx + 1),
                            msg: panic_msg(payload),
                        };
                        let e = self.quarantine_alt(id, group_idx, alt_idx, star, alt, e);
                        first_err.get_or_insert(e);
                    }
                }
            }
            self.give_buf(env);
        }
        // Partial failure with surviving plans is quarantine-and-continue;
        // a reference that produced nothing *because* its alternatives
        // failed keeps the first typed error (a fully-broken rule — e.g. a
        // cyclic definition — still fails loudly).
        if out.is_empty() {
            if let Some(e) = first_err {
                return Err(e);
            }
        }
        Ok(out)
    }

    /// A cleared buffer from the recycling pool.
    fn take_buf(&mut self) -> Vec<RuleValue> {
        self.bufs.pop().unwrap_or_default()
    }

    /// Return a buffer to the recycling pool.
    fn give_buf(&mut self, mut buf: Vec<RuleValue>) {
        buf.clear();
        self.bufs.push(buf);
    }

    /// Disable one alternative for the rest of the run, recording a
    /// diagnostic that names the STAR and its condition of applicability.
    fn quarantine_alt(
        &mut self,
        id: StarId,
        group_idx: usize,
        alt_idx: usize,
        star: &StarDef,
        alt: &Alt,
        err: CoreError,
    ) -> CoreError {
        if !self.quarantined.insert((id, group_idx, alt_idx)) {
            return err; // already quarantined (recursive re-entry)
        }
        let cond = match &alt.guard {
            Guard::If(c) => self.rules.render_expr(c, &star.params, self.natives),
            Guard::Otherwise => "otherwise".to_string(),
            Guard::Always => self
                .rules
                .render_expr(&alt.expr, &star.params, self.natives),
        };
        let reason = err.to_string();
        self.tracer.emit(|| TraceEvent::RuleQuarantined {
            star: star.name.clone(),
            alt: alt_idx + 1,
            ref_id: self.cur_ref(),
            cond: cond.clone(),
            reason: reason.clone(),
        });
        self.quarantine_log.push(QuarantineRecord {
            star: star.name.clone(),
            alt: alt_idx + 1,
            cond,
            reason,
        });
        err
    }

    /// Evaluate one alternative, appending the plans it produces to `out`.
    fn eval_alt(
        &mut self,
        alt: &Alt,
        env: &[RuleValue],
        star: &str,
        alt_idx: usize,
        out: &mut Vec<PlanRef>,
    ) -> Result<()> {
        let Some(set_expr) = &alt.forall else {
            let v = self.eval_expr(&alt.expr, env, star)?;
            out.extend(self.want_plans(&v, star)?.iter().cloned());
            return Ok(());
        };
        let items = match self.eval_expr(set_expr, env, star)? {
            RuleValue::List(items) => items,
            other => {
                return Err(self.eval_err(
                    star,
                    format!("forall set must be a list, got {}", other.kind()),
                ))
            }
        };
        // Per-rule expansion cap: excess ∀ items are dropped (degraded),
        // not an error.
        let mut n = items.len();
        if let Some(cap) = self.config.budget.max_forall_items {
            if n > cap {
                self.exhaust(
                    "forall_items",
                    format!("forall expansion of {n} items capped at {cap}"),
                );
                n = cap;
            }
        }
        self.tracer.emit(|| TraceEvent::ForallExpand {
            star: star.to_string(),
            alt: alt_idx + 1,
            ref_id: self.cur_ref(),
            items: n,
        });
        // One environment buffer for every item: the forall slot is the
        // last one and is overwritten per item.
        let mut item_env = self.take_buf();
        item_env.extend_from_slice(env);
        let start = out.len();
        for item in &items[..n] {
            item_env.truncate(env.len());
            item_env.push(item.clone());
            let v = self.eval_expr(&alt.expr, &item_env, star)?;
            out.extend(self.want_plans(&v, star)?.iter().cloned());
            // Greedy (degraded) mode: first productive item wins.
            if self.exhausted.is_some() && out.len() > start {
                break;
            }
        }
        self.give_buf(item_env);
        Ok(())
    }

    fn want_plans(&self, v: &RuleValue, star: &str) -> Result<Arc<Vec<PlanRef>>> {
        match v {
            RuleValue::Plans(p) => Ok(p.clone()),
            other => Err(self.eval_err(
                star,
                format!("alternative did not produce plans (got {})", other.kind()),
            )),
        }
    }

    /// Evaluate one rule expression.
    pub fn eval_expr(&mut self, e: &Expr, env: &[RuleValue], star: &str) -> Result<RuleValue> {
        match e {
            Expr::Const(v) => Ok(v.clone()),
            Expr::Var(slot) => env
                .get(*slot as usize)
                .cloned()
                .ok_or_else(|| self.eval_err(star, format!("unbound slot {slot}"))),
            Expr::CallStar(id, args) => {
                let vals = self.eval_args(args, env, star)?;
                Ok(RuleValue::Plans(self.eval_star(*id, vals)?))
            }
            Expr::CallFn(id, args) => {
                let vals = self.eval_args(args, env, star)?;
                self.stats.native_calls += 1;
                let v = self.call_native(*id, &vals, star);
                self.give_buf(vals);
                v
            }
            Expr::CallOp(name, args) => {
                let vals = self.eval_args(args, env, star)?;
                let plans = self.apply_op(name, &vals, star);
                self.give_buf(vals);
                Ok(RuleValue::Plans(plans?))
            }
            Expr::Glue(stream_e, preds_e) => {
                let sv = self.eval_expr(stream_e, env, star)?;
                let pv = self.eval_expr(preds_e, env, star)?;
                let pushdown = self.as_preds(&pv, star)?;
                match sv {
                    RuleValue::Stream(s) => Ok(RuleValue::Plans(glue::glue(self, s, pushdown)?)),
                    // Glue over an existing SAP: discharge nothing (no
                    // requirements travel with a SAP); retrofit a FILTER for
                    // any pushdown predicates not yet applied.
                    RuleValue::Plans(ps) => {
                        Ok(RuleValue::Plans(glue::glue_plans(self, &ps, pushdown)?))
                    }
                    other => {
                        Err(self
                            .eval_err(star, format!("Glue expects a stream, got {}", other.kind())))
                    }
                }
            }
            Expr::WithReqs(base, reqs) => {
                let b = self.eval_expr(base, env, star)?;
                let mut s = match b {
                    RuleValue::Stream(s) => s,
                    other => {
                        return Err(self.eval_err(
                            star,
                            format!("requirements apply to streams, got {}", other.kind()),
                        ))
                    }
                };
                for r in reqs {
                    match r {
                        ReqExpr::Temp => s.reqs.temp = true,
                        ReqExpr::Order(e) => {
                            let v = self.eval_expr(e, env, star)?;
                            s.reqs.order = Some(self.as_cols(&v, star)?);
                        }
                        ReqExpr::Site(e) => {
                            let v = self.eval_expr(e, env, star)?;
                            match v {
                                RuleValue::Site(site) => s.reqs.site = Some(site),
                                other => {
                                    return Err(self.eval_err(
                                        star,
                                        format!(
                                            "site requirement must be a site, got {}",
                                            other.kind()
                                        ),
                                    ))
                                }
                            }
                        }
                        ReqExpr::Paths(e) => {
                            let v = self.eval_expr(e, env, star)?;
                            let cols = self.as_cols(&v, star)?;
                            if !cols.is_empty() {
                                s.reqs.paths = Some(cols);
                            }
                        }
                    }
                }
                Ok(RuleValue::Stream(s))
            }
            Expr::Binary(op, l, r) => self.eval_binary(*op, l, r, env, star),
            Expr::Not(inner) => {
                let v = self.eval_expr(inner, env, star)?;
                v.as_bool()
                    .map(|b| RuleValue::Bool(!b))
                    .ok_or_else(|| self.eval_err(star, "'not' applied to non-boolean"))
            }
        }
    }

    /// Call a native function behind the fault-injection and panic-
    /// containment boundary: armed faults fire first, then the call runs
    /// under `catch_unwind` so a panicking native becomes a typed error
    /// (and quarantines the invoking alternative).
    fn call_native(&mut self, id: u32, vals: &[RuleValue], star: &str) -> Result<RuleValue> {
        let natives = self.natives;
        if let Some(plan) = &self.faults {
            if let Some(mode) = plan.trigger("native", natives.name(id)) {
                if let Some(msg) = faults::fire(mode, natives.name(id)) {
                    return Err(self.eval_err(star, msg));
                }
            }
        }
        let ctx = self.native_ctx();
        match catch_unwind(AssertUnwindSafe(|| natives.call(id, &ctx, vals))) {
            Ok(r) => r,
            Err(payload) => Err(CoreError::Panicked {
                context: format!("native function '{}'", natives.name(id)),
                msg: panic_msg(payload),
            }),
        }
    }

    fn eval_args(
        &mut self,
        args: &[Expr],
        env: &[RuleValue],
        star: &str,
    ) -> Result<Vec<RuleValue>> {
        let mut vals = self.take_buf();
        for a in args {
            let v = self.eval_expr(a, env, star)?;
            vals.push(v);
        }
        Ok(vals)
    }

    fn eval_binary(
        &mut self,
        op: BinOp,
        l: &Expr,
        r: &Expr,
        env: &[RuleValue],
        star: &str,
    ) -> Result<RuleValue> {
        // Short-circuit booleans.
        if matches!(op, BinOp::And | BinOp::Or) {
            let lv = self.eval_expr(l, env, star)?;
            let lb = lv
                .as_bool()
                .ok_or_else(|| self.eval_err(star, "boolean operator on non-boolean"))?;
            if (op == BinOp::And && !lb) || (op == BinOp::Or && lb) {
                return Ok(RuleValue::Bool(lb));
            }
            let rv = self.eval_expr(r, env, star)?;
            return rv
                .as_bool()
                .map(RuleValue::Bool)
                .ok_or_else(|| self.eval_err(star, "boolean operator on non-boolean"));
        }
        let lv = self.eval_expr(l, env, star)?;
        let rv = self.eval_expr(r, env, star)?;
        Ok(match op {
            BinOp::Eq => RuleValue::Bool(self.loose_eq(&lv, &rv)),
            BinOp::Ne => RuleValue::Bool(!self.loose_eq(&lv, &rv)),
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let (a, b) = match (&lv, &rv) {
                    (RuleValue::Int(a), RuleValue::Int(b)) => (*a, *b),
                    _ => {
                        return Err(self.eval_err(
                            star,
                            format!("ordering comparison on {} and {}", lv.kind(), rv.kind()),
                        ))
                    }
                };
                RuleValue::Bool(match op {
                    BinOp::Lt => a < b,
                    BinOp::Le => a <= b,
                    BinOp::Gt => a > b,
                    BinOp::Ge => a >= b,
                    _ => unreachable!(),
                })
            }
            BinOp::In => match &rv {
                RuleValue::List(items) => RuleValue::Bool(items.contains(&lv)),
                RuleValue::ColSet(cs) => match &lv {
                    RuleValue::Cols(c) if c.len() == 1 => RuleValue::Bool(cs.contains(&c[0])),
                    _ => return Err(self.eval_err(star, "'in' expects a column and a colset")),
                },
                _ => return Err(self.eval_err(star, "'in' expects a list on the right")),
            },
            BinOp::Subset => {
                let a = self.as_preds(&lv, star);
                let b = self.as_preds(&rv, star);
                match (a, b) {
                    (Ok(a), Ok(b)) => RuleValue::Bool(a.is_subset_of(b)),
                    _ => {
                        let a = self.as_colset(&lv, star)?;
                        let b = self.as_colset(&rv, star)?;
                        RuleValue::Bool(a.iter().all(|c| b.contains(c)))
                    }
                }
            }
            BinOp::Union | BinOp::Minus | BinOp::Intersect => self.set_op(op, &lv, &rv, star)?,
            BinOp::And | BinOp::Or => unreachable!(),
        })
    }

    /// `==` with symbol/string interchangeability (so rules can write
    /// `storage_kind(T) == 'heap'` or `== heap`).
    fn loose_eq(&self, a: &RuleValue, b: &RuleValue) -> bool {
        match (a, b) {
            (RuleValue::Str(x), RuleValue::Sym(y)) | (RuleValue::Sym(x), RuleValue::Str(y)) => {
                x == y
            }
            _ => a == b,
        }
    }

    fn set_op(&self, op: BinOp, l: &RuleValue, r: &RuleValue, star: &str) -> Result<RuleValue> {
        // Predicate sets are the common case; `{}` is canonical empty preds
        // and coerces to either side.
        if let (Ok(a), Ok(b)) = (self.as_preds(l, star), self.as_preds(r, star)) {
            return Ok(RuleValue::Preds(match op {
                BinOp::Union => a.union(b),
                BinOp::Minus => a.minus(b),
                BinOp::Intersect => a.intersect(b),
                _ => unreachable!(),
            }));
        }
        // Column lists: ordered union/minus/intersect.
        let a = self.as_cols(l, star)?;
        let b = self.as_cols(r, star)?;
        let out: Vec<QCol> = match op {
            BinOp::Union => {
                let mut v = a;
                for c in b {
                    if !v.contains(&c) {
                        v.push(c);
                    }
                }
                v
            }
            BinOp::Minus => a.into_iter().filter(|c| !b.contains(c)).collect(),
            BinOp::Intersect => a.into_iter().filter(|c| b.contains(c)).collect(),
            _ => unreachable!(),
        };
        Ok(RuleValue::Cols(Arc::new(out)))
    }

    // ---- coercions ------------------------------------------------------

    pub fn as_preds(&self, v: &RuleValue, star: &str) -> Result<PredSet> {
        match v {
            RuleValue::Preds(p) => Ok(*p),
            other => Err(self.eval_err(star, format!("expected preds, got {}", other.kind()))),
        }
    }

    /// Ordered column list; `{}` (empty preds) coerces to the empty list.
    pub fn as_cols(&self, v: &RuleValue, star: &str) -> Result<Vec<QCol>> {
        match v {
            RuleValue::Cols(c) => Ok(c.as_ref().clone()),
            RuleValue::ColSet(c) => Ok(c.iter().copied().collect()),
            RuleValue::Preds(p) if p.is_empty() => Ok(Vec::new()),
            other => Err(self.eval_err(star, format!("expected columns, got {}", other.kind()))),
        }
    }

    pub fn as_colset(&self, v: &RuleValue, star: &str) -> Result<std::collections::BTreeSet<QCol>> {
        match v {
            RuleValue::ColSet(c) => Ok(c.as_ref().clone()),
            RuleValue::Cols(c) => Ok(c.iter().copied().collect()),
            RuleValue::Preds(p) if p.is_empty() => Ok(Default::default()),
            other => Err(self.eval_err(star, format!("expected column set, got {}", other.kind()))),
        }
    }

    // ---- LOLEPOP application ---------------------------------------------

    /// Apply a LOLEPOP reference: map over the cartesian product of its SAP
    /// arguments, building one plan node per combination. Combinations a
    /// property function rejects are skipped (counted), not fatal — rules
    /// offer alternatives, and illegal ones simply produce no plan.
    fn apply_op(
        &mut self,
        name: &str,
        args: &[RuleValue],
        star: &str,
    ) -> Result<Arc<Vec<PlanRef>>> {
        let out = match name {
            "ACCESS" => self.op_access(args, star)?,
            "GET" => self.op_get(args, star)?,
            "SORT" => {
                let plans = self.arg_plans(args, 0, "SORT", star)?;
                let key = self.as_cols(&args[1], star)?;
                self.map_unary(&plans, |_| Lolepop::Sort { key: key.clone() })?
            }
            "SHIP" => {
                let plans = self.arg_plans(args, 0, "SHIP", star)?;
                let to = match &args[1] {
                    RuleValue::Site(s) => *s,
                    other => {
                        return Err(self.eval_err(star, format!("SHIP site: got {}", other.kind())))
                    }
                };
                self.map_unary(&plans, |_| Lolepop::Ship { to })?
            }
            "STORE" => {
                let plans = self.arg_plans(args, 0, "STORE", star)?;
                self.map_unary(&plans, |_| Lolepop::Store)?
            }
            "BUILD_INDEX" => {
                let plans = self.arg_plans(args, 0, "BUILD_INDEX", star)?;
                let key = self.as_cols(&args[1], star)?;
                self.map_unary(&plans, |_| Lolepop::BuildIndex { key: key.clone() })?
            }
            "FILTER" => {
                let plans = self.arg_plans(args, 0, "FILTER", star)?;
                let preds = self.as_preds(&args[1], star)?;
                self.map_unary(&plans, |_| Lolepop::Filter { preds })?
            }
            "JOIN" => self.op_join(args, star)?,
            "UNION" => {
                let l = self.arg_plans(args, 0, "UNION", star)?;
                let r = self.arg_plans(args, 1, "UNION", star)?;
                let mut out = Vec::new();
                for a in l.iter() {
                    for b in r.iter() {
                        self.try_build(Lolepop::Union, vec![a.clone(), b.clone()], &mut out)?;
                    }
                }
                out
            }
            ext => self.op_ext(ext, args, star)?,
        };
        Ok(Arc::new(dedup(&mut self.dedup_seen, out)))
    }

    fn arg_plans(
        &self,
        args: &[RuleValue],
        i: usize,
        op: &str,
        star: &str,
    ) -> Result<Arc<Vec<PlanRef>>> {
        args.get(i)
            .and_then(|v| v.plans().cloned())
            .ok_or_else(|| self.eval_err(star, format!("{op}: argument {i} must be plans")))
    }

    /// Emit the `plan_built` trace event for a freshly built plan node —
    /// shared by rule-built plans and Glue veneers so estimate→actual
    /// analytics see a per-component cost breakdown for every node that
    /// can appear in a winning plan.
    fn emit_plan_built(&self, p: &PlanRef) {
        self.tracer.emit(|| {
            let by = p.props.cost.breakdown();
            TraceEvent::PlanBuilt {
                op: p.op.name(),
                fp: p.fingerprint(),
                ref_id: self.cur_ref(),
                card: p.props.card,
                cost_once: p.props.cost.once,
                cost_rescan: p.props.cost.rescan,
                breakdown: CostBreakdownEv {
                    io: by.io,
                    cpu: by.cpu,
                    comm: by.comm,
                    other: by.other,
                },
            }
        });
    }

    /// Build a Glue veneer node (SORT / SHIP / STORE / FILTER / BUILD_INDEX
    /// / temp-index probe), emitting `plan_built` like rule-built plans do.
    /// Veneers are the only nodes carrying pure sort and communication
    /// cost, so calibration would be blind to those components without
    /// their breakdowns. Counts toward `glue_veneers`, not `plans_built` —
    /// a veneer is impedance matching, not a strategy alternative.
    pub(crate) fn build_veneer(&mut self, op: Lolepop, inputs: Vec<PlanRef>) -> Result<PlanRef> {
        let ctx = self.prop_ctx();
        let prop = self.prop;
        let faults = self.faults.clone();
        let op_name = faults.is_some().then(|| op.name());
        let built = catch_unwind(AssertUnwindSafe(|| {
            if let (Some(plan), Some(name)) = (&faults, &op_name) {
                if let Some(mode) = plan.trigger("prop", name) {
                    if let Some(msg) = faults::fire(mode, name) {
                        return Err(CoreError::Glue(msg));
                    }
                }
            }
            prop.build(op, inputs, &ctx).map_err(CoreError::from)
        }));
        let p = match built {
            Ok(r) => r?,
            Err(payload) => {
                return Err(CoreError::Panicked {
                    context: "property function (glue veneer)".to_string(),
                    msg: panic_msg(payload),
                })
            }
        };
        self.stats.glue_veneers += 1;
        self.emit_plan_built(&p);
        Ok(p)
    }

    /// Run a property function under the fault-injection and panic-
    /// containment boundary. A typed rejection stays a counted rejection;
    /// a panic becomes `CoreError::Panicked` for the caller to propagate
    /// (quarantining the invoking alternative).
    fn try_build(
        &mut self,
        op: Lolepop,
        inputs: Vec<PlanRef>,
        out: &mut Vec<PlanRef>,
    ) -> Result<()> {
        let ctx = PropCtx::new(self.catalog, self.query, self.model);
        // `op` moves into build(); keep its name around only when tracing
        // or fault matching needs it.
        let op_name = if self.tracer.enabled() || self.faults.is_some() {
            Some(op.name())
        } else {
            None
        };
        let prop = self.prop;
        let faults = self.faults.clone();
        let built = catch_unwind(AssertUnwindSafe(|| {
            if let (Some(plan), Some(name)) = (&faults, &op_name) {
                if let Some(mode) = plan.trigger("prop", name) {
                    if let Some(msg) = faults::fire(mode, name) {
                        return Err(CoreError::Eval {
                            star: "<injected>".to_string(),
                            msg,
                        });
                    }
                }
            }
            prop.build(op, inputs, &ctx).map_err(CoreError::from)
        }));
        match built {
            Ok(Ok(p)) => {
                self.stats.plans_built += 1;
                if let Some(cap) = self.config.budget.max_plans_built {
                    if self.stats.plans_built >= cap {
                        self.exhaust("plans_built", format!("plan cap of {cap} nodes reached"));
                    }
                }
                self.plan_cost
                    .record(p.props.cost.once.max(0.0).round() as u64);
                self.emit_plan_built(&p);
                out.push(p);
                Ok(())
            }
            Ok(Err(e)) => {
                self.stats.plans_rejected += 1;
                self.tracer.emit(|| TraceEvent::PlanRejected {
                    op: op_name.clone().unwrap_or_default(),
                    ref_id: self.cur_ref(),
                    reason: e.to_string(),
                });
                Ok(())
            }
            Err(payload) => Err(CoreError::Panicked {
                context: format!(
                    "property function for {}",
                    op_name.unwrap_or_else(|| "operator".to_string())
                ),
                msg: panic_msg(payload),
            }),
        }
    }

    fn map_unary(
        &mut self,
        plans: &Arc<Vec<PlanRef>>,
        mut op: impl FnMut(&PlanRef) -> Lolepop,
    ) -> Result<Vec<PlanRef>> {
        let mut out = Vec::new();
        for p in plans.iter() {
            let o = op(p);
            self.try_build(o, vec![p.clone()], &mut out)?;
        }
        Ok(out)
    }

    fn op_access(&mut self, args: &[RuleValue], star: &str) -> Result<Vec<PlanRef>> {
        if args.len() != 4 {
            return Err(self.eval_err(star, "ACCESS takes (flavor, target, cols, preds)"));
        }
        let flavor = match &args[0] {
            RuleValue::Sym(s) | RuleValue::Str(s) => s.clone(),
            other => {
                return Err(self.eval_err(star, format!("ACCESS flavor: got {}", other.kind())))
            }
        };
        let preds = self.as_preds(&args[3], star)?;
        let mut out = Vec::new();
        match (&args[1], flavor.as_ref()) {
            (RuleValue::Stream(s), "heap" | "btree") => {
                let q = s.tables.as_single().ok_or_else(|| {
                    self.eval_err(star, "base-table ACCESS requires a single-table stream")
                })?;
                let cols = match &args[2] {
                    RuleValue::AllCols => {
                        let t = self.catalog.table(self.query.quantifier(q).table);
                        (0..t.columns.len() as u32)
                            .map(|c| QCol::new(q, ColId(c)))
                            .collect()
                    }
                    other => self.as_colset(other, star)?,
                };
                let spec = if flavor.as_ref() == "heap" {
                    AccessSpec::HeapTable(q)
                } else {
                    AccessSpec::BTreeTable(q)
                };
                self.try_build(Lolepop::Access { spec, cols, preds }, vec![], &mut out)?;
            }
            (RuleValue::Index(ix, q), "index") => {
                let cols = self.as_colset(&args[2], star)?;
                self.try_build(
                    Lolepop::Access {
                        spec: AccessSpec::Index { index: *ix, q: *q },
                        cols,
                        preds,
                    },
                    vec![],
                    &mut out,
                )?;
            }
            (RuleValue::Plans(plans), "heap" | "temp") => {
                for p in plans.iter() {
                    let cols = match &args[2] {
                        RuleValue::AllCols => p.props.cols.clone(),
                        other => self.as_colset(other, star)?,
                    };
                    self.try_build(
                        Lolepop::Access {
                            spec: AccessSpec::TempHeap,
                            cols,
                            preds,
                        },
                        vec![p.clone()],
                        &mut out,
                    )?;
                }
            }
            (target, fl) => {
                return Err(self.eval_err(
                    star,
                    format!("ACCESS: unsupported flavor {fl} on {}", target.kind()),
                ))
            }
        }
        Ok(out)
    }

    fn op_get(&mut self, args: &[RuleValue], star: &str) -> Result<Vec<PlanRef>> {
        if args.len() != 4 {
            return Err(self.eval_err(star, "GET takes (input, table, cols, preds)"));
        }
        let input = self.arg_plans(args, 0, "GET", star)?;
        let q = match &args[1] {
            RuleValue::Stream(s) => s.tables.as_single().ok_or_else(|| {
                self.eval_err(star, "GET requires a single-table stream parameter")
            })?,
            other => return Err(self.eval_err(star, format!("GET table: got {}", other.kind()))),
        };
        let cols = match &args[2] {
            RuleValue::AllCols => {
                let t = self.catalog.table(self.query.quantifier(q).table);
                (0..t.columns.len() as u32)
                    .map(|c| QCol::new(q, ColId(c)))
                    .collect()
            }
            other => self.as_colset(other, star)?,
        };
        let preds = self.as_preds(&args[3], star)?;
        self.map_unary(&input, |_| Lolepop::Get {
            q,
            cols: cols.clone(),
            preds,
        })
    }

    fn op_join(&mut self, args: &[RuleValue], star: &str) -> Result<Vec<PlanRef>> {
        if args.len() != 5 {
            return Err(self.eval_err(
                star,
                "JOIN takes (flavor, outer, inner, join_preds, residual)",
            ));
        }
        let flavor = match &args[0] {
            RuleValue::Sym(s) | RuleValue::Str(s) => match s.as_ref() {
                "NL" => JoinFlavor::NL,
                "MG" => JoinFlavor::MG,
                "HA" => JoinFlavor::HA,
                other => return Err(self.eval_err(star, format!("unknown JOIN flavor {other}"))),
            },
            other => return Err(self.eval_err(star, format!("JOIN flavor: got {}", other.kind()))),
        };
        let outer = self.arg_plans(args, 1, "JOIN", star)?;
        let inner = self.arg_plans(args, 2, "JOIN", star)?;
        let join_preds = self.as_preds(&args[3], star)?;
        let residual = self.as_preds(&args[4], star)?;
        let mut out = Vec::new();
        for o in outer.iter() {
            for i in inner.iter() {
                self.try_build(
                    Lolepop::Join {
                        flavor,
                        join_preds,
                        residual,
                    },
                    vec![o.clone(), i.clone()],
                    &mut out,
                )?;
            }
        }
        Ok(out)
    }

    /// Extension operators: SAP arguments become plan inputs (in order);
    /// scalar arguments are packaged as `ExtArg`s.
    fn op_ext(&mut self, name: &str, args: &[RuleValue], star: &str) -> Result<Vec<PlanRef>> {
        if !self.prop.has_ext(name) {
            return Err(self.eval_err(star, format!("unknown operator {name}")));
        }
        let mut plan_args: Vec<Arc<Vec<PlanRef>>> = Vec::new();
        let mut ext_args: Vec<ExtArg> = Vec::new();
        for a in args {
            match a {
                RuleValue::Plans(p) => plan_args.push(p.clone()),
                RuleValue::Preds(p) => ext_args.push(ExtArg::Preds(*p)),
                RuleValue::Int(i) => ext_args.push(ExtArg::Int(*i)),
                RuleValue::Str(s) | RuleValue::Sym(s) => ext_args.push(ExtArg::Str(s.clone())),
                RuleValue::Site(s) => ext_args.push(ExtArg::Site(*s)),
                RuleValue::Cols(c) => ext_args.push(ExtArg::Cols(c.as_ref().clone())),
                other => {
                    return Err(self.eval_err(
                        star,
                        format!("{name}: unsupported argument {}", other.kind()),
                    ))
                }
            }
        }
        let arity = plan_args.len();
        let op = Lolepop::Ext {
            name: Arc::from(name),
            args: ext_args,
            arity,
        };
        // Cartesian product over SAP arguments.
        let mut combos: Vec<Vec<PlanRef>> = vec![Vec::new()];
        for sap in &plan_args {
            let mut next = Vec::new();
            for c in &combos {
                for p in sap.iter() {
                    let mut c2 = c.clone();
                    c2.push(p.clone());
                    next.push(c2);
                }
            }
            combos = next;
        }
        let mut out = Vec::new();
        for inputs in combos {
            self.try_build(op.clone(), inputs, &mut out)?;
        }
        Ok(out)
    }
}

impl Engine<'_> {
    /// The recorded rule origin of a plan node, if any.
    pub fn origin(&self, fingerprint: u64) -> Option<&str> {
        self.provenance.get(&fingerprint).map(|s| &**s)
    }
}

/// Drop structurally duplicate plans, keeping the first of each. `seen` is
/// caller-owned scratch, cleared here, so repeated calls reuse its table.
pub fn dedup(seen: &mut HashSet<u64>, mut plans: Vec<PlanRef>) -> Vec<PlanRef> {
    seen.clear();
    plans.retain(|p| seen.insert(p.fingerprint()));
    plans
}

/// Convenience: make a stream value.
pub fn stream(tables: QSet) -> RuleValue {
    RuleValue::Stream(StreamRef::new(tables))
}
