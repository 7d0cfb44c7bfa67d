//! The optimizer facade: rules in, plans out.

use std::collections::BTreeSet;
use std::sync::Arc;

use starqo_catalog::Catalog;
use starqo_plan::{CostModel, ExtPropFn, PlanRef, PropEngine};
use starqo_query::Query;
use starqo_trace::{
    Metric, MetricsRegistry, MetricsSummary, Phase, SpanContext, Telemetry, TraceEvent, Tracer,
};

use crate::budget::Budget;
use crate::compile::{compile_into, CompileEnv};
use crate::engine::{Engine, OptStats, QuarantineRecord};
use crate::enumerate::enumerate;
use crate::error::{panic_msg, CoreError, Result};
use crate::faults::FaultPlan;
use crate::natives::Natives;
use crate::rules::RuleSet;
use crate::table::TableStats;

/// Compile-time parameters of an optimization run (§2.3 and §4 describe all
/// of these as parameters or rule conditions, not code).
#[derive(Debug, Clone, Default)]
pub struct OptConfig {
    /// Allow composite inners (bushy plans), e.g. `(A*B)*(C*D)`.
    pub composite_inners: bool,
    /// Consider Cartesian products between two streams of small estimated
    /// cardinality.
    pub cartesian: bool,
    /// Glue returns all satisfying plans instead of only the cheapest.
    pub glue_keep_all: bool,
    /// Enabled optional strategy families, tested by rules via
    /// `enabled('...')`: `hashjoin`, `force_projection`, `dynamic_index`,
    /// `tid_sort`.
    pub enabled: BTreeSet<String>,
    /// ABLATION: disable STAR-reference memoization (every reference
    /// re-expands). Quantifies §1's shared-fragment reuse.
    pub ablate_memo: bool,
    /// ABLATION: disable property-aware plan-table pruning (keep every
    /// non-duplicate plan). Quantifies the System-R style dominance test.
    pub ablate_pruning: bool,
    /// Resource budget for the run. Exhaustion degrades the run to greedy,
    /// best-so-far exploration (`Optimized::degraded`) instead of erroring.
    pub budget: Budget,
    /// Armed fault-injection plan (robustness testing; see
    /// [`crate::faults`]). `None` in production.
    pub faults: Option<Arc<FaultPlan>>,
}

impl OptConfig {
    /// Enable an optional strategy family (chainable).
    pub fn enable(mut self, feature: &str) -> Self {
        self.enabled.insert(feature.to_string());
        self
    }

    /// Everything on: bushy plans, Cartesian products, and all §4.5
    /// extension strategies.
    pub fn full() -> Self {
        OptConfig {
            composite_inners: true,
            cartesian: true,
            glue_keep_all: false,
            enabled: ["hashjoin", "force_projection", "dynamic_index", "tid_sort"]
                .into_iter()
                .map(String::from)
                .collect(),
            ablate_memo: false,
            ablate_pruning: false,
            budget: Budget::default(),
            faults: None,
        }
    }
}

/// The outcome of one optimization.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The chosen (cheapest) executable plan.
    pub best: PlanRef,
    /// All surviving alternatives for the full query (pre-final-Glue).
    pub root_alternatives: Vec<PlanRef>,
    /// Interpreter work counters.
    pub stats: OptStats,
    /// Plan-table churn counters.
    pub table_stats: TableStats,
    /// Plans retained in the plan table at the end.
    pub table_plans: usize,
    /// Relational keys in the plan table at the end.
    pub table_keys: usize,
    /// Rule provenance: node fingerprint → "Star[alt k]" (or "Glue") that
    /// first produced it — §1's "traced to explain the origin of any
    /// execution plan".
    pub provenance: std::collections::HashMap<u64, Arc<str>>,
    /// Counters and per-phase wall-clock timings for this run.
    pub metrics: MetricsSummary,
    /// True when a budget resource ran out and the plan came from greedy,
    /// best-so-far exploration (anytime semantics). The plan is still
    /// complete and executable.
    pub degraded: bool,
    /// Which resource ran out first ("resource: detail"), when degraded.
    pub degraded_reason: Option<String>,
    /// Rule alternatives disabled after panicking or erroring during this
    /// run, with rendered diagnostics.
    pub quarantined: Vec<QuarantineRecord>,
}

impl Optimized {
    /// The origin chain of a plan: one line per node, pre-order, annotated
    /// with the rule alternative that produced it.
    pub fn origin_trace(&self, plan: &PlanRef) -> Vec<String> {
        let mut out = Vec::new();
        plan.visit(&mut |n| {
            let rule = self
                .provenance
                .get(&n.fingerprint())
                .map(|s| &**s)
                .unwrap_or("(driver)");
            out.push(format!("{} <= {}", n.op.name(), rule));
        });
        out
    }
}

/// A rule-driven query optimizer: a catalog snapshot and a cost model,
/// bound to a shared compiled repertoire (rule set, native-function
/// registry, property-function registry).
pub struct Optimizer {
    catalog: Arc<Catalog>,
    model: CostModel,
    repertoire: Arc<Repertoire>,
}

/// Everything compiled from rule text and registrations. Rules never read
/// the catalog, so one repertoire serves every catalog snapshot: optimizers
/// rebound with [`Optimizer::with_catalog`] share it, and a registration or
/// rule load on one of them copies it first.
#[derive(Clone)]
struct Repertoire {
    rules: RuleSet,
    natives: Natives,
    prop: PropEngine,
    ext_ops: BTreeSet<String>,
    /// Accumulated wall time spent compiling rule text (reported as the
    /// `compile` phase of every subsequent optimization's metrics).
    compile_nanos: u64,
    /// Structural lint warnings accumulated over every `load_rules` call.
    warnings: Vec<starqo_dsl::LintWarning>,
}

impl Optimizer {
    /// An optimizer with the built-in rule files (§4's R\* strategy space
    /// plus the §4.5 extensions, which stay dormant until enabled).
    pub fn new(catalog: Arc<Catalog>) -> Result<Self> {
        let mut opt = Self::empty(catalog);
        opt.load_rules(crate::ACCESS_RULES)?;
        opt.load_rules(crate::JOIN_RULES)?;
        opt.load_rules(crate::EXTENSION_RULES)?;
        Ok(opt)
    }

    /// An optimizer with no rules loaded (build your own repertoire).
    pub fn empty(catalog: Arc<Catalog>) -> Self {
        Optimizer {
            catalog,
            model: CostModel::default(),
            repertoire: Arc::new(Repertoire {
                rules: RuleSet::default(),
                natives: Natives::builtin(),
                prop: PropEngine::new(),
                ext_ops: BTreeSet::new(),
                compile_nanos: 0,
                warnings: Vec::new(),
            }),
        }
    }

    /// This optimizer rebound to another catalog snapshot, sharing the
    /// compiled repertoire: O(1), nothing is recompiled. Plans equal those
    /// of a freshly compiled optimizer over `catalog` with the same rules,
    /// registrations, and cost model.
    pub fn with_catalog(&self, catalog: Arc<Catalog>) -> Optimizer {
        Optimizer {
            catalog,
            model: self.model.clone(),
            repertoire: Arc::clone(&self.repertoire),
        }
    }

    /// Compile additional rule text into the rule set. Re-defining an
    /// existing STAR *appends* alternatives (§4.5); new STARs simply become
    /// referenceable.
    pub fn load_rules(&mut self, text: &str) -> Result<()> {
        let started = std::time::Instant::now();
        let rep = Arc::make_mut(&mut self.repertoire);
        let result = (|| {
            let ast = starqo_dsl::parse_rules(text)?;
            // Structural lints are advisory: legal-but-suspect rule shapes
            // accumulate as warnings instead of failing the load.
            rep.warnings.extend(starqo_dsl::lint_rules(&ast));
            let env = CompileEnv {
                natives: &rep.natives,
                ext_ops: &rep.ext_ops,
            };
            compile_into(&mut rep.rules, &ast, &env)
        })();
        rep.compile_nanos += started.elapsed().as_nanos() as u64;
        result
    }

    /// Structural lint warnings from every rule file loaded so far
    /// (unused parameters, unreachable alternatives, recursion without a
    /// base case).
    pub fn warnings(&self) -> &[starqo_dsl::LintWarning] {
        &self.repertoire.warnings
    }

    /// Register a new LOLEPOP (§5): name + property function. Rules loaded
    /// afterwards may reference it like any built-in operator. The run-time
    /// routine is registered separately with the executor.
    pub fn register_ext_op(&mut self, name: &str, prop_fn: ExtPropFn) {
        let rep = Arc::make_mut(&mut self.repertoire);
        rep.prop.register_ext(name, prop_fn);
        rep.ext_ops.insert(name.to_string());
    }

    /// Register a native condition/set function usable from rules.
    pub fn register_native(&mut self, name: &str, f: crate::natives::NativeFn) {
        Arc::make_mut(&mut self.repertoire)
            .natives
            .register(name, f);
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    pub fn set_cost_model(&mut self, model: CostModel) {
        self.model = model;
    }

    pub fn rules(&self) -> &RuleSet {
        &self.repertoire.rules
    }

    /// Optimize one query under the given configuration.
    pub fn optimize(&self, query: &Query, config: &OptConfig) -> Result<Optimized> {
        self.optimize_traced(query, config, Tracer::off())
    }

    /// [`Self::optimize_traced`] with the live telemetry plane attached:
    /// after a successful run, the engine's work counters (STAR references,
    /// memo hits, plans built, Glue invocations) fold into `telemetry` so
    /// live dashboards see optimizer work without per-request trace events.
    /// Latency histograms are the caller's concern — the serving layer
    /// times the paths it owns.
    pub fn optimize_observed(
        &self,
        query: &Query,
        config: &OptConfig,
        tracer: Tracer,
        telemetry: &Telemetry,
    ) -> Result<Optimized> {
        self.optimize_spanned(query, config, tracer, telemetry, &SpanContext::off())
    }

    /// [`Self::optimize_observed`] with a request's span recorder
    /// attached: the engine records one span per non-memoized STAR
    /// expansion (`star:<Name>`, `meta` = the `star_ref` id) and per
    /// top-level Glue invocation, all nested under an `enumerate` span —
    /// the cold path of the request's span tree.
    pub fn optimize_spanned(
        &self,
        query: &Query,
        config: &OptConfig,
        tracer: Tracer,
        telemetry: &Telemetry,
        spans: &SpanContext,
    ) -> Result<Optimized> {
        let out = self.optimize_inner(query, config, tracer, spans)?;
        telemetry.add(Metric::StarRefs, out.stats.star_refs);
        telemetry.add(Metric::MemoHits, out.stats.memo_hits);
        telemetry.add(Metric::PlansBuilt, out.stats.plans_built);
        telemetry.add(Metric::GlueRefs, out.stats.glue_refs);
        Ok(out)
    }

    /// [`Self::optimize`] with a structured-event tracer attached. The
    /// engine, plan table, and Glue all emit through it; phase timings and
    /// work counters land in [`Optimized::metrics`].
    pub fn optimize_traced(
        &self,
        query: &Query,
        config: &OptConfig,
        tracer: Tracer,
    ) -> Result<Optimized> {
        self.optimize_inner(query, config, tracer, &SpanContext::off())
    }

    fn optimize_inner(
        &self,
        query: &Query,
        config: &OptConfig,
        tracer: Tracer,
        spans: &SpanContext,
    ) -> Result<Optimized> {
        let mut metrics = MetricsRegistry::new();
        let rep = &*self.repertoire;
        let mut engine = Engine::new(
            &rep.rules,
            &rep.natives,
            &rep.prop,
            &self.catalog,
            query,
            &self.model,
            config,
        );
        engine.set_tracer(tracer.clone());
        engine.set_spans(spans.clone());
        let span = tracer.span("optimize");
        let enumerate_span = spans.enter("enumerate");
        let timer = metrics.start(Phase::Enumerate);
        // Last-resort containment: panics escaping the engine's per-
        // alternative quarantine (e.g. from driver-level Glue) surface as
        // a typed error, never a process abort.
        let out =
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| enumerate(&mut engine)))
            {
                Ok(r) => r,
                Err(payload) => Err(CoreError::Panicked {
                    context: "enumeration".to_string(),
                    msg: panic_msg(payload),
                }),
            };
        metrics.finish(timer);
        drop(enumerate_span);
        drop(span);
        let out = out?;
        // Emit the winning plan's lineage: one pre-order `best_node` per
        // operator, annotated with the rule alternative that produced it —
        // offline analytics recover "which rules built the winner" without
        // re-running the optimizer.
        if tracer.enabled() {
            out.best.visit_depth(&mut |n, depth| {
                tracer.emit(|| TraceEvent::BestNode {
                    op: n.op.name(),
                    fp: n.fingerprint(),
                    depth,
                    origin: engine
                        .provenance
                        .get(&n.fingerprint())
                        .map_or_else(|| "(driver)".to_string(), |s| s.to_string()),
                    card: n.props.card,
                    cost: n.props.cost.total(),
                });
            });
        }
        // Glue time is nested inside enumeration; report it under its own
        // phase (and leave it inside `enumerate` — callers comparing the two
        // see how much of enumeration is property enforcement).
        metrics.add_phase_nanos(Phase::Glue, engine.glue_nanos());
        metrics.add_phase_nanos(Phase::Compile, rep.compile_nanos);
        let s = engine.stats;
        metrics.count("star_refs", s.star_refs);
        metrics.count("memo_hits", s.memo_hits);
        metrics.count("alts_considered", s.alts_considered);
        metrics.count("conds_evaluated", s.conds_evaluated);
        metrics.count("plans_built", s.plans_built);
        metrics.count("plans_rejected", s.plans_rejected);
        metrics.count("glue_refs", s.glue_refs);
        metrics.count("glue_cache_hits", s.glue_cache_hits);
        metrics.count("glue_veneers", s.glue_veneers);
        metrics.count("native_calls", s.native_calls);
        let t = engine.table.stats;
        metrics.count("table_offered", t.offered);
        metrics.count("table_dominated", t.dominated);
        metrics.count("table_evicted", t.evicted);
        metrics.count("table_duplicates", t.duplicates);
        metrics.merge_hist("star_ref_nanos", &engine.star_nanos);
        metrics.merge_hist("plan_cost_once", &engine.plan_cost);
        metrics.count("rules_quarantined", engine.quarantine_log.len() as u64);
        metrics.count("degraded", engine.degraded() as u64);
        let degraded = engine.degraded();
        let degraded_reason = engine.degraded_reason().map(str::to_string);
        Ok(Optimized {
            best: out.best,
            root_alternatives: out.root_alternatives,
            stats: engine.stats,
            table_stats: engine.table.stats,
            table_plans: engine.table.total_plans(),
            table_keys: engine.table.total_keys(),
            provenance: engine.provenance,
            metrics: metrics.summary(),
            degraded,
            degraded_reason,
            quarantined: engine.quarantine_log,
        })
    }
}
