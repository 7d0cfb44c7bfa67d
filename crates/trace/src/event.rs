//! The typed event taxonomy emitted by the optimizer and executor.
//!
//! Every variant serializes to one flat JSON object (see
//! [`TraceEvent::to_json`]) with a `"type"` discriminator, so a JSON-Lines
//! trace is trivially greppable/`jq`-able — and parses back via
//! [`TraceEvent::from_json`], so offline tooling (the `starqo-obs`
//! analytics) consumes the same stream the sinks wrote.
//!
//! Attribution model: every STAR reference gets a unique `id` and carries
//! the `parent` reference id it was expanded under (0 = the enumeration
//! driver), so the full expansion tree reconstructs from a flat stream.
//! Events emitted while an alternative evaluates carry the enclosing
//! reference's id as `ref_id`, and plan-construction/table events carry the
//! plan's structural fingerprint `fp`, letting consumers join "which rule
//! built the plan" with "what the plan table did to it".

use crate::json::JsonObj;
use crate::read::{parse_json, JsonValue};

/// Per-component cost attribution carried on plan-construction events.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostBreakdownEv {
    pub io: f64,
    pub cpu: f64,
    pub comm: f64,
    pub other: f64,
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A STAR was referenced (possibly satisfied from the memo). `sid` is
    /// the stable index of the STAR in the rule set; `id` is unique per
    /// reference; `parent` is the enclosing reference's id (0 = driver).
    StarRef {
        star: String,
        sid: u32,
        id: u64,
        parent: u64,
        memo_hit: bool,
    },
    /// A non-memoized STAR reference finished expanding: how many plans it
    /// returned and its inclusive wall-clock time. Pairs with the
    /// `StarRef` of the same `id`.
    StarDone {
        star: String,
        id: u64,
        plans: usize,
        nanos: u64,
    },
    /// One alternative of a STAR fired and produced plans.
    AltFired {
        star: String,
        alt: usize,
        ref_id: u64,
        plans: usize,
    },
    /// An alternative's condition of applicability evaluated to false.
    /// `cond` is the rendered condition text (for failure attribution).
    CondFailed {
        star: String,
        alt: usize,
        ref_id: u64,
        cond: String,
    },
    /// A `forall` alternative expanded over a set (∀-fan-out).
    ForallExpand {
        star: String,
        alt: usize,
        ref_id: u64,
        items: usize,
    },
    /// The Glue mechanism was invoked to meet required properties.
    GlueRef {
        ref_id: u64,
        cache_hit: bool,
        candidates: usize,
        veneers: usize,
    },
    /// A plan node was built, with its estimated properties and cost split.
    PlanBuilt {
        op: String,
        fp: u64,
        ref_id: u64,
        card: f64,
        cost_once: f64,
        cost_rescan: f64,
        breakdown: CostBreakdownEv,
    },
    /// A candidate operator application failed to build (illegal combo).
    PlanRejected {
        op: String,
        ref_id: u64,
        reason: String,
    },
    /// A plan entered the plan table.
    TableInsert {
        op: String,
        fp: u64,
        cost: f64,
        evicted: usize,
    },
    /// A plan was pruned: dominated by an existing entry, or a duplicate.
    TablePrune {
        op: String,
        fp: u64,
        cost: f64,
        duplicate: bool,
    },
    /// An existing table entry was evicted by a dominating newcomer.
    TableDominated { op: String, fp: u64, cost: f64 },
    /// One node of the winning plan (emitted pre-order after optimization
    /// succeeds), annotated with the rule alternative that built it.
    BestNode {
        op: String,
        fp: u64,
        depth: usize,
        origin: String,
        card: f64,
        cost: f64,
    },
    /// Per-LOLEPOP actuals recorded by the executor. `fp` is the plan
    /// node's structural fingerprint — the same key `PlanBuilt` and
    /// `BestNode` carry — so estimate-vs-actual joins need no side channel.
    ExecNode {
        op: String,
        fp: u64,
        rows_out: u64,
        invocations: u64,
        nanos: u64,
    },
    /// A workload runner is about to optimize + execute one named query.
    /// Delimits per-query segments in a combined multi-query stream: every
    /// event until the next `QueryStart` belongs to this query.
    QueryStart { name: String },
    /// The named query finished executing: final row count and inclusive
    /// optimize+execute wall-clock time.
    QueryDone { name: String, rows: u64, nanos: u64 },
    /// A free-form named counter observation (metrics bridge).
    Counter { name: String, value: u64 },
    /// A rule alternative panicked or errored and was disabled for the
    /// rest of the run; `cond` is the rendered condition of applicability
    /// (or the alternative's expression when unguarded).
    RuleQuarantined {
        star: String,
        alt: usize,
        ref_id: u64,
        cond: String,
        reason: String,
    },
    /// A resource budget ran out; the engine degraded to greedy,
    /// best-so-far exploration (anytime semantics).
    BudgetExhausted { resource: String, detail: String },
    /// The serving layer satisfied a request from the plan cache. `fp` is
    /// the canonical query fingerprint hash; `saved_nanos` is the cold
    /// optimization time the hit avoided (as measured when the entry was
    /// populated).
    CacheHit {
        fp: u64,
        epoch: u64,
        saved_nanos: u64,
    },
    /// No usable cache entry: the request paid for a cold optimization.
    CacheMiss { fp: u64, epoch: u64 },
    /// An entry left the cache to make room (`reason` = "capacity" or
    /// "bytes").
    CacheEvict { fp: u64, reason: String },
    /// An entry was dropped because its catalog epoch was stale; `epoch`
    /// is the *current* epoch that invalidated it.
    CacheInvalidate { fp: u64, epoch: u64 },
    /// The feedback plane flagged a cached plan as suspect: after `runs`
    /// executed serves its observed Q-error or latency trend crossed the
    /// configured threshold (`reason` = "geomean_q", "max_q", or
    /// "mean_latency"). Detection only — the plan keeps serving.
    PlanSuspect {
        fp: u64,
        epoch: u64,
        runs: u64,
        geomean_q: f64,
        max_q: f64,
        reason: String,
    },
    /// The self-healing loop started a suspect-triggered re-optimization
    /// for this fingerprint (single-flight: one per fingerprint at a
    /// time). `attempt` counts retries since the last successful swap or
    /// epoch change (1-based).
    PlanReopt { fp: u64, epoch: u64, attempt: u64 },
    /// A re-optimized candidate passed the stability guard (shadow
    /// verification + probation A/B) and replaced the incumbent cached
    /// plan. Work units are the probation window's deterministic
    /// execution-effort totals for each side.
    PlanSwap {
        fp: u64,
        epoch: u64,
        incumbent_work: u64,
        candidate_work: u64,
    },
    /// A re-optimization resolved by keeping the incumbent plan. `reason`
    /// is typed: "reopt_panic", "reopt_error", "budget_degraded",
    /// "epoch_moved", "verify_mismatch", "regression", or "retry_capped".
    /// `backoff_nanos` is the backoff armed before the next retry (0 when
    /// capped or when no retry will happen).
    PlanPinned {
        fp: u64,
        epoch: u64,
        reason: String,
        attempt: u64,
        backoff_nanos: u64,
    },
    /// The serving layer asked for the vectorized executor but the plan is
    /// outside its supported subset, so the request ran on the serial
    /// engine instead. `reason` is the `supports()` rejection (e.g. a
    /// correlated nested-loop inner or an extension operator).
    ExecFallback { fp: u64, reason: String },
}

impl TraceEvent {
    /// The `"type"` discriminator used in the JSON form.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::StarRef { .. } => "star_ref",
            TraceEvent::StarDone { .. } => "star_done",
            TraceEvent::AltFired { .. } => "alt_fired",
            TraceEvent::CondFailed { .. } => "cond_failed",
            TraceEvent::ForallExpand { .. } => "forall_expand",
            TraceEvent::GlueRef { .. } => "glue_ref",
            TraceEvent::PlanBuilt { .. } => "plan_built",
            TraceEvent::PlanRejected { .. } => "plan_rejected",
            TraceEvent::TableInsert { .. } => "table_insert",
            TraceEvent::TablePrune { .. } => "table_prune",
            TraceEvent::TableDominated { .. } => "table_dominated",
            TraceEvent::BestNode { .. } => "best_node",
            TraceEvent::ExecNode { .. } => "exec_node",
            TraceEvent::QueryStart { .. } => "query_start",
            TraceEvent::QueryDone { .. } => "query_done",
            TraceEvent::Counter { .. } => "counter",
            TraceEvent::RuleQuarantined { .. } => "rule_quarantined",
            TraceEvent::BudgetExhausted { .. } => "budget_exhausted",
            TraceEvent::CacheHit { .. } => "cache_hit",
            TraceEvent::CacheMiss { .. } => "cache_miss",
            TraceEvent::CacheEvict { .. } => "cache_evict",
            TraceEvent::CacheInvalidate { .. } => "cache_invalidate",
            TraceEvent::PlanSuspect { .. } => "plan_suspect",
            TraceEvent::PlanReopt { .. } => "plan_reopt",
            TraceEvent::PlanSwap { .. } => "plan_swap",
            TraceEvent::PlanPinned { .. } => "plan_pinned",
            TraceEvent::ExecFallback { .. } => "exec_fallback",
        }
    }

    /// Serialize as one flat JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let o = JsonObj::new().str("type", self.kind());
        match self {
            TraceEvent::StarRef {
                star,
                sid,
                id,
                parent,
                memo_hit,
            } => o
                .str("star", star)
                .u64("sid", *sid as u64)
                .u64("id", *id)
                .u64("parent", *parent)
                .bool("memo_hit", *memo_hit),
            TraceEvent::StarDone {
                star,
                id,
                plans,
                nanos,
            } => o
                .str("star", star)
                .u64("id", *id)
                .u64("plans", *plans as u64)
                .u64("nanos", *nanos),
            TraceEvent::AltFired {
                star,
                alt,
                ref_id,
                plans,
            } => o
                .str("star", star)
                .u64("alt", *alt as u64)
                .u64("ref_id", *ref_id)
                .u64("plans", *plans as u64),
            TraceEvent::CondFailed {
                star,
                alt,
                ref_id,
                cond,
            } => o
                .str("star", star)
                .u64("alt", *alt as u64)
                .u64("ref_id", *ref_id)
                .str("cond", cond),
            TraceEvent::ForallExpand {
                star,
                alt,
                ref_id,
                items,
            } => o
                .str("star", star)
                .u64("alt", *alt as u64)
                .u64("ref_id", *ref_id)
                .u64("items", *items as u64),
            TraceEvent::GlueRef {
                ref_id,
                cache_hit,
                candidates,
                veneers,
            } => o
                .u64("ref_id", *ref_id)
                .bool("cache_hit", *cache_hit)
                .u64("candidates", *candidates as u64)
                .u64("veneers", *veneers as u64),
            TraceEvent::PlanBuilt {
                op,
                fp,
                ref_id,
                card,
                cost_once,
                cost_rescan,
                breakdown,
            } => o
                .str("op", op)
                .u64("fp", *fp)
                .u64("ref_id", *ref_id)
                .f64("card", *card)
                .f64("cost_once", *cost_once)
                .f64("cost_rescan", *cost_rescan)
                .f64("io", breakdown.io)
                .f64("cpu", breakdown.cpu)
                .f64("comm", breakdown.comm)
                .f64("other", breakdown.other),
            TraceEvent::PlanRejected { op, ref_id, reason } => {
                o.str("op", op).u64("ref_id", *ref_id).str("reason", reason)
            }
            TraceEvent::TableInsert {
                op,
                fp,
                cost,
                evicted,
            } => o
                .str("op", op)
                .u64("fp", *fp)
                .f64("cost", *cost)
                .u64("evicted", *evicted as u64),
            TraceEvent::TablePrune {
                op,
                fp,
                cost,
                duplicate,
            } => o
                .str("op", op)
                .u64("fp", *fp)
                .f64("cost", *cost)
                .bool("duplicate", *duplicate),
            TraceEvent::TableDominated { op, fp, cost } => {
                o.str("op", op).u64("fp", *fp).f64("cost", *cost)
            }
            TraceEvent::BestNode {
                op,
                fp,
                depth,
                origin,
                card,
                cost,
            } => o
                .str("op", op)
                .u64("fp", *fp)
                .u64("depth", *depth as u64)
                .str("origin", origin)
                .f64("card", *card)
                .f64("cost", *cost),
            TraceEvent::ExecNode {
                op,
                fp,
                rows_out,
                invocations,
                nanos,
            } => o
                .str("op", op)
                .u64("fp", *fp)
                .u64("rows_out", *rows_out)
                .u64("invocations", *invocations)
                .u64("nanos", *nanos),
            TraceEvent::QueryStart { name } => o.str("name", name),
            TraceEvent::QueryDone { name, rows, nanos } => {
                o.str("name", name).u64("rows", *rows).u64("nanos", *nanos)
            }
            TraceEvent::Counter { name, value } => o.str("name", name).u64("value", *value),
            TraceEvent::RuleQuarantined {
                star,
                alt,
                ref_id,
                cond,
                reason,
            } => o
                .str("star", star)
                .u64("alt", *alt as u64)
                .u64("ref_id", *ref_id)
                .str("cond", cond)
                .str("reason", reason),
            TraceEvent::BudgetExhausted { resource, detail } => {
                o.str("resource", resource).str("detail", detail)
            }
            TraceEvent::CacheHit {
                fp,
                epoch,
                saved_nanos,
            } => o
                .u64("fp", *fp)
                .u64("epoch", *epoch)
                .u64("saved_nanos", *saved_nanos),
            TraceEvent::CacheMiss { fp, epoch } => o.u64("fp", *fp).u64("epoch", *epoch),
            TraceEvent::CacheEvict { fp, reason } => o.u64("fp", *fp).str("reason", reason),
            TraceEvent::CacheInvalidate { fp, epoch } => o.u64("fp", *fp).u64("epoch", *epoch),
            TraceEvent::PlanSuspect {
                fp,
                epoch,
                runs,
                geomean_q,
                max_q,
                reason,
            } => o
                .u64("fp", *fp)
                .u64("epoch", *epoch)
                .u64("runs", *runs)
                .f64("geomean_q", *geomean_q)
                .f64("max_q", *max_q)
                .str("reason", reason),
            TraceEvent::PlanReopt { fp, epoch, attempt } => o
                .u64("fp", *fp)
                .u64("epoch", *epoch)
                .u64("attempt", *attempt),
            TraceEvent::PlanSwap {
                fp,
                epoch,
                incumbent_work,
                candidate_work,
            } => o
                .u64("fp", *fp)
                .u64("epoch", *epoch)
                .u64("incumbent_work", *incumbent_work)
                .u64("candidate_work", *candidate_work),
            TraceEvent::PlanPinned {
                fp,
                epoch,
                reason,
                attempt,
                backoff_nanos,
            } => o
                .u64("fp", *fp)
                .u64("epoch", *epoch)
                .str("reason", reason)
                .u64("attempt", *attempt)
                .u64("backoff_nanos", *backoff_nanos),
            TraceEvent::ExecFallback { fp, reason } => o.u64("fp", *fp).str("reason", reason),
        }
        .finish()
    }

    /// Parse one JSON-Lines line back into a typed event. `None` for
    /// malformed lines, unknown `type`s, or missing fields — readers skip
    /// rather than fail, so traces from newer writers degrade gracefully.
    pub fn from_json(line: &str) -> Option<TraceEvent> {
        let v = parse_json(line.trim()).ok()?;
        let str_of = |k: &str| v.get(k)?.as_str().map(str::to_string);
        let u64_of = |k: &str| v.get(k)?.as_u64();
        let usize_of = |k: &str| v.get(k)?.as_usize();
        let f64_of = |k: &str| v.get(k)?.as_f64();
        let bool_of = |k: &str| v.get(k)?.as_bool();
        Some(match v.get("type")?.as_str()? {
            "star_ref" => TraceEvent::StarRef {
                star: str_of("star")?,
                sid: u64_of("sid")? as u32,
                id: u64_of("id")?,
                parent: u64_of("parent")?,
                memo_hit: bool_of("memo_hit")?,
            },
            "star_done" => TraceEvent::StarDone {
                star: str_of("star")?,
                id: u64_of("id")?,
                plans: usize_of("plans")?,
                nanos: u64_of("nanos")?,
            },
            "alt_fired" => TraceEvent::AltFired {
                star: str_of("star")?,
                alt: usize_of("alt")?,
                ref_id: u64_of("ref_id")?,
                plans: usize_of("plans")?,
            },
            "cond_failed" => TraceEvent::CondFailed {
                star: str_of("star")?,
                alt: usize_of("alt")?,
                ref_id: u64_of("ref_id")?,
                cond: str_of("cond")?,
            },
            "forall_expand" => TraceEvent::ForallExpand {
                star: str_of("star")?,
                alt: usize_of("alt")?,
                ref_id: u64_of("ref_id")?,
                items: usize_of("items")?,
            },
            "glue_ref" => TraceEvent::GlueRef {
                ref_id: u64_of("ref_id")?,
                cache_hit: bool_of("cache_hit")?,
                candidates: usize_of("candidates")?,
                veneers: usize_of("veneers")?,
            },
            "plan_built" => TraceEvent::PlanBuilt {
                op: str_of("op")?,
                fp: u64_of("fp")?,
                ref_id: u64_of("ref_id")?,
                card: f64_of("card")?,
                cost_once: f64_of("cost_once")?,
                cost_rescan: f64_of("cost_rescan")?,
                breakdown: CostBreakdownEv {
                    io: f64_of("io")?,
                    cpu: f64_of("cpu")?,
                    comm: f64_of("comm")?,
                    other: f64_of("other")?,
                },
            },
            "plan_rejected" => TraceEvent::PlanRejected {
                op: str_of("op")?,
                ref_id: u64_of("ref_id")?,
                reason: str_of("reason")?,
            },
            "table_insert" => TraceEvent::TableInsert {
                op: str_of("op")?,
                fp: u64_of("fp")?,
                cost: f64_of("cost")?,
                evicted: usize_of("evicted")?,
            },
            "table_prune" => TraceEvent::TablePrune {
                op: str_of("op")?,
                fp: u64_of("fp")?,
                cost: f64_of("cost")?,
                duplicate: bool_of("duplicate")?,
            },
            "table_dominated" => TraceEvent::TableDominated {
                op: str_of("op")?,
                fp: u64_of("fp")?,
                cost: f64_of("cost")?,
            },
            "best_node" => TraceEvent::BestNode {
                op: str_of("op")?,
                fp: u64_of("fp")?,
                depth: usize_of("depth")?,
                origin: str_of("origin")?,
                card: f64_of("card")?,
                cost: f64_of("cost")?,
            },
            "exec_node" => TraceEvent::ExecNode {
                op: str_of("op")?,
                // Absent in pre-observatory traces: degrade to 0 (unjoinable)
                // instead of dropping the whole event.
                fp: u64_of("fp").unwrap_or(0),
                rows_out: u64_of("rows_out")?,
                invocations: u64_of("invocations")?,
                nanos: u64_of("nanos")?,
            },
            "query_start" => TraceEvent::QueryStart {
                name: str_of("name")?,
            },
            "query_done" => TraceEvent::QueryDone {
                name: str_of("name")?,
                rows: u64_of("rows")?,
                nanos: u64_of("nanos")?,
            },
            "counter" => TraceEvent::Counter {
                name: str_of("name")?,
                value: u64_of("value")?,
            },
            "rule_quarantined" => TraceEvent::RuleQuarantined {
                star: str_of("star")?,
                alt: usize_of("alt")?,
                ref_id: u64_of("ref_id")?,
                cond: str_of("cond")?,
                reason: str_of("reason")?,
            },
            "budget_exhausted" => TraceEvent::BudgetExhausted {
                resource: str_of("resource")?,
                detail: str_of("detail")?,
            },
            "cache_hit" => TraceEvent::CacheHit {
                fp: u64_of("fp")?,
                epoch: u64_of("epoch")?,
                saved_nanos: u64_of("saved_nanos")?,
            },
            "cache_miss" => TraceEvent::CacheMiss {
                fp: u64_of("fp")?,
                epoch: u64_of("epoch")?,
            },
            "cache_evict" => TraceEvent::CacheEvict {
                fp: u64_of("fp")?,
                reason: str_of("reason")?,
            },
            "cache_invalidate" => TraceEvent::CacheInvalidate {
                fp: u64_of("fp")?,
                epoch: u64_of("epoch")?,
            },
            "plan_suspect" => TraceEvent::PlanSuspect {
                fp: u64_of("fp")?,
                epoch: u64_of("epoch")?,
                runs: u64_of("runs")?,
                geomean_q: f64_of("geomean_q")?,
                max_q: f64_of("max_q")?,
                reason: str_of("reason")?,
            },
            "plan_reopt" => TraceEvent::PlanReopt {
                fp: u64_of("fp")?,
                epoch: u64_of("epoch")?,
                attempt: u64_of("attempt")?,
            },
            "plan_swap" => TraceEvent::PlanSwap {
                fp: u64_of("fp")?,
                epoch: u64_of("epoch")?,
                incumbent_work: u64_of("incumbent_work")?,
                candidate_work: u64_of("candidate_work")?,
            },
            "plan_pinned" => TraceEvent::PlanPinned {
                fp: u64_of("fp")?,
                epoch: u64_of("epoch")?,
                reason: str_of("reason")?,
                attempt: u64_of("attempt")?,
                backoff_nanos: u64_of("backoff_nanos")?,
            },
            "exec_fallback" => TraceEvent::ExecFallback {
                fp: u64_of("fp")?,
                reason: str_of("reason")?,
            },
            _ => return None,
        })
    }

    /// The value of `v` as a typed event, when it is one.
    pub fn from_value(v: &JsonValue) -> Option<TraceEvent> {
        // Delegate through the string form only for objects that look like
        // events; cheap enough for offline tooling.
        v.get("type")?;
        TraceEvent::from_json(&render_value(v))
    }
}

fn render_value(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".into(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::UInt(n) => n.to_string(),
        JsonValue::Int(n) => n.to_string(),
        JsonValue::Num(n) => crate::json::num(*n),
        JsonValue::Str(s) => format!("\"{}\"", crate::json::escape(s)),
        JsonValue::Arr(items) => {
            let parts: Vec<String> = items.iter().map(render_value).collect();
            format!("[{}]", parts.join(","))
        }
        JsonValue::Obj(fields) => {
            let parts: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", crate::json::escape(k), render_value(v)))
                .collect();
            format!("{{{}}}", parts.join(","))
        }
    }
}

/// Parse a JSON-Lines trace: typed events plus the count of skipped lines
/// (blank lines are not counted as skipped).
pub fn read_events(text: &str) -> (Vec<TraceEvent>, usize) {
    let mut events = Vec::new();
    let mut skipped = 0;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match TraceEvent::from_json(line) {
            Some(ev) => events.push(ev),
            None => skipped += 1,
        }
    }
    (events, skipped)
}

/// Load a `.jsonl` trace file written by a
/// [`crate::sink::JsonLinesSink`].
pub fn load_jsonl(path: impl AsRef<std::path::Path>) -> std::io::Result<(Vec<TraceEvent>, usize)> {
    Ok(read_events(&std::fs::read_to_string(path)?))
}

/// Actual per-plan-node measurements gathered during execution, keyed by the
/// node's fingerprint. Defined here so both `starqo-plan` (the renderer) and
/// `starqo-exec` (the collector) can see it without depending on each other.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeActuals {
    /// How many times the node was evaluated (rescans count).
    pub invocations: u64,
    /// Rows produced by the last evaluation.
    pub rows_out: u64,
    /// Total inclusive wall-clock time across all invocations.
    pub nanos: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One of every variant, with distinguishable field values.
    pub(crate) fn one_of_each() -> Vec<TraceEvent> {
        vec![
            TraceEvent::StarRef {
                star: "JoinRoot".into(),
                sid: 3,
                id: 17,
                parent: 4,
                memo_hit: true,
            },
            TraceEvent::StarDone {
                star: "JoinRoot".into(),
                id: 17,
                plans: 5,
                nanos: 120,
            },
            TraceEvent::AltFired {
                star: "JMeth".into(),
                alt: 2,
                ref_id: 17,
                plans: 3,
            },
            TraceEvent::CondFailed {
                star: "JMeth".into(),
                alt: 1,
                ref_id: 17,
                cond: "enabled('hashjoin')".into(),
            },
            TraceEvent::ForallExpand {
                star: "AccessStar".into(),
                alt: 1,
                ref_id: 9,
                items: 4,
            },
            TraceEvent::GlueRef {
                ref_id: 9,
                cache_hit: false,
                candidates: 2,
                veneers: 1,
            },
            TraceEvent::PlanBuilt {
                op: "JOIN(NL)".into(),
                fp: u64::MAX,
                ref_id: 17,
                card: 10.0,
                cost_once: 3.5,
                cost_rescan: 0.5,
                breakdown: CostBreakdownEv {
                    io: 2.0,
                    cpu: 1.0,
                    comm: 0.5,
                    other: 0.5,
                },
            },
            TraceEvent::PlanRejected {
                op: "SORT".into(),
                ref_id: 17,
                reason: "no key".into(),
            },
            TraceEvent::TableInsert {
                op: "JOIN(MG)".into(),
                fp: (1 << 53) + 1,
                cost: 8.25,
                evicted: 1,
            },
            TraceEvent::TablePrune {
                op: "JOIN(HA)".into(),
                fp: 77,
                cost: 9.0,
                duplicate: false,
            },
            TraceEvent::TableDominated {
                op: "ACCESS(heap)".into(),
                fp: 78,
                cost: 12.5,
            },
            TraceEvent::BestNode {
                op: "JOIN(MG)".into(),
                fp: 79,
                depth: 0,
                origin: "JMeth[alt 2]".into(),
                card: 100.0,
                cost: 42.0,
            },
            TraceEvent::ExecNode {
                op: "ACCESS(heap)".into(),
                fp: 80,
                rows_out: 100,
                invocations: 2,
                nanos: 999,
            },
            TraceEvent::QueryStart {
                name: "paper/local".into(),
            },
            TraceEvent::QueryDone {
                name: "paper/local".into(),
                rows: 84,
                nanos: 77_000,
            },
            TraceEvent::Counter {
                name: "x".into(),
                value: 1,
            },
            TraceEvent::RuleQuarantined {
                star: "JMeth".into(),
                alt: 3,
                ref_id: 17,
                cond: "hashable_preds(JP) != {}".into(),
                reason: "panic in native function 'hashable_preds': boom".into(),
            },
            TraceEvent::BudgetExhausted {
                resource: "memo_entries".into(),
                detail: "memo cap of 64 entries reached".into(),
            },
            TraceEvent::CacheHit {
                fp: 0xDEAD_BEEF,
                epoch: 3,
                saved_nanos: 1_250_000,
            },
            TraceEvent::CacheMiss {
                fp: 0xDEAD_BEEF,
                epoch: 3,
            },
            TraceEvent::CacheEvict {
                fp: 0xFEED_FACE,
                reason: "capacity".into(),
            },
            TraceEvent::CacheInvalidate {
                fp: 0xDEAD_BEEF,
                epoch: 4,
            },
            TraceEvent::PlanSuspect {
                fp: 0xDEAD_BEEF,
                epoch: 4,
                runs: 16,
                geomean_q: 6.5,
                max_q: 40.0,
                reason: "geomean_q".into(),
            },
            TraceEvent::PlanReopt {
                fp: 0xDEAD_BEEF,
                epoch: 4,
                attempt: 1,
            },
            TraceEvent::PlanSwap {
                fp: 0xDEAD_BEEF,
                epoch: 4,
                incumbent_work: 5_000,
                candidate_work: 1_200,
            },
            TraceEvent::PlanPinned {
                fp: 0xFEED_FACE,
                epoch: 4,
                reason: "verify_mismatch".into(),
                attempt: 2,
                backoff_nanos: 400_000_000,
            },
            TraceEvent::ExecFallback {
                fp: 0xDEAD_BEEF,
                reason: "correlated nested-loop inner (sideways information passing)".into(),
            },
        ]
    }

    #[test]
    fn events_serialize_to_flat_json() {
        let ev = TraceEvent::StarRef {
            star: "JoinRoot".into(),
            sid: 2,
            id: 7,
            parent: 3,
            memo_hit: true,
        };
        assert_eq!(
            ev.to_json(),
            r#"{"type":"star_ref","star":"JoinRoot","sid":2,"id":7,"parent":3,"memo_hit":true}"#
        );
        let ev = TraceEvent::PlanBuilt {
            op: "JOIN(NL)".into(),
            fp: 42,
            ref_id: 7,
            card: 10.0,
            cost_once: 3.5,
            cost_rescan: 0.5,
            breakdown: CostBreakdownEv {
                io: 2.0,
                cpu: 1.0,
                comm: 0.5,
                other: 0.5,
            },
        };
        let j = ev.to_json();
        assert!(
            j.starts_with(r#"{"type":"plan_built","op":"JOIN(NL)","fp":42"#),
            "{j}"
        );
        assert!(
            j.contains(r#""io":2"#) && j.contains(r#""comm":0.5"#),
            "{j}"
        );
    }

    #[test]
    fn every_kind_is_distinct() {
        let evs = one_of_each();
        let kinds: std::collections::BTreeSet<_> = evs.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), evs.len());
    }

    #[test]
    fn every_event_roundtrips_through_json() {
        for ev in one_of_each() {
            let line = ev.to_json();
            let back = TraceEvent::from_json(&line)
                .unwrap_or_else(|| panic!("failed to parse back: {line}"));
            assert_eq!(back, ev, "{line}");
        }
    }

    #[test]
    fn from_json_rejects_garbage_gracefully() {
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"type":"unknown_kind"}"#,
            r#"{"type":"counter","name":"x"}"#,
            r#"{"type":"counter","name":"x","value":"nope"}"#,
        ] {
            assert_eq!(TraceEvent::from_json(bad), None, "accepted: {bad:?}");
        }
    }

    #[test]
    fn legacy_exec_node_without_fp_parses_as_zero() {
        // Pre-observatory traces lack "fp" on exec_node; they should still
        // load (with an unjoinable fp of 0) rather than be skipped.
        let line = r#"{"type":"exec_node","op":"SORT","rows_out":9,"invocations":1,"nanos":55}"#;
        assert_eq!(
            TraceEvent::from_json(line),
            Some(TraceEvent::ExecNode {
                op: "SORT".into(),
                fp: 0,
                rows_out: 9,
                invocations: 1,
                nanos: 55,
            })
        );
    }

    #[test]
    fn read_events_skips_bad_lines_and_blanks() {
        let text = "\n{\"type\":\"counter\",\"name\":\"a\",\"value\":1}\ngarbage\n\n{\"type\":\"query_start\",\"name\":\"s\"}\n";
        let (events, skipped) = read_events(text);
        assert_eq!(events.len(), 2);
        assert_eq!(skipped, 1);
        assert_eq!(events[0].kind(), "counter");
        assert_eq!(events[1].kind(), "query_start");
    }
}
