//! Bottom-up join enumeration (§2.3).
//!
//! > For any given SQL query, we build plans bottom up, first referencing
//! > the AccessRoot STAR to build plans to access individual tables, and
//! > then repeatedly referencing the JoinRoot STAR to join plans that were
//! > generated earlier, until all tables have been joined.
//!
//! "What constitutes a joinable pair of streams depends upon a compile-time
//! parameter": the default prefers pairs linked by an eligible join
//! predicate (as in System R and R\*); `OptConfig::cartesian` additionally
//! considers Cartesian products between two streams of small estimated
//! cardinality. Composite inners (bushy plans) are likewise gated by
//! `OptConfig::composite_inners` — the restriction itself lives in the
//! `JoinRoot` rule's conditions, exactly as §4.1 suggests; the driver only
//! skips pairs no rule could accept, as an efficiency matter.

use std::sync::Arc;

use starqo_plan::PlanRef;
use starqo_query::QSet;

use crate::engine::Engine;
use crate::error::{CoreError, Result};
use crate::value::{ReqVec, RuleValue, StreamRef};

/// Result of an enumeration run.
#[derive(Debug, Clone)]
pub struct Enumerated {
    /// The cheapest plan for the whole query, with the query's final
    /// requirements (ORDER BY, query site) discharged by a root Glue.
    pub best: PlanRef,
    /// All surviving root alternatives (before the final Glue), for
    /// strategy-space experiments.
    pub root_alternatives: Vec<PlanRef>,
}

/// Run bottom-up enumeration over the engine's query.
pub fn enumerate(engine: &mut Engine<'_>) -> Result<Enumerated> {
    let n = engine.query.quantifiers.len();
    let all = engine.query.all_qset();

    // Level 1: single-table access plans via AccessRoot.
    for qt in &engine.query.quantifiers.clone() {
        let qs = QSet::single(qt.id);
        let preds = engine.query.eligible_preds(qs);
        let cols = engine.query.required_cols(qt.id);
        let plans = engine.eval_star_by_name(
            "AccessRoot",
            vec![
                RuleValue::Stream(StreamRef::new(qs)),
                RuleValue::ColSet(Arc::new(cols)),
                RuleValue::Preds(preds),
            ],
        )?;
        if plans.is_empty() {
            return Err(CoreError::NoPlan(format!(
                "AccessRoot produced no plan for {}",
                qt.alias
            )));
        }
        for p in plans.iter() {
            engine.table.insert(p.clone());
        }
    }

    // Levels 2..n: joinable pairs, connected first; Cartesian fallback when
    // a level would otherwise be unbuildable.
    for k in 2..=n {
        for s in subsets_of_size(all, k as u32) {
            let mut built_any = engine.table.has_tables(s);
            for cartesian_pass in [false, true] {
                if cartesian_pass && built_any {
                    break;
                }
                for (s1, s2) in partitions(s) {
                    // Skip pairs no JoinRoot alternative could accept.
                    if !engine.config.composite_inners && s1.len() > 1 && s2.len() > 1 {
                        continue;
                    }
                    let connected = engine.query.connects(s1, s2);
                    let allowed = cartesian_pass
                        || connected
                        || (engine.config.cartesian && small(engine, s1) && small(engine, s2));
                    if !allowed {
                        continue;
                    }
                    // Both sides must already have plans.
                    if !engine.table.has_tables(s1) || !engine.table.has_tables(s2) {
                        continue;
                    }
                    let new_preds = engine.query.newly_eligible(s1, s2);
                    let plans = engine.eval_star_by_name(
                        "JoinRoot",
                        vec![
                            RuleValue::Stream(StreamRef::new(s1)),
                            RuleValue::Stream(StreamRef::new(s2)),
                            RuleValue::Preds(new_preds),
                        ],
                    )?;
                    for p in plans.iter() {
                        built_any = true;
                        engine.table.insert(p.clone());
                    }
                    // Greedy (degraded) mode: once the budget is exhausted,
                    // the first partition producing plans for this subset
                    // is enough — a complete plan always survives because
                    // Glue veneers can discharge any root requirement.
                    if engine.degraded() && built_any {
                        break;
                    }
                }
            }
        }
    }

    // Final requirements: ORDER BY and the query site, discharged by Glue —
    // the paper's mechanism applied at the root.
    let root_key = (all, engine.query.eligible_preds(all));
    let root_alternatives = engine.table.get(root_key).to_vec();
    if root_alternatives.is_empty() {
        return Err(CoreError::NoPlan(
            "no plan covers all tables (disconnected join graph without cartesian=true?)".into(),
        ));
    }
    let reqs = ReqVec {
        order: if engine.query.order_by.is_empty() {
            None
        } else {
            Some(engine.query.order_by.clone())
        },
        site: Some(engine.query.query_site),
        temp: false,
        paths: None,
    };
    let stream = StreamRef { tables: all, reqs };
    let finals = crate::glue::glue(engine, stream, starqo_query::PredSet::EMPTY)?;
    let best = finals
        .iter()
        .min_by(|a, b| a.props.cost.total().total_cmp(&b.props.cost.total()))
        .cloned()
        .ok_or_else(|| CoreError::NoPlan("glue returned no final plan".into()))?;
    Ok(Enumerated {
        best,
        root_alternatives,
    })
}

/// Estimated-small test for Cartesian candidates (§2.3: "streams of small
/// estimated cardinality").
fn small(engine: &Engine<'_>, s: QSet) -> bool {
    engine
        .table
        .keys_for_tables(s)
        .filter_map(|k| engine.table.best(k))
        .any(|p| p.props.card <= engine.model.small_card)
}

/// All subsets of `all` with exactly `k` bits.
fn subsets_of_size(all: QSet, k: u32) -> Vec<QSet> {
    let mut out = Vec::new();
    // Enumerate subsets of the bitmask; fine for ≤ ~20 quantifiers, which is
    // far beyond the experiments.
    let bits: Vec<u32> = all.iter().map(|q| q.0).collect();
    let n = bits.len();
    let mut mask = 0u64;
    loop {
        if mask.count_ones() == k {
            let mut s = QSet::EMPTY;
            for (i, b) in bits.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    s = s.insert(starqo_query::QId(*b));
                }
            }
            out.push(s);
        }
        mask += 1;
        if mask >= (1u64 << n) {
            break;
        }
    }
    out
}

/// Unordered partitions of `s` into two non-empty disjoint halves.
fn partitions(s: QSet) -> Vec<(QSet, QSet)> {
    let mut out = Vec::new();
    for sub in s.proper_subsets() {
        let comp = s.minus(sub);
        if sub.0 < comp.0 {
            out.push((sub, comp));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use starqo_query::QId;

    #[test]
    fn subsets_of_size_counts() {
        let all = QSet::all(4);
        assert_eq!(subsets_of_size(all, 1).len(), 4);
        assert_eq!(subsets_of_size(all, 2).len(), 6);
        assert_eq!(subsets_of_size(all, 3).len(), 4);
        assert_eq!(subsets_of_size(all, 4).len(), 1);
    }

    #[test]
    fn subsets_respect_sparse_sets() {
        let s = QSet::from_iter([QId(1), QId(3), QId(5)]);
        let twos = subsets_of_size(s, 2);
        assert_eq!(twos.len(), 3);
        for t in twos {
            assert!(t.is_subset_of(s));
            assert_eq!(t.len(), 2);
        }
    }

    #[test]
    fn partitions_are_unordered_and_complete() {
        let s = QSet::all(3);
        let ps = partitions(s);
        assert_eq!(ps.len(), 3); // {0}|{1,2}, {1}|{0,2}, {2}|{0,1}
        for (a, b) in ps {
            assert!(a.is_disjoint(b));
            assert_eq!(a.union(b), s);
        }
        let s4 = QSet::all(4);
        assert_eq!(partitions(s4).len(), 7); // 2^(4-1) - 1
    }
}
