//! The plan table.
//!
//! §4.4: "a data structure hashed on the tables and predicates facilitates
//! finding all such plans, if they exist." Plans are keyed by their
//! relational properties (TABLES, PREDS); within a key the table keeps only
//! the property-Pareto frontier: a plan is dropped if another plan is at
//! most as expensive (componentwise, one-time and per-rescan) and at least
//! as good on every physical property — the System-R "interesting order"
//! idea generalized to the whole property vector (§3).

use std::collections::HashMap;

use starqo_plan::PlanRef;
use starqo_query::{PredSet, QSet};
use starqo_trace::{TraceEvent, Tracer};

/// Relational key of a plan: what it produces.
pub type PlanKey = (QSet, PredSet);

/// Statistics about table churn.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Plans offered to the table.
    pub offered: u64,
    /// Plans rejected because an existing plan dominates them.
    pub dominated: u64,
    /// Existing plans evicted by a newly inserted dominator.
    pub evicted: u64,
    /// Structural duplicates dropped.
    pub duplicates: u64,
}

/// The memo of alternative plans per relational key.
#[derive(Debug, Clone, Default)]
pub struct PlanTable {
    map: HashMap<PlanKey, Vec<PlanRef>>,
    pub stats: TableStats,
    /// ABLATION: when set, dominance pruning is skipped (duplicates are
    /// still dropped).
    pub ablate_pruning: bool,
    /// Structured event sink for insert/prune/dominance churn.
    tracer: Tracer,
}

/// Does `a` dominate `b`? Cheaper-or-equal on both cost components and at
/// least as good on every physical property.
fn dominates(a: &PlanRef, b: &PlanRef) -> bool {
    let (pa, pb) = (&a.props, &b.props);
    pa.cost.once <= pb.cost.once
        && pa.cost.rescan <= pb.cost.rescan
        && pa.site == pb.site
        && pa.temp == pb.temp
        // a offers at least the order b offers.
        && pa.order_satisfies(&pb.order)
        // a offers at least the paths b offers.
        && pb.paths.iter().all(|p| pa.paths.contains(p))
}

impl PlanTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a tracer for table churn events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn key_of(plan: &PlanRef) -> PlanKey {
        (plan.props.tables, plan.props.preds)
    }

    /// Insert a plan, pruning dominated alternatives. Returns true if the
    /// plan survived.
    pub fn insert(&mut self, plan: PlanRef) -> bool {
        self.stats.offered += 1;
        let key = Self::key_of(&plan);
        let slot = self.map.entry(key).or_default();
        if slot.iter().any(|p| p.fingerprint() == plan.fingerprint()) {
            self.stats.duplicates += 1;
            self.tracer.emit(|| TraceEvent::TablePrune {
                op: plan.op.name(),
                fp: plan.fingerprint(),
                cost: plan.props.cost.total(),
                duplicate: true,
            });
            return false;
        }
        if self.ablate_pruning {
            self.tracer.emit(|| TraceEvent::TableInsert {
                op: plan.op.name(),
                fp: plan.fingerprint(),
                cost: plan.props.cost.total(),
                evicted: 0,
            });
            slot.push(plan);
            return true;
        }
        if slot.iter().any(|p| dominates(p, &plan)) {
            self.stats.dominated += 1;
            self.tracer.emit(|| TraceEvent::TablePrune {
                op: plan.op.name(),
                fp: plan.fingerprint(),
                cost: plan.props.cost.total(),
                duplicate: false,
            });
            return false;
        }
        let before = slot.len();
        if self.tracer.enabled() {
            for victim in slot.iter().filter(|p| dominates(&plan, p)) {
                self.tracer.emit(|| TraceEvent::TableDominated {
                    op: victim.op.name(),
                    fp: victim.fingerprint(),
                    cost: victim.props.cost.total(),
                });
            }
        }
        slot.retain(|p| !dominates(&plan, p));
        let evicted = before - slot.len();
        self.stats.evicted += evicted as u64;
        self.tracer.emit(|| TraceEvent::TableInsert {
            op: plan.op.name(),
            fp: plan.fingerprint(),
            cost: plan.props.cost.total(),
            evicted,
        });
        slot.push(plan);
        true
    }

    /// All plans for a key.
    pub fn get(&self, key: PlanKey) -> &[PlanRef] {
        self.map.get(&key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Cheapest plan for a key (by total cost).
    pub fn best(&self, key: PlanKey) -> Option<&PlanRef> {
        self.get(key)
            .iter()
            .min_by(|a, b| a.props.cost.total().total_cmp(&b.props.cost.total()))
    }

    /// All keys whose quantifier set equals `tables` (any predicate set).
    pub fn keys_for_tables(&self, tables: QSet) -> impl Iterator<Item = PlanKey> + '_ {
        self.map.keys().filter(move |(t, _)| *t == tables).copied()
    }

    /// True when some key's quantifier set equals `tables`.
    pub fn has_tables(&self, tables: QSet) -> bool {
        self.keys_for_tables(tables).next().is_some()
    }

    /// Number of plans retained across all keys.
    pub fn total_plans(&self) -> usize {
        self.map.values().map(|v| v.len()).sum()
    }

    /// Number of distinct relational keys.
    pub fn total_keys(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starqo_catalog::SiteId;
    use starqo_plan::{ColSet, Cost, Lolepop, PlanNode, Props};
    use starqo_query::QId;

    fn plan(cost_once: f64, cost_rescan: f64, site: u16, ordered: bool, salt: i64) -> PlanRef {
        let mut props = Props::empty(SiteId(site));
        props.tables = QSet::single(QId(0));
        props.cost = Cost::new(cost_once, cost_rescan);
        if ordered {
            props.order = vec![starqo_query::QCol::new(QId(0), starqo_catalog::ColId(0))];
        }
        // Salt the op parameters so fingerprints differ.
        PlanNode::with_props(
            Lolepop::Ship {
                to: SiteId(salt as u16),
            },
            vec![PlanNode::with_props(
                Lolepop::Access {
                    spec: starqo_plan::AccessSpec::HeapTable(QId(0)),
                    cols: ColSet::new(),
                    preds: starqo_query::PredSet::EMPTY,
                },
                vec![],
                Props::empty(SiteId(site)),
            )],
            props,
        )
    }

    #[test]
    fn cheaper_same_properties_evicts() {
        let mut t = PlanTable::new();
        assert!(t.insert(plan(10.0, 10.0, 0, false, 1)));
        assert!(t.insert(plan(5.0, 5.0, 0, false, 2)));
        let key = (QSet::single(QId(0)), starqo_query::PredSet::EMPTY);
        assert_eq!(t.get(key).len(), 1);
        assert_eq!(t.stats.evicted, 1);
        assert_eq!(t.best(key).unwrap().props.cost.total(), 10.0);
    }

    #[test]
    fn more_expensive_same_properties_rejected() {
        let mut t = PlanTable::new();
        assert!(t.insert(plan(5.0, 5.0, 0, false, 1)));
        assert!(!t.insert(plan(10.0, 10.0, 0, false, 2)));
        assert_eq!(t.stats.dominated, 1);
    }

    #[test]
    fn interesting_order_survives_higher_cost() {
        let mut t = PlanTable::new();
        assert!(t.insert(plan(5.0, 5.0, 0, false, 1)));
        // More expensive but ordered: kept (System-R interesting orders).
        assert!(t.insert(plan(20.0, 20.0, 0, true, 2)));
        let key = (QSet::single(QId(0)), starqo_query::PredSet::EMPTY);
        assert_eq!(t.get(key).len(), 2);
    }

    #[test]
    fn different_sites_coexist() {
        let mut t = PlanTable::new();
        assert!(t.insert(plan(5.0, 5.0, 0, false, 1)));
        assert!(t.insert(plan(50.0, 50.0, 1, false, 2)));
        let key = (QSet::single(QId(0)), starqo_query::PredSet::EMPTY);
        assert_eq!(t.get(key).len(), 2);
    }

    #[test]
    fn duplicates_dropped() {
        let mut t = PlanTable::new();
        let p = plan(5.0, 5.0, 0, false, 1);
        assert!(t.insert(p.clone()));
        assert!(!t.insert(p));
        assert_eq!(t.stats.duplicates, 1);
    }

    #[test]
    fn cheaper_rescan_expensive_once_coexists() {
        let mut t = PlanTable::new();
        // Scan: no setup, expensive rescan. Temp-ish: setup, cheap rescan.
        assert!(t.insert(plan(0.0, 100.0, 0, false, 1)));
        assert!(t.insert(plan(120.0, 1.0, 0, false, 2)));
        let key = (QSet::single(QId(0)), starqo_query::PredSet::EMPTY);
        assert_eq!(t.get(key).len(), 2, "NL-inner-friendly plans must survive");
    }

    #[test]
    fn counters_and_keys() {
        let mut t = PlanTable::new();
        t.insert(plan(5.0, 5.0, 0, false, 1));
        t.insert(plan(9.0, 9.0, 1, false, 2));
        assert_eq!(t.total_plans(), 2);
        assert_eq!(t.total_keys(), 1);
        assert_eq!(t.keys_for_tables(QSet::single(QId(0))).count(), 1);
        assert!(!t.has_tables(QSet::single(QId(5))));
        assert!(t
            .best((QSet::single(QId(5)), starqo_query::PredSet::EMPTY))
            .is_none());
    }
}
