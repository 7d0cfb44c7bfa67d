//! Plan rendering: the paper's two notations.
//!
//! §2.1 shows a QEP both as an operator graph (Figure 1) and as "a nesting
//! of functions". Both renderings are implemented here, plus a Figure-2
//! style property table used by the experiment harness.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use starqo_catalog::Catalog;
use starqo_query::{PredSet, Query};
use starqo_trace::NodeActuals;

use crate::lolepop::{AccessSpec, Lolepop};
use crate::node::PlanNode;
use crate::props::ColSet;

/// Renderer bound to the catalog/query so names come out human-readable.
pub struct Explain<'a> {
    pub catalog: &'a Catalog,
    pub query: &'a Query,
}

impl<'a> Explain<'a> {
    pub fn new(catalog: &'a Catalog, query: &'a Query) -> Self {
        Explain { catalog, query }
    }

    fn cols(&self, cols: &ColSet) -> String {
        let parts: Vec<String> = cols
            .iter()
            .map(|c| self.query.qcol_name(self.catalog, *c))
            .collect();
        format!("{{{}}}", parts.join(", "))
    }

    fn col_list(&self, cols: &[starqo_query::QCol]) -> String {
        let parts: Vec<String> = cols
            .iter()
            .map(|c| self.query.qcol_name(self.catalog, *c))
            .collect();
        parts.join(", ")
    }

    fn preds(&self, preds: PredSet) -> String {
        if preds.is_empty() {
            return "φ".to_string();
        }
        let parts: Vec<String> = preds
            .iter()
            .map(|p| self.query.pred_string(self.catalog, p))
            .collect();
        format!("{{{}}}", parts.join(", "))
    }

    fn op_params(&self, op: &Lolepop) -> String {
        match op {
            Lolepop::Access { spec, cols, preds } => {
                let target = match spec {
                    AccessSpec::HeapTable(q) | AccessSpec::BTreeTable(q) => {
                        let qt = self.query.quantifier(*q);
                        self.catalog.table(qt.table).name.clone()
                    }
                    AccessSpec::Index { index, .. } => {
                        format!("Index {}", self.catalog.index(*index).name)
                    }
                    AccessSpec::TempHeap => "Temp".to_string(),
                    AccessSpec::TempIndex { key } => {
                        format!("TempIndex on ({})", self.col_list(key))
                    }
                };
                format!("{target}, {}, {}", self.cols(cols), self.preds(*preds))
            }
            Lolepop::Get { q, cols, preds } => {
                let qt = self.query.quantifier(*q);
                format!(
                    "{}, {}, {}",
                    self.catalog.table(qt.table).name,
                    self.cols(cols),
                    self.preds(*preds)
                )
            }
            Lolepop::Sort { key } => self.col_list(key),
            Lolepop::Ship { to } => self.catalog.site_name(*to),
            Lolepop::Store => String::new(),
            Lolepop::BuildIndex { key } => self.col_list(key),
            Lolepop::Filter { preds } => self.preds(*preds),
            Lolepop::Join {
                join_preds,
                residual,
                ..
            } => {
                if residual.is_empty() {
                    self.preds(*join_preds)
                } else {
                    format!(
                        "{}, residual {}",
                        self.preds(*join_preds),
                        self.preds(*residual)
                    )
                }
            }
            Lolepop::Union => String::new(),
            Lolepop::Ext { args, .. } => format!("{} args", args.len()),
        }
    }

    /// Indented tree rendering (Figure-1 style, arrows implied by nesting).
    pub fn tree(&self, plan: &PlanNode) -> String {
        let mut out = String::new();
        self.tree_rec(plan, 0, &mut out);
        out
    }

    fn tree_rec(&self, n: &PlanNode, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        let params = self.op_params(&n.op);
        let _ = writeln!(
            out,
            "{pad}{}{}{}  [card={:.1} cost={:.1} order=({}) site={}]",
            n.op.name(),
            if params.is_empty() { "" } else { " " },
            params,
            n.props.card,
            n.props.cost.total(),
            self.col_list(&n.props.order),
            self.catalog.site_name(n.props.site),
        );
        for i in &n.inputs {
            self.tree_rec(i, depth + 1, out);
        }
    }

    /// EXPLAIN ANALYZE: the plan tree annotated per operator with the
    /// optimizer's estimates (CARD, COST) next to the executor's actuals
    /// (rows out, invocations, inclusive wall time) and the cardinality
    /// estimation error. `actuals` is keyed by node fingerprint — the map
    /// [`starqo-exec`]'s `Executor::node_actuals` produces.
    pub fn analyze(&self, plan: &PlanNode, actuals: &HashMap<u64, NodeActuals>) -> String {
        let mut rows: Vec<[String; 7]> = vec![[
            "operator".into(),
            "est.card".into(),
            "act.rows".into(),
            "rel.err".into(),
            "est.cost".into(),
            "time".into(),
            "loops".into(),
        ]];
        self.analyze_rec(plan, 0, actuals, &mut rows);
        // Column-align: operator column left-justified, the rest right.
        let widths: Vec<usize> = (0..7)
            .map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for r in &rows {
            let _ = writeln!(
                out,
                "{:<w0$}  {:>w1$}  {:>w2$}  {:>w3$}  {:>w4$}  {:>w5$}  {:>w6$}",
                r[0],
                r[1],
                r[2],
                r[3],
                r[4],
                r[5],
                r[6],
                w0 = widths[0],
                w1 = widths[1],
                w2 = widths[2],
                w3 = widths[3],
                w4 = widths[4],
                w5 = widths[5],
                w6 = widths[6],
            );
        }
        out
    }

    fn analyze_rec(
        &self,
        n: &PlanNode,
        depth: usize,
        actuals: &HashMap<u64, NodeActuals>,
        rows: &mut Vec<[String; 7]>,
    ) {
        let params = self.op_params(&n.op);
        let label = format!(
            "{}{}{}{}",
            "  ".repeat(depth),
            n.op.name(),
            if params.is_empty() { "" } else { " " },
            params
        );
        let est = n.props.card;
        let row = match actuals.get(&n.fingerprint()) {
            Some(a) => {
                let err = if est > 0.0 {
                    format!("{:+.0}%", (a.rows_out as f64 - est) / est * 100.0)
                } else if a.rows_out == 0 {
                    "0%".to_string()
                } else {
                    "inf".to_string()
                };
                [
                    label,
                    format!("{est:.1}"),
                    a.rows_out.to_string(),
                    err,
                    format!("{:.1}", n.props.cost.total()),
                    format_nanos(a.nanos),
                    a.invocations.to_string(),
                ]
            }
            None => [
                label,
                format!("{est:.1}"),
                "-".into(),
                "-".into(),
                format!("{:.1}", n.props.cost.total()),
                "-".into(),
                "-".into(),
            ],
        };
        rows.push(row);
        for i in &n.inputs {
            self.analyze_rec(i, depth + 1, actuals, rows);
        }
    }

    /// The paper's nested-function notation, e.g.
    /// `JOIN (sort-merge, ..., SORT(ACCESS(DEPT, {...}, {...}), DNO), ...)`.
    pub fn functional(&self, plan: &PlanNode) -> String {
        let mut out = String::new();
        self.func_rec(plan, &mut out);
        out
    }

    fn func_rec(&self, n: &PlanNode, out: &mut String) {
        let _ = write!(out, "{}(", n.op.name());
        let params = self.op_params(&n.op);
        let mut first = true;
        // JOIN prints inputs after its parameters in the paper; for other
        // ops the input comes first (SORT(ACCESS(...), DNO)).
        let inputs_first = !matches!(n.op, Lolepop::Join { .. });
        if inputs_first {
            for i in &n.inputs {
                if !first {
                    let _ = write!(out, ", ");
                }
                self.func_rec(i, out);
                first = false;
            }
        }
        if !params.is_empty() {
            if !first {
                let _ = write!(out, ", ");
            }
            let _ = write!(out, "{params}");
            first = false;
        }
        if !inputs_first {
            for i in &n.inputs {
                if !first {
                    let _ = write!(out, ", ");
                }
                self.func_rec(i, out);
                first = false;
            }
        }
        let _ = write!(out, ")");
    }

    /// Figure-2 style property listing for one node.
    pub fn property_vector(&self, n: &PlanNode) -> String {
        let p = &n.props;
        let mut out = String::new();
        let _ = writeln!(out, "operator : {}", n.op.name());
        let _ = writeln!(out, "TABLES   : {}", p.tables);
        let _ = writeln!(out, "COLS     : {}", self.cols(&p.cols));
        let _ = writeln!(out, "PREDS    : {}", self.preds(p.preds));
        let _ = writeln!(
            out,
            "ORDER    : {}",
            if p.order.is_empty() {
                "unknown".into()
            } else {
                self.col_list(&p.order)
            }
        );
        let _ = writeln!(out, "SITE     : {}", self.catalog.site_name(p.site));
        let _ = writeln!(out, "TEMP     : {}", p.temp);
        let paths: Vec<String> = p
            .paths
            .iter()
            .map(|a| format!("({})", self.col_list(&a.key)))
            .collect();
        let _ = writeln!(out, "PATHS    : {{{}}}", paths.join(", "));
        let _ = writeln!(out, "CARD     : {:.2}", p.card);
        let _ = writeln!(
            out,
            "COST     : {:.2} (once {:.2} + per-scan {:.2})",
            p.cost.total(),
            p.cost.once,
            p.cost.rescan
        );
        out
    }

    /// Property-propagation trace: the vector after every operator, bottom
    /// up (the Figure-2 experiment).
    pub fn property_trace(&self, plan: &PlanNode) -> String {
        let mut nodes: Vec<&PlanNode> = Vec::new();
        plan.visit(&mut |n| nodes.push(n));
        nodes.reverse();
        let mut out = String::new();
        for (i, n) in nodes.iter().enumerate() {
            let _ = writeln!(out, "--- step {} ---", i + 1);
            out.push_str(&self.property_vector(n));
        }
        out
    }

    /// The winning plan's rule lineage: the operator tree with each node
    /// annotated by the rule alternative (fingerprint → "Star[alt k]") that
    /// first produced it. Nodes absent from the provenance map (e.g. built
    /// by the driver) render as `(driver)`.
    pub fn lineage(&self, plan: &PlanNode, provenance: &HashMap<u64, Arc<str>>) -> String {
        let mut out = String::new();
        plan.visit_depth(&mut |n, depth| {
            let pad = "  ".repeat(depth);
            let origin = provenance
                .get(&n.fingerprint())
                .map(|s| &**s)
                .unwrap_or("(driver)");
            let _ = writeln!(
                out,
                "{pad}{}  <= {}  [card={:.1} cost={:.1}]",
                n.op.name(),
                origin,
                n.props.card,
                n.props.cost.total(),
            );
        });
        out
    }
}

/// Human duration from nanoseconds: ns / µs / ms / s with one decimal.
fn format_nanos(nanos: u64) -> String {
    let n = nanos as f64;
    if n < 1_000.0 {
        format!("{nanos}ns")
    } else if n < 1_000_000.0 {
        format!("{:.1}µs", n / 1_000.0)
    } else if n < 1_000_000_000.0 {
        format!("{:.1}ms", n / 1_000_000.0)
    } else {
        format!("{:.1}s", n / 1_000_000_000.0)
    }
}
