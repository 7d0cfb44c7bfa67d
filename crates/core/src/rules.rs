//! Compiled STAR structures — the optimizer's rules as data.
//!
//! A [`StarDef`] is the run-time form of one STAR (§2.2): a named,
//! parametrized non-terminal with alternative definitions, each optionally
//! guarded by a condition of applicability and optionally mapped over a set
//! (`∀`). Because §4.5 extends `JMeth` by "adding alternative definitions to
//! the right-hand side", a star is a list of [`AltGroup`]s: re-defining a
//! star with the same name *appends* a group.

use std::collections::HashMap;
use std::sync::Arc;

use crate::natives::Natives;
use crate::value::RuleValue;

/// Index of a star within a [`RuleSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StarId(pub u32);

/// Binary operators in compiled expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Or,
    And,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    In,
    Subset,
    Union,
    Minus,
    Intersect,
}

/// Required-property expressions (evaluated when the annotation is applied).
#[derive(Debug, Clone)]
pub enum ReqExpr {
    Order(Expr),
    Site(Expr),
    Temp,
    Paths(Expr),
}

/// A compiled rule expression.
#[derive(Debug, Clone)]
pub enum Expr {
    Const(RuleValue),
    /// Environment slot: parameters, then group bindings, then the forall
    /// variable.
    Var(u32),
    /// Reference another STAR.
    CallStar(StarId, Vec<Expr>),
    /// Reference a LOLEPOP (or registered extension operator) by name.
    CallOp(String, Vec<Expr>),
    /// Call a native function (the paper's "C functions").
    CallFn(u32, Vec<Expr>),
    /// Reference Glue: `Glue(stream, pushdown_preds)` (§3.2).
    Glue(Box<Expr>, Box<Expr>),
    /// Attach required properties to a stream: `T[site = s, ...]`.
    WithReqs(Box<Expr>, Vec<ReqExpr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
}

/// The condition of applicability of one alternative.
#[derive(Debug, Clone)]
pub enum Guard {
    Always,
    If(Expr),
    /// Fires iff no earlier alternative in the same exclusive group fired.
    Otherwise,
}

/// One alternative definition.
#[derive(Debug, Clone)]
pub struct Alt {
    /// `forall v in set:` — the set expression; the variable occupies the
    /// group's forall slot.
    pub forall: Option<Expr>,
    pub expr: Expr,
    pub guard: Guard,
    /// Provenance label, "Star[alt k]" (k counted within the group),
    /// recorded for the plans this alternative produces.
    pub origin: Arc<str>,
}

/// A group of alternatives sharing `with`-bindings and bracket kind.
#[derive(Debug, Clone)]
pub struct AltGroup {
    /// `with`-bindings, evaluated left to right after the parameters.
    pub bindings: Vec<Expr>,
    /// `{}` (first matching guard wins) vs `[]` (all matching guards fire).
    pub exclusive: bool,
    pub alts: Vec<Alt>,
}

/// A compiled STAR.
#[derive(Debug, Clone)]
pub struct StarDef {
    pub name: String,
    pub params: Vec<String>,
    pub groups: Vec<AltGroup>,
}

/// An ordered collection of compiled STARs with name lookup.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    pub stars: Vec<StarDef>,
    pub by_name: HashMap<String, StarId>,
}

impl BinOp {
    fn token(self) -> &'static str {
        match self {
            BinOp::Or => "or",
            BinOp::And => "and",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::In => "in",
            BinOp::Subset => "subset",
            BinOp::Union => "union",
            BinOp::Minus => "minus",
            BinOp::Intersect => "intersect",
        }
    }
}

impl RuleSet {
    pub fn star(&self, id: StarId) -> &StarDef {
        &self.stars[id.0 as usize]
    }

    /// Render a compiled expression back to readable rule text — used for
    /// condition-failure attribution in traces, so profiles can report
    /// *which* condition of applicability kept an alternative from firing.
    /// `params` names the enclosing STAR's environment slots; slots beyond
    /// it (group bindings, the forall variable) render as `$n`.
    pub fn render_expr(&self, e: &Expr, params: &[String], natives: &Natives) -> String {
        match e {
            Expr::Const(v) => render_value(v),
            Expr::Var(slot) => params
                .get(*slot as usize)
                .cloned()
                .unwrap_or_else(|| format!("${slot}")),
            Expr::CallStar(id, args) => {
                format!(
                    "{}({})",
                    self.star(*id).name,
                    self.render_args(args, params, natives)
                )
            }
            Expr::CallOp(name, args) => {
                format!("{name}({})", self.render_args(args, params, natives))
            }
            Expr::CallFn(id, args) => {
                format!(
                    "{}({})",
                    natives.name(*id),
                    self.render_args(args, params, natives)
                )
            }
            Expr::Glue(s, p) => format!(
                "Glue({}, {})",
                self.render_expr(s, params, natives),
                self.render_expr(p, params, natives)
            ),
            Expr::WithReqs(base, _) => {
                format!("{}[...]", self.render_expr(base, params, natives))
            }
            Expr::Binary(op, l, r) => format!(
                "{} {} {}",
                self.render_expr(l, params, natives),
                op.token(),
                self.render_expr(r, params, natives)
            ),
            Expr::Not(inner) => format!("not {}", self.render_expr(inner, params, natives)),
        }
    }

    fn render_args(&self, args: &[Expr], params: &[String], natives: &Natives) -> String {
        args.iter()
            .map(|a| self.render_expr(a, params, natives))
            .collect::<Vec<_>>()
            .join(", ")
    }

    pub fn lookup(&self, name: &str) -> Option<StarId> {
        self.by_name.get(name).copied()
    }

    pub fn len(&self) -> usize {
        self.stars.len()
    }

    pub fn is_empty(&self) -> bool {
        self.stars.is_empty()
    }
}

fn render_value(v: &RuleValue) -> String {
    match v {
        RuleValue::Bool(b) => b.to_string(),
        RuleValue::Int(i) => i.to_string(),
        RuleValue::Str(s) => format!("'{s}'"),
        RuleValue::Sym(s) => s.to_string(),
        RuleValue::Preds(p) if p.is_empty() => "{}".to_string(),
        RuleValue::AllCols => "*".to_string(),
        other => format!("<{}>", other.kind()),
    }
}
