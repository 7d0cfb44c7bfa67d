//! Scalar expressions over quantified columns and constants.

use std::collections::BTreeSet;
use std::fmt;

use starqo_catalog::{ColId, Value};

use crate::qset::{QId, QSet};

/// A quantified column reference: a column of a particular quantifier.
///
/// This is the currency of the χ(·) ("columns of") function in the paper's
/// rules, of the ORDER property, and of stream schemas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QCol {
    pub q: QId,
    pub col: ColId,
}

impl QCol {
    pub fn new(q: QId, col: ColId) -> Self {
        QCol { q, col }
    }
}

impl fmt::Display for QCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.q, self.col)
    }
}

/// Arithmetic operators usable inside scalar expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl ArithOp {
    pub fn apply(self, l: f64, r: f64) -> f64 {
        match self {
            ArithOp::Add => l + r,
            ArithOp::Sub => l - r,
            ArithOp::Mul => l * r,
            ArithOp::Div => l / r,
        }
    }

    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }
}

/// A scalar expression: a column, a constant, or arithmetic over them.
///
/// The paper generalizes System R's `col1 = col2` join predicates to
/// arbitrary "expressions OK" multi-table predicates (§2.3, §4.4); `Arith`
/// is what makes `expr(χ(T1)) = expr(χ(T2))` hashable predicates (§4.5.1)
/// expressible.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Scalar {
    Col(QCol),
    Const(Value),
    Arith(ArithOp, Box<Scalar>, Box<Scalar>),
}

impl Scalar {
    pub fn col(q: QId, c: ColId) -> Self {
        Scalar::Col(QCol::new(q, c))
    }

    /// The set of quantifiers referenced by this expression.
    pub fn quantifiers(&self) -> QSet {
        match self {
            Scalar::Col(c) => QSet::single(c.q),
            Scalar::Const(_) => QSet::EMPTY,
            Scalar::Arith(_, l, r) => l.quantifiers().union(r.quantifiers()),
        }
    }

    /// Collect the quantified columns referenced by this expression.
    pub fn collect_cols(&self, out: &mut BTreeSet<QCol>) {
        self.visit_cols(&mut |c| {
            out.insert(c);
        });
    }

    /// Visit every column reference, in expression order (repeats
    /// included).
    pub fn visit_cols<F: FnMut(QCol)>(&self, f: &mut F) {
        match self {
            Scalar::Col(c) => f(*c),
            Scalar::Const(_) => {}
            Scalar::Arith(_, l, r) => {
                l.visit_cols(f);
                r.visit_cols(f);
            }
        }
    }

    /// If this expression is a bare column, return it.
    pub fn as_col(&self) -> Option<QCol> {
        match self {
            Scalar::Col(c) => Some(*c),
            _ => None,
        }
    }

    pub fn is_const(&self) -> bool {
        matches!(self, Scalar::Const(_))
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Col(c) => write!(f, "{c}"),
            Scalar::Const(v) => write!(f, "{v}"),
            Scalar::Arith(op, l, r) => write!(f, "({l} {} {r})", op.symbol()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantifiers_of_expressions() {
        let e = Scalar::Arith(
            ArithOp::Add,
            Box::new(Scalar::col(QId(0), ColId(1))),
            Box::new(Scalar::Arith(
                ArithOp::Mul,
                Box::new(Scalar::col(QId(2), ColId(0))),
                Box::new(Scalar::Const(Value::Int(3))),
            )),
        );
        assert_eq!(e.quantifiers(), QSet::from_iter([QId(0), QId(2)]));
        let mut cols = BTreeSet::new();
        e.collect_cols(&mut cols);
        assert_eq!(cols.len(), 2);
        assert_eq!(e.to_string(), "(q0.c1 + (q2.c0 * 3))");
    }

    #[test]
    fn as_col_only_for_bare_columns() {
        assert!(Scalar::col(QId(0), ColId(0)).as_col().is_some());
        assert!(Scalar::Const(Value::Int(1)).as_col().is_none());
        assert!(Scalar::Const(Value::Int(1)).is_const());
        let a = Scalar::Arith(
            ArithOp::Sub,
            Box::new(Scalar::col(QId(0), ColId(0))),
            Box::new(Scalar::Const(Value::Int(1))),
        );
        assert!(a.as_col().is_none());
    }

    #[test]
    fn arith_apply() {
        assert_eq!(ArithOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(ArithOp::Div.apply(6.0, 3.0), 2.0);
        assert_eq!(ArithOp::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(ArithOp::Mul.apply(2.0, 3.0), 6.0);
    }
}
