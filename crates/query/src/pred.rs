//! Predicates and predicate-set bitsets.

use std::fmt;

use crate::qset::QSet;
use crate::scalar::{QCol, Scalar};

/// Identifier of a predicate within a query (index into `Query::predicates`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredId(pub u32);

impl fmt::Display for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// The operator with its operands swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// A boolean predicate expression. Queries are conjunctions of these; an
/// `Or` node packages a disjunction of comparisons (which, per §4.4, is then
/// *not* a join predicate — "no ORs or subqueries").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PredExpr {
    Cmp(CmpOp, Scalar, Scalar),
    Or(Vec<PredExpr>),
}

impl PredExpr {
    pub fn quantifiers(&self) -> QSet {
        match self {
            PredExpr::Cmp(_, l, r) => l.quantifiers().union(r.quantifiers()),
            PredExpr::Or(ps) => ps.iter().fold(QSet::EMPTY, |s, p| s.union(p.quantifiers())),
        }
    }

    /// Visit every column reference, in expression order (repeats
    /// included).
    pub fn visit_cols<F: FnMut(QCol)>(&self, f: &mut F) {
        match self {
            PredExpr::Cmp(_, l, r) => {
                l.visit_cols(f);
                r.visit_cols(f);
            }
            PredExpr::Or(ps) => {
                for p in ps {
                    p.visit_cols(f);
                }
            }
        }
    }

    pub fn contains_or(&self) -> bool {
        matches!(self, PredExpr::Or(_))
    }
}

impl fmt::Display for PredExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredExpr::Cmp(op, l, r) => write!(f, "{l} {} {r}", op.symbol()),
            PredExpr::Or(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A predicate of the query: an id plus its expression.
#[derive(Debug, Clone)]
pub struct Predicate {
    pub id: PredId,
    pub expr: PredExpr,
}

impl Predicate {
    /// Set of quantifiers the predicate references.
    pub fn quantifiers(&self) -> QSet {
        self.expr.quantifiers()
    }

    /// χ(p): the columns of the predicate, ascending, each once. Nothing
    /// is allocated: a predicate references a handful of columns, so each
    /// step rescans the expression for the next larger one.
    pub fn cols(&self) -> impl Iterator<Item = QCol> + '_ {
        let mut last: Option<QCol> = None;
        std::iter::from_fn(move || {
            let mut next: Option<QCol> = None;
            self.expr.visit_cols(&mut |c| {
                if last < Some(c) && (next.is_none() || Some(c) < next) {
                    next = Some(c);
                }
            });
            last = next.or(last);
            next
        })
    }
}

/// A set of predicates, as a 128-bit bitset (up to 128 predicates/query).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PredSet(pub u128);

impl PredSet {
    pub const EMPTY: PredSet = PredSet(0);

    pub fn single(p: PredId) -> Self {
        debug_assert!(p.0 < 128, "at most 128 predicates per query");
        PredSet(1u128 << p.0)
    }

    #[must_use]
    pub fn insert(self, p: PredId) -> Self {
        PredSet(self.0 | (1u128 << p.0))
    }

    pub fn contains(self, p: PredId) -> bool {
        self.0 & (1u128 << p.0) != 0
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    #[must_use]
    pub fn union(self, other: PredSet) -> Self {
        PredSet(self.0 | other.0)
    }

    #[must_use]
    pub fn intersect(self, other: PredSet) -> Self {
        PredSet(self.0 & other.0)
    }

    #[must_use]
    pub fn minus(self, other: PredSet) -> Self {
        PredSet(self.0 & !other.0)
    }

    pub fn is_subset_of(self, other: PredSet) -> bool {
        self.0 & !other.0 == 0
    }

    pub fn iter(self) -> impl Iterator<Item = PredId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros();
                bits &= bits - 1;
                Some(PredId(i))
            }
        })
    }
}

impl FromIterator<PredId> for PredSet {
    fn from_iter<T: IntoIterator<Item = PredId>>(iter: T) -> Self {
        iter.into_iter().fold(PredSet::EMPTY, |s, p| s.insert(p))
    }
}

impl fmt::Display for PredSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qset::QId;
    use starqo_catalog::{ColId, Value};

    fn cmp(op: CmpOp, l: Scalar, r: Scalar) -> PredExpr {
        PredExpr::Cmp(op, l, r)
    }

    #[test]
    fn cmp_op_eval_and_flip() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.eval(Equal));
        assert!(!CmpOp::Eq.eval(Less));
        assert!(CmpOp::Le.eval(Equal));
        assert!(CmpOp::Ne.eval(Greater));
        assert!(CmpOp::Ge.eval(Greater));
        assert_eq!(CmpOp::Lt.flipped(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flipped(), CmpOp::Eq);
        assert_eq!(CmpOp::Le.flipped(), CmpOp::Ge);
    }

    #[test]
    fn pred_quantifiers_and_cols() {
        let p = Predicate {
            id: PredId(0),
            expr: cmp(
                CmpOp::Eq,
                Scalar::col(QId(0), ColId(0)),
                Scalar::col(QId(1), ColId(2)),
            ),
        };
        assert_eq!(p.quantifiers(), QSet::from_iter([QId(0), QId(1)]));
        assert_eq!(p.cols().count(), 2);
        assert_eq!(p.expr.to_string(), "q0.c0 = q1.c2");

        // Ascending and distinct, whatever the expression order.
        let c = |q, col| QCol::new(QId(q), ColId(col));
        let p = Predicate {
            id: PredId(1),
            expr: PredExpr::Or(vec![
                cmp(CmpOp::Eq, Scalar::Col(c(2, 1)), Scalar::Col(c(0, 3))),
                cmp(CmpOp::Lt, Scalar::Col(c(0, 3)), Scalar::Col(c(1, 0))),
            ]),
        };
        let cols: Vec<QCol> = p.cols().collect();
        assert_eq!(cols, vec![c(0, 3), c(1, 0), c(2, 1)]);
    }

    #[test]
    fn or_predicates_detected() {
        let or = PredExpr::Or(vec![
            cmp(
                CmpOp::Eq,
                Scalar::col(QId(0), ColId(0)),
                Scalar::Const(Value::Int(1)),
            ),
            cmp(
                CmpOp::Eq,
                Scalar::col(QId(0), ColId(0)),
                Scalar::Const(Value::Int(2)),
            ),
        ]);
        assert!(or.contains_or());
        assert_eq!(or.quantifiers(), QSet::single(QId(0)));
        assert_eq!(or.to_string(), "(q0.c0 = 1 OR q0.c0 = 2)");
    }

    #[test]
    fn predset_ops() {
        let a = PredSet::from_iter([PredId(0), PredId(100)]);
        let b = PredSet::single(PredId(100));
        assert_eq!(a.len(), 2);
        assert!(b.is_subset_of(a));
        assert_eq!(a.minus(b), PredSet::single(PredId(0)));
        assert_eq!(a.intersect(b), b);
        assert_eq!(a.union(b), a);
        assert!(a.contains(PredId(100)));
        assert!(!a.contains(PredId(1)));
        let v: Vec<_> = a.iter().collect();
        assert_eq!(v, vec![PredId(0), PredId(100)]);
        assert_eq!(b.to_string(), "{p100}");
    }
}
