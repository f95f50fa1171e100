//! A small expression AST with a vectorized evaluator.
//!
//! Covers the shapes of the paper's workload query (§5, *Dataset*):
//!
//! ```sql
//! select extract_group(L.groupByExtractCol), count(*)
//! from T, L
//! where T.corPred <= a and T.indPred <= b
//!   and L.corPred <= c and L.indPred <= d
//!   and T.joinKey = L.joinKey
//!   and days(T.predAfterJoin) - days(L.predAfterJoin) >= 0
//!   and days(T.predAfterJoin) - days(L.predAfterJoin) <= 1
//! group by extract_group(L.groupByExtractCol)
//! ```
//!
//! Local predicates, the post-join date-difference predicate, and the
//! `extract_group` scalar UDF are all expressible. Evaluation widens every
//! integer type (including dates, which are day numbers) to `i64`, which
//! keeps the evaluator small without losing anything the workload needs.

use crate::batch::{Batch, Column};
use crate::datum::Datum;
use crate::error::{HybridError, Result};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    #[inline]
    fn apply_ord(self, ord: std::cmp::Ordering) -> bool {
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

/// Expression AST.
///
/// ```
/// use hybrid_common::batch::{Batch, Column};
/// use hybrid_common::datum::DataType;
/// use hybrid_common::expr::Expr;
/// use hybrid_common::schema::Schema;
///
/// let batch = Batch::new(
///     Schema::from_pairs(&[("corPred", DataType::I32), ("indPred", DataType::I32)]),
///     vec![Column::I32(vec![5, 20, 7]), Column::I32(vec![1, 1, 9])],
/// ).unwrap();
/// // corPred <= 10 AND indPred <= 5 — the paper's local-predicate shape
/// let pred = Expr::col_le(0, 10).and(Expr::col_le(1, 5));
/// assert_eq!(pred.eval_predicate(&batch).unwrap(), vec![true, false, false]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column of the input batch by index.
    Col(usize),
    /// Literal scalar.
    Lit(Datum),
    /// Binary comparison producing booleans.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical connectives over boolean expressions.
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    /// Integer arithmetic (dates are day numbers, so `Sub` is `days(a)-days(b)`).
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    /// The paper's `extract_group` scalar UDF: pull the numeric group id out
    /// of a `groupByExtractCol` value shaped like `"url_123/..."`. Values
    /// that do not match hash to a stable group instead of erroring, which
    /// mirrors a tolerant UDF over messy log data.
    ExtractGroup(Box<Expr>),
}

impl Expr {
    // ---- convenience builders used throughout the workspace ----
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }
    pub fn lit_i32(v: i32) -> Expr {
        Expr::Lit(Datum::I32(v))
    }
    pub fn lit_i64(v: i64) -> Expr {
        Expr::Lit(Datum::I64(v))
    }
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(rhs))
    }
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(rhs))
    }
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(rhs))
    }
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }
    #[allow(clippy::should_implement_trait)] // DSL builder, intentionally named like SQL's `-`
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `col_idx <= v` — the shape of every local predicate in the workload.
    pub fn col_le(col_idx: usize, v: i64) -> Expr {
        Expr::col(col_idx).le(Expr::lit_i64(v))
    }

    /// Evaluate as a boolean predicate over `batch`.
    pub fn eval_predicate(&self, batch: &Batch) -> Result<Vec<bool>> {
        match self.eval(batch)? {
            EvalCol::Bool(b) => Ok(b),
            EvalCol::ConstBool(b) => Ok(vec![b; batch.num_rows()]),
            other => Err(HybridError::TypeMismatch {
                expected: "boolean predicate",
                found: other.type_name(),
            }),
        }
    }

    /// Evaluate as an `i64` column (group-by key extraction).
    pub fn eval_i64(&self, batch: &Batch) -> Result<Vec<i64>> {
        match self.eval(batch)? {
            EvalCol::I64(v) => Ok(v),
            EvalCol::ConstI64(v) => Ok(vec![v; batch.num_rows()]),
            other => Err(HybridError::TypeMismatch {
                expected: "integer expression",
                found: other.type_name(),
            }),
        }
    }

    /// All `col <= literal` conjuncts reachable through top-level `AND`s,
    /// as `(column, bound)` pairs.
    ///
    /// Both engines prune with these: the EDW picks a covering index whose
    /// leading column carries such a bound (prefix range access), and JEN
    /// skips columnar chunks whose min exceeds the bound.
    pub fn le_conjuncts(&self) -> Vec<(usize, i64)> {
        let mut out = Vec::new();
        self.collect_le_conjuncts(&mut out);
        out
    }

    fn collect_le_conjuncts(&self, out: &mut Vec<(usize, i64)>) {
        match self {
            Expr::And(l, r) => {
                l.collect_le_conjuncts(out);
                r.collect_le_conjuncts(out);
            }
            Expr::Cmp(CmpOp::Le, l, r) => {
                if let (Expr::Col(c), Expr::Lit(d)) = (l.as_ref(), r.as_ref()) {
                    if let Some(b) = d.as_i64() {
                        out.push((*c, b));
                    }
                }
            }
            _ => {}
        }
    }

    /// All column indexes this expression references.
    pub fn referenced_columns(&self) -> std::collections::BTreeSet<usize> {
        let mut out = std::collections::BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut std::collections::BTreeSet<usize>) {
        match self {
            Expr::Col(i) => {
                out.insert(*i);
            }
            Expr::Lit(_) => {}
            Expr::Cmp(_, l, r)
            | Expr::And(l, r)
            | Expr::Or(l, r)
            | Expr::Add(l, r)
            | Expr::Sub(l, r) => {
                l.collect_columns(out);
                r.collect_columns(out);
            }
            Expr::Not(e) | Expr::ExtractGroup(e) => e.collect_columns(out),
        }
    }

    /// Rewrite every column reference through `f`; returns `None` if any
    /// referenced column has no mapping. Used to re-target a base-table
    /// predicate onto a covering index's (narrower) schema.
    pub fn remap_columns(&self, f: &impl Fn(usize) -> Option<usize>) -> Option<Expr> {
        Some(match self {
            Expr::Col(i) => Expr::Col(f(*i)?),
            Expr::Lit(d) => Expr::Lit(d.clone()),
            Expr::Cmp(op, l, r) => Expr::Cmp(
                *op,
                Box::new(l.remap_columns(f)?),
                Box::new(r.remap_columns(f)?),
            ),
            Expr::And(l, r) => {
                Expr::And(Box::new(l.remap_columns(f)?), Box::new(r.remap_columns(f)?))
            }
            Expr::Or(l, r) => {
                Expr::Or(Box::new(l.remap_columns(f)?), Box::new(r.remap_columns(f)?))
            }
            Expr::Not(e) => Expr::Not(Box::new(e.remap_columns(f)?)),
            Expr::Add(l, r) => {
                Expr::Add(Box::new(l.remap_columns(f)?), Box::new(r.remap_columns(f)?))
            }
            Expr::Sub(l, r) => {
                Expr::Sub(Box::new(l.remap_columns(f)?), Box::new(r.remap_columns(f)?))
            }
            Expr::ExtractGroup(e) => Expr::ExtractGroup(Box::new(e.remap_columns(f)?)),
        })
    }

    /// Shift every column reference by `offset` (for predicates written
    /// against the right side of a join, evaluated over `left ++ right`).
    pub fn shift_columns(&self, offset: usize) -> Expr {
        self.remap_columns(&|i| Some(i + offset))
            .expect("shift mapping is total")
    }

    fn eval(&self, batch: &Batch) -> Result<EvalCol> {
        match self {
            Expr::Col(i) => {
                let col = batch.column(*i)?;
                Ok(match col {
                    Column::I32(v) | Column::Date(v) => {
                        EvalCol::I64(v.iter().map(|&x| i64::from(x)).collect())
                    }
                    Column::I64(v) => EvalCol::I64(v.clone()),
                    Column::Utf8(v) => EvalCol::Str(v.clone()),
                })
            }
            Expr::Lit(d) => Ok(match d {
                Datum::I32(v) => EvalCol::ConstI64(i64::from(*v)),
                Datum::Date(v) => EvalCol::ConstI64(i64::from(*v)),
                Datum::I64(v) => EvalCol::ConstI64(*v),
                Datum::Utf8(s) => EvalCol::ConstStr(s.clone()),
            }),
            Expr::Cmp(op, l, r) => {
                let lv = l.eval(batch)?;
                let rv = r.eval(batch)?;
                cmp_eval(*op, lv, rv, batch.num_rows())
            }
            Expr::And(l, r) => {
                let mut lv = l.eval_predicate(batch)?;
                let rv = r.eval_predicate(batch)?;
                for (a, b) in lv.iter_mut().zip(&rv) {
                    *a = *a && *b;
                }
                Ok(EvalCol::Bool(lv))
            }
            Expr::Or(l, r) => {
                let mut lv = l.eval_predicate(batch)?;
                let rv = r.eval_predicate(batch)?;
                for (a, b) in lv.iter_mut().zip(&rv) {
                    *a = *a || *b;
                }
                Ok(EvalCol::Bool(lv))
            }
            Expr::Not(e) => {
                let mut v = e.eval_predicate(batch)?;
                for b in &mut v {
                    *b = !*b;
                }
                Ok(EvalCol::Bool(v))
            }
            Expr::Add(l, r) => arith_eval(l, r, batch, |a, b| a.wrapping_add(b)),
            Expr::Sub(l, r) => arith_eval(l, r, batch, |a, b| a.wrapping_sub(b)),
            Expr::ExtractGroup(e) => {
                // a column is read in place rather than cloned first
                if let Expr::Col(i) = e.as_ref() {
                    if let Column::Utf8(strs) = batch.column(*i)? {
                        return Ok(EvalCol::I64(
                            strs.iter().map(|s| extract_group(s)).collect(),
                        ));
                    }
                }
                let v = e.eval(batch)?;
                match v {
                    EvalCol::Str(strs) => Ok(EvalCol::I64(
                        strs.iter().map(|s| extract_group(s)).collect(),
                    )),
                    EvalCol::ConstStr(s) => Ok(EvalCol::ConstI64(extract_group(&s))),
                    other => Err(HybridError::TypeMismatch {
                        expected: "utf8",
                        found: other.type_name(),
                    }),
                }
            }
        }
    }
}

/// The paper's `extract_group` UDF: `"url_123/anything"` → `123`.
/// Non-conforming values map to a stable hash-derived group id so a tolerant
/// scan never aborts on malformed log lines.
pub fn extract_group(s: &str) -> i64 {
    if let Some(rest) = s.strip_prefix("url_") {
        let digits: &str = {
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            &rest[..end]
        };
        if let Ok(v) = digits.parse::<i64>() {
            return v;
        }
    }
    // Stable fallback bucket; negative range so it never collides with
    // well-formed ids.
    -((crate::hash::hash_bytes(s.as_bytes(), 0xEC_0DE) % 1024) as i64) - 1
}

/// Intermediate evaluation value: vector or broadcast scalar.
#[derive(Debug, Clone)]
enum EvalCol {
    I64(Vec<i64>),
    Str(Vec<String>),
    Bool(Vec<bool>),
    ConstI64(i64),
    ConstStr(String),
    ConstBool(bool),
}

impl EvalCol {
    fn type_name(&self) -> &'static str {
        match self {
            EvalCol::I64(_) | EvalCol::ConstI64(_) => "i64",
            EvalCol::Str(_) | EvalCol::ConstStr(_) => "utf8",
            EvalCol::Bool(_) | EvalCol::ConstBool(_) => "bool",
        }
    }
}

fn cmp_eval(op: CmpOp, l: EvalCol, r: EvalCol, rows: usize) -> Result<EvalCol> {
    use EvalCol::*;
    Ok(match (l, r) {
        (I64(a), I64(b)) => Bool((0..rows).map(|i| op.apply_ord(a[i].cmp(&b[i]))).collect()),
        (I64(a), ConstI64(b)) => Bool(a.iter().map(|&x| op.apply_ord(x.cmp(&b))).collect()),
        (ConstI64(a), I64(b)) => Bool(b.iter().map(|&x| op.apply_ord(a.cmp(&x))).collect()),
        (ConstI64(a), ConstI64(b)) => ConstBool(op.apply_ord(a.cmp(&b))),
        (Str(a), Str(b)) => Bool((0..rows).map(|i| op.apply_ord(a[i].cmp(&b[i]))).collect()),
        (Str(a), ConstStr(b)) => Bool(
            a.iter()
                .map(|x| op.apply_ord(x.as_str().cmp(b.as_str())))
                .collect(),
        ),
        (ConstStr(a), Str(b)) => Bool(
            b.iter()
                .map(|x| op.apply_ord(a.as_str().cmp(x.as_str())))
                .collect(),
        ),
        (ConstStr(a), ConstStr(b)) => ConstBool(op.apply_ord(a.cmp(&b))),
        (l, r) => {
            return Err(HybridError::TypeMismatch {
                expected: l.type_name(),
                found: r.type_name(),
            })
        }
    })
}

fn arith_eval(l: &Expr, r: &Expr, batch: &Batch, f: impl Fn(i64, i64) -> i64) -> Result<EvalCol> {
    use EvalCol::*;
    let lv = l.eval(batch)?;
    let rv = r.eval(batch)?;
    Ok(match (lv, rv) {
        (I64(a), I64(b)) => I64(a.iter().zip(&b).map(|(&x, &y)| f(x, y)).collect()),
        (I64(a), ConstI64(b)) => I64(a.iter().map(|&x| f(x, b)).collect()),
        (ConstI64(a), I64(b)) => I64(b.iter().map(|&y| f(a, y)).collect()),
        (ConstI64(a), ConstI64(b)) => ConstI64(f(a, b)),
        (l, r) => {
            return Err(HybridError::TypeMismatch {
                expected: l.type_name(),
                found: r.type_name(),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::DataType;
    use crate::schema::Schema;

    fn batch() -> Batch {
        let schema = Schema::from_pairs(&[
            ("k", DataType::I32),
            ("d", DataType::Date),
            ("s", DataType::Utf8),
        ]);
        Batch::new(
            schema,
            vec![
                Column::I32(vec![5, 10, 15, 20]),
                Column::Date(vec![100, 101, 102, 103]),
                Column::Utf8(vec![
                    "url_7/a".into(),
                    "url_42".into(),
                    "junk".into(),
                    "url_7/zz".into(),
                ]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn col_le_predicate() {
        let p = Expr::col_le(0, 10).eval_predicate(&batch()).unwrap();
        assert_eq!(p, vec![true, true, false, false]);
    }

    #[test]
    fn and_or_not() {
        let b = batch();
        let a = Expr::col_le(0, 10);
        let c = Expr::col(1).ge(Expr::lit_i64(101));
        assert_eq!(
            a.clone().and(c.clone()).eval_predicate(&b).unwrap(),
            vec![false, true, false, false]
        );
        assert_eq!(
            a.clone().or(c).eval_predicate(&b).unwrap(),
            vec![true, true, true, true]
        );
        assert_eq!(
            Expr::Not(Box::new(a)).eval_predicate(&b).unwrap(),
            vec![false, false, true, true]
        );
    }

    #[test]
    fn date_difference_window() {
        // days(d) - 100 between 0 and 1 → first two rows
        let b = batch();
        let diff = Expr::col(1).sub(Expr::lit_i64(100));
        let p = diff
            .clone()
            .ge(Expr::lit_i64(0))
            .and(diff.le(Expr::lit_i64(1)))
            .eval_predicate(&b)
            .unwrap();
        assert_eq!(p, vec![true, true, false, false]);
    }

    #[test]
    fn extract_group_parses_and_falls_back() {
        assert_eq!(extract_group("url_123/path?q"), 123);
        assert_eq!(extract_group("url_0"), 0);
        let fb = extract_group("garbage");
        assert!(fb < 0);
        assert_eq!(fb, extract_group("garbage"));
        assert!(extract_group("url_/nope") < 0);
    }

    #[test]
    fn extract_group_expr_over_column() {
        let g = Expr::ExtractGroup(Box::new(Expr::col(2)))
            .eval_i64(&batch())
            .unwrap();
        assert_eq!(g[0], 7);
        assert_eq!(g[1], 42);
        assert!(g[2] < 0);
        assert_eq!(g[3], 7);
    }

    #[test]
    fn string_equality() {
        let p = Expr::col(2)
            .eq(Expr::Lit(Datum::Utf8("junk".into())))
            .eval_predicate(&batch())
            .unwrap();
        assert_eq!(p, vec![false, false, true, false]);
    }

    #[test]
    fn type_errors_surface() {
        // comparing string col to int literal
        let e = Expr::col(2).le(Expr::lit_i64(3)).eval_predicate(&batch());
        assert!(e.is_err());
        // arithmetic over strings
        let e = Expr::col(2).sub(Expr::lit_i64(1)).eval_i64(&batch());
        assert!(e.is_err());
        // int expr used as predicate
        let e = Expr::col(0).eval_predicate(&batch());
        assert!(e.is_err());
    }

    #[test]
    fn referenced_columns_collects_all() {
        let e = Expr::col_le(2, 5).and(Expr::col(0).sub(Expr::col(7)).ge(Expr::lit_i64(0)));
        let cols: Vec<usize> = e.referenced_columns().into_iter().collect();
        assert_eq!(cols, vec![0, 2, 7]);
        assert!(Expr::lit_i64(1).referenced_columns().is_empty());
    }

    #[test]
    fn remap_columns_total_and_partial() {
        let e = Expr::col_le(2, 5).and(Expr::col(4).ge(Expr::lit_i64(1)));
        // total mapping
        let mapped = e.remap_columns(&|i| Some(i * 10)).unwrap();
        let cols: Vec<usize> = mapped.referenced_columns().into_iter().collect();
        assert_eq!(cols, vec![20, 40]);
        // partial mapping fails as a whole
        assert!(e.remap_columns(&|i| (i == 2).then_some(0)).is_none());
    }

    #[test]
    fn shift_columns_moves_references() {
        let b = batch();
        // predicate over col 0 of a hypothetical right side that sits at
        // offset 1 in `b`
        let e = Expr::col(0).ge(Expr::lit_i64(101)).shift_columns(1);
        assert_eq!(e.eval_predicate(&b).unwrap(), vec![false, true, true, true]);
    }

    #[test]
    fn const_folding_paths() {
        let b = batch();
        let p = Expr::lit_i64(1)
            .le(Expr::lit_i64(2))
            .eval_predicate(&b)
            .unwrap();
        assert_eq!(p, vec![true; 4]);
        let v = Expr::lit_i64(3).sub(Expr::lit_i64(1)).eval_i64(&b).unwrap();
        assert_eq!(v, vec![2; 4]);
    }
}
