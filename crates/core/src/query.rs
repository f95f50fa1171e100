//! The hybrid query model.
//!
//! A [`HybridQuery`] captures the paper's workload shape (§2):
//!
//! ```sql
//! SELECT g(L.cols), agg(...)
//! FROM T (in the EDW), L (on HDFS)
//! WHERE p_T(T) AND p_L(L)             -- local predicates
//!   AND T.k = L.k                     -- equi-join
//!   AND q(T, L)                       -- post-join predicate
//! GROUP BY g(L.cols)
//! ```
//!
//! Expressions about joined rows (`post_predicate`, `group_expr`) are
//! written against the **canonical joined schema** `T' ++ L'` (the projected
//! database columns first, then the projected HDFS columns). Individual
//! algorithms may physically produce `L' ++ T'` (the HDFS-side joins build
//! their hash table on the HDFS data); [`HybridQuery::remap_joined_expr`]
//! rewrites canonical expressions for that layout so every algorithm
//! computes the same answer.

use hybrid_bloom::BloomParams;
use hybrid_common::error::{HybridError, Result};
use hybrid_common::expr::Expr;
use hybrid_common::ops::AggSpec;

/// A two-table hybrid-warehouse query.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridQuery {
    /// Name of the table in the parallel database (`T`).
    pub db_table: String,
    /// Name of the table on HDFS (`L`).
    pub hdfs_table: String,
    /// Local predicate over `T`'s base schema.
    pub db_pred: Expr,
    /// Columns of `T` kept after projection (base-schema indexes). Must
    /// include the join key and everything `post_predicate`/`group_expr`
    /// touch on the database side.
    pub db_proj: Vec<usize>,
    /// Position of the join key **within `db_proj`**.
    pub db_key: usize,
    /// Local predicate over `L`'s base schema.
    pub hdfs_pred: Expr,
    /// Columns of `L` kept after projection (base-schema indexes).
    pub hdfs_proj: Vec<usize>,
    /// Position of the join key **within `hdfs_proj`**.
    pub hdfs_key: usize,
    /// Residual predicate over the canonical joined schema `T' ++ L'`.
    pub post_predicate: Option<Expr>,
    /// Group-by key expression over the canonical joined schema.
    pub group_expr: Expr,
    /// Aggregates over the canonical joined schema.
    pub aggs: Vec<AggSpec>,
    /// Bloom filter geometry used by the `(BF)` algorithm variants.
    pub bloom: BloomParams,
}

impl HybridQuery {
    /// Sanity-check the query against itself (projection/key bounds).
    pub fn validate(&self) -> Result<()> {
        if self.db_proj.is_empty() || self.hdfs_proj.is_empty() {
            return Err(HybridError::config("projections must be non-empty"));
        }
        if self.db_key >= self.db_proj.len() {
            return Err(HybridError::config(format!(
                "db_key {} out of bounds for projection of {}",
                self.db_key,
                self.db_proj.len()
            )));
        }
        if self.hdfs_key >= self.hdfs_proj.len() {
            return Err(HybridError::config(format!(
                "hdfs_key {} out of bounds for projection of {}",
                self.hdfs_key,
                self.hdfs_proj.len()
            )));
        }
        check_joined_exprs(
            self.db_proj.len() + self.hdfs_proj.len(),
            self.post_predicate.as_ref(),
            &self.group_expr,
            &self.aggs,
        )
    }

    /// Base-schema column index of `T`'s join key.
    pub fn db_key_base(&self) -> usize {
        self.db_proj[self.db_key]
    }

    /// Base-schema column index of `L`'s join key.
    pub fn hdfs_key_base(&self) -> usize {
        self.hdfs_proj[self.hdfs_key]
    }

    /// Where canonical (`T' ++ L'`) column `c` sits in the physical layout
    /// `L' ++ T'` produced by HDFS-side joins that build on the HDFS data.
    fn hdfs_layout_col(&self, c: usize) -> Option<usize> {
        let (dbw, hw) = (self.db_proj.len(), self.hdfs_proj.len());
        if c < dbw {
            Some(c + hw) // database column: shifted past the HDFS columns
        } else if c < dbw + hw {
            Some(c - dbw) // HDFS column: moved to the front
        } else {
            None
        }
    }

    /// Rewrite a canonical (`T' ++ L'`) expression for the `L' ++ T'`
    /// layout.
    pub fn remap_joined_expr(&self, expr: &Expr) -> Expr {
        expr.remap_columns(&|c| self.hdfs_layout_col(c))
            .expect("validated expressions stay in bounds")
    }

    /// `post_predicate` for the `L' ++ T'` layout.
    pub fn post_predicate_hdfs_layout(&self) -> Option<Expr> {
        self.post_predicate
            .as_ref()
            .map(|p| self.remap_joined_expr(p))
    }

    /// `group_expr` for the `L' ++ T'` layout.
    pub fn group_expr_hdfs_layout(&self) -> Expr {
        self.remap_joined_expr(&self.group_expr)
    }

    /// Aggregates for the `L' ++ T'` layout. (COUNT carries no column —
    /// which is why the paper's count(*)-only workload can never expose a
    /// layout mix-up; the multi-aggregate integration test can.)
    pub fn aggs_hdfs_layout(&self) -> Vec<AggSpec> {
        remap_agg_columns(&self.aggs, |c| {
            self.hdfs_layout_col(c)
                .expect("validated aggregates stay in bounds")
        })
    }
}

/// Aggregates rewritten through a column map.
pub(crate) fn remap_agg_columns(aggs: &[AggSpec], map: impl Fn(usize) -> usize) -> Vec<AggSpec> {
    aggs.iter().map(|a| a.map_column(&map)).collect()
}

/// Bounds-check the expressions a query evaluates over its joined layout
/// (binary `T' ++ L'` or star `fact' ++ dim_0' ++ …`) of `joined_width`
/// columns.
pub(crate) fn check_joined_exprs(
    joined_width: usize,
    post_predicate: Option<&Expr>,
    group_expr: &Expr,
    aggs: &[AggSpec],
) -> Result<()> {
    for c in aggs.iter().filter_map(|a| a.column()) {
        if c >= joined_width {
            return Err(HybridError::config(format!(
                "aggregate references column {c}, joined width is {joined_width}"
            )));
        }
    }
    for (name, expr) in [
        ("post_predicate", post_predicate),
        ("group_expr", Some(group_expr)),
    ] {
        if let Some(max) = expr.and_then(|e| e.referenced_columns().last().copied()) {
            if max >= joined_width {
                return Err(HybridError::config(format!(
                    "{name} references column {max}, joined width is {joined_width}"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_common::batch::{Batch, Column};
    use hybrid_common::datum::DataType;
    use hybrid_common::schema::Schema;

    fn query() -> HybridQuery {
        HybridQuery {
            db_table: "T".into(),
            hdfs_table: "L".into(),
            db_pred: Expr::col_le(2, 10),
            db_proj: vec![1, 4], // joinKey, date
            db_key: 0,
            hdfs_pred: Expr::col_le(1, 10),
            hdfs_proj: vec![0, 3], // joinKey, date
            hdfs_key: 0,
            post_predicate: Some(Expr::col(1).sub(Expr::col(3)).ge(Expr::lit_i64(0))),
            group_expr: Expr::col(2),
            aggs: vec![hybrid_common::ops::AggSpec::Count],
            bloom: BloomParams::new(1 << 10, 2).unwrap(),
        }
    }

    #[test]
    fn valid_query_passes() {
        query().validate().unwrap();
    }

    #[test]
    fn key_bounds_checked() {
        let mut q = query();
        q.db_key = 5;
        assert!(q.validate().is_err());
        let mut q = query();
        q.hdfs_key = 2;
        assert!(q.validate().is_err());
    }

    #[test]
    fn joined_expr_bounds_checked() {
        let mut q = query();
        q.group_expr = Expr::col(4); // joined width is 4 (cols 0..=3)
        assert!(q.validate().is_err());
        let mut q = query();
        q.post_predicate = Some(Expr::col_le(9, 1));
        assert!(q.validate().is_err());
    }

    #[test]
    fn empty_projection_rejected() {
        let mut q = query();
        q.db_proj.clear();
        assert!(q.validate().is_err());
    }

    #[test]
    fn base_key_resolution() {
        let q = query();
        assert_eq!(q.db_key_base(), 1);
        assert_eq!(q.hdfs_key_base(), 0);
    }

    #[test]
    fn remap_swaps_sides_consistently() {
        let q = query();
        // Build a canonical T'++L' batch and its swapped L'++T' twin; the
        // remapped expression over the swapped layout must equal the
        // canonical expression over the canonical layout.
        let canonical = Batch::new(
            Schema::from_pairs(&[
                ("t_k", DataType::I32),
                ("t_d", DataType::I32),
                ("l_k", DataType::I32),
                ("l_d", DataType::I32),
            ]),
            vec![
                Column::I32(vec![1, 2]),
                Column::I32(vec![10, 5]),
                Column::I32(vec![1, 2]),
                Column::I32(vec![9, 7]),
            ],
        )
        .unwrap();
        let swapped = canonical.project(&[2, 3, 0, 1]).unwrap();
        let canon_pred = q.post_predicate.clone().unwrap();
        let remapped = q.post_predicate_hdfs_layout().unwrap();
        assert_eq!(
            canon_pred.eval_predicate(&canonical).unwrap(),
            remapped.eval_predicate(&swapped).unwrap()
        );
        // group expr: canonical col 2 (l_k) → swapped col 0
        assert_eq!(
            q.group_expr.eval_i64(&canonical).unwrap(),
            q.group_expr_hdfs_layout().eval_i64(&swapped).unwrap()
        );
    }
}
