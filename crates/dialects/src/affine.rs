//! Affine expressions and maps.
//!
//! The `affine` dialect "provides a powerful abstraction for affine operations in
//! order to make dependence analysis and loop transformations efficient and reliable"
//! (paper §3.2). HIDA additionally converts buffer partition and data-layout
//! attributes into semi-affine maps to drive polyhedral-style analysis (§5.2).
//!
//! We implement the subset needed by the reproduction: single-variable affine
//! expressions over loop induction dimensions with strides, offsets, floordiv and
//! modulo, composed into multi-result [`AffineMap`]s.

use std::fmt;

/// A (semi-)affine expression over dimension variables `d0, d1, ...`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AffineExpr {
    /// A dimension variable (`d{index}`).
    Dim(usize),
    /// An integer constant.
    Const(i64),
    /// Sum of two expressions.
    Add(Box<AffineExpr>, Box<AffineExpr>),
    /// Product of an expression and a constant.
    Mul(Box<AffineExpr>, i64),
    /// Floor division of an expression by a positive constant.
    FloorDiv(Box<AffineExpr>, i64),
    /// Remainder of an expression modulo a positive constant.
    Mod(Box<AffineExpr>, i64),
}

impl AffineExpr {
    /// Shorthand for a dimension variable.
    pub fn dim(index: usize) -> Self {
        AffineExpr::Dim(index)
    }

    /// Shorthand for a constant.
    pub fn constant(value: i64) -> Self {
        AffineExpr::Const(value)
    }

    /// Returns `self * factor`.
    pub fn times(self, factor: i64) -> Self {
        AffineExpr::Mul(Box::new(self), factor)
    }

    /// Returns `self + other`.
    pub fn plus(self, other: AffineExpr) -> Self {
        AffineExpr::Add(Box::new(self), Box::new(other))
    }

    /// Returns `self + constant`.
    pub fn plus_const(self, value: i64) -> Self {
        self.plus(AffineExpr::Const(value))
    }

    /// Returns `self floordiv divisor`.
    ///
    /// # Panics
    /// Panics if `divisor` is not positive.
    pub fn floor_div(self, divisor: i64) -> Self {
        assert!(divisor > 0, "floordiv divisor must be positive");
        AffineExpr::FloorDiv(Box::new(self), divisor)
    }

    /// Returns `self mod modulus`.
    ///
    /// # Panics
    /// Panics if `modulus` is not positive.
    pub fn modulo(self, modulus: i64) -> Self {
        assert!(modulus > 0, "modulus must be positive");
        AffineExpr::Mod(Box::new(self), modulus)
    }

    /// Evaluates the expression with the given dimension values.
    ///
    /// # Panics
    /// Panics if a referenced dimension is missing from `dims`.
    pub fn eval(&self, dims: &[i64]) -> i64 {
        match self {
            AffineExpr::Dim(i) => dims[*i],
            AffineExpr::Const(c) => *c,
            AffineExpr::Add(a, b) => a.eval(dims) + b.eval(dims),
            AffineExpr::Mul(a, c) => a.eval(dims) * c,
            AffineExpr::FloorDiv(a, c) => a.eval(dims).div_euclid(*c),
            AffineExpr::Mod(a, c) => a.eval(dims).rem_euclid(*c),
        }
    }

    /// Returns the single `(dimension, stride, offset)` triple if the expression is
    /// of the form `stride * d + offset` (i.e. a strided access along one loop), or
    /// `None` for constants and multi-dimension expressions.
    pub fn as_strided_dim(&self) -> Option<(usize, i64, i64)> {
        fn collect(
            expr: &AffineExpr,
            scale: i64,
            dims: &mut Vec<(usize, i64)>,
            offset: &mut i64,
        ) -> bool {
            match expr {
                AffineExpr::Dim(d) => {
                    dims.push((*d, scale));
                    true
                }
                AffineExpr::Const(c) => {
                    *offset += c * scale;
                    true
                }
                AffineExpr::Add(a, b) => {
                    collect(a, scale, dims, offset) && collect(b, scale, dims, offset)
                }
                AffineExpr::Mul(a, c) => collect(a, scale * c, dims, offset),
                // floordiv/mod are semi-affine; no single strided dimension.
                AffineExpr::FloorDiv(..) | AffineExpr::Mod(..) => false,
            }
        }
        let mut dims = Vec::new();
        let mut offset = 0;
        if !collect(self, 1, &mut dims, &mut offset) {
            return None;
        }
        match dims.as_slice() {
            [(d, stride)] => Some((*d, *stride, offset)),
            _ => None,
        }
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AffineExpr::Dim(i) => write!(f, "d{i}"),
            AffineExpr::Const(c) => write!(f, "{c}"),
            AffineExpr::Add(a, b) => write!(f, "{a} + {b}"),
            AffineExpr::Mul(a, c) => write!(f, "{a} * {c}"),
            AffineExpr::FloorDiv(a, c) => write!(f, "{a} floordiv {c}"),
            AffineExpr::Mod(a, c) => write!(f, "{a} mod {c}"),
        }
    }
}

/// A multi-result affine map `(d0, ..., dn) -> (e0, ..., em)`.
///
/// Used as memory access functions (one result per memref dimension) and as buffer
/// partition/layout maps (paper §5.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AffineMap {
    /// Number of input dimensions.
    pub num_dims: usize,
    /// Result expressions.
    pub results: Vec<AffineExpr>,
}

impl AffineMap {
    /// Creates a map from raw parts.
    pub fn new(num_dims: usize, results: Vec<AffineExpr>) -> Self {
        AffineMap { num_dims, results }
    }

    /// Creates the identity map over `n` dimensions.
    pub fn identity(n: usize) -> Self {
        AffineMap {
            num_dims: n,
            results: (0..n).map(AffineExpr::Dim).collect(),
        }
    }

    /// Evaluates every result with the given dimension values.
    pub fn eval(&self, dims: &[i64]) -> Vec<i64> {
        self.results.iter().map(|e| e.eval(dims)).collect()
    }
}

impl fmt::Display for AffineMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for i in 0..self.num_dims {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "d{i}")?;
        }
        write!(f, ") -> (")?;
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_strided_expression() {
        // 2*d0 + 3
        let e = AffineExpr::dim(0).times(2).plus_const(3);
        assert_eq!(e.eval(&[5]), 13);
        assert_eq!(e.as_strided_dim(), Some((0, 2, 3)));
    }

    #[test]
    fn strided_dim_rejects_multi_dim_and_semi_affine() {
        let multi = AffineExpr::dim(0).plus(AffineExpr::dim(1));
        assert_eq!(multi.as_strided_dim(), None);
        let semi = AffineExpr::dim(0).floor_div(4);
        assert_eq!(semi.as_strided_dim(), None);
        let constant = AffineExpr::constant(7);
        assert_eq!(constant.as_strided_dim(), None);
    }

    #[test]
    fn floordiv_and_mod_follow_euclidean_semantics() {
        let div = AffineExpr::dim(0).floor_div(4);
        let rem = AffineExpr::dim(0).modulo(4);
        assert_eq!(div.eval(&[10]), 2);
        assert_eq!(rem.eval(&[10]), 2);
        assert_eq!(div.eval(&[3]), 0);
        assert_eq!(rem.eval(&[3]), 3);
    }

    #[test]
    fn identity_map_and_eval() {
        let m = AffineMap::identity(3);
        assert_eq!(m.eval(&[4, 5, 6]), vec![4, 5, 6]);
        assert_eq!(m.to_string(), "(d0, d1, d2) -> (d0, d1, d2)");
    }

    #[test]
    #[should_panic(expected = "floordiv divisor must be positive")]
    fn floordiv_rejects_non_positive_divisor() {
        let _ = AffineExpr::dim(0).floor_div(0);
    }

    #[test]
    fn display_renders_nested_expressions() {
        let e = AffineExpr::dim(1).times(3).plus_const(-2);
        assert_eq!(e.to_string(), "d1 * 3 + -2");
    }
}
