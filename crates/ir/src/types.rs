//! Structural type system for the IR.
//!
//! The types mirror the subset of MLIR types HIDA manipulates: scalars (`index`,
//! signless integers, floats), aggregates with static shapes (`tensor`, `memref`),
//! hardware stream channels, and the single-use `token` type used by HIDA's elastic
//! node execution (Section 6.4.2 of the paper).
//!
//! A type is an immutable value. Scalars are stored in place; what an
//! aggregate owns — shape and element type — sits in one shared block behind
//! an [`Arc`], as MLIR's uniqued types do: cloning a type (into every value of
//! a cloned [`Context`](crate::Context), into a cloned op's results) is a
//! counter increment, and nothing can change a type another holder still sees,
//! because nothing here hands out a `&mut` to the shared part.

use std::fmt;
use std::sync::Arc;

/// Shape and element type of a tensor or memref: the part of the type that
/// lives once, however many values carry it.
#[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Shaped {
    shape: Vec<i64>,
    elem: Type,
}

/// An element or aggregate type carried by SSA values.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    /// Platform-sized index type used for loop induction variables.
    Index,
    /// Signless integer of the given bit width (e.g. `i8`, `i32`).
    Int(u32),
    /// IEEE float of the given bit width (`f16`, `f32`, `f64`).
    Float(u32),
    /// Immutable tensor value with a static shape (Functional dataflow
    /// semantics); build one with [`Type::tensor`], read it with
    /// [`Type::shape`] and [`Type::elem_type`].
    Tensor(Arc<Shaped>),
    /// Mutable memory reference with a static shape (Structural dataflow
    /// semantics); build one with [`Type::memref`].
    MemRef(Arc<Shaped>),
    /// FIFO stream channel holding `depth` in-flight elements.
    Stream {
        /// Element type of the channel.
        elem: Arc<Type>,
        /// Number of entries the channel can buffer.
        depth: i64,
    },
    /// Single-bit synchronization token (HIDA elastic execution).
    Token,
    /// Absence of a value (used by ops with no results in generic positions).
    None,
}

impl Type {
    /// Returns the `i1` boolean type.
    pub fn i1() -> Type {
        Type::Int(1)
    }

    /// Returns the `i8` type.
    pub fn i8() -> Type {
        Type::Int(8)
    }

    /// Returns the `i32` type.
    pub fn i32() -> Type {
        Type::Int(32)
    }

    /// Returns the `i64` type.
    pub fn i64() -> Type {
        Type::Int(64)
    }

    /// Returns the `f32` type.
    pub fn f32() -> Type {
        Type::Float(32)
    }

    /// Returns the `f64` type.
    pub fn f64() -> Type {
        Type::Float(64)
    }

    /// Creates a tensor type with a static shape.
    pub fn tensor(shape: impl Into<Vec<i64>>, elem: Type) -> Type {
        Type::Tensor(Arc::new(Shaped {
            shape: shape.into(),
            elem,
        }))
    }

    /// Creates a memref type with a static shape.
    pub fn memref(shape: impl Into<Vec<i64>>, elem: Type) -> Type {
        Type::MemRef(Arc::new(Shaped {
            shape: shape.into(),
            elem,
        }))
    }

    /// Creates a stream channel type.
    pub fn stream(elem: Type, depth: i64) -> Type {
        Type::Stream {
            elem: Arc::new(elem),
            depth,
        }
    }

    /// Returns true for tensor types.
    pub fn is_tensor(&self) -> bool {
        matches!(self, Type::Tensor(_))
    }

    /// Returns true for memref types.
    pub fn is_memref(&self) -> bool {
        matches!(self, Type::MemRef(_))
    }

    /// Returns true for stream channel types.
    pub fn is_stream(&self) -> bool {
        matches!(self, Type::Stream { .. })
    }

    /// Returns the shape of a tensor or memref type, if any.
    pub fn shape(&self) -> Option<&[i64]> {
        match self {
            Type::Tensor(shaped) | Type::MemRef(shaped) => Some(&shaped.shape),
            _ => None,
        }
    }

    /// Returns the element type of an aggregate or stream type, or `self` for scalars.
    pub fn elem_type(&self) -> &Type {
        match self {
            Type::Tensor(shaped) | Type::MemRef(shaped) => &shaped.elem,
            Type::Stream { elem, .. } => elem,
            other => other,
        }
    }

    /// Total number of scalar elements held by this type (1 for scalars).
    ///
    /// Returns `None` for stream, token and none types, whose element count is not a
    /// static property of the type.
    pub fn num_elements(&self) -> Option<i64> {
        match self {
            Type::Tensor(shaped) | Type::MemRef(shaped) => Some(shaped.shape.iter().product()),
            Type::Index | Type::Int(_) | Type::Float(_) => Some(1),
            _ => None,
        }
    }

    /// Bit width of the element type (64 for `index`).
    pub fn elem_bit_width(&self) -> u32 {
        match self.elem_type() {
            Type::Int(w) | Type::Float(w) => *w,
            Type::Index => 64,
            _ => 0,
        }
    }

    /// Converts a tensor type into the memref type with the same shape and element
    /// type — the same shared block, not a copy of it. Non-tensor types are
    /// returned unchanged.
    pub fn tensor_to_memref(&self) -> Type {
        match self {
            Type::Tensor(shaped) => Type::MemRef(Arc::clone(shaped)),
            other => other.clone(),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Index => write!(f, "index"),
            Type::Int(w) => write!(f, "i{w}"),
            Type::Float(w) => write!(f, "f{w}"),
            Type::Tensor(shaped) | Type::MemRef(shaped) => {
                let keyword = if self.is_tensor() { "tensor" } else { "memref" };
                write!(f, "{keyword}<")?;
                for d in &shaped.shape {
                    write!(f, "{d}x")?;
                }
                write!(f, "{}>", shaped.elem)
            }
            Type::Stream { elem, depth } => write!(f, "stream<{elem}, {depth}>"),
            Type::Token => write!(f, "token"),
            Type::None => write!(f, "none"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_constructors() {
        assert_eq!(Type::i8(), Type::Int(8));
        assert_eq!(Type::f32(), Type::Float(32));
    }

    #[test]
    fn a_cloned_aggregate_shares_its_block() {
        let t = Type::tensor(vec![4, 8], Type::i8());
        let copy = t.clone();
        let (Type::Tensor(a), Type::Tensor(b)) = (&t, &copy) else {
            panic!("tensor() builds a tensor");
        };
        assert!(Arc::ptr_eq(a, b));
        let Type::MemRef(m) = t.tensor_to_memref() else {
            panic!("tensor_to_memref() builds a memref");
        };
        assert!(Arc::ptr_eq(a, &m));
    }

    #[test]
    fn aggregate_shapes_and_elements() {
        let t = Type::tensor(vec![4, 8, 16], Type::i8());
        assert_eq!(t.shape(), Some(&[4_i64, 8, 16][..]));
        assert_eq!(t.num_elements(), Some(512));
        assert_eq!(t.elem_type(), &Type::Int(8));
        assert_eq!(t.elem_bit_width(), 8);

        let m = t.tensor_to_memref();
        assert!(m.is_memref());
        assert_eq!(m.shape(), Some(&[4_i64, 8, 16][..]));
    }

    #[test]
    fn stream_and_token_types() {
        let s = Type::stream(Type::i1(), 3);
        assert!(s.is_stream());
        assert_eq!(s.elem_type(), &Type::Int(1));
        assert_eq!(s.num_elements(), None);
        assert_eq!(Type::Token.num_elements(), None);
    }

    #[test]
    fn display_matches_mlir_flavor() {
        assert_eq!(Type::i32().to_string(), "i32");
        assert_eq!(
            Type::tensor(vec![64, 64], Type::i8()).to_string(),
            "tensor<64x64xi8>"
        );
        assert_eq!(
            Type::memref(vec![16], Type::f32()).to_string(),
            "memref<16xf32>"
        );
        assert_eq!(Type::stream(Type::i1(), 3).to_string(), "stream<i1, 3>");
    }

    #[test]
    fn tensor_to_memref_is_identity_on_scalars() {
        assert_eq!(Type::f32().tensor_to_memref(), Type::f32());
    }
}
