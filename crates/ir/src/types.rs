//! Structural type system for the IR.
//!
//! The types mirror the subset of MLIR types HIDA manipulates: scalars (`index`,
//! signless integers, floats), aggregates with static shapes (`tensor`, `memref`),
//! hardware stream channels, and the single-use `token` type used by HIDA's elastic
//! node execution (Section 6.4.2 of the paper).
//!
//! A type is a 16-byte `Copy` value. Scalars are stored in place; what an
//! aggregate owns — shape and element type, or a stream's element type and
//! depth — is one [`Interned`] payload, uniqued process-wide the way MLIR
//! uniques its types: equal aggregates are one pointer, a value's type is
//! copied with the value, and nothing can change a type another holder still
//! sees (see [`crate::intern`]). Types still compare, hash, order and print
//! by content.

use crate::intern::{intern_by_content, Interned};
use std::fmt;

/// Shape and element type of a tensor or memref: the part of the type that
/// is interned once, however many values carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Shaped {
    shape: Interned<[i64]>,
    elem: Type,
}

/// Element type and depth of a stream channel: the part of the type that
/// is interned once, however many values carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Channel {
    elem: Type,
    depth: i64,
}

/// An element or aggregate type carried by SSA values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
    Tensor(Interned<Shaped>),
    /// Mutable memory reference with a static shape (Structural dataflow
    /// semantics); build one with [`Type::memref`].
    MemRef(Interned<Shaped>),
    /// FIFO stream channel; build one with [`Type::stream`], read it with
    /// [`Type::elem_type`] and [`Type::stream_depth`].
    Stream(Interned<Channel>),
    /// Single-bit synchronization token (HIDA elastic execution).
    Token,
    /// Absence of a value (used by ops with no results in generic positions).
    None,
}

intern_by_content!(Shaped, Channel);

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
    pub fn tensor(shape: impl AsRef<[i64]>, elem: Type) -> Type {
        Type::Tensor(Type::shaped(shape.as_ref(), elem))
    }

    /// Creates a memref type with a static shape.
    pub fn memref(shape: impl AsRef<[i64]>, elem: Type) -> Type {
        Type::MemRef(Type::shaped(shape.as_ref(), elem))
    }

    fn shaped(shape: &[i64], elem: Type) -> Interned<Shaped> {
        Interned::new(&Shaped {
            shape: shape.into(),
            elem,
        })
    }

    /// Creates a stream channel type.
    pub fn stream(elem: Type, depth: i64) -> Type {
        Type::Stream(Interned::new(&Channel { elem, depth }))
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
        matches!(self, Type::Stream(_))
    }

    /// Returns the number of entries a stream channel buffers, if this is one.
    pub fn stream_depth(&self) -> Option<i64> {
        match self {
            Type::Stream(channel) => Some(channel.depth),
            _ => None,
        }
    }

    /// Returns the shape of a tensor or memref type, if any.
    pub fn shape(&self) -> Option<&'static [i64]> {
        match self {
            Type::Tensor(shaped) | Type::MemRef(shaped) => Some(shaped.get().shape.get()),
            _ => None,
        }
    }

    /// Returns the element type of an aggregate or stream type, or `self` for scalars.
    pub fn elem_type(&self) -> &Type {
        match self {
            Type::Tensor(shaped) | Type::MemRef(shaped) => &shaped.get().elem,
            Type::Stream(channel) => &channel.get().elem,
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
    /// type — the same interned payload. Non-tensor types are returned unchanged.
    pub fn tensor_to_memref(&self) -> Type {
        match *self {
            Type::Tensor(shaped) => Type::MemRef(shaped),
            other => other,
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
                for d in shaped.shape.iter() {
                    write!(f, "{d}x")?;
                }
                write!(f, "{}>", shaped.elem)
            }
            Type::Stream(channel) => write!(f, "stream<{}, {}>", channel.elem, channel.depth),
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
        let (Type::Tensor(a), Type::Tensor(b)) = (t, Type::tensor([4, 8], Type::i8())) else {
            panic!("tensor() builds a tensor");
        };
        assert!(a.ptr_eq(b), "equal aggregates are one payload");
        let Type::MemRef(m) = t.tensor_to_memref() else {
            panic!("tensor_to_memref() builds a memref");
        };
        assert!(a.ptr_eq(m));
        let (Type::Stream(x), Type::Stream(y)) = (Type::stream(t, 2), Type::stream(t, 2)) else {
            panic!("stream() builds a stream");
        };
        assert!(x.ptr_eq(y));
        assert_eq!(std::mem::size_of::<Type>(), 16);
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
    fn types_order_by_content() {
        let small = Type::memref([2, 9], Type::i8());
        let large = Type::memref([16], Type::i8());
        assert!(small < large, "shape [2, 9] sorts before [16]");
        assert!(Type::memref([4], Type::i8()) < Type::memref([4], Type::i32()));
        assert!(Type::tensor([64], Type::f32()) < Type::memref([1], Type::f32()));
    }

    #[test]
    fn stream_and_token_types() {
        let s = Type::stream(Type::i1(), 3);
        assert!(s.is_stream());
        assert_eq!(s.elem_type(), &Type::Int(1));
        assert_eq!(s.stream_depth(), Some(3));
        assert_eq!(Type::i1().stream_depth(), None);
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
