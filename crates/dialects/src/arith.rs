//! Arithmetic payload operations and their hardware cost classification.
//!
//! The QoR estimator needs to know, for every scalar operation in a loop body, how
//! many DSP blocks it consumes and how many pipeline stages it occupies on the target
//! FPGA. This module names the arithmetic ops used by the front-ends and provides the
//! per-op cost classes used by `hida-estimator`.

use hida_ir_core::{OpBuilder, ValueId};

/// Integer addition.
pub const ADDI: &str = "arith.addi";
/// Integer subtraction.
pub const SUBI: &str = "arith.subi";
/// Integer multiplication.
pub const MULI: &str = "arith.muli";
/// Integer division.
pub const DIVI: &str = "arith.divsi";
/// Float addition.
pub const ADDF: &str = "arith.addf";
/// Float subtraction.
pub const SUBF: &str = "arith.subf";
/// Float multiplication.
pub const MULF: &str = "arith.mulf";
/// Float division.
pub const DIVF: &str = "arith.divf";
/// Maximum (used by ReLU / max-pooling).
pub const MAXF: &str = "arith.maxf";
/// Integer comparison.
pub const CMPI: &str = "arith.cmpi";
/// Float comparison.
pub const CMPF: &str = "arith.cmpf";
/// Square root (used by correlation).
pub const SQRT: &str = "math.sqrt";
/// Fused multiply-accumulate (one MAC).
pub const MAC: &str = "arith.mac";

/// Hardware cost class of a scalar operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Additions, subtractions, comparisons, max — LUT/carry logic.
    AddLike,
    /// Multiplications and MACs — DSP blocks.
    MulLike,
    /// Divisions and square roots — long multi-cycle units.
    DivLike,
    /// Memory accesses.
    Memory,
    /// Everything else (control, casts, constants).
    Other,
}

/// Classifies an operation name into its hardware cost class.
pub fn classify(op_name: &str) -> OpClass {
    match op_name {
        ADDI | SUBI | ADDF | SUBF | MAXF | CMPI | CMPF => OpClass::AddLike,
        MULI | MULF | MAC => OpClass::MulLike,
        DIVI | DIVF | SQRT => OpClass::DivLike,
        crate::memory::LOAD | crate::memory::STORE => OpClass::Memory,
        _ => OpClass::Other,
    }
}

/// Builds a binary arithmetic op with the result type of the left operand.
pub fn build_binary(
    builder: &mut OpBuilder<'_>,
    name: &str,
    lhs: ValueId,
    rhs: ValueId,
) -> ValueId {
    let ty = *builder.context().value_type(lhs);
    let (_, results) = builder.create(name, vec![lhs, rhs], vec![ty], vec![]);
    results[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_ir_core::{Context, Type};

    #[test]
    fn classification_buckets_ops_correctly() {
        assert_eq!(classify(ADDI), OpClass::AddLike);
        assert_eq!(classify(SUBF), OpClass::AddLike);
        assert_eq!(classify(MAXF), OpClass::AddLike);
        assert_eq!(classify(MULI), OpClass::MulLike);
        assert_eq!(classify(MAC), OpClass::MulLike);
        assert_eq!(classify(DIVF), OpClass::DivLike);
        assert_eq!(classify(SQRT), OpClass::DivLike);
        assert_eq!(classify(crate::memory::LOAD), OpClass::Memory);
        assert_eq!(classify("hida.node"), OpClass::Other);
    }

    #[test]
    fn binary_builder_propagates_types() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let x = b.create_constant_float(1.0, Type::f32());
        let y = b.create_constant_float(2.0, Type::f32());
        let sum = build_binary(&mut b, ADDF, x, y);
        let product = build_binary(&mut b, MULF, x, sum);
        assert_eq!(ctx.value_type(sum), &Type::f32());
        assert_eq!(ctx.value_type(product), &Type::f32());
        let mul_op = ctx.value(product).defining_op().unwrap();
        assert_eq!(classify(ctx.op(mul_op).name.as_str()), OpClass::MulLike);
    }
}
