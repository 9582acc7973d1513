//! HLS directive attributes (the ScaleHLS "Directive IR" HIDA reuses, Figure 5).
//!
//! Directives describe micro-architectural decisions that downstream HLS tools apply
//! when generating RTL: loop pipelining and unrolling (handled on the loop ops in
//! [`crate::loops`]), array partitioning, buffer placement, and tiling. Array
//! partitioning is central to HIDA's connection-aware parallelization — Table 6 of
//! the paper reports the partition factors and bank counts chosen for Listing 1.

use hida_ir_core::{symbol, Attribute, Context, OpId, Symbol};

/// How one dimension of a buffer is split into banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionFashion {
    /// No partitioning: the whole dimension lives in one bank.
    None,
    /// Elements are distributed round-robin across banks (`addr mod factor`).
    Cyclic,
    /// Contiguous blocks of elements go to the same bank (`addr / block`).
    Block,
    /// Every element gets its own bank (complete partitioning / registers).
    Complete,
}

impl PartitionFashion {
    /// Canonical string form used in attributes and the HLS C++ emitter.
    pub fn as_str(self) -> &'static str {
        match self {
            PartitionFashion::None => "none",
            PartitionFashion::Cyclic => "cyclic",
            PartitionFashion::Block => "block",
            PartitionFashion::Complete => "complete",
        }
    }

    /// [`PartitionFashion::as_str`] as a [`Symbol`], interned once per process.
    pub fn symbol(self) -> Symbol {
        match self {
            PartitionFashion::None => symbol!("none"),
            PartitionFashion::Cyclic => symbol!("cyclic"),
            PartitionFashion::Block => symbol!("block"),
            PartitionFashion::Complete => symbol!("complete"),
        }
    }

    /// Parses the canonical string form (unknown strings map to `None`).
    pub fn parse(s: &str) -> PartitionFashion {
        match s {
            "cyclic" => PartitionFashion::Cyclic,
            "block" => PartitionFashion::Block,
            "complete" => PartitionFashion::Complete,
            _ => PartitionFashion::None,
        }
    }
}

/// Where a buffer is physically placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// On-chip block RAM (dual-port).
    Bram,
    /// On-chip UltraRAM.
    Uram,
    /// Distributed LUT RAM / registers.
    Lutram,
    /// External (off-chip) memory reached through AXI.
    External,
}

impl MemoryKind {
    /// Canonical string form.
    pub fn as_str(self) -> &'static str {
        match self {
            MemoryKind::Bram => "bram",
            MemoryKind::Uram => "uram",
            MemoryKind::Lutram => "lutram",
            MemoryKind::External => "external",
        }
    }

    /// Parses the canonical string form (unknown strings map to `Bram`).
    pub fn parse(s: &str) -> MemoryKind {
        match s {
            "uram" => MemoryKind::Uram,
            "lutram" => MemoryKind::Lutram,
            "external" => MemoryKind::External,
            _ => MemoryKind::Bram,
        }
    }
}

/// A complete array-partition directive: one fashion and factor per buffer dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayPartition {
    /// Partition fashion per dimension.
    pub fashions: Vec<PartitionFashion>,
    /// Partition factor per dimension (1 = unpartitioned).
    pub factors: Vec<i64>,
}

impl ArrayPartition {
    /// Creates an unpartitioned directive for a buffer of the given rank.
    pub fn none(rank: usize) -> Self {
        ArrayPartition {
            fashions: vec![PartitionFashion::None; rank],
            factors: vec![1; rank],
        }
    }

    /// Creates a cyclic partition with the given per-dimension factors.
    pub fn cyclic(factors: Vec<i64>) -> Self {
        let fashions = factors
            .iter()
            .map(|&f| {
                if f > 1 {
                    PartitionFashion::Cyclic
                } else {
                    PartitionFashion::None
                }
            })
            .collect();
        ArrayPartition { fashions, factors }
    }

    /// Total number of banks implied by the directive (product of factors).
    pub fn bank_count(&self) -> i64 {
        self.factors.iter().map(|&f| f.max(1)).product()
    }
}

/// Attribute key holding the partition fashions.
pub const ATTR_PARTITION_FASHIONS: &str = "partition_fashions";
/// Attribute key holding the partition factors.
pub const ATTR_PARTITION_FACTORS: &str = "partition_factors";
/// Attribute key holding the memory placement.
pub const ATTR_MEMORY_KIND: &str = "memory_kind";

/// Attaches an array-partition directive, given as its two per-dimension
/// lists (an [`ArrayPartition`]'s fields, or arrays a caller keeps of its
/// own), to a buffer-producing operation (`memref.alloc` or `hida.buffer`).
/// Both payloads are interned, so a directive already written anywhere
/// allocates nothing; the keys and the fashion strings are interned once
/// per process.
pub fn write_array_partition(
    ctx: &mut Context,
    buffer_op: OpId,
    fashions: &[PartitionFashion],
    factors: &[i64],
) {
    let fashions = fashions.iter().map(|f| f.symbol()).collect();
    ctx.set_attr(
        buffer_op,
        symbol!(ATTR_PARTITION_FASHIONS),
        Attribute::StrArray(fashions),
    );
    ctx.set_attr(buffer_op, symbol!(ATTR_PARTITION_FACTORS), factors);
}

/// Reads the array-partition directive of a buffer-producing operation, defaulting to
/// an unpartitioned directive of the given rank when absent.
pub fn get_array_partition(ctx: &Context, buffer_op: OpId, rank: usize) -> ArrayPartition {
    let op = ctx.op(buffer_op);
    let fashions = op
        .attr(ATTR_PARTITION_FASHIONS)
        .and_then(Attribute::as_str_array)
        .map(|v| v.iter().map(|s| PartitionFashion::parse(s)).collect())
        .unwrap_or_else(|| vec![PartitionFashion::None; rank]);
    let factors = op
        .attr_int_array(ATTR_PARTITION_FACTORS)
        .map(|v| v.to_vec())
        .unwrap_or_else(|| vec![1; rank]);
    ArrayPartition { fashions, factors }
}

/// Sets the memory placement of a buffer-producing operation.
pub fn set_memory_kind(ctx: &mut Context, buffer_op: OpId, kind: MemoryKind) {
    ctx.set_attr(buffer_op, symbol!(ATTR_MEMORY_KIND), kind.as_str());
}

/// Reads the memory placement of a buffer-producing operation (defaults to BRAM).
pub fn get_memory_kind(ctx: &Context, buffer_op: OpId) -> MemoryKind {
    ctx.op(buffer_op)
        .attr_str(ATTR_MEMORY_KIND)
        .map(MemoryKind::parse)
        .unwrap_or(MemoryKind::Bram)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hida_ir_core::{OpBuilder, Type};

    fn buffer_op(ctx: &mut Context) -> OpId {
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![]);
        let mut b = OpBuilder::at_end_of(ctx, func);
        let buf = crate::memory::build_alloc(&mut b, Type::memref(vec![16, 16], Type::f32()), "A");
        ctx.value(buf).defining_op().unwrap()
    }

    #[test]
    fn partition_fashion_and_memory_kind_round_trip_strings() {
        for f in [
            PartitionFashion::None,
            PartitionFashion::Cyclic,
            PartitionFashion::Block,
            PartitionFashion::Complete,
        ] {
            assert_eq!(PartitionFashion::parse(f.as_str()), f);
            assert_eq!(f.symbol().as_str(), f.as_str());
        }
        for k in [
            MemoryKind::Bram,
            MemoryKind::Uram,
            MemoryKind::Lutram,
            MemoryKind::External,
        ] {
            assert_eq!(MemoryKind::parse(k.as_str()), k);
        }
        assert_eq!(PartitionFashion::parse("bogus"), PartitionFashion::None);
        assert_eq!(MemoryKind::parse("bogus"), MemoryKind::Bram);
    }

    #[test]
    fn bank_count_is_product_of_factors() {
        let p = ArrayPartition::cyclic(vec![4, 8]);
        assert_eq!(p.bank_count(), 32);
        assert_eq!(p.fashions[0], PartitionFashion::Cyclic);
        let none = ArrayPartition::none(3);
        assert_eq!(none.bank_count(), 1);
        let mixed = ArrayPartition::cyclic(vec![1, 8]);
        assert_eq!(mixed.fashions[0], PartitionFashion::None);
        assert_eq!(mixed.bank_count(), 8);
    }

    #[test]
    fn partition_directive_round_trips_through_attributes() {
        let mut ctx = Context::new();
        let buf = buffer_op(&mut ctx);
        // Default: unpartitioned.
        let def = get_array_partition(&ctx, buf, 2);
        assert_eq!(def, ArrayPartition::none(2));

        let p = ArrayPartition {
            fashions: vec![PartitionFashion::Cyclic, PartitionFashion::Block],
            factors: vec![4, 4],
        };
        write_array_partition(&mut ctx, buf, &p.fashions, &p.factors);
        assert_eq!(get_array_partition(&ctx, buf, 2), p);
    }

    #[test]
    fn memory_kind_round_trips() {
        let mut ctx = Context::new();
        let buf = buffer_op(&mut ctx);
        assert_eq!(get_memory_kind(&ctx, buf), MemoryKind::Bram);
        set_memory_kind(&mut ctx, buf, MemoryKind::External);
        assert_eq!(get_memory_kind(&ctx, buf), MemoryKind::External);
    }
}
