//! Non-operation IR entities: SSA values, blocks, and regions.
//!
//! A sequential list of operations without control flow is a [`Block`]; a control
//! flow graph of blocks is a [`Region`]; regions are in turn contained by operations,
//! enabling the description of arbitrary design hierarchy (paper §3.1).

use crate::ids::ValueId;
use crate::ids::{BlockId, OpId, RegionId};
use crate::intern::Symbol;
use crate::storage::IdList;
use crate::types::Type;

/// Where an SSA value comes from: an operation result or a block argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueDef {
    /// The `index`-th result of operation `op`.
    OpResult {
        /// Producing operation.
        op: OpId,
        /// Result position.
        index: usize,
    },
    /// The `index`-th argument of block `block`.
    BlockArg {
        /// Owning block.
        block: BlockId,
        /// Argument position.
        index: usize,
    },
}

/// An SSA value: a definition site plus a static type. `Copy`: the type
/// and the name hint are interned handles.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// Definition site of the value.
    pub def: ValueDef,
    /// Static type of the value.
    pub ty: Type,
    /// Optional human-readable name hint used by the printer (e.g. `%buffer`),
    /// set with [`Context::set_name_hint`](crate::Context::set_name_hint).
    pub name_hint: Option<Symbol>,
}

impl Value {
    /// Returns the defining operation, if the value is an operation result.
    pub fn defining_op(&self) -> Option<OpId> {
        match self.def {
            ValueDef::OpResult { op, .. } => Some(op),
            ValueDef::BlockArg { .. } => None,
        }
    }

    /// Returns the owning block, if the value is a block argument.
    pub fn owner_block(&self) -> Option<BlockId> {
        match self.def {
            ValueDef::BlockArg { block, .. } => Some(block),
            ValueDef::OpResult { .. } => None,
        }
    }
}

/// A sequential list of operations plus typed block arguments.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Block arguments (entry values of the block).
    pub args: IdList<ValueId>,
    /// Operations in program order.
    pub ops: IdList<OpId>,
    /// Region containing this block, if attached.
    pub parent_region: Option<RegionId>,
}

impl Block {
    /// Returns the position of `op` within this block, if present.
    pub fn position_of(&self, op: OpId) -> Option<usize> {
        self.ops.iter().position(|&o| o == op)
    }

    /// Returns the last operation of the block (its terminator, if the block is
    /// well-formed), if the block is non-empty.
    pub fn terminator(&self) -> Option<OpId> {
        self.ops.last().copied()
    }
}

/// A list of blocks owned by an operation.
#[derive(Debug, Clone, Default)]
pub struct Region {
    /// Blocks in the region; the first block is the entry block.
    pub blocks: IdList<BlockId>,
    /// Operation owning this region, if attached.
    pub parent_op: Option<OpId>,
}

impl Region {
    /// Returns the entry block of the region, if any.
    pub fn entry(&self) -> Option<BlockId> {
        self.blocks.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_def_accessors() {
        let v = Value {
            def: ValueDef::OpResult {
                op: OpId::from_index(3),
                index: 0,
            },
            ty: Type::i32(),
            name_hint: None,
        };
        assert_eq!(v.defining_op(), Some(OpId::from_index(3)));
        assert_eq!(v.owner_block(), None);

        let a = Value {
            def: ValueDef::BlockArg {
                block: BlockId::from_index(1),
                index: 2,
            },
            ty: Type::f32(),
            name_hint: Some("arg".into()),
        };
        assert_eq!(a.defining_op(), None);
        assert_eq!(a.owner_block(), Some(BlockId::from_index(1)));
    }

    #[test]
    fn block_position_and_terminator() {
        let block = Block {
            args: IdList::new(),
            ops: vec![
                OpId::from_index(0),
                OpId::from_index(5),
                OpId::from_index(9),
            ]
            .into(),
            parent_region: None,
        };
        assert_eq!(block.position_of(OpId::from_index(5)), Some(1));
        assert_eq!(block.position_of(OpId::from_index(7)), None);
        assert_eq!(block.terminator(), Some(OpId::from_index(9)));
        assert_eq!(Block::default().terminator(), None);
    }

    #[test]
    fn region_entry_block() {
        let region = Region {
            blocks: vec![BlockId::from_index(2), BlockId::from_index(3)].into(),
            parent_op: None,
        };
        assert_eq!(region.entry(), Some(BlockId::from_index(2)));
        assert_eq!(Region::default().entry(), None);
    }
}
