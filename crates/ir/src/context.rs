//! The [`Context`]: arena owner of all IR entities and home of structural mutation.
//!
//! All operations, blocks, regions and values live in flat arenas indexed by the ids
//! from [`crate::ids`]. Every structural mutation (operand changes, op movement,
//! erasure, cloning) goes through the context so SSA use lists and parent links stay
//! consistent — the invariants HIDA-OPT relies on when it rewrites dataflow graphs.
//!
//! Auxiliary per-entity state (use lists, op epochs) is kept in dense,
//! id-indexed side tables ([`EntityMap`], plain vectors) rather than hash
//! maps: entity ids *are* arena indices, so a probe is a bounds check and an
//! indexed load. Liveness is recorded for ops only, as the parity of the
//! slot's epoch: a block, region or value is live when the live op that owns
//! it still lists it. Erased operation slots go onto a free list and are
//! recycled by the next [`Context::create_op`], keeping long rewrite
//! pipelines from growing the op arena without bound.
//!
//! The attributes of every op share one more arena: each op owns a run of
//! `(key, value)` pairs in it, sorted by key string. A new key is inserted
//! into the run in place when the run ends the arena, and otherwise the run
//! moves to the end first (its old slots become dead and are reclaimed once
//! they outnumber the live ones), so adding attributes allocates only when
//! the arena itself grows.

use crate::attributes::{Attribute, Attrs};
use crate::entities::{Block, Region, Value, ValueDef};
use crate::error::{IrError, IrResult};
use crate::ids::{BlockId, OpId, RegionId, ValueId};
use crate::intern::Symbol;
use crate::op_names;
use crate::operation::{AttrSpan, OpName, OpRef, Operation};
use crate::storage::{EntityMap, IdList};
use crate::types::Type;

/// Arena owner of the IR. See the [module documentation](self) for an overview.
#[derive(Debug)]
pub struct Context {
    ops: Vec<Operation>,
    blocks: Vec<Block>,
    regions: Vec<Region>,
    values: Vec<Value>,
    /// Every op's attributes: one run per op (see [`Operation`]'s span),
    /// sorted by key string within the run.
    attrs: Vec<(Symbol, Attribute)>,
    /// Slots of `attrs` no op's run covers any more.
    dead_attrs: usize,
    /// Erased op slots available for reuse by [`Context::create_op`].
    free_ops: Vec<OpId>,
    /// Reuse epoch per op slot, bumped at erasure and again at reuse, so it
    /// is even while the slot holds a live op and odd once that op is
    /// erased: the one record of liveness ([`Context::is_alive`]). An
    /// `OpId` held across an erasure can be told apart from the op now
    /// occupying the recycled slot by comparing epochs (see
    /// [`Context::op_epoch`]).
    op_epochs: Vec<u32>,
    /// Use list: value -> operations currently using it as an operand.
    uses: EntityMap<ValueId, IdList<OpId>>,
    /// Process-unique context identity, so caches keyed by (context, op) can
    /// never confuse entities of two different contexts.
    id: u64,
    /// Monotonically increasing mutation counter: every mutator but
    /// [`Context::set_name_hint`] bumps it, letting the
    /// [`AnalysisManager`](crate::analysis::AnalysisManager) detect stale
    /// cached analyses with one integer comparison.
    generation: u64,
    /// The part of `generation` that attribute edits do not move: bumped by
    /// every mutator that bumps `generation` except [`Context::set_attr`].
    /// See [`Context::structure`].
    structure: u64,
}

static NEXT_CONTEXT_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl Default for Context {
    fn default() -> Self {
        Context {
            ops: Vec::new(),
            blocks: Vec::new(),
            regions: Vec::new(),
            values: Vec::new(),
            attrs: Vec::new(),
            dead_attrs: 0,
            free_ops: Vec::new(),
            op_epochs: Vec::new(),
            uses: EntityMap::new(),
            id: NEXT_CONTEXT_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            generation: 0,
            structure: 0,
        }
    }
}

impl Clone for Context {
    /// Clones the whole IR. All entity ids remain valid in the clone, and the
    /// clone observes the same generation and structure counter, so
    /// fingerprints and printed IR of the clone are byte-identical to the
    /// original. Only the context *identity* is fresh: caches keyed by
    /// `(context id, entity)` must not confuse the copy with the original.
    ///
    /// What is **copied**: the arenas — ops, blocks, regions, values and
    /// the one attribute arena — the free list, the epochs and the use
    /// table, one heap block each, plus, per entity, only
    /// the id lists longer than [`IdList::INLINE`] (an op's operands, results
    /// and regions, a block's arguments and ops, a region's blocks and a
    /// value's users of up to three ids are part of their entity). Values
    /// and attributes are `Copy`, so their arenas are copied as they are
    /// (attribute runs packed, below). Every payload they point at — the shape and
    /// element type of an aggregate [`Type`], the string or array of an
    /// [`Attribute`], a value's name hint — is interned (uniqued, immutable
    /// and never freed, see [`crate::intern`]), so the clone copies the
    /// handle and touches no reference count, and dropping it frees the
    /// blocks above and nothing else. The original and the clone can be
    /// edited — on different threads, a checkpoint is forked by every sweep
    /// worker — without either seeing the other: `set_attr` and
    /// `set_name_hint` install another handle in the one context they are
    /// called on. The clone's attribute arena is the original's runs packed
    /// in op order, with room for twice as many entries again: every run a
    /// forked design point edits can move to the end once and double there
    /// without growing it. `docs/ARCHITECTURE.md`, "What a fork copies", has
    /// the counts.
    fn clone(&self) -> Self {
        let mut ops = self.ops.clone();
        let attrs = pack_attrs(
            &mut ops,
            &self.attrs,
            3 * (self.attrs.len() - self.dead_attrs),
        );
        Context {
            ops,
            blocks: self.blocks.clone(),
            regions: self.regions.clone(),
            values: self.values.clone(),
            attrs,
            dead_attrs: 0,
            free_ops: self.free_ops.clone(),
            op_epochs: self.op_epochs.clone(),
            uses: self.uses.clone(),
            id: NEXT_CONTEXT_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            generation: self.generation,
            structure: self.structure,
        }
    }
}

/// The runs of `ops` copied out of `attrs` back to back, in op order, into
/// an arena of `capacity`; each op's span is pointed at its new run.
fn pack_attrs(
    ops: &mut [Operation],
    attrs: &[(Symbol, Attribute)],
    capacity: usize,
) -> Vec<(Symbol, Attribute)> {
    let mut packed = Vec::with_capacity(capacity);
    for op in ops {
        let run = op.attrs.range();
        op.attrs.start = packed.len() as u32;
        packed.extend_from_slice(&attrs[run]);
    }
    packed
}

/// `a < b` in string order, settled by the first bytes when they differ —
/// as they do for most pairs of keys in a run — without a `memcmp` call,
/// which cost a new key more than the rest of its insertion.
#[inline]
fn key_before(a: &str, b: &str) -> bool {
    match a.as_bytes().first().cmp(&b.as_bytes().first()) {
        std::cmp::Ordering::Equal => a < b,
        order => order.is_lt(),
    }
}

/// A mapping from old values to new values used while cloning IR.
///
/// Backed by a dense [`EntityMap`], so [`ValueMapping::lookup`] — the innermost
/// operation of every IR clone — is an indexed load, not a hash probe.
#[derive(Debug, Default, Clone)]
pub struct ValueMapping {
    map: EntityMap<ValueId, ValueId>,
}

impl ValueMapping {
    /// Creates an empty mapping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `old -> new`.
    pub fn map(&mut self, old: ValueId, new: ValueId) {
        self.map.insert(old, new);
    }

    /// Looks up a value, returning the original when no mapping exists.
    #[inline]
    pub fn lookup(&self, v: ValueId) -> ValueId {
        self.map.get(v).copied().unwrap_or(v)
    }

    /// Returns true if `v` has an explicit mapping.
    pub fn contains(&self, v: ValueId) -> bool {
        self.map.contains(v)
    }

    /// Forgets every mapping, keeping the storage for the next clone.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

impl Context {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Identity and mutation generation
    // ------------------------------------------------------------------

    /// Process-unique identity of this context.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The current mutation generation: moved by every change to the IR that
    /// anything but the printer's value names can observe. Every `&mut self`
    /// entry point of the context that changes something bumps it — op,
    /// region, block and value creation, attachment and movement, operand
    /// edits, erasure, cloning, [`Context::set_attr`], and
    /// [`Context::op_mut`], which hands out the whole payload —
    /// [`Context::set_name_hint`] alone does not. Cached analyses stamped with
    /// an older generation are stale, and anything that reads attributes (a
    /// future attribute or dialect verifier included) must key on this
    /// counter, not on [`Context::structure`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The structure counter: moved by every mutator that moves
    /// [`Context::generation`] **except** [`Context::set_attr`]. Two readings
    /// that agree mean no op, region, block or value was created, attached,
    /// moved or erased, no operand list, result list, region list, parent
    /// link or op name was written in between — attributes (and name hints)
    /// are all that can differ. That is exactly what
    /// [`verifier`](crate::verifier) reads, so the pass runner does not walk
    /// the IR again after a pass that left this counter where the last
    /// verification found it (see [`Verified`](crate::pass::Verified)).
    /// [`Context::op_mut`] counts as a structural mutation: the
    /// [`Operation`] it hands out has public `name`, `operands`, `regions`
    /// and `parent_block` fields.
    pub fn structure(&self) -> u64 {
        self.structure
    }

    /// Every mutator but `set_attr` and `set_name_hint`.
    #[inline]
    fn bump_generation(&mut self) {
        self.generation += 1;
        self.structure += 1;
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Returns the operation `id`: its payload and its attributes.
    ///
    /// # Panics
    /// Panics if the id does not belong to this context.
    #[inline]
    pub fn op(&self, id: OpId) -> OpRef<'_> {
        let op = &self.ops[id.index()];
        OpRef::new(op, Attrs::new(&self.attrs[op.attrs.range()]))
    }

    /// Returns a mutable reference to the operation payload for `id`.
    ///
    /// Counts as a structural mutation — both counters move — because every
    /// field of the payload can be written through the handle. To set an
    /// attribute use [`Context::set_attr`], which moves the generation only.
    pub fn op_mut(&mut self, id: OpId) -> &mut Operation {
        self.bump_generation();
        &mut self.ops[id.index()]
    }

    /// Sets (or replaces) the attribute stored under `key` on `op`. The one
    /// attribute-only mutator: it bumps [`Context::generation`] and leaves
    /// [`Context::structure`] where it is. A string key is interned here; a
    /// [`Symbol`] key (a constant key interned once with
    /// [`symbol!`](crate::symbol)) is used as it is.
    pub fn set_attr(&mut self, op: OpId, key: impl Into<Symbol>, value: impl Into<Attribute>) {
        self.generation += 1;
        self.put_attr(op, key.into(), value.into());
    }

    /// [`Context::set_attr`] without the generation bump: for the creators
    /// in this crate, right after the [`Context::create_op`] that moved it.
    pub(crate) fn put_attr(&mut self, op: OpId, key: Symbol, value: Attribute) {
        let span = self.ops[op.index()].attrs;
        // A key after every key of the run that ends the arena — a builder
        // or the parser adding keys in order — is appended, with nothing to
        // search or shift.
        if span.range().end == self.attrs.len()
            && self.attrs[span.range()]
                .last()
                .is_none_or(|(k, _)| key_before(k.as_str(), key.as_str()))
        {
            self.attrs.push((key, value));
            self.ops[op.index()].attrs.len += 1;
            if 2 * self.dead_attrs > self.attrs.len() {
                self.compact_attrs();
            }
            return;
        }
        let run = &mut self.attrs[span.range()];
        if let Some((_, old)) = run.iter_mut().find(|(k, _)| k.ptr_eq(key)) {
            *old = value;
            return;
        }
        let at = run.partition_point(|(k, _)| key_before(k.as_str(), key.as_str()));
        let mut start = span.start as usize;
        if span.range().end != self.attrs.len() {
            // Only the last run can grow in place: move this one there.
            start = self.attrs.len();
            self.attrs.extend_from_within(span.range());
            self.dead_attrs += span.len as usize;
        }
        self.attrs.insert(start + at, (key, value));
        self.ops[op.index()].attrs = AttrSpan {
            start: start as u32,
            len: span.len + 1,
        };
        if 2 * self.dead_attrs > self.attrs.len() {
            self.compact_attrs();
        }
    }

    /// Rewrites the attribute arena with the runs only, in op order.
    fn compact_attrs(&mut self) {
        let live = self.attrs.len() - self.dead_attrs;
        self.attrs = pack_attrs(&mut self.ops, &self.attrs, live);
        self.dead_attrs = 0;
    }

    /// Returns the block payload for `id`.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Returns the region payload for `id`.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }

    /// Returns the value payload for `id`.
    pub fn value(&self, id: ValueId) -> &Value {
        &self.values[id.index()]
    }

    /// Returns the type of value `id`.
    pub fn value_type(&self, id: ValueId) -> &Type {
        &self.values[id.index()].ty
    }

    /// Returns true when the op has not been erased.
    #[inline]
    pub fn is_alive(&self, id: OpId) -> bool {
        self.op_epochs
            .get(id.index())
            .is_some_and(|epoch| epoch % 2 == 0)
    }

    /// Total number of live operations — O(1): every slot not on the free
    /// list holds one.
    pub fn num_live_ops(&self) -> usize {
        self.ops.len() - self.free_ops.len()
    }

    /// Number of erased op slots currently queued for reuse.
    pub fn free_op_slots(&self) -> usize {
        self.free_ops.len()
    }

    /// Reuse epoch of an op slot: 0 for a never-erased slot, bumped every time
    /// the slot's op is erased and every time the slot is reused (even while
    /// live, odd while erased). Code holding an `OpId` across mutations (e.g.
    /// the analysis cache) records `(id, epoch)` and treats an epoch mismatch
    /// as "the op this id referred to no longer exists" — [`Context::is_alive`]
    /// alone cannot tell a recycled slot from the original op.
    #[inline]
    pub fn op_epoch(&self, id: OpId) -> u32 {
        self.op_epochs.get(id.index()).copied().unwrap_or(0)
    }

    /// Arena sizes `(ops, blocks, regions, values)` including dead slots.
    pub fn arena_sizes(&self) -> (usize, usize, usize, usize) {
        (
            self.ops.len(),
            self.blocks.len(),
            self.regions.len(),
            self.values.len(),
        )
    }

    // ------------------------------------------------------------------
    // Creation
    // ------------------------------------------------------------------

    /// Allocates a new operation from a detached [`Operation`] payload and registers
    /// the uses of its operands. The operation is not attached to any block yet.
    ///
    /// Erased op slots are recycled: if [`Context::erase_op`] freed a slot, the
    /// new op takes over its id (use lists for erased ops are scrubbed at
    /// erasure, so a recycled id can never inherit stale uses).
    pub fn create_op(&mut self, op: Operation) -> OpId {
        self.bump_generation();
        let id = match self.free_ops.pop() {
            Some(id) => id,
            None => OpId::from_index(self.ops.len()),
        };
        for &operand in &op.operands {
            self.uses.get_or_default(operand).push(id);
        }
        // The erased op's attributes stay readable until its slot is reused.
        let op = Operation {
            attrs: AttrSpan {
                start: self.attrs.len() as u32,
                len: 0,
            },
            ..op
        };
        if id.index() == self.ops.len() {
            self.ops.push(op);
            self.op_epochs.push(0);
        } else {
            self.dead_attrs += self.ops[id.index()].attrs.len as usize;
            self.ops[id.index()] = op;
            self.op_epochs[id.index()] = self.op_epochs[id.index()].wrapping_add(1);
        }
        id
    }

    /// Creates a fresh empty region owned by `parent`.
    pub fn create_region(&mut self, parent: OpId) -> RegionId {
        self.bump_generation();
        let id = RegionId::from_index(self.regions.len());
        self.regions.push(Region {
            blocks: IdList::new(),
            parent_op: Some(parent),
        });
        self.ops[parent.index()].regions.push(id);
        id
    }

    /// Creates a fresh empty block appended to `region`.
    pub fn create_block(&mut self, region: RegionId) -> BlockId {
        self.bump_generation();
        let id = BlockId::from_index(self.blocks.len());
        self.blocks.push(Block {
            args: IdList::new(),
            ops: IdList::new(),
            parent_region: Some(region),
        });
        self.regions[region.index()].blocks.push(id);
        id
    }

    /// Appends a new result of type `ty` to operation `op` and returns its value id.
    pub fn add_result(&mut self, op: OpId, ty: Type) -> ValueId {
        self.bump_generation();
        let index = self.ops[op.index()].results.len();
        let vid = ValueId::from_index(self.values.len());
        self.values.push(Value {
            def: ValueDef::OpResult { op, index },
            ty,
            name_hint: None,
        });
        self.ops[op.index()].results.push(vid);
        vid
    }

    /// Keeps `results`, results of `op`, as its results in this order; a
    /// result left out is erased and must have no users.
    pub fn set_results(&mut self, op: OpId, results: &[ValueId]) {
        self.bump_generation();
        for (index, &result) in results.iter().enumerate() {
            debug_assert!(self.ops[op.index()].results.contains(&result));
            self.values[result.index()].def = ValueDef::OpResult { op, index };
        }
        self.ops[op.index()].results = IdList::from(results);
    }

    /// Appends a new argument of type `ty` to block `block` and returns its value id.
    pub fn add_block_arg(&mut self, block: BlockId, ty: Type) -> ValueId {
        self.bump_generation();
        let index = self.blocks[block.index()].args.len();
        let vid = ValueId::from_index(self.values.len());
        self.values.push(Value {
            def: ValueDef::BlockArg { block, index },
            ty,
            name_hint: None,
        });
        self.blocks[block.index()].args.push(vid);
        vid
    }

    /// Sets the printer name hint of a value (interning it). Moves neither
    /// counter: only the printer reads a name hint.
    pub fn set_name_hint(&mut self, value: ValueId, hint: impl AsRef<str>) {
        self.values[value.index()].name_hint = Some(Symbol::intern(hint.as_ref()));
    }

    /// Makes room for `ops` more operations, with two attributes and half a
    /// region each, and `values` more values, so that creating them does
    /// not grow the arenas step by step.
    pub(crate) fn reserve(&mut self, ops: usize, values: usize) {
        self.ops.reserve(ops);
        self.op_epochs.reserve(ops);
        self.attrs.reserve(2 * ops);
        self.regions.reserve(ops / 2);
        self.blocks.reserve(ops / 2);
        self.values.reserve(values);
        self.uses.reserve_ids(self.values.len() + values);
    }

    /// Convenience: creates a `builtin.module` op with one region and one entry block.
    pub fn create_module(&mut self, name: &str) -> OpId {
        let id = self.create_op(Operation::new(op_names::MODULE));
        self.put_attr(id, Symbol::intern("sym_name"), name.into());
        let region = self.create_region(id);
        self.create_block(region);
        id
    }

    // ------------------------------------------------------------------
    // Attachment / movement
    // ------------------------------------------------------------------

    /// Appends `op` at the end of `block`.
    pub fn append_op(&mut self, block: BlockId, op: OpId) {
        self.bump_generation();
        debug_assert!(self.ops[op.index()].parent_block.is_none());
        self.blocks[block.index()].ops.push(op);
        self.ops[op.index()].parent_block = Some(block);
    }

    /// Inserts `op` into `block` at position `index`.
    pub fn insert_op(&mut self, block: BlockId, index: usize, op: OpId) {
        self.bump_generation();
        debug_assert!(self.ops[op.index()].parent_block.is_none());
        let ops = &mut self.blocks[block.index()].ops;
        let index = index.min(ops.len());
        ops.insert(index, op);
        self.ops[op.index()].parent_block = Some(block);
    }

    /// Detaches `op` from its parent block (the op stays alive).
    pub fn detach_op(&mut self, op: OpId) {
        self.bump_generation();
        if let Some(block) = self.ops[op.index()].parent_block.take() {
            let ops = &mut self.blocks[block.index()].ops;
            if let Some(pos) = ops.iter().position(|&o| o == op) {
                ops.remove(pos);
            }
        }
    }

    /// Moves `op` so that it immediately precedes `before` within `before`'s block.
    pub fn move_op_before(&mut self, op: OpId, before: OpId) {
        self.detach_op(op);
        let block = self.ops[before.index()]
            .parent_block
            .expect("move target must be attached");
        let pos = self.blocks[block.index()]
            .position_of(before)
            .expect("target block must contain the anchor op");
        self.insert_op(block, pos, op);
    }

    /// Moves `op` so that it immediately follows `after` within `after`'s block.
    pub fn move_op_after(&mut self, op: OpId, after: OpId) {
        self.detach_op(op);
        let block = self.ops[after.index()]
            .parent_block
            .expect("move target must be attached");
        let pos = self.blocks[block.index()]
            .position_of(after)
            .expect("target block must contain the anchor op");
        self.insert_op(block, pos + 1, op);
    }

    /// Moves `ops`, in their order, into `block` at `index` (an index into
    /// `block` once the moved ops have left it). Each op leaves the block it
    /// was in: the ops that leave one block drop out of its op list in one
    /// pass, and arrive in `block` in one insertion — not a search and a
    /// shift per op.
    pub fn move_ops(&mut self, ops: &[OpId], block: BlockId, index: usize) {
        self.bump_generation();
        // Unlink each run of ops that leave the same block, then drop the
        // unlinked ops from that block's list.
        let mut left: Option<BlockId> = None;
        for &op in ops {
            let parent = self.ops[op.index()].parent_block.take();
            if parent != left {
                self.drop_unlinked(left);
                left = parent;
            }
        }
        self.drop_unlinked(left);
        let list = &mut self.blocks[block.index()].ops;
        list.insert_slice(index.min(list.len()), ops);
        for &op in ops {
            self.ops[op.index()].parent_block = Some(block);
        }
    }

    /// Drops the ops that no longer name `block` as their parent from its
    /// op list.
    fn drop_unlinked(&mut self, block: Option<BlockId>) {
        if let Some(block) = block {
            let ops = &self.ops;
            self.blocks[block.index()]
                .ops
                .retain(|op| ops[op.index()].parent_block == Some(block));
        }
    }

    // ------------------------------------------------------------------
    // Operands and uses
    // ------------------------------------------------------------------

    /// Appends `value` as a new operand of `op`.
    pub fn add_operand(&mut self, op: OpId, value: ValueId) {
        self.bump_generation();
        self.ops[op.index()].operands.push(value);
        self.uses.get_or_default(value).push(op);
    }

    /// Replaces operand `index` of `op` with `value`, keeping use lists consistent.
    pub fn set_operand(&mut self, op: OpId, index: usize, value: ValueId) {
        let old = self.ops[op.index()].operands[index];
        if old == value {
            return;
        }
        self.bump_generation();
        self.ops[op.index()].operands[index] = value;
        self.remove_use(old, op);
        self.uses.get_or_default(value).push(op);
    }

    /// Removes all operands of `op`, updating the use lists.
    pub fn clear_operands(&mut self, op: OpId) {
        self.bump_generation();
        let operands = std::mem::take(&mut self.ops[op.index()].operands);
        for &v in &operands {
            self.remove_use(v, op);
        }
    }

    fn remove_use(&mut self, value: ValueId, user: OpId) {
        if let Some(list) = self.uses.get_mut(value) {
            if let Some(pos) = list.iter().position(|&o| o == user) {
                list.remove(pos);
            }
        }
    }

    /// Returns the (deduplicated) list of live operations that use `value` as an
    /// operand, in arena order.
    pub fn users_of(&self, value: ValueId) -> Vec<OpId> {
        let mut users: Vec<OpId> = match self.uses.get(value) {
            Some(list) => list.iter().copied().filter(|&o| self.is_alive(o)).collect(),
            None => Vec::new(),
        };
        users.sort();
        users.dedup();
        users
    }

    /// The live operations using `value` as an operand, in use-list order —
    /// an op using it twice is listed twice. Borrowed, where
    /// [`Context::users_of`] collects, sorts and deduplicates.
    pub fn users(&self, value: ValueId) -> impl Iterator<Item = OpId> + '_ {
        self.uses
            .get(value)
            .into_iter()
            .flat_map(|list| list.iter().copied())
            .filter(|&op| self.is_alive(op))
    }

    /// Returns true if `value` has at least one live user.
    pub fn has_users(&self, value: ValueId) -> bool {
        self.uses
            .get(value)
            .is_some_and(|list| list.iter().any(|&o| self.is_alive(o)))
    }

    /// Replaces every use of `old` with `new` across the whole context.
    pub fn replace_all_uses(&mut self, old: ValueId, new: ValueId) {
        if old == new {
            return;
        }
        // Each rewritten user leaves the use list of `old`.
        loop {
            let Some(user) = self.users(old).next() else {
                return;
            };
            self.replace_uses_in_op(user, old, new);
        }
    }

    /// Replaces uses of `old` with `new` in the operand list of a single operation.
    pub fn replace_uses_in_op(&mut self, op: OpId, old: ValueId, new: ValueId) {
        for pos in 0..self.ops[op.index()].operands.len() {
            if self.ops[op.index()].operands[pos] == old {
                self.set_operand(op, pos, new);
            }
        }
    }

    // ------------------------------------------------------------------
    // Hierarchy queries
    // ------------------------------------------------------------------

    /// Returns the operation owning the block that contains `op`, if attached.
    pub fn parent_op(&self, op: OpId) -> Option<OpId> {
        let block = self.ops[op.index()].parent_block?;
        let region = self.blocks[block.index()].parent_region?;
        self.regions[region.index()].parent_op
    }

    /// Returns the chain of ancestor operations of `op`, nearest first.
    pub fn ancestors(&self, op: OpId) -> Vec<OpId> {
        let mut out = Vec::new();
        let mut cur = op;
        while let Some(parent) = self.parent_op(cur) {
            out.push(parent);
            cur = parent;
        }
        out
    }

    /// Returns true if `ancestor` is `op` itself or a (transitive) parent of `op`.
    pub fn is_ancestor(&self, ancestor: OpId, op: OpId) -> bool {
        let mut cur = op;
        loop {
            if cur == ancestor {
                return true;
            }
            match self.parent_op(cur) {
                Some(parent) => cur = parent,
                None => return false,
            }
        }
    }

    /// Returns the entry block of region `region`.
    ///
    /// # Panics
    /// Panics if the region has no blocks.
    pub fn entry_block(&self, region: RegionId) -> BlockId {
        self.regions[region.index()]
            .entry()
            .expect("region has no entry block")
    }

    /// Returns the entry block of the first region of `op`.
    ///
    /// # Panics
    /// Panics if the op has no region or the region has no block.
    pub fn body_block(&self, op: OpId) -> BlockId {
        let region = self.ops[op.index()].regions[0];
        self.entry_block(region)
    }

    /// Returns all operations directly nested in the first region of `op`
    /// (its body block), in program order.
    pub fn body_ops(&self, op: OpId) -> Vec<OpId> {
        if self.ops[op.index()].regions.is_empty() {
            return Vec::new();
        }
        let block = self.body_block(op);
        self.blocks[block.index()].ops.to_vec()
    }

    /// Finds the first op with the given name directly nested in `op`'s body.
    pub fn find_in_body(&self, op: OpId, name: &str) -> Option<OpId> {
        self.body_ops(op).into_iter().find(|&o| self.op(o).is(name))
    }

    /// Collects every op (at any nesting depth below `root`, excluding `root`) whose
    /// name equals `name`, in pre-order.
    pub fn collect_ops(&self, root: OpId, name: &str) -> Vec<OpId> {
        let mut out = Vec::new();
        crate::walk::walk_ops_preorder(self, root, &mut |ctx, op| {
            if op != root && ctx.op(op).is(name) {
                out.push(op);
            }
        });
        out
    }

    /// Returns true if `value` is defined outside the body of `op` (i.e. it is a
    /// live-in of `op`'s regions). Values defined by `op` itself count as live-ins.
    pub fn is_live_in(&self, op: OpId, value: ValueId) -> bool {
        match self.values[value.index()].def {
            ValueDef::OpResult { op: def_op, .. } => !self.is_ancestor(op, def_op) || def_op == op,
            ValueDef::BlockArg { block, .. } => {
                let owner = self.blocks[block.index()]
                    .parent_region
                    .and_then(|r| self.regions[r.index()].parent_op);
                match owner {
                    // Block args of `op`'s own regions (or regions nested below it)
                    // are defined inside `op`, hence not live-ins.
                    Some(owner_op) => !self.is_ancestor(op, owner_op),
                    None => true,
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Erasure
    // ------------------------------------------------------------------

    /// Erases `op`, its results' use records, and everything nested inside it.
    /// The op's arena slot is pushed onto the free list for reuse by a later
    /// [`Context::create_op`]; its results, regions, blocks and block args die
    /// with it.
    ///
    /// The caller is responsible for ensuring the results of `op` are no longer used
    /// (the verifier will flag dangling uses otherwise).
    pub fn erase_op(&mut self, op: OpId) {
        if !self.is_alive(op) {
            return;
        }
        self.bump_generation();
        self.detach_op(op);
        // Recursively erase nested ops first.
        let regions = self.ops[op.index()].regions.clone();
        for &region in &regions {
            let blocks = self.regions[region.index()].blocks.clone();
            for &block in &blocks {
                // Taken, not copied: a nested op leaves an empty list, with
                // nothing to search.
                let ops = std::mem::take(&mut self.blocks[block.index()].ops);
                for &nested in &ops {
                    self.erase_op(nested);
                }
            }
        }
        self.clear_operands(op);
        self.op_epochs[op.index()] = self.op_epochs[op.index()].wrapping_add(1);
        self.free_ops.push(op);
    }

    // ------------------------------------------------------------------
    // Cloning
    // ------------------------------------------------------------------

    /// Deep-clones `op` (including nested regions), remapping operands through
    /// `mapping`. Results of cloned ops are registered into `mapping` so later uses
    /// inside the cloned subtree resolve to the clones. Returns the new op id.
    ///
    /// The clone is created detached; attach it with [`Context::append_op`] or one of
    /// the movement helpers.
    pub fn clone_op(&mut self, op: OpId, mapping: &mut ValueMapping) -> OpId {
        let src = &self.ops[op.index()];
        let mut copy = Operation::new(src.name);
        copy.operands = src.operands.iter().map(|&v| mapping.lookup(v)).collect();
        let src_attrs = src.attrs;
        let src_results = src.results.clone();
        let src_regions = src.regions.clone();
        let new_id = self.create_op(copy);
        // Attributes: the source's run, copied onto the new op's empty run,
        // which `create_op` left at the end of the arena.
        self.attrs.extend_from_within(src_attrs.range());
        self.ops[new_id.index()].attrs.len = src_attrs.len;
        // Results.
        for &res in &src_results {
            let Value { ty, name_hint, .. } = self.values[res.index()];
            let new_res = self.add_result(new_id, ty);
            self.values[new_res.index()].name_hint = name_hint;
            mapping.map(res, new_res);
        }
        // Regions.
        for &region in &src_regions {
            let new_region = self.create_region(new_id);
            let blocks = self.regions[region.index()].blocks.clone();
            for &block in &blocks {
                let new_block = self.create_block(new_region);
                let args = self.blocks[block.index()].args.clone();
                for &arg in &args {
                    let ty = self.values[arg.index()].ty;
                    let new_arg = self.add_block_arg(new_block, ty);
                    mapping.map(arg, new_arg);
                }
                let ops = self.blocks[block.index()].ops.clone();
                for &nested in &ops {
                    let cloned = self.clone_op(nested, mapping);
                    self.append_op(new_block, cloned);
                }
            }
        }
        new_id
    }

    // ------------------------------------------------------------------
    // Convenience creation helpers used pervasively by dialects
    // ------------------------------------------------------------------

    /// Creates and appends an op in a single step.
    pub fn build_op(
        &mut self,
        block: BlockId,
        name: impl Into<OpName>,
        operands: Vec<ValueId>,
        result_types: Vec<Type>,
        attrs: Vec<(&str, Attribute)>,
    ) -> (OpId, Vec<ValueId>) {
        let mut op = Operation::new(name);
        op.operands = operands.into();
        let id = self.create_op(op);
        for (k, v) in attrs {
            self.put_attr(id, Symbol::intern(k), v);
        }
        let results: Vec<ValueId> = result_types
            .into_iter()
            .map(|ty| self.add_result(id, ty))
            .collect();
        self.append_op(block, id);
        (id, results)
    }

    /// Validates that the entity ids stored in the context are internally consistent:
    /// every region a live op lists names that op as its parent, every block such a
    /// region lists names the region, and every op such a block lists names the
    /// block. Used by tests and the verifier.
    pub fn check_parent_links(&self) -> IrResult<()> {
        fn unlinked(listed: impl std::fmt::Display, owner: impl std::fmt::Display) -> IrResult<()> {
            Err(IrError::verification(format!(
                "{listed} is listed in {owner} but has a different parent link"
            )))
        }
        for (i, op) in self.ops.iter().enumerate() {
            let id = OpId::from_index(i);
            if !self.is_alive(id) {
                continue;
            }
            for &region in &op.regions {
                if self.regions[region.index()].parent_op != Some(id) {
                    return unlinked(region, id);
                }
                for &block in &self.regions[region.index()].blocks {
                    if self.blocks[block.index()].parent_region != Some(region) {
                        return unlinked(block, region);
                    }
                    for &nested in &self.blocks[block.index()].ops {
                        if self.ops[nested.index()].parent_block != Some(block) {
                            return unlinked(nested, block);
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OpBuilder;

    fn simple_module(ctx: &mut Context) -> (OpId, OpId, ValueId, ValueId) {
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![]);
        let mut b = OpBuilder::at_end_of(ctx, func);
        let c0 = b.create_constant_int(0, Type::i32());
        let c1 = b.create_constant_int(1, Type::i32());
        (module, func, c0, c1)
    }

    /// What the mutators below are pointed at: `simple_module` plus a user
    /// of `c0` and an op attached nowhere.
    struct Fixture {
        func: OpId,
        region: RegionId,
        body: BlockId,
        c0: ValueId,
        c1: ValueId,
        c0_op: OpId,
        c1_op: OpId,
        user: OpId,
        loose: OpId,
    }

    fn fixture(ctx: &mut Context) -> Fixture {
        let (_, func, c0, c1) = simple_module(ctx);
        let body = ctx.body_block(func);
        let (user, _) = ctx.build_op(body, "test.use", vec![c0], vec![], vec![]);
        Fixture {
            func,
            region: ctx.op(func).regions[0],
            body,
            c0,
            c1,
            c0_op: ctx.value(c0).defining_op().unwrap(),
            c1_op: ctx.value(c1).defining_op().unwrap(),
            user,
            loose: ctx.create_op(Operation::new("test.loose")),
        }
    }

    type Mutator = fn(&mut Context, &Fixture);

    /// Every `pub fn (&mut self, ..)` of `Context`: one call each, doing
    /// something to the fixture.
    const MUTATORS: [(&str, Mutator); 24] = [
        ("op_mut", |ctx, f| {
            ctx.op_mut(f.func);
        }),
        ("set_attr", |ctx, f| ctx.set_attr(f.func, "k", 1_i64)),
        ("create_op", |ctx, _| {
            ctx.create_op(Operation::new("test.op"));
        }),
        ("create_region", |ctx, f| {
            ctx.create_region(f.func);
        }),
        ("create_block", |ctx, f| {
            ctx.create_block(f.region);
        }),
        ("add_result", |ctx, f| {
            ctx.add_result(f.func, Type::i32());
        }),
        ("add_block_arg", |ctx, f| {
            ctx.add_block_arg(f.body, Type::i32());
        }),
        ("set_results", |ctx, f| ctx.set_results(f.func, &[])),
        ("set_name_hint", |ctx, f| ctx.set_name_hint(f.c0, "zero")),
        ("create_module", |ctx, _| {
            ctx.create_module("other");
        }),
        ("append_op", |ctx, f| ctx.append_op(f.body, f.loose)),
        ("insert_op", |ctx, f| ctx.insert_op(f.body, 0, f.loose)),
        ("detach_op", |ctx, f| ctx.detach_op(f.c0_op)),
        ("move_op_before", |ctx, f| {
            ctx.move_op_before(f.c1_op, f.c0_op)
        }),
        ("move_op_after", |ctx, f| {
            ctx.move_op_after(f.c0_op, f.c1_op)
        }),
        ("move_ops", |ctx, f| ctx.move_ops(&[f.c1_op], f.body, 0)),
        ("add_operand", |ctx, f| ctx.add_operand(f.user, f.c1)),
        ("set_operand", |ctx, f| ctx.set_operand(f.user, 0, f.c1)),
        ("clear_operands", |ctx, f| ctx.clear_operands(f.user)),
        ("replace_all_uses", |ctx, f| {
            ctx.replace_all_uses(f.c0, f.c1)
        }),
        ("replace_uses_in_op", |ctx, f| {
            ctx.replace_uses_in_op(f.user, f.c0, f.c1)
        }),
        ("erase_op", |ctx, f| ctx.erase_op(f.user)),
        ("clone_op", |ctx, f| {
            ctx.clone_op(f.user, &mut ValueMapping::new());
        }),
        ("build_op", |ctx, f| {
            ctx.build_op(f.body, "test.op", vec![], vec![], vec![]);
        }),
    ];

    #[test]
    fn every_mutator_moves_the_structure_counter_but_set_attr_and_set_name_hint() {
        for (name, mutate) in MUTATORS {
            let mut ctx = Context::new();
            let fixture = fixture(&mut ctx);
            let before = (ctx.generation(), ctx.structure());
            mutate(&mut ctx, &fixture);
            let moved = (ctx.generation() != before.0, ctx.structure() != before.1);
            let expected = match name {
                "set_name_hint" => (false, false),
                "set_attr" => (true, false),
                _ => (true, true),
            };
            assert_eq!(moved, expected, "{name}: (generation, structure) moved");
        }

        // The table is complete: every `pub fn` of `impl Context` taking
        // `&mut self` is in it, so a new mutator cannot be forgotten.
        let source = include_str!("context.rs");
        let start = source.find("\nimpl Context {").expect("impl Context");
        let end = source.find("\n#[cfg(test)]").expect("test module");
        for declaration in source[start..end].split("pub fn ").skip(1) {
            let signature = declaration.split('{').next().unwrap();
            if signature.contains("&mut self") {
                let name = signature.split(['(', '<']).next().unwrap();
                assert!(
                    MUTATORS.iter().any(|(listed, _)| *listed == name),
                    "Context::{name} takes `&mut self` and is not in MUTATORS"
                );
            }
        }
    }

    #[test]
    fn create_and_query_structure() {
        let mut ctx = Context::new();
        let (module, func, c0, _c1) = simple_module(&mut ctx);
        assert_eq!(ctx.parent_op(func), Some(module));
        let c0_op = ctx.value(c0).defining_op().unwrap();
        assert_eq!(ctx.parent_op(c0_op), Some(func));
        assert!(ctx.is_ancestor(module, c0_op));
        assert!(!ctx.is_ancestor(c0_op, module));
        assert!(ctx.check_parent_links().is_ok());
        assert_eq!(ctx.body_ops(func).len(), 2);
    }

    #[test]
    fn use_lists_and_rauw() {
        let mut ctx = Context::new();
        let (_, func, c0, c1) = simple_module(&mut ctx);
        let body = ctx.body_block(func);
        let (add, results) =
            ctx.build_op(body, "arith.addi", vec![c0, c0], vec![Type::i32()], vec![]);
        assert_eq!(ctx.users_of(c0), vec![add]);
        assert!(!ctx.has_users(c1));

        ctx.replace_all_uses(c0, c1);
        assert!(ctx.users_of(c0).is_empty());
        assert_eq!(ctx.users_of(c1), vec![add]);
        assert_eq!(ctx.op(add).operands, vec![c1, c1]);
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn move_and_detach_ops() {
        let mut ctx = Context::new();
        let (_, func, c0, c1) = simple_module(&mut ctx);
        let c0_op = ctx.value(c0).defining_op().unwrap();
        let c1_op = ctx.value(c1).defining_op().unwrap();
        let body = ctx.body_block(func);
        assert_eq!(ctx.block(body).ops, vec![c0_op, c1_op]);

        ctx.move_op_before(c1_op, c0_op);
        assert_eq!(ctx.block(body).ops, vec![c1_op, c0_op]);
        ctx.move_op_after(c1_op, c0_op);
        assert_eq!(ctx.block(body).ops, vec![c0_op, c1_op]);

        ctx.detach_op(c0_op);
        assert_eq!(ctx.block(body).ops, vec![c1_op]);
        assert!(ctx.op(c0_op).parent_block.is_none());
    }

    #[test]
    fn move_ops_splices_ops_of_several_blocks_in_order() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let mut blocks = Vec::new();
        let mut ops = Vec::new();
        for name in ["f", "g", "h"] {
            let func = OpBuilder::at_end_of(&mut ctx, module).create_func(name, vec![], vec![]);
            let body = ctx.body_block(func);
            blocks.push(body);
            let built: Vec<OpId> = (0..5)
                .map(|_| ctx.build_op(body, "test.op", vec![], vec![], vec![]).0)
                .collect();
            ops.push(built);
        }
        let (f, g, h) = (blocks[0], blocks[1], blocks[2]);

        // Two runs from `f` around one from `g`, into the middle of `h`.
        let moved = [ops[0][1], ops[0][3], ops[1][0], ops[0][4]];
        ctx.move_ops(&moved, h, 2);
        assert_eq!(ctx.block(f).ops, vec![ops[0][0], ops[0][2]]);
        assert_eq!(ctx.block(g).ops, ops[1][1..].to_vec());
        let mut expected = ops[2][..2].to_vec();
        expected.extend(moved);
        expected.extend(&ops[2][2..]);
        assert_eq!(ctx.block(h).ops, expected);
        assert!(moved.iter().all(|&op| ctx.op(op).parent_block == Some(h)));

        // Within one block: the index counts the ops that stay.
        ctx.move_ops(&[ops[2][4], ops[2][0]], h, 0);
        assert_eq!(ctx.block(h).ops[..2], [ops[2][4], ops[2][0]]);
        assert_eq!(ctx.block(h).ops.len(), 9);
        assert!(ctx.check_parent_links().is_ok());
    }

    #[test]
    fn set_results_reorders_results_and_erases_those_left_out() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let body = ctx.body_block(func);
        let types = vec![Type::i32(), Type::i64(), Type::i32()];
        let (op, results) = ctx.build_op(body, "test.op", vec![], types, vec![]);
        ctx.build_op(
            body,
            "test.use",
            vec![results[2], results[1]],
            vec![],
            vec![],
        );

        ctx.set_results(op, &[results[2], results[1]]);
        assert_eq!(ctx.op(op).results, vec![results[2], results[1]]);
        for (index, &result) in ctx.op(op).results.iter().enumerate() {
            assert_eq!(ctx.value(result).def, ValueDef::OpResult { op, index });
        }
        crate::verifier::verify(&ctx, module).unwrap();
    }

    #[test]
    fn erase_op_clears_uses_and_nested_ops() {
        let mut ctx = Context::new();
        let (_, func, c0, _) = simple_module(&mut ctx);
        let body = ctx.body_block(func);
        let (add, _) = ctx.build_op(body, "arith.addi", vec![c0, c0], vec![Type::i32()], vec![]);
        assert!(ctx.has_users(c0));
        let live_before = ctx.num_live_ops();
        ctx.erase_op(add);
        assert!(!ctx.has_users(c0));
        assert!(!ctx.is_alive(add));
        assert_eq!(ctx.num_live_ops(), live_before - 1);

        // Erasing the func erases everything nested inside it.
        ctx.erase_op(func);
        assert!(!ctx.is_alive(ctx.value(c0).defining_op().unwrap()));
    }

    #[test]
    fn erase_op_recycles_slots_and_tracks_liveness() {
        let mut ctx = Context::new();
        let (_, func, c0, _) = simple_module(&mut ctx);
        let body = ctx.body_block(func);
        let (add, add_res) =
            ctx.build_op(body, "arith.addi", vec![c0, c0], vec![Type::i32()], vec![]);
        let add_res = add_res[0];
        assert_eq!(ctx.value(add_res).defining_op(), Some(add));
        ctx.erase_op(add);
        assert_eq!(ctx.free_op_slots(), 1);
        assert!(!ctx.is_alive(add));

        // The next create_op takes over the freed slot: same id, no arena growth.
        let (ops_len_before, ..) = ctx.arena_sizes();
        let (mul, _) = ctx.build_op(body, "arith.muli", vec![c0, c0], vec![Type::i32()], vec![]);
        assert_eq!(mul, add);
        assert!(ctx.is_alive(mul));
        assert_eq!(ctx.free_op_slots(), 0);
        assert_eq!(ctx.arena_sizes().0, ops_len_before);
        // The recycled op's use records are fresh — exactly one user of c0 —
        // and the erased result is no result of the op in its slot.
        assert_eq!(ctx.users_of(c0), vec![mul]);
        assert!(!ctx.op(mul).results.contains(&add_res));
    }

    #[test]
    fn erase_op_marks_nested_structure_dead() {
        let mut ctx = Context::new();
        let (_, func, c0, c1) = simple_module(&mut ctx);
        let body = ctx.body_block(func);
        let (wrapper, _) = ctx.build_op(body, "hida.task", vec![], vec![], vec![]);
        let region = ctx.create_region(wrapper);
        let inner_block = ctx.create_block(region);
        let arg = ctx.add_block_arg(inner_block, Type::i32());
        ctx.build_op(
            inner_block,
            "arith.addi",
            vec![c0, c1],
            vec![Type::i32()],
            vec![],
        );
        let inner = ctx.block(inner_block).ops[0];
        assert_eq!(ctx.value(arg).owner_block(), Some(inner_block));

        // The nested structure dies with its owner: nothing live lists it.
        let live_before = ctx.num_live_ops();
        ctx.erase_op(wrapper);
        assert!(!ctx.is_alive(wrapper) && !ctx.is_alive(inner));
        assert_eq!(ctx.num_live_ops(), live_before - 2);
        assert!(ctx.block(inner_block).ops.is_empty());
        assert!(!ctx.block(body).ops.contains(&wrapper));
        assert!(ctx.check_parent_links().is_ok());
    }

    /// A module of two functions, `f` holding one constant and `g` empty.
    fn two_funcs(ctx: &mut Context) -> (OpId, OpId, OpId, OpId) {
        let module = ctx.create_module("m");
        let f = OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![]);
        let g = OpBuilder::at_end_of(ctx, module).create_func("g", vec![], vec![]);
        let c = OpBuilder::at_end_of(ctx, f).create_constant_int(0, Type::i32());
        let constant = ctx.value(c).defining_op().unwrap();
        crate::verifier::verify(ctx, module).unwrap();
        (module, f, g, constant)
    }

    fn rejected_for_its_parent_link(ctx: &Context, module: OpId) -> bool {
        crate::verifier::verify(ctx, module)
            .unwrap_err()
            .to_string()
            .contains("different parent link")
    }

    #[test]
    fn verify_rejects_an_op_listed_in_a_block_it_does_not_name() {
        let mut ctx = Context::new();
        let (module, _, g, constant) = two_funcs(&mut ctx);
        ctx.op_mut(constant).parent_block = Some(ctx.body_block(g));
        assert!(rejected_for_its_parent_link(&ctx, module));
    }

    #[test]
    fn verify_rejects_a_block_listed_in_a_region_it_does_not_name() {
        let mut ctx = Context::new();
        let (module, f, g, _) = two_funcs(&mut ctx);
        let f_body = ctx.body_block(f);
        ctx.blocks[f_body.index()].parent_region = Some(ctx.op(g).regions[0]);
        assert!(rejected_for_its_parent_link(&ctx, module));
    }

    #[test]
    fn verify_rejects_a_region_listed_in_an_op_it_does_not_name() {
        let mut ctx = Context::new();
        let (module, f, g, _) = two_funcs(&mut ctx);
        let f_region = ctx.op(f).regions[0];
        ctx.op_mut(g).regions.push(f_region);
        assert!(rejected_for_its_parent_link(&ctx, module));
    }

    #[test]
    fn clone_context_preserves_ir_and_mints_fresh_identity() {
        let mut ctx = Context::new();
        let (module, ..) = simple_module(&mut ctx);
        let copy = ctx.clone();
        assert_ne!(ctx.id(), copy.id());
        assert_eq!(ctx.generation(), copy.generation());
        assert_eq!(ctx.num_live_ops(), copy.num_live_ops());
        assert_eq!(
            crate::printer::print_op(&ctx, module),
            crate::printer::print_op(&copy, module)
        );
    }

    #[test]
    fn clone_op_remaps_nested_values() {
        let mut ctx = Context::new();
        let (_, func, c0, c1) = simple_module(&mut ctx);
        let body = ctx.body_block(func);
        let (wrapper, wrapper_res) = ctx.build_op(
            body,
            "hida.task",
            vec![],
            vec![Type::tensor(vec![4], Type::f32())],
            vec![("id", Attribute::Int(7))],
        );
        let region = ctx.create_region(wrapper);
        let inner_block = ctx.create_block(region);
        let (_, sum) = ctx.build_op(
            inner_block,
            "arith.addi",
            vec![c0, c1],
            vec![Type::i32()],
            vec![],
        );
        ctx.build_op(inner_block, "builtin.yield", vec![sum[0]], vec![], vec![]);

        let mut mapping = ValueMapping::new();
        let clone = ctx.clone_op(wrapper, &mut mapping);
        ctx.append_op(body, clone);

        assert_ne!(clone, wrapper);
        assert_eq!(ctx.op(clone).attr_int("id"), Some(7));
        assert_eq!(ctx.op(clone).results.len(), 1);
        assert_ne!(ctx.op(clone).results[0], wrapper_res[0]);
        // The cloned yield must use the cloned addi result, not the original.
        let cloned_ops = ctx.body_ops(clone);
        assert_eq!(cloned_ops.len(), 2);
        let cloned_add = cloned_ops[0];
        let cloned_yield = cloned_ops[1];
        assert_eq!(
            ctx.op(cloned_yield).operands[0],
            ctx.op(cloned_add).results[0]
        );
        // Live-ins (c0, c1) are shared, not cloned.
        assert_eq!(ctx.op(cloned_add).operands, vec![c0, c1]);
    }

    #[test]
    fn value_mapping_lookup_defaults_to_identity() {
        let mut m = ValueMapping::new();
        let a = ValueId::from_index(1);
        let b = ValueId::from_index(2);
        assert_eq!(m.lookup(a), a);
        m.map(a, b);
        assert_eq!(m.lookup(a), b);
        assert!(m.contains(a));
        assert!(!m.contains(b));
    }
}
