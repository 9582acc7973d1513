//! The dense, id-indexed side table ([`EntityMap`]) and the
//! inline-then-spill id list ([`IdList`]) entities keep their ids in.
//!
//! Every IR entity id ([`OpId`], [`BlockId`], [`RegionId`], [`ValueId`]) is a
//! small dense index into the owning [`Context`](crate::Context)'s arenas, so
//! auxiliary per-entity state — use lists, value remappings, printer
//! numberings, fingerprint ordinals — never needs the hashing and probing of
//! a `HashMap`: a `Vec` keyed by `id.index()` is smaller, cache-friendly and
//! O(1) without a hash. [`EntityMap`] packages that pattern so side tables
//! stay typed by their id kind (an `EntityMap<OpId, T>` cannot be indexed
//! with a `ValueId`).
//!
//! The map auto-grows on insert, so it can be built up while the arena
//! itself is still growing (e.g. the use list during IR construction).
//!
//! The id lists an entity owns — an op's operands, results and regions, a
//! block's arguments and ops, a region's blocks, a value's users — are one
//! to three ids long almost everywhere, and a `Vec` pays one heap block for
//! each of them, again on every clone of the [`Context`](crate::Context) and
//! once more when the clone is dropped. [`IdList`] keeps up to
//! [`IdList::INLINE`] ids in place and only a longer list on the heap.

use crate::ids::{BlockId, OpId, RegionId, ValueId};
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

/// An entity id that is a dense arena index. Implemented by all four IR id
/// types; the trait is what lets the containers below stay generic without
/// giving up typed indexing.
pub trait EntityId: Copy {
    /// The dense arena index of this id.
    fn index(self) -> usize;
    /// Reconstructs an id from a dense arena index.
    fn from_index(index: usize) -> Self;
}

macro_rules! impl_entity_id {
    ($($ty:ty),+) => {
        $(impl EntityId for $ty {
            #[inline]
            fn index(self) -> usize {
                <$ty>::index(self)
            }
            #[inline]
            fn from_index(index: usize) -> Self {
                <$ty>::from_index(index)
            }
        })+
    };
}

impl_entity_id!(OpId, BlockId, RegionId, ValueId);

/// A dense map from an entity id to `T`, stored as `Vec<Option<T>>` keyed by
/// `id.index()`. Lookups are a bounds check and an indexed load — no hashing.
///
/// ```
/// use hida_ir_core::storage::EntityMap;
/// use hida_ir_core::ValueId;
///
/// let mut map: EntityMap<ValueId, u32> = EntityMap::new();
/// map.insert(ValueId::from_index(5), 42);
/// assert_eq!(map.get(ValueId::from_index(5)), Some(&42));
/// assert_eq!(map.get(ValueId::from_index(4)), None);
/// assert_eq!(map.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct EntityMap<I, T> {
    slots: Vec<Option<T>>,
    live: usize,
    _id: PhantomData<I>,
}

impl<I, T> Default for EntityMap<I, T> {
    fn default() -> Self {
        EntityMap {
            slots: Vec::new(),
            live: 0,
            _id: PhantomData,
        }
    }
}

impl<I: EntityId, T> EntityMap<I, T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty map with room for `capacity` entities.
    pub fn with_capacity(capacity: usize) -> Self {
        EntityMap {
            slots: Vec::with_capacity(capacity),
            live: 0,
            _id: PhantomData,
        }
    }

    /// Makes room for the entities with an index below `ids`.
    pub(crate) fn reserve_ids(&mut self, ids: usize) {
        self.slots.reserve(ids.saturating_sub(self.slots.len()));
    }

    /// Number of present entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no entry is present.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts `value` under `id`, returning the previous entry if present.
    pub fn insert(&mut self, id: I, value: T) -> Option<T> {
        let index = id.index();
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        let old = self.slots[index].replace(value);
        if old.is_none() {
            self.live += 1;
        }
        old
    }

    /// Removes and returns the entry under `id`.
    pub fn remove(&mut self, id: I) -> Option<T> {
        let old = self.slots.get_mut(id.index()).and_then(Option::take);
        if old.is_some() {
            self.live -= 1;
        }
        old
    }

    /// Returns the entry under `id`, if present.
    #[inline]
    pub fn get(&self, id: I) -> Option<&T> {
        self.slots.get(id.index()).and_then(Option::as_ref)
    }

    /// Returns the entry under `id` mutably, if present.
    #[inline]
    pub fn get_mut(&mut self, id: I) -> Option<&mut T> {
        self.slots.get_mut(id.index()).and_then(Option::as_mut)
    }

    /// True when an entry is present under `id`.
    #[inline]
    pub fn contains(&self, id: I) -> bool {
        self.get(id).is_some()
    }

    /// Returns the entry under `id`, inserting `T::default()` first when
    /// absent (the dense analogue of `HashMap::entry(..).or_default()`).
    pub fn get_or_default(&mut self, id: I) -> &mut T
    where
        T: Default,
    {
        let index = id.index();
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        if self.slots[index].is_none() {
            self.slots[index] = Some(T::default());
            self.live += 1;
        }
        self.slots[index].as_mut().expect("slot just filled")
    }

    /// Iterates present entries in id order.
    pub fn iter(&self) -> impl Iterator<Item = (I, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|v| (I::from_index(i), v)))
    }

    /// Removes every entry, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.live = 0;
    }
}

/// A list of entity ids that holds up to [`IdList::INLINE`] of them in place
/// and spills to a heap `Vec` beyond that. It derefs to a slice, so reading
/// it — indexing, `iter()`, `len()`, `contains()`, `for &id in &list` — is
/// what reading a `Vec` is; a clone of an inline list is a copy of 16 bytes
/// and allocates nothing. A list that shrinks back to [`IdList::INLINE`] ids
/// gives its heap block up again.
///
/// ```
/// use hida_ir_core::storage::IdList;
/// use hida_ir_core::ValueId;
///
/// let mut list: IdList<ValueId> = IdList::new();
/// for index in 0..4 {
///     list.push(ValueId::from_index(index));
/// }
/// assert_eq!(list.len(), 4);
/// assert_eq!(list[3], ValueId::from_index(3));
/// assert_eq!(list.remove(0), ValueId::from_index(0));
/// assert_eq!(list, vec![1, 2, 3].into_iter().map(ValueId::from_index).collect::<Vec<_>>());
/// ```
#[derive(Clone)]
pub struct IdList<I> {
    repr: Repr<I>,
}

#[derive(Clone)]
enum Repr<I> {
    /// `ids[..len]` are the list; the slots behind hold index 0 as filler.
    Inline { len: u8, ids: [I; INLINE] },
    /// More than `INLINE` ids (the invariant every method restores).
    Spilled(Vec<I>),
}

/// Ids are `u32`s: three of them and a length are 16 bytes, against the 24
/// of a `Vec` header, so the spilled variant decides the size of the type.
const INLINE: usize = 3;

impl<I: EntityId> IdList<I> {
    /// How many ids a list holds without a heap block.
    pub const INLINE: usize = INLINE;

    /// Creates an empty list.
    pub fn new() -> Self {
        IdList {
            repr: Repr::Inline {
                len: 0,
                ids: [I::from_index(0); INLINE],
            },
        }
    }

    /// Appends `id`.
    pub fn push(&mut self, id: I) {
        match &mut self.repr {
            Repr::Inline { len, ids } if usize::from(*len) < INLINE => {
                ids[usize::from(*len)] = id;
                *len += 1;
            }
            Repr::Inline { .. } => self.insert(INLINE, id),
            Repr::Spilled(ids) => ids.push(id),
        }
    }

    /// Inserts `id` at `index`, shifting the ids behind it.
    ///
    /// # Panics
    /// Panics when `index > len`.
    pub fn insert(&mut self, index: usize, id: I) {
        match &mut self.repr {
            Repr::Inline { len, ids } => {
                let n = *len as usize;
                assert!(index <= n, "insertion index {index} out of range 0..={n}");
                if n < INLINE {
                    ids.copy_within(index..n, index + 1);
                    ids[index] = id;
                    *len += 1;
                } else {
                    let mut spilled = Vec::with_capacity(2 * INLINE);
                    spilled.extend_from_slice(&ids[..index]);
                    spilled.push(id);
                    spilled.extend_from_slice(&ids[index..]);
                    self.repr = Repr::Spilled(spilled);
                }
            }
            Repr::Spilled(ids) => ids.insert(index, id),
        }
    }

    /// Inserts `ids`, in order, at `index`, shifting the ids behind them
    /// once.
    ///
    /// # Panics
    /// Panics when `index > len`.
    pub fn insert_slice(&mut self, index: usize, ids: &[I]) {
        match &mut self.repr {
            Repr::Inline { len, ids: inline } => {
                let n = *len as usize;
                assert!(index <= n, "insertion index {index} out of range 0..={n}");
                if n + ids.len() <= INLINE {
                    inline.copy_within(index..n, index + ids.len());
                    inline[index..index + ids.len()].copy_from_slice(ids);
                    *len += ids.len() as u8;
                } else {
                    let mut spilled = Vec::with_capacity((n + ids.len()).max(2 * INLINE));
                    spilled.extend_from_slice(&inline[..index]);
                    spilled.extend_from_slice(ids);
                    spilled.extend_from_slice(&inline[index..n]);
                    self.repr = Repr::Spilled(spilled);
                }
            }
            Repr::Spilled(spilled) => {
                spilled.splice(index..index, ids.iter().copied());
            }
        }
    }

    /// Removes and returns the id at `index`, shifting the ids behind it.
    ///
    /// # Panics
    /// Panics when `index >= len`.
    pub fn remove(&mut self, index: usize) -> I {
        match &mut self.repr {
            Repr::Inline { len, ids } => {
                let n = *len as usize;
                assert!(index < n, "removal index {index} out of range 0..{n}");
                let removed = ids[index];
                ids.copy_within(index + 1..n, index);
                *len -= 1;
                removed
            }
            Repr::Spilled(ids) => {
                let removed = ids.remove(index);
                self.unspill();
                removed
            }
        }
    }

    /// Keeps the ids `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(I) -> bool) {
        match &mut self.repr {
            Repr::Inline { len, ids } => {
                let mut kept = 0;
                for at in 0..*len as usize {
                    if keep(ids[at]) {
                        ids[kept] = ids[at];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Repr::Spilled(ids) => {
                ids.retain(|&id| keep(id));
                self.unspill();
            }
        }
    }

    /// Back in place once a spilled list fits there again.
    fn unspill(&mut self) {
        if let Repr::Spilled(ids) = &self.repr {
            if ids.len() <= INLINE {
                *self = IdList::from(ids.as_slice());
            }
        }
    }
}

impl<I: EntityId> Default for IdList<I> {
    fn default() -> Self {
        IdList::new()
    }
}

impl<I: EntityId> From<&[I]> for IdList<I> {
    fn from(ids: &[I]) -> Self {
        if ids.len() > INLINE {
            return IdList {
                repr: Repr::Spilled(ids.to_vec()),
            };
        }
        let mut inline = [I::from_index(0); INLINE];
        inline[..ids.len()].copy_from_slice(ids);
        IdList {
            repr: Repr::Inline {
                len: ids.len() as u8,
                ids: inline,
            },
        }
    }
}

impl<I: EntityId> From<Vec<I>> for IdList<I> {
    /// A long `Vec` becomes the spilled list as it is; a short one is copied
    /// in place and dropped.
    fn from(ids: Vec<I>) -> Self {
        if ids.len() > INLINE {
            IdList {
                repr: Repr::Spilled(ids),
            }
        } else {
            IdList::from(ids.as_slice())
        }
    }
}

impl<I: EntityId> FromIterator<I> for IdList<I> {
    fn from_iter<T: IntoIterator<Item = I>>(iter: T) -> Self {
        let mut list = IdList::new();
        for id in iter {
            list.push(id);
        }
        list
    }
}

impl<I> Deref for IdList<I> {
    type Target = [I];

    #[inline]
    fn deref(&self) -> &[I] {
        match &self.repr {
            Repr::Inline { len, ids } => &ids[..*len as usize],
            Repr::Spilled(ids) => ids,
        }
    }
}

impl<I> DerefMut for IdList<I> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [I] {
        match &mut self.repr {
            Repr::Inline { len, ids } => &mut ids[..*len as usize],
            Repr::Spilled(ids) => ids,
        }
    }
}

impl<'a, I> IntoIterator for &'a IdList<I> {
    type Item = &'a I;
    type IntoIter = std::slice::Iter<'a, I>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<I: fmt::Debug> fmt::Debug for IdList<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<I: PartialEq> PartialEq for IdList<I> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<I: Eq> Eq for IdList<I> {}

impl<I: PartialEq> PartialEq<Vec<I>> for IdList<I> {
    fn eq(&self, other: &Vec<I>) -> bool {
        **self == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_map_insert_get_remove() {
        let mut map: EntityMap<OpId, String> = EntityMap::new();
        assert!(map.is_empty());
        assert_eq!(map.insert(OpId::from_index(3), "a".into()), None);
        assert_eq!(
            map.insert(OpId::from_index(3), "b".into()),
            Some("a".to_string())
        );
        assert_eq!(map.len(), 1);
        assert_eq!(map.get(OpId::from_index(3)).map(String::as_str), Some("b"));
        assert!(!map.contains(OpId::from_index(2)));
        assert_eq!(map.remove(OpId::from_index(3)), Some("b".to_string()));
        assert!(map.is_empty());
        assert_eq!(map.remove(OpId::from_index(3)), None);
    }

    #[test]
    fn entity_map_get_or_default_and_iter() {
        let mut map: EntityMap<ValueId, Vec<u32>> = EntityMap::new();
        map.get_or_default(ValueId::from_index(9)).push(1);
        map.get_or_default(ValueId::from_index(9)).push(2);
        map.get_or_default(ValueId::from_index(2)).push(3);
        assert_eq!(map.len(), 2);
        let entries: Vec<(ValueId, Vec<u32>)> = map.iter().map(|(id, v)| (id, v.clone())).collect();
        assert_eq!(
            entries,
            vec![
                (ValueId::from_index(2), vec![3]),
                (ValueId::from_index(9), vec![1, 2]),
            ]
        );
    }

    #[test]
    fn id_list_spills_past_three_ids_and_comes_back() {
        // No bigger than the `Vec` it replaces.
        assert_eq!(
            std::mem::size_of::<IdList<OpId>>(),
            std::mem::size_of::<Vec<OpId>>()
        );
        let ids: Vec<OpId> = (0..5).map(OpId::from_index).collect();
        let spilled = |list: &IdList<OpId>| matches!(list.repr, Repr::Spilled(_));

        let mut list = IdList::new();
        for (pushed, &id) in ids.iter().enumerate() {
            list.push(id);
            assert_eq!(spilled(&list), pushed + 1 > IdList::<OpId>::INLINE);
            assert_eq!(list, ids[..=pushed].to_vec());
        }
        // Inserting into a full inline list spills with the order kept.
        let mut full = IdList::from(&ids[..3]);
        full.insert(1, ids[4]);
        assert!(spilled(&full));
        assert_eq!(full, vec![ids[0], ids[4], ids[1], ids[2]]);
        // Shrinking to three ids gives the heap block up, by either door.
        assert_eq!(full.remove(1), ids[4]);
        assert!(!spilled(&full));
        assert_eq!(full, ids[..3].to_vec());
        list.retain(|id| id.index() % 2 == 0);
        assert!(!spilled(&list));
        assert_eq!(list, vec![ids[0], ids[2], ids[4]]);
        // A short `Vec` is taken in place, a long one as it is.
        assert!(!spilled(&IdList::from(ids[..3].to_vec())));
        assert!(spilled(&IdList::from(ids.clone())));
    }
}
