//! Process-wide interning: the payloads the IR shares are uniqued into
//! copyable [`Interned`] handles, and [`Symbol`] is the interned string.
//!
//! Strings (op names, attribute keys, string attributes, value name hints),
//! integer, float and string arrays, attribute lists, and the shape, element
//! and stream types of [`Type`](crate::Type) are interned the way MLIR
//! uniques its types and attributes. An interned payload is
//!
//! * **deduplicated** — equal contents intern to pointer-equal data, so a
//!   handle is one thin pointer to copy and compare;
//! * **immutable** — nothing hands out a `&mut` into it;
//! * **immortal** — it is leaked on first sight and never freed.
//!
//! Those three make [`Attribute`](crate::Attribute) and
//! [`Type`](crate::Type) `Copy` and a [`Context`](crate::Context) flat:
//! cloning one copies its arenas and touches no reference count, dropping
//! one frees the arenas and nothing else, and two forks of one context can
//! be edited on two threads without either seeing the other (an edit
//! installs another handle; it never writes into a payload). What is leaked
//! is bounded by the distinct names, shapes and factors a process compiles,
//! not by how often it compiles them.
//!
//! # Equality, hashing and order
//!
//! A handle compares, hashes, orders, prints and debugs like the content it
//! points at — `&'static T` semantics — with a pointer comparison as the
//! fast path of `==`. Nothing observable depends on where a payload sits in
//! memory or on the order in which threads interned it.
//!
//! Float payloads are keyed by bit pattern: `[0.0]` and `[-0.0]` are two
//! payloads, and a NaN-carrying array interns to one handle per bit pattern
//! although NaN is not `==` to itself.
//!
//! # Concurrency
//!
//! A hit takes no lock another thread can hold. Each kind of payload has an
//! open-addressing table of write-once slots ([`OnceLock`]s: a probe is one
//! acquire load per slot) that grows by publishing a copy twice its size,
//! so a reader of the previous table still sees everything it held. A miss
//! takes the kind's mutex, probes again, then leaks and publishes the new
//! payload — once per distinct content per process.

use crate::fault::lock_recover;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Mutex, OnceLock};

/// A uniqued, immutable, immortal payload: one thin pointer, `Copy`.
///
/// Build one with [`Interned::new`] or the `From` conversions; read it
/// through `Deref` or [`Interned::get`], which hand out `&'static` data.
/// See the [module documentation](self) for what equality means.
pub struct Interned<T: ?Sized + 'static>(&'static Entry<T>);

/// One interned payload, leaked on first sight: the content, and the hash
/// its table files it under. A handle points here, so a handle is one word
/// however wide a reference to the content would be.
struct Entry<T: ?Sized + 'static> {
    hash: u64,
    value: &'static T,
}

/// An interned string: op names, attribute keys, string attributes and name
/// hints. Equal strings are one handle; resolving one is one load.
pub type Symbol = Interned<str>;

impl<T: ?Sized + Intern> Interned<T> {
    /// The handle of `value`'s content, interning a copy on first sight.
    pub fn new(value: &T) -> Self {
        Interned(T::table().intern(value))
    }
}

impl<T: ?Sized> Interned<T> {
    /// The payload, valid for the rest of the process.
    #[inline]
    pub fn get(self) -> &'static T {
        self.0.value
    }

    /// True when both handles are the one payload — for interned contents,
    /// exactly when they are identical (floats by bit pattern).
    #[inline]
    pub fn ptr_eq(self, other: Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Interned<str> {
    /// Interns `text` in the process-wide string table.
    pub fn intern(text: &str) -> Symbol {
        Interned::new(text)
    }

    /// The interned string.
    #[inline]
    pub fn as_str(self) -> &'static str {
        self.0.value
    }
}

/// The [`Symbol`] of a constant string, interned once per process: the
/// first evaluation at a use site interns it, every later one is one
/// acquire load. For the attribute keys and string payloads a pass writes
/// over and over, where [`Symbol::intern`] would hash and probe each time.
///
/// ```
/// use hida_ir_core::{symbol, Symbol};
///
/// const KEY: &str = "unroll_factors";
/// let key: Symbol = symbol!(KEY);
/// assert!(key.ptr_eq(Symbol::intern("unroll_factors")));
/// ```
#[macro_export]
macro_rules! symbol {
    ($text:expr) => {{
        static SYMBOL: ::std::sync::OnceLock<$crate::Symbol> = ::std::sync::OnceLock::new();
        *SYMBOL.get_or_init(|| $crate::Symbol::intern($text))
    }};
}

impl<T: ?Sized> Clone for Interned<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: ?Sized> Copy for Interned<T> {}

impl<T: ?Sized> Deref for Interned<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        self.0.value
    }
}

impl<T: ?Sized + PartialEq> PartialEq for Interned<T> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(*other) || self.get() == other.get()
    }
}

impl<T: ?Sized + Eq> Eq for Interned<T> {}

impl<T: ?Sized + Hash> Hash for Interned<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.get().hash(state)
    }
}

impl<T: ?Sized + PartialOrd> PartialOrd for Interned<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.get().partial_cmp(other.get())
    }
}

impl<T: ?Sized + Ord> Ord for Interned<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.get().cmp(other.get())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Interned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

impl<T: ?Sized + fmt::Display> fmt::Display for Interned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

impl<T: ?Sized + Intern> From<&T> for Interned<T> {
    fn from(value: &T) -> Self {
        Interned::new(value)
    }
}

impl From<String> for Symbol {
    fn from(text: String) -> Self {
        Interned::new(text.as_str())
    }
}

impl<E, const N: usize> From<[E; N]> for Interned<[E]>
where
    [E]: Intern,
{
    fn from(items: [E; N]) -> Self {
        Interned::new(&items[..])
    }
}

impl<E> From<Vec<E>> for Interned<[E]>
where
    [E]: Intern,
{
    fn from(items: Vec<E>) -> Self {
        Interned::new(items.as_slice())
    }
}

/// Gathers up to eight items on the stack, so collecting a short list that
/// has been interned before allocates nothing.
impl<E: Copy> FromIterator<E> for Interned<[E]>
where
    [E]: Intern,
{
    fn from_iter<I: IntoIterator<Item = E>>(items: I) -> Self {
        const ON_STACK: usize = 8;
        let mut items = items.into_iter();
        let Some(first) = items.next() else {
            return Interned::new(&[]);
        };
        let mut head = [first; ON_STACK];
        let mut len = 1;
        while let Some(item) = items.next() {
            if len == ON_STACK {
                let all: Vec<E> = head.into_iter().chain([item]).chain(items).collect();
                return Interned::new(all.as_slice());
            }
            head[len] = item;
            len += 1;
        }
        Interned::new(&head[..len])
    }
}

/// A kind of payload that can be interned: how its identity is hashed and
/// compared, how a copy is leaked, and which process-wide table holds it.
pub trait Intern: Sync + 'static {
    /// The process-wide table of this kind.
    fn table() -> &'static Interner<Self>;

    /// Feeds the identity of `self` to `state`: its content, floats by bit
    /// pattern.
    fn hash_key(&self, state: &mut KeyHasher);

    /// True when `self` and `other` are one payload: equal content, floats
    /// compared by bit pattern.
    fn same(&self, other: &Self) -> bool;

    /// A copy of `self` that lives for the rest of the process.
    fn leak(&self) -> &'static Self;
}

/// Implements [`Intern`] for kinds that hold no float, whose content is
/// their identity: hashed and compared as they are, leaked as an owned copy.
macro_rules! intern_by_content {
    ($($kind:ty),+ $(,)?) => {$(
        impl $crate::intern::Intern for $kind {
            fn table() -> &'static $crate::intern::Interner<$kind> {
                static TABLE: $crate::intern::Interner<$kind> = $crate::intern::Interner::new();
                &TABLE
            }

            fn hash_key(&self, state: &mut $crate::intern::KeyHasher) {
                std::hash::Hash::hash(self, state);
            }

            fn same(&self, other: &Self) -> bool {
                self == other
            }

            fn leak(&self) -> &'static $kind {
                Box::leak(Box::from(self.to_owned()))
            }
        }
    )+};
}
pub(crate) use intern_by_content;

intern_by_content!(str, [i64], [Symbol]);

impl Intern for [f64] {
    fn table() -> &'static Interner<[f64]> {
        static TABLE: Interner<[f64]> = Interner::new();
        &TABLE
    }

    fn hash_key(&self, state: &mut KeyHasher) {
        state.write_usize(self.len());
        for x in self {
            state.write_u64(x.to_bits());
        }
    }

    fn same(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .zip(other)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    fn leak(&self) -> &'static [f64] {
        Box::leak(Box::from(self))
    }
}

/// The hasher an [`Intern`] kind feeds its identity to: a word-at-a-time
/// multiply-rotate hash with a final avalanche, so the low bits that pick a
/// table slot depend on every input word. Not keyed and not stable across
/// versions — it only places payloads in the interner's tables.
#[derive(Default)]
pub struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            // The rest as one little-endian word, zero-padded: folded, not
            // copied, which would call `memcpy` for a few bytes.
            self.add(
                rest.iter()
                    .rev()
                    .fold(0, |word, &b| (word << 8) | u64::from(b)),
            );
        }
    }

    /// What `write(&[n])` adds — the terminator `str` hashes after its
    /// bytes — without the slice.
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        let mut x = self.0;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^ (x >> 33)
    }
}

/// Slots of the first table of a kind; each growth doubles them.
const FIRST_SLOTS: usize = 256;
/// Tables a kind can grow through: the last holds `FIRST_SLOTS << 39`
/// slots, more than any process can fill.
const GENERATIONS: usize = 40;

/// The process-wide table of one [`Intern`] kind. See the
/// [module documentation](self) for how it is read without a lock.
pub struct Interner<T: ?Sized + 'static> {
    /// Every table this kind has grown through; `current` names the live
    /// one, the earlier ones stay readable by whoever still holds them.
    tables: [OnceLock<Table<T>>; GENERATIONS],
    current: AtomicUsize,
    /// Payloads interned so far; held while a miss is resolved.
    len: Mutex<usize>,
}

/// One open-addressing table, never more than half full, each slot
/// written once.
struct Table<T: ?Sized + 'static> {
    slots: Box<[OnceLock<&'static Entry<T>>]>,
}

impl<T: ?Sized + 'static> Table<T> {
    fn with_slots(count: usize) -> Self {
        Table {
            slots: (0..count).map(|_| OnceLock::new()).collect(),
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Writes `entry` into the first free slot of its probe sequence. Only
    /// called with the kind's mutex held, so no other writer races for it.
    fn place(&self, entry: &'static Entry<T>) {
        let mut at = entry.hash as usize & self.mask();
        while self.slots[at].set(entry).is_err() {
            at = (at + 1) & self.mask();
        }
    }
}

impl<T: ?Sized + Intern> Interner<T> {
    /// An empty table; the first intern allocates it.
    pub(crate) const fn new() -> Self {
        Interner {
            tables: [const { OnceLock::new() }; GENERATIONS],
            current: AtomicUsize::new(0),
            len: Mutex::new(0),
        }
    }

    /// The entry of `value`'s content: a lock-free probe, and on a miss
    /// the mutex, a second probe, and a leaked copy.
    fn intern(&self, value: &T) -> &'static Entry<T> {
        let mut hasher = KeyHasher::default();
        value.hash_key(&mut hasher);
        let hash = hasher.finish();
        if let Some(found) = self.find(hash, value) {
            return found;
        }
        let mut len = lock_recover(&self.len);
        if let Some(found) = self.find(hash, value) {
            return found;
        }
        let generation = self.current.load(AtomicOrdering::Relaxed);
        let mut table = self.tables[generation].get_or_init(|| Table::with_slots(FIRST_SLOTS));
        if 2 * (*len + 1) > table.slots.len() {
            let grown = Table::with_slots(2 * table.slots.len());
            for &entry in table.slots.iter().filter_map(OnceLock::get) {
                grown.place(entry);
            }
            table = self.tables[generation + 1].get_or_init(|| grown);
            self.current.store(generation + 1, AtomicOrdering::Release);
        }
        let entry = Box::leak(Box::new(Entry {
            hash,
            value: value.leak(),
        }));
        table.place(entry);
        *len += 1;
        entry
    }

    fn find(&self, hash: u64, value: &T) -> Option<&'static Entry<T>> {
        let table = self.tables[self.current.load(AtomicOrdering::Acquire)].get()?;
        let mut at = hash as usize & table.mask();
        loop {
            let entry = *table.slots[at].get()?;
            if entry.hash == hash && entry.value.same(value) {
                return Some(entry);
            }
            at = (at + 1) & table.mask();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_interning_dedups_and_resolves() {
        let a = Symbol::intern("intern.test.alpha");
        let b = Symbol::intern("intern.test.alpha");
        let c = Symbol::intern("intern.test.beta");
        assert_eq!(a, b);
        assert!(a.ptr_eq(b));
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "intern.test.alpha");
        assert_eq!(c.as_str(), "intern.test.beta");
        assert_eq!(a.to_string(), "intern.test.alpha");
        assert!(format!("{a:?}").contains("intern.test.alpha"));
    }

    #[test]
    fn equal_contents_intern_to_pointer_equal_data() {
        let owned = String::from("intern.test.owned");
        assert!(std::ptr::eq(
            Symbol::intern(&owned).get(),
            Symbol::intern("intern.test.owned").get()
        ));
        let ints = Interned::<[i64]>::from(vec![3, 1, 4]);
        assert!(ints.ptr_eq(Interned::from([3, 1, 4])));
        assert!(!ints.ptr_eq(Interned::from([3, 1])));
        let names = Interned::<[Symbol]>::from(["a".into(), "b".into()]);
        assert!(names.ptr_eq([Symbol::intern("a"), Symbol::intern("b")].into()));
        // A handle orders by its content, not by its address.
        let (low, high) = (
            Symbol::intern("intern.test.zz"),
            Symbol::intern("intern.test.aa"),
        );
        assert!(high < low);
    }

    #[test]
    fn collecting_agrees_with_interning_the_slice() {
        for len in [0_i64, 1, 7, 8, 9, 20] {
            let items: Vec<i64> = (0..len).map(|i| i * 11 - 4).collect();
            let collected: Interned<[i64]> = items.iter().copied().collect();
            assert!(
                collected.ptr_eq(Interned::new(items.as_slice())),
                "{len} items"
            );
        }
    }

    #[test]
    fn float_arrays_are_keyed_by_bit_pattern() {
        let zero = Interned::<[f64]>::from([0.0]);
        let negative_zero = Interned::<[f64]>::from([-0.0]);
        assert!(!zero.ptr_eq(negative_zero), "0.0 and -0.0 are two payloads");
        assert_eq!(zero, negative_zero, "which still compare equal as floats");
        assert_eq!(negative_zero[0].to_bits(), (-0.0_f64).to_bits());

        let nan = Interned::<[f64]>::from([f64::NAN]);
        assert!(
            nan.ptr_eq(Interned::from([f64::NAN])),
            "one NaN, one handle"
        );
        let other_nan = f64::from_bits(f64::NAN.to_bits() ^ 1);
        assert!(
            !nan.ptr_eq(Interned::from([other_nan])),
            "NaN payloads stay distinct"
        );
        assert_eq!(nan, nan, "a handle is equal to itself");
    }

    #[test]
    fn concurrent_interning_agrees_on_ids() {
        let names: Vec<String> = (0..64).map(|i| format!("intern.test.race{i}")).collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let names = names.clone();
                std::thread::spawn(move || {
                    names.iter().map(|n| Symbol::intern(n)).collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for per_thread in &all[1..] {
            assert_eq!(per_thread, &all[0]);
        }
        for (name, &sym) in names.iter().zip(&all[0]) {
            assert_eq!(sym.as_str(), name.as_str());
        }
    }

    /// Four threads race through the same 1 000 payloads (each in its own
    /// order, so every table growth happens under contention): each content
    /// ends up with exactly one handle.
    #[test]
    fn four_threads_get_one_handle_per_content() {
        let payloads: Vec<Vec<i64>> = (0..1000).map(|i| vec![-77_001, i, i * i]).collect();
        let threads: Vec<_> = (0..4_usize)
            .map(|t| {
                let payloads = payloads.clone();
                std::thread::spawn(move || {
                    let mut handles = vec![None; payloads.len()];
                    for step in 0..payloads.len() {
                        let at = (step * 7 + t * 251) % payloads.len();
                        handles[at] = Some(Interned::<[i64]>::from(payloads[at].as_slice()));
                    }
                    handles.into_iter().map(Option::unwrap).collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Interned<[i64]>>> =
            threads.into_iter().map(|t| t.join().unwrap()).collect();
        for per_thread in &all[1..] {
            for (a, b) in per_thread.iter().zip(&all[0]) {
                assert!(a.ptr_eq(*b));
            }
        }
        for (payload, handle) in payloads.iter().zip(&all[0]) {
            assert_eq!(handle.get(), payload.as_slice());
        }
        let distinct: std::collections::HashSet<*const i64> =
            all[0].iter().map(|h| h.get().as_ptr()).collect();
        assert_eq!(distinct.len(), payloads.len());
    }
}
