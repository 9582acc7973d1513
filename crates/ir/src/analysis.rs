//! Cached analyses with generation-based invalidation.
//!
//! HIDA-OPT's passes repeatedly ask the same structural questions — compute
//! profiles of task/node bodies, the dataflow graph of a schedule, per-node QoR
//! estimates — and recomputing them from scratch at every use dominates the
//! optimizer's compile time as designs grow. The [`AnalysisManager`] caches such
//! results keyed by *(analysis type, root op)* and stamps each entry with the
//! [`Context::generation`] it was computed at: every structural mutation bumps
//! the generation, so a stale entry is detected by a single integer comparison
//! and recomputed lazily on the next query.
//!
//! Transforms that provably do not change an analysis result (e.g. tiling only
//! annotates nodes and adds buffers, leaving every cached compute profile
//! intact) declare it through
//! [`Pass::preserved_analyses`](crate::pass::Pass::preserved_analyses); the
//! [runner](crate::pass::run_passes) then keeps the declared analyses
//! alive across the pass's generation bumps instead of discarding them. In debug
//! builds a consistency check recomputes each preserved entry at pass exit and
//! fails the pipeline when the declaration was a lie.

// Cache entries are keyed by `(TypeId, OpId)` — the `TypeId` half has no dense
// index, so this stays a hash map (cold: touched per query, not per walk step).
#![allow(clippy::disallowed_types)]

use crate::context::Context;
use crate::error::IrError;
use crate::ids::OpId;
use std::any::{Any, TypeId};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// A cacheable analysis over the IR rooted at one operation.
///
/// Implementations live next to the data they analyze (dialect crates implement
/// it for their result types); the manager only needs a way to (re)compute the
/// value and to compare it against a recomputation for the debug-mode
/// preservation check. The `Send + Sync` bounds are what let the forks of one
/// cache ([`AnalysisManager::fork`]) share its values between the threads of a
/// sweep.
pub trait Analysis: Any + Send + Sync + PartialEq {
    /// Stable human-readable analysis name used in diagnostics.
    const NAME: &'static str;

    /// Computes the analysis of the IR rooted at `root`.
    fn compute(ctx: &Context, root: OpId) -> Self;
}

/// Cache traffic counters, recorded per pass and accumulated over a manager's
/// lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisCacheStats {
    /// Queries served from the cache.
    pub hits: u64,
    /// Queries that had to (re)compute the analysis.
    pub misses: u64,
    /// Cache entries discarded because the IR changed underneath them (or their
    /// root op died).
    pub invalidations: u64,
    /// Cache entries kept alive across a generation bump by a pass's
    /// preservation declaration.
    pub preserved: u64,
}

impl AnalysisCacheStats {
    /// Total number of analysis queries (hits + misses).
    pub fn total_queries(&self) -> u64 {
        self.hits + self.misses
    }

    /// Adds `other`'s counters onto `self`.
    pub fn accumulate(&mut self, other: &AnalysisCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
        self.preserved += other.preserved;
    }

    /// The traffic since `earlier`, an older reading of the same counters.
    pub fn since(&self, earlier: &AnalysisCacheStats) -> AnalysisCacheStats {
        AnalysisCacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            invalidations: self.invalidations - earlier.invalidations,
            preserved: self.preserved - earlier.preserved,
        }
    }
}

impl fmt::Display for AnalysisCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hit / {} miss / {} invalidated / {} preserved",
            self.hits, self.misses, self.invalidations, self.preserved
        )
    }
}

/// The set of analyses a pass declares untouched by its mutations.
#[derive(Debug, Clone, Default)]
pub struct PreservedAnalyses {
    types: Vec<TypeId>,
}

impl PreservedAnalyses {
    /// Nothing is preserved — the conservative default for mutating passes.
    pub fn none() -> Self {
        PreservedAnalyses::default()
    }

    /// Marks analysis `A` as preserved (builder style).
    pub fn preserve<A: Analysis>(mut self) -> Self {
        let id = TypeId::of::<A>();
        if !self.types.contains(&id) {
            self.types.push(id);
        }
        self
    }

    fn preserves_id(&self, id: TypeId) -> bool {
        self.types.contains(&id)
    }
}

/// Recomputes the analysis behind a type-erased cache entry and compares it
/// against the cached value; `false` means a preservation declaration lied.
type ConsistencyCheck = fn(&Context, OpId, &dyn Any) -> bool;

fn check_entry<A: Analysis>(ctx: &Context, root: OpId, cached: &dyn Any) -> bool {
    cached
        .downcast_ref::<A>()
        .map(|value| &A::compute(ctx, root) == value)
        .unwrap_or(false)
}

/// A type-erased analysis result, shared between the live cache, every
/// fork of it and every caller that queried it.
type SharedValue = Arc<dyn Any + Send + Sync>;

fn downcast_shared<A: Any + Send + Sync>(value: &SharedValue) -> Arc<A> {
    Arc::clone(value)
        .downcast::<A>()
        .expect("analysis cache entry has the queried type")
}

/// The cache proper. Keys are the program's own type and op ids, never outside
/// input, so the hasher is keyed with constants: pass exits remove entries,
/// whether a removal leaves a tombstone depends on where the hash put the
/// key, and whether the next insert then rehashes in place or grows the table
/// depends on the tombstones — under per-map random keys the allocation count
/// of one compile differed from run to run once the cache outlived lowering.
type Entries = HashMap<(TypeId, OpId), CacheEntry, BuildHasherDefault<DefaultHasher>>;

struct CacheEntry {
    value: SharedValue,
    /// [`Context::id`] of the context the entry was computed against, so one
    /// manager can never serve results across unrelated contexts.
    ctx_id: u64,
    /// [`Context::generation`] at computation (or last preservation restamp).
    generation: u64,
    /// [`Context::op_epoch`] of the root at computation: a recycled op slot
    /// (erase + create reusing the id) must never inherit the old op's entry,
    /// even when a preservation declaration keeps entries across mutations.
    epoch: u32,
    analysis: &'static str,
    /// Debug-mode recompute-and-compare; absent for closure-computed entries.
    check: Option<ConsistencyCheck>,
}

/// Typed analysis cache with generation-based invalidation; owned by the
/// [`RunState`](crate::pass::RunState) and threaded through every pass.
///
/// # Example
///
/// ```
/// use hida_ir_core::{Analysis, AnalysisManager, Context, OpBuilder, OpId};
///
/// /// Number of ops directly inside the root's body.
/// #[derive(Debug, Clone, PartialEq)]
/// struct OpCount(usize);
///
/// impl Analysis for OpCount {
///     const NAME: &'static str = "op-count";
///     fn compute(ctx: &Context, root: OpId) -> Self {
///         OpCount(ctx.body_ops(root).len())
///     }
/// }
///
/// let mut ctx = Context::new();
/// let module = ctx.create_module("m");
/// OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
///
/// let mut analyses = AnalysisManager::new();
/// // The first query computes; the second is served from the cache and hands
/// // out the same shared value.
/// let first = analyses.get::<OpCount>(&ctx, module);
/// let second = analyses.get::<OpCount>(&ctx, module);
/// assert_eq!(*first, OpCount(1));
/// assert!(std::sync::Arc::ptr_eq(&first, &second));
/// assert_eq!(analyses.stats().hits, 1);
///
/// // Mutations bump the context generation; the stale entry is recomputed
/// // lazily on the next query.
/// OpBuilder::at_end_of(&mut ctx, module).create_func("g", vec![], vec![]);
/// assert!(analyses.cached::<OpCount>(&ctx, module).is_none());
/// assert_eq!(*analyses.get::<OpCount>(&ctx, module), OpCount(2));
/// ```
pub struct AnalysisManager {
    entries: Entries,
    /// Scope of the currently running pass, when one is active.
    scope: Option<PassScope>,
    /// Counters over the manager's whole lifetime.
    totals: AnalysisCacheStats,
    /// `totals` as they stood when the current pass began (or the last one
    /// ended, or the manager was forked): a pass's counters are
    /// `totals.since(&pass_start)`.
    pass_start: AnalysisCacheStats,
    /// Whether preservation declarations are verified by recomputation at pass
    /// exit. Defaults to on in debug builds.
    check_preserved: bool,
}

struct PassScope {
    pass: &'static str,
    preserved: PreservedAnalyses,
    ctx_id: u64,
    start_generation: u64,
}

impl Default for AnalysisManager {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for AnalysisManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnalysisManager")
            .field("entries", &self.entries.len())
            .field("totals", &self.totals)
            .finish()
    }
}

impl AnalysisManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        AnalysisManager {
            entries: Entries::default(),
            scope: None,
            totals: AnalysisCacheStats::default(),
            pass_start: AnalysisCacheStats::default(),
            check_preserved: cfg!(debug_assertions),
        }
    }

    /// Enables or disables the pass-exit preservation consistency check
    /// (defaults to enabled in debug builds).
    pub fn with_consistency_checks(mut self, enabled: bool) -> Self {
        self.check_preserved = enabled;
        self
    }

    /// Returns `A` for the IR rooted at `root`, recomputing only when no entry
    /// exists or the cached one is stale. The result is shared with the cache
    /// (a pointer copy, never a deep clone).
    pub fn get<A: Analysis>(&mut self, ctx: &Context, root: OpId) -> Arc<A> {
        downcast_shared(self.query(
            ctx,
            root,
            TypeId::of::<A>(),
            A::NAME,
            Some(check_entry::<A>),
            |c, r| Arc::new(A::compute(c, r)),
        ))
    }

    /// Like [`AnalysisManager::get`] but with a caller-provided compute
    /// function, for analyses parameterized by external state (e.g. a target
    /// device). Entries are still keyed by `(type, root)` and invalidated by
    /// generation, but skip the debug-mode recomputation check.
    pub fn get_with<A: Any + Send + Sync>(
        &mut self,
        ctx: &Context,
        root: OpId,
        name: &'static str,
        compute: impl FnOnce(&Context, OpId) -> A,
    ) -> Arc<A> {
        downcast_shared(
            self.query(ctx, root, TypeId::of::<A>(), name, None, |c, r| {
                Arc::new(compute(c, r))
            }),
        )
    }

    /// Returns the cached `A` for `root` when present *and* still valid,
    /// without computing anything.
    pub fn cached<A: Analysis>(&self, ctx: &Context, root: OpId) -> Option<&A> {
        self.cached_any::<A>(ctx, root)
    }

    /// Like [`AnalysisManager::cached`] but for closure-computed entries
    /// ([`AnalysisManager::get_with`]) that do not implement [`Analysis`].
    pub fn cached_any<A: Any + Send + Sync>(&self, ctx: &Context, root: OpId) -> Option<&A> {
        let key = (TypeId::of::<A>(), root);
        let entry = self.entries.get(&key)?;
        if !self.entry_valid(key.0, root, entry, ctx) {
            return None;
        }
        entry.value.downcast_ref::<A>()
    }

    /// The cache a run over `fork` — a clone of `original` as it stands now —
    /// starts from: every entry valid for `original` carried over under the
    /// clone's identity, with the lifetime counters. Entity ids, epochs and
    /// the generation are the same in both contexts, so the copy answers
    /// queries about `fork` exactly as `self` would have answered them about
    /// `original` — same values, same hits and misses. Values are shared
    /// with `self` (one pointer copy per entry). Taken between passes: no
    /// pass scope carries over.
    pub fn fork(&self, original: &Context, fork: &Context) -> AnalysisManager {
        debug_assert_eq!(original.generation(), fork.generation());
        let entries = self
            .entries
            .iter()
            .filter(|(&(type_id, root), entry)| self.entry_valid(type_id, root, entry, original))
            .map(|(&key, entry)| {
                let entry = CacheEntry {
                    value: Arc::clone(&entry.value),
                    ctx_id: fork.id(),
                    ..*entry
                };
                (key, entry)
            })
            .collect();
        AnalysisManager {
            entries,
            scope: None,
            totals: self.totals.clone(),
            pass_start: self.totals.clone(),
            check_preserved: self.check_preserved,
        }
    }

    /// Drops every analysis cached for a root `stale` accepts, regardless
    /// of type: one pass over the cache, whatever the number of roots.
    pub fn invalidate_roots(&mut self, mut stale: impl FnMut(OpId) -> bool) {
        let before = self.entries.len();
        self.entries.retain(|&(_, root), _| !stale(root));
        self.totals.invalidations += (before - self.entries.len()) as u64;
    }

    /// Number of cached entries (valid or stale).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime totals of the cache counters.
    pub fn stats(&self) -> &AnalysisCacheStats {
        &self.totals
    }

    /// Opens a pass scope: queries until the matching
    /// [`AnalysisManager::end_pass`] treat the declared `preserved` analyses as
    /// valid across generation bumps made by this pass.
    pub fn begin_pass(&mut self, ctx: &Context, pass: &'static str, preserved: PreservedAnalyses) {
        self.pass_start = self.totals.clone();
        self.scope = Some(PassScope {
            pass,
            preserved,
            ctx_id: ctx.id(),
            start_generation: ctx.generation(),
        });
    }

    /// Closes the pass scope: drops entries invalidated by the pass, restamps
    /// the preserved ones to the current generation (verifying them by
    /// recomputation when consistency checks are on) and returns the pass's
    /// cache counters. The counters are returned even when the check finds a
    /// preservation lie (the second tuple element), so failing passes still
    /// report the cache traffic they caused.
    pub fn end_pass(&mut self, ctx: &Context) -> (AnalysisCacheStats, Option<IrError>) {
        let scope = self.scope.take();
        let generation = ctx.generation();
        let ctx_id = ctx.id();
        let mut lie: Option<(&'static str, &'static str, OpId)> = None;
        self.entries.retain(|&(type_id, root), entry| {
            let root_intact = ctx.is_alive(root) && ctx.op_epoch(root) == entry.epoch;
            if entry.ctx_id == ctx_id && entry.generation == generation && root_intact {
                return true;
            }
            let preserved_by_pass = entry.ctx_id == ctx_id
                && root_intact
                && scope
                    .as_ref()
                    .map(|s| {
                        entry.generation >= s.start_generation && s.preserved.preserves_id(type_id)
                    })
                    .unwrap_or(false);
            if !preserved_by_pass {
                self.totals.invalidations += 1;
                return false;
            }
            if self.check_preserved && lie.is_none() {
                if let Some(check) = entry.check {
                    if !check(ctx, root, &*entry.value) {
                        lie = Some((scope.as_ref().map_or("", |s| s.pass), entry.analysis, root));
                    }
                }
            }
            entry.generation = generation;
            self.totals.preserved += 1;
            true
        });
        let stats = self.take_pass_counters();
        if let Some((pass, analysis, root)) = lie {
            self.entries.clear();
            let error = IrError::verification(format!(
                "pass '{pass}' declared analysis '{analysis}' preserved, but its cached \
                 result for op {root} no longer matches a recomputation"
            ));
            return (stats, Some(error));
        }
        (stats, None)
    }

    /// Closes the pass scope after a pass failure: drops every stale entry
    /// without running consistency checks (the IR is in an undefined state) and
    /// returns the counters gathered so far.
    pub fn abort_pass(&mut self, ctx: &Context) -> AnalysisCacheStats {
        self.scope = None;
        let generation = ctx.generation();
        let ctx_id = ctx.id();
        let before = self.entries.len();
        self.entries.retain(|&(_, root), entry| {
            entry.ctx_id == ctx_id
                && entry.generation == generation
                && ctx.is_alive(root)
                && ctx.op_epoch(root) == entry.epoch
        });
        self.totals.invalidations += (before - self.entries.len()) as u64;
        self.take_pass_counters()
    }

    /// The counters since `pass_start`, which moves up to now.
    fn take_pass_counters(&mut self) -> AnalysisCacheStats {
        let stats = self.totals.since(&self.pass_start);
        self.pass_start = self.totals.clone();
        stats
    }

    fn entry_valid(&self, type_id: TypeId, root: OpId, entry: &CacheEntry, ctx: &Context) -> bool {
        if entry.ctx_id != ctx.id() || !ctx.is_alive(root) || ctx.op_epoch(root) != entry.epoch {
            return false;
        }
        if entry.generation == ctx.generation() {
            return true;
        }
        // Inside a preserving pass, entries valid at (or computed after) pass
        // entry survive the pass's own generation bumps.
        match &self.scope {
            Some(scope) => {
                scope.ctx_id == ctx.id()
                    && entry.generation >= scope.start_generation
                    && scope.preserved.preserves_id(type_id)
            }
            None => false,
        }
    }

    fn query(
        &mut self,
        ctx: &Context,
        root: OpId,
        type_id: TypeId,
        name: &'static str,
        check: Option<ConsistencyCheck>,
        compute: impl FnOnce(&Context, OpId) -> SharedValue,
    ) -> &SharedValue {
        let key = (type_id, root);
        let valid = self
            .entries
            .get(&key)
            .map(|e| self.entry_valid(type_id, root, e, ctx))
            .unwrap_or(false);
        if valid {
            self.totals.hits += 1;
            return &self.entries[&key].value;
        }
        if self.entries.contains_key(&key) {
            self.totals.invalidations += 1;
        }
        self.totals.misses += 1;
        let value = compute(ctx, root);
        self.entries.insert(
            key,
            CacheEntry {
                value,
                ctx_id: ctx.id(),
                generation: ctx.generation(),
                epoch: ctx.op_epoch(root),
                analysis: name,
                check,
            },
        );
        &self.entries[&key].value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OpBuilder;
    use crate::types::Type;

    /// Toy analysis: the number of `arith.constant` ops below the root.
    #[derive(Debug, Clone, PartialEq)]
    struct ConstantCount(usize);

    impl Analysis for ConstantCount {
        const NAME: &'static str = "constant-count";
        fn compute(ctx: &Context, root: OpId) -> Self {
            ConstantCount(ctx.collect_ops(root, "arith.constant").len())
        }
    }

    fn module_with_constants(ctx: &mut Context, n: usize) -> OpId {
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![]);
        let mut b = OpBuilder::at_end_of(ctx, func);
        for i in 0..n {
            b.create_constant_int(i as i64, Type::i32());
        }
        module
    }

    #[test]
    fn repeated_queries_hit_until_the_ir_mutates() {
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 3);
        let mut am = AnalysisManager::new();

        assert_eq!(*am.get::<ConstantCount>(&ctx, module), ConstantCount(3));
        assert_eq!(*am.get::<ConstantCount>(&ctx, module), ConstantCount(3));
        assert_eq!(am.stats().hits, 1);
        assert_eq!(am.stats().misses, 1);
        assert!(am.cached::<ConstantCount>(&ctx, module).is_some());

        // build_op bumps the generation -> the entry is stale and recomputed.
        let body = ctx.body_block(ctx.find_in_body(module, "func.func").unwrap());
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        b.create_constant_int(9, Type::i32());
        assert!(am.cached::<ConstantCount>(&ctx, module).is_none());
        assert_eq!(*am.get::<ConstantCount>(&ctx, module), ConstantCount(4));
        assert_eq!(am.stats().misses, 2);
        assert_eq!(am.stats().invalidations, 1);

        // erase_op invalidates as well.
        let consts = ctx.collect_ops(module, "arith.constant");
        ctx.erase_op(consts[0]);
        assert_eq!(*am.get::<ConstantCount>(&ctx, module), ConstantCount(3));
        assert_eq!(am.stats().misses, 3);
    }

    #[test]
    fn entries_never_leak_across_contexts() {
        let mut ctx_a = Context::new();
        let module_a = module_with_constants(&mut ctx_a, 2);
        let mut ctx_b = Context::new();
        let module_b = module_with_constants(&mut ctx_b, 5);
        // Same OpId indices, same generation history — only the context id
        // distinguishes the two. The cache must not serve A's result for B.
        assert_eq!(module_a, module_b);
        let mut am = AnalysisManager::new();
        assert_eq!(*am.get::<ConstantCount>(&ctx_a, module_a), ConstantCount(2));
        assert_eq!(*am.get::<ConstantCount>(&ctx_b, module_b), ConstantCount(5));
        assert_eq!(am.stats().hits, 0);
    }

    #[test]
    fn get_with_memoizes_closure_computed_analyses() {
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 2);
        let mut am = AnalysisManager::new();
        let mut computed = 0;
        for _ in 0..3 {
            let v = am.get_with(&ctx, module, "answer", |_, _| {
                computed += 1;
                42_i64
            });
            assert_eq!(*v, 42);
        }
        assert_eq!(computed, 1);
        assert_eq!(am.stats().hits, 2);
    }

    #[test]
    fn preserving_pass_scope_keeps_entries_across_mutations() {
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 2);
        let mut am = AnalysisManager::new();
        am.get::<ConstantCount>(&ctx, module);

        // A scope preserving ConstantCount: mutations that genuinely keep the
        // count stable (attribute edits) must not force a recomputation.
        am.begin_pass(
            &ctx,
            "annotate",
            PreservedAnalyses::none().preserve::<ConstantCount>(),
        );
        let func = ctx.find_in_body(module, "func.func").unwrap();
        ctx.set_attr(func, "annotated", 1_i64);
        assert!(ctx.generation() > 0);
        assert_eq!(*am.get::<ConstantCount>(&ctx, module), ConstantCount(2));
        let (stats, lie) = am.end_pass(&ctx);
        assert!(lie.is_none());
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.preserved, 1);
        // The restamped entry is valid outside the scope too.
        assert!(am.cached::<ConstantCount>(&ctx, module).is_some());
    }

    #[test]
    fn non_preserving_pass_scope_drops_stale_entries_at_exit() {
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 2);
        let mut am = AnalysisManager::new();
        am.get::<ConstantCount>(&ctx, module);
        am.begin_pass(&ctx, "mutate", PreservedAnalyses::none());
        let consts = ctx.collect_ops(module, "arith.constant");
        ctx.erase_op(consts[0]);
        let (stats, lie) = am.end_pass(&ctx);
        assert!(lie.is_none());
        assert_eq!(stats.invalidations, 1);
        assert!(am.is_empty());
    }

    #[test]
    fn entries_for_erased_roots_are_dropped_not_verified() {
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 2);
        let func = ctx.find_in_body(module, "func.func").unwrap();
        let mut am = AnalysisManager::new();
        am.get::<ConstantCount>(&ctx, func);
        am.begin_pass(
            &ctx,
            "erase",
            PreservedAnalyses::none().preserve::<ConstantCount>(),
        );
        ctx.erase_op(func);
        let (stats, lie) = am.end_pass(&ctx);
        assert!(lie.is_none());
        assert_eq!(stats.invalidations, 1);
        assert!(am.is_empty());
    }

    #[test]
    fn preservation_lie_is_caught_by_the_consistency_check() {
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 2);
        let mut am = AnalysisManager::new().with_consistency_checks(true);
        am.get::<ConstantCount>(&ctx, module);
        // The "pass" claims to preserve the count but erases a constant.
        am.begin_pass(
            &ctx,
            "liar",
            PreservedAnalyses::none().preserve::<ConstantCount>(),
        );
        let consts = ctx.collect_ops(module, "arith.constant");
        ctx.erase_op(consts[0]);
        let (stats, lie) = am.end_pass(&ctx);
        let message = lie.expect("the lie must be detected").to_string();
        assert!(message.contains("liar"), "{message}");
        assert!(message.contains("constant-count"), "{message}");
        // The cache traffic of the lying pass is still reported, and the
        // poisoned cache was cleared.
        assert_eq!(stats.preserved, 1);
        assert!(am.is_empty());
    }

    #[test]
    fn preserved_analyses_set_semantics() {
        let id = TypeId::of::<ConstantCount>();
        assert!(!PreservedAnalyses::none().preserves_id(id));
        let some = PreservedAnalyses::none()
            .preserve::<ConstantCount>()
            .preserve::<ConstantCount>();
        assert!(some.preserves_id(id));
        assert_eq!(some.types, [id]);
    }

    #[test]
    fn a_fork_answers_for_the_cloned_context_what_the_original_would() {
        let mut ctx = Context::new();
        let module = module_with_constants(&mut ctx, 2);
        let func = ctx.find_in_body(module, "func.func").unwrap();
        let mut am = AnalysisManager::new();
        let live = am.get::<ConstantCount>(&ctx, module);
        am.get::<ConstantCount>(&ctx, func);
        // A stale entry does not travel: only what is valid for the original.
        let consts = ctx.collect_ops(module, "arith.constant");
        ctx.erase_op(consts[0]);
        am.get::<ConstantCount>(&ctx, func);

        let clone = ctx.clone();
        let mut forked = am.fork(&ctx, &clone);
        assert_eq!(forked.len(), 1);
        assert_eq!(forked.stats(), am.stats());
        // The clone's query hits, on the very value the original holds...
        let hit = forked.get::<ConstantCount>(&clone, func);
        assert!(std::ptr::eq(
            &*hit,
            am.cached::<ConstantCount>(&ctx, func).unwrap()
        ));
        assert_eq!(forked.stats().hits, am.stats().hits + 1);
        // ...the dropped one misses without counting an invalidation, as it
        // would on the original after the pass boundary dropped it...
        assert_eq!(
            *forked.get::<ConstantCount>(&clone, module),
            ConstantCount(1)
        );
        assert_eq!(forked.stats().invalidations, am.stats().invalidations);
        assert_eq!(*live, ConstantCount(2));
        // ...and neither cache answers for the other's context.
        assert!(forked.cached::<ConstantCount>(&ctx, func).is_none());
        assert!(am.cached::<ConstantCount>(&clone, func).is_none());
    }
}
