//! The prefix tree of a run: every distinct pipeline prefix lowered once.
//!
//! The points of a sweep or an exploration are pipeline-string variants of a
//! few workloads — identical above the pass they differ in. A [`PrefixTree`]
//! is planned once per run from every point's `(workload, normalized pass
//! invocations)`: a workload is a root (its front-end IR, no pass run), a pass
//! invocation an edge. Where the set of points sharing a prefix shrinks — the
//! paths branch, or some end — the node holds a [`Checkpoint`] slot. Slots
//! fill lazily: the first point to need one lowers it (forking the nearest
//! slot above, or building the front end), the others wait for it, and each
//! point then forks the deepest slot on its path and runs only the passes
//! below it. A fork's passes see the IR, statistics and analysis cache a
//! share-nothing run would have produced, so results are byte-identical and
//! statistics equal up to `micros`.

use crate::sweep::SweepPoint;
use crate::{build_workload, resume, Compiler, LowerFailure, LoweredDesign, Workload};
use hida_ir_core::{Context, IrResult, PassInvocation};
use hida_opt::{Checkpoint, Pipeline};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// What prefix sharing did in one run. Counts passes, not time, and every
/// tree node is lowered exactly once whichever worker gets there first, so
/// the numbers are the same at any job count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixStats {
    /// Passes run on the tree: by lowering a checkpoint, or by a point below
    /// the last checkpoint of its path. Without failures, the number of
    /// distinct `(workload, pass prefix)` pairs among the points lowered.
    pub passes_run: usize,
    /// Passes a share-nothing run of the same points would have run on top
    /// of that: the points' pass records that came with a checkpoint.
    pub passes_reused: usize,
    /// Checkpoints lowered.
    pub checkpoints: usize,
}

/// One prefix: the workload's root (no pass run) or one pass further than
/// its parent.
struct Node {
    parent: Option<usize>,
    /// Passes run at this node.
    depth: usize,
    /// Points whose path runs through this node or ends at it.
    points: usize,
    /// Set where fewer points go on together than arrive: the paths branch
    /// here, or some end. `None` inside once lowering it has failed.
    checkpoint: Option<OnceLock<Option<Checkpoint>>>,
}

/// A point on the tree: the compiler that assembled it (the point compiles
/// with it too), the pipeline it parsed to, and the node its path ends at.
struct Planned {
    compiler: Compiler,
    pipeline: Pipeline,
    leaf: usize,
}

/// See the [module documentation](self).
pub(crate) struct PrefixTree {
    nodes: Vec<Node>,
    /// Per point, in declaration order; `None` for a point off the tree —
    /// one whose pipeline text the pass table rejects, which then fails
    /// alone as it would in any run.
    planned: Vec<Option<Planned>>,
    passes_run: AtomicUsize,
    /// Pass records of the points lowered on the tree, run or reused.
    records: AtomicUsize,
    checkpoints: AtomicUsize,
}

/// The empty checkpoint over `workload`'s front-end IR.
fn front_end(workload: &Workload) -> IrResult<Checkpoint> {
    let mut ctx = Context::new();
    let (module, func) = build_workload(&mut ctx, workload.clone())?;
    Ok(Checkpoint::new(ctx, module, func))
}

impl PrefixTree {
    /// Plans the tree of `points`, each assembled by the compiler
    /// `compiler_of` gives it (all of one verification setting: the passes
    /// of a shared prefix run under it once).
    pub(crate) fn plan(
        points: &[SweepPoint],
        compiler_of: impl Fn(&SweepPoint) -> Compiler,
    ) -> PrefixTree {
        let assembled: Vec<Option<(Compiler, Pipeline)>> = points
            .iter()
            .map(|point| {
                let compiler = compiler_of(point);
                let pipeline = compiler.assemble().ok()?;
                Some((compiler, pipeline))
            })
            .collect();

        let mut nodes: Vec<Node> = Vec::new();
        let grow = |parent: Option<usize>, depth: usize, nodes: &mut Vec<Node>| {
            nodes.push(Node {
                parent,
                depth,
                points: 0,
                checkpoint: None,
            });
            nodes.len() - 1
        };
        let mut roots: HashMap<&Workload, usize> = HashMap::new();
        let mut edges: HashMap<(usize, &PassInvocation), usize> = HashMap::new();
        let mut leaves = Vec::with_capacity(points.len());
        for (point, assembled) in points.iter().zip(&assembled) {
            leaves.push(assembled.as_ref().map(|(_, pipeline)| {
                let mut at = *roots
                    .entry(&point.workload)
                    .or_insert_with(|| grow(None, 0, &mut nodes));
                nodes[at].points += 1;
                for invocation in pipeline.invocations() {
                    let depth = nodes[at].depth + 1;
                    at = *edges
                        .entry((at, invocation))
                        .or_insert_with(|| grow(Some(at), depth, &mut nodes));
                    nodes[at].points += 1;
                }
                at
            }));
        }

        let mut widest_child = vec![0; nodes.len()];
        for node in &nodes {
            if let Some(parent) = node.parent {
                widest_child[parent] = widest_child[parent].max(node.points);
            }
        }
        for (node, widest_child) in nodes.iter_mut().zip(widest_child) {
            if node.points >= 2 && widest_child < node.points {
                node.checkpoint = Some(OnceLock::new());
            }
        }

        let planned = assembled.into_iter().zip(leaves);
        PrefixTree {
            nodes,
            planned: planned
                .map(|(assembled, leaf)| {
                    let (compiler, pipeline) = assembled?;
                    Some(Planned {
                        compiler,
                        pipeline,
                        leaf: leaf?,
                    })
                })
                .collect(),
            passes_run: AtomicUsize::new(0),
            records: AtomicUsize::new(0),
            checkpoints: AtomicUsize::new(0),
        }
    }

    /// The compiler point `index` was planned with; `None` off the tree.
    pub(crate) fn compiler(&self, index: usize) -> Option<&Compiler> {
        self.planned[index]
            .as_ref()
            .map(|planned| &planned.compiler)
    }

    /// Lowers point `index` from the deepest checkpoint on its path (from its
    /// front end when it shares nothing), with the pipeline planned for it.
    /// `None` when the point is off the tree or a checkpoint it needs could
    /// not be lowered: it then compiles share-nothing, and reports whatever
    /// that reports.
    pub(crate) fn lower(
        &self,
        index: usize,
        workload: &Workload,
    ) -> Option<Result<LoweredDesign, LowerFailure>> {
        let planned = self.planned[index].as_ref()?;
        let start = Instant::now();
        let base = match self.checkpoint_from(planned.leaf) {
            Some(node) => self.checkpoint(node, planned, workload)?.fork(),
            None => front_end(workload).ok()?,
        };
        let reused = base.passes_done();
        let lowered = resume(&planned.pipeline, base, start);
        let records = match &lowered {
            Ok(design) => design.pass_statistics.len(),
            Err(failure) => failure.pass_statistics.len(),
        };
        self.records.fetch_add(records, Ordering::Relaxed);
        self.passes_run
            .fetch_add(records - reused, Ordering::Relaxed);
        Some(lowered)
    }

    /// The nearest node at or above `node` that holds a checkpoint slot.
    fn checkpoint_from(&self, mut node: usize) -> Option<usize> {
        while self.nodes[node].checkpoint.is_none() {
            node = self.nodes[node].parent?;
        }
        Some(node)
    }

    /// The checkpoint at `node`, lowered by the first point to ask — with
    /// its own pipeline, whose passes down to here are those of every point
    /// through this node — while later ones wait for it. It starts from a
    /// fork of the nearest slot above; a thread filling a slot only ever
    /// waits for a shallower one, so there is no cycle. `None` when lowering
    /// it failed, for the first point and everyone after: a failure is never
    /// retried and never served. (A panic is neither — it unwinds into the
    /// asking point's own fault domain and leaves the slot to the next.)
    fn checkpoint(
        &self,
        node: usize,
        planned: &Planned,
        workload: &Workload,
    ) -> Option<&Checkpoint> {
        let Node {
            parent,
            depth,
            checkpoint,
            ..
        } = &self.nodes[node];
        let slot = checkpoint
            .as_ref()
            .expect("only a node with a checkpoint slot is asked for it");
        let lowered = slot.get_or_init(|| {
            let mut base = match parent.and_then(|above| self.checkpoint_from(above)) {
                Some(above) => self.checkpoint(above, planned, workload)?.fork(),
                None => front_end(workload).ok()?,
            };
            let reused = base.passes_done();
            let run = planned.pipeline.resume(&mut base, *depth);
            self.passes_run
                .fetch_add(base.passes_done() - reused, Ordering::Relaxed);
            run.ok()?;
            self.checkpoints.fetch_add(1, Ordering::Relaxed);
            Some(base)
        });
        lowered.as_ref()
    }

    /// The run's counters so far.
    pub(crate) fn stats(&self) -> PrefixStats {
        let passes_run = self.passes_run.load(Ordering::Relaxed);
        let records = self.records.load(Ordering::Relaxed);
        PrefixStats {
            passes_run,
            passes_reused: records.saturating_sub(passes_run),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
        }
    }
}
