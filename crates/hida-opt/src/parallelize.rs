//! Intensity- and connection-aware dataflow parallelization (paper §6.5).
//!
//! The parallelizer runs the four steps of the paper:
//!
//! 1. **Intensity and connection analysis** — for every pair of nodes sharing a
//!    buffer, derive the permutation and scaling maps relating their loop nests
//!    (Table 4), and record every node's computational intensity.
//! 2. **Node sorting** — nodes are parallelized in descending order of connection
//!    count, with intensity as tie-breaker.
//! 3. **Parallel factor generation** — each node's parallel budget is proportional to
//!    its intensity (intensity-aware) or equal to the maximum (otherwise).
//! 4. **Node parallelization** (Algorithm 4) — a constrained design-space exploration
//!    picks per-dimension unroll factors that respect the alignment constraints from
//!    already-parallelized neighbours and the node's parallel budget.
//!
//! Finally, array partitions are assigned to every buffer from the unroll factors and
//! access strides of the nodes touching it (Table 6).

use crate::ParallelMode;
use hida_dataflow_ir::graph::{DataflowEdge, DataflowGraph};
use hida_dataflow_ir::structural::{BufferOp, NodeOp, ScheduleOp};
use hida_dialects::analysis::{ComputeProfile, ProfileLoopDim};
use hida_dialects::hls::{self, ArrayPartition, PartitionFashion};
use hida_dialects::transforms;
use hida_ir_core::{AnalysisManager, Context, IrResult, ValueId};
use std::sync::Arc;

/// A connection between two nodes through a shared buffer, with the loop alignment
/// maps of §6.5 step (1).
#[derive(Debug, Clone, PartialEq)]
pub struct Connection {
    /// Producing node.
    pub source: NodeOp,
    /// Consuming node.
    pub target: NodeOp,
    /// The shared buffer.
    pub buffer: ValueId,
    /// For each target loop: the aligned source loop, if any (paper's S-to-T map).
    pub s_to_t_perm: Vec<Option<usize>>,
    /// For each source loop: the aligned target loop, if any (paper's T-to-S map).
    pub t_to_s_perm: Vec<Option<usize>>,
    /// For each source loop: `stride_source / stride_target` of the aligned dimension.
    pub s_to_t_scale: Vec<Option<f64>>,
    /// For each target loop: `stride_target / stride_source` of the aligned dimension.
    pub t_to_s_scale: Vec<Option<f64>>,
}

/// Per-node analysis record.
#[derive(Debug, Clone)]
pub struct NodeInfo {
    /// The node.
    pub node: NodeOp,
    /// Its position in the schedule ([`DataflowGraph::position`]): the index
    /// of its entry in every per-node table of Algorithm 4.
    pub position: usize,
    /// Its compute profile, shared with the analysis cache.
    pub profile: Arc<ComputeProfile>,
    /// Number of distinct nodes it shares buffers with.
    pub connections: usize,
}

/// The dataflow graph of `schedule` and the compute profile of every node of
/// it, by node position — each fetched through the analysis cache, once.
pub fn schedule_profiles(
    ctx: &Context,
    analyses: &mut AnalysisManager,
    schedule: ScheduleOp,
) -> (Arc<DataflowGraph>, Vec<Arc<ComputeProfile>>) {
    let graph = analyses.get::<DataflowGraph>(ctx, schedule.id());
    let profiles = graph
        .nodes()
        .iter()
        .map(|node| analyses.get::<ComputeProfile>(ctx, node.id()))
        .collect();
    (graph, profiles)
}

/// Derives the loop alignment maps of one dataflow edge from the two endpoint
/// profiles.
fn connection_for_edge(
    graph: &DataflowGraph,
    edge: &DataflowEdge,
    source_profile: &ComputeProfile,
    target_profile: &ComputeProfile,
) -> Option<Connection> {
    // The profiles record accesses against the node's block arguments.
    let source_access = graph
        .arg_for(edge.producer, edge.buffer)
        .and_then(|arg| source_profile.access_of(arg))?;
    let target_access = graph
        .arg_for(edge.consumer, edge.buffer)
        .and_then(|arg| target_profile.access_of(arg))?;
    let num_source_loops = source_profile.loop_dims.len();
    let num_target_loops = target_profile.loop_dims.len();
    let mut s_to_t_perm = vec![None; num_target_loops];
    let mut t_to_s_perm = vec![None; num_source_loops];
    let mut s_to_t_scale = vec![None; num_source_loops];
    let mut t_to_s_scale = vec![None; num_target_loops];
    for (s_dim, t_dim) in source_access
        .pattern
        .dims
        .iter()
        .zip(target_access.pattern.dims.iter())
    {
        if let (Some((s_loop, s_stride)), Some((t_loop, t_stride))) = (s_dim, t_dim) {
            if *s_loop < num_source_loops && *t_loop < num_target_loops {
                s_to_t_perm[*t_loop] = Some(*s_loop);
                t_to_s_perm[*s_loop] = Some(*t_loop);
                s_to_t_scale[*s_loop] = Some(*s_stride as f64 / *t_stride as f64);
                t_to_s_scale[*t_loop] = Some(*t_stride as f64 / *s_stride as f64);
            }
        }
    }
    Some(Connection {
        source: edge.producer,
        target: edge.consumer,
        buffer: edge.buffer,
        s_to_t_perm,
        t_to_s_perm,
        s_to_t_scale,
        t_to_s_scale,
    })
}

/// Analyzes every producer→consumer connection of a schedule, in edge order;
/// `profiles` holds the node profiles by node position.
pub fn analyze_connections(
    graph: &DataflowGraph,
    profiles: &[Arc<ComputeProfile>],
) -> Vec<Connection> {
    let profile_of = |node| &*profiles[graph.position(node).expect("an edge joins nodes")];
    graph
        .edges()
        .iter()
        .filter_map(|edge| {
            let (source, target) = (profile_of(edge.producer), profile_of(edge.consumer));
            connection_for_edge(graph, edge, source, target)
        })
        .collect()
}

/// Builds the per-node analysis records and returns them sorted in parallelization
/// order (step 2: connection count descending, intensity as tie-breaker).
pub fn analyze_nodes(graph: &DataflowGraph, profiles: &[Arc<ComputeProfile>]) -> Vec<NodeInfo> {
    let mut infos: Vec<NodeInfo> = graph
        .nodes()
        .iter()
        .zip(profiles)
        .enumerate()
        .map(|(position, (&node, profile))| NodeInfo {
            node,
            position,
            profile: Arc::clone(profile),
            connections: graph.connection_count(node),
        })
        .collect();
    // A stable sort over the deterministic program order.
    infos.sort_by(|a, b| {
        b.connections
            .cmp(&a.connections)
            .then(b.profile.intensity.cmp(&a.profile.intensity))
    });
    infos
}

/// The intensity measure used for parallel-factor budgeting: the count of the
/// dominant operation per node (MACs for compute nodes, loop iterations for pure
/// data-movement nodes), matching the per-node "Intensity" column of Table 5.
pub fn budget_intensity(profile: &ComputeProfile) -> i64 {
    profile.macs.max(profile.total_iterations()).max(1)
}

/// Step 3: parallel factor per node, in the order of `infos` — the maximum
/// scaled by the node's share of the peak intensity (rounded to a power of two)
/// when intensity-aware, the maximum for every node otherwise.
pub fn node_parallel_factors(
    infos: &[NodeInfo],
    max_parallel_factor: i64,
    intensity_aware: bool,
) -> Vec<i64> {
    let max_intensity = infos
        .iter()
        .map(|i| budget_intensity(&i.profile))
        .max()
        .unwrap_or(1);
    infos
        .iter()
        .map(|info| {
            if intensity_aware {
                let scaled = max_parallel_factor as f64 * budget_intensity(&info.profile) as f64
                    / max_intensity.max(1) as f64;
                round_pow2(scaled).clamp(1, max_parallel_factor)
            } else {
                max_parallel_factor
            }
        })
        .collect()
}

fn round_pow2(x: f64) -> i64 {
    if x <= 1.0 {
        return 1;
    }
    let lower = 1_i64 << (x.log2().floor() as u32);
    let upper = lower * 2;
    if (x - lower as f64) < (upper as f64 - x) {
        lower
    } else {
        upper
    }
}

fn next_pow2(x: i64) -> i64 {
    let mut p = 1;
    while p < x {
        p *= 2;
    }
    p
}

/// Step 4 (Algorithm 4): selects unroll factors for one node.
///
/// `constraints_list` holds one constraint vector per already-parallelized connected
/// node: for each loop dimension, the factor the neighbour's parallelization implies
/// (or `None` when the dimension is unconstrained).
///
/// Among the factor vectors whose product fits `parallel_factor` and whose every
/// factor is mutually divisible with its constraints (Algorithm 4 lines 13-18), the
/// one with the smallest `Score` wins; ties go to the lexicographically smallest
/// vector. The search is a branch-and-bound over the per-dimension candidates.
pub fn select_unroll_factors(
    profile: &ComputeProfile,
    parallel_factor: i64,
    constraints_list: &[Vec<Option<i64>>],
) -> Vec<i64> {
    let rank = profile.loop_dims.len();
    if parallel_factor < 1 {
        // Not even the all-ones vector fits the budget.
        return vec![1; rank];
    }
    let candidates: Vec<Vec<Candidate>> = profile
        .loop_dims
        .iter()
        .enumerate()
        .map(|(dim, loop_dim)| {
            dimension_candidates(dim, loop_dim, parallel_factor, constraints_list)
        })
        .collect();
    let mut search = Search {
        candidates: &candidates,
        budget: parallel_factor,
        current: vec![1; rank],
        best: None,
        best_factors: vec![1; rank],
    };
    search.descend(
        0,
        1,
        Score {
            latency: 1.0,
            mismatches: 0.0,
            max_factor: 1.0,
            inner_preference: 0.0,
        },
    );
    search.best_factors
}

/// One unroll factor a loop dimension may take, with that dimension's term of
/// every [`Score`] field precomputed.
struct Candidate {
    factor: i64,
    /// `ceil(trip / factor)`: the dimension's term of the latency product.
    iterations: f64,
    /// Constraint vectors imposing a different factor on this dimension.
    mismatches: f64,
    /// `-(dim + 1) * log2(factor)`: prefers large factors on inner dimensions.
    inner_preference: f64,
}

/// Candidate factors of one dimension in ascending order: the powers of two up
/// to min(trip, budget) that are mutually divisible with every constraint on
/// the dimension; reduction dimensions are not unrolled. Factor 1 divides
/// everything, so the list is never empty.
fn dimension_candidates(
    dim: usize,
    loop_dim: &ProfileLoopDim,
    parallel_factor: i64,
    constraints_list: &[Vec<Option<i64>>],
) -> Vec<Candidate> {
    let trip = loop_dim.trip.max(1);
    let cap = if loop_dim.reduction {
        1
    } else {
        next_pow2(trip).min(next_pow2(parallel_factor))
    };
    let imposed = || {
        constraints_list
            .iter()
            .filter_map(move |constraints| constraints.get(dim).copied().flatten())
    };
    let mut options = Vec::new();
    let mut factor = 1;
    while factor <= cap {
        let divisible = imposed().all(|c| {
            let c = c.max(1);
            c % factor == 0 || factor % c == 0
        });
        if divisible {
            options.push(Candidate {
                factor,
                iterations: ((trip + factor - 1) / factor) as f64,
                mismatches: imposed().filter(|&c| c != factor).count() as f64,
                inner_preference: -((dim + 1) as f64) * (factor as f64).log2(),
            });
        }
        factor *= 2;
    }
    options
}

/// The depth-first search state of [`select_unroll_factors`].
struct Search<'a> {
    candidates: &'a [Vec<Candidate>],
    budget: i64,
    current: Vec<i64>,
    best: Option<Score>,
    best_factors: Vec<i64>,
}

impl Search<'_> {
    /// Fixes dimension `dim` and everything after it. `product` and `partial`
    /// are the parallelism and the score of the dimensions fixed so far; every
    /// score field accumulates in dimension order.
    fn descend(&mut self, dim: usize, product: i64, partial: Score) {
        if dim == self.candidates.len() {
            let better = match &self.best {
                None => true,
                Some(best) => {
                    partial < *best || (partial == *best && self.current < self.best_factors)
                }
            };
            if better {
                self.best = Some(partial);
                self.best_factors.copy_from_slice(&self.current);
            }
            return;
        }
        // Largest factor first: the first leaf already spends the whole budget.
        let candidates = self.candidates;
        for candidate in candidates[dim].iter().rev() {
            let product = product * candidate.factor;
            if product > self.budget {
                continue;
            }
            let score = Score {
                latency: partial.latency * candidate.iterations,
                mismatches: partial.mismatches + candidate.mismatches,
                max_factor: partial.max_factor.max(candidate.factor as f64),
                inner_preference: partial.inner_preference + candidate.inner_preference,
            };
            let incumbent = self.best.map_or(f64::INFINITY, |best| best.latency);
            if self.latency_bound(dim + 1, self.budget / product, score.latency) > incumbent {
                continue;
            }
            self.current[dim] = candidate.factor;
            self.descend(dim + 1, product, score);
        }
    }

    /// A lower bound on the latency of every leaf below a node whose fixed
    /// dimensions multiply to `latency`: each dimension from `dim` on takes the
    /// largest factor the remaining budget `room` admits on its own (a
    /// dimension nothing fits has no leaf at all). Folded in dimension order
    /// like the leaf's product, and `f64` multiplication is monotonic, so no
    /// leaf below can compute a smaller value.
    fn latency_bound(&self, dim: usize, room: i64, latency: f64) -> f64 {
        self.candidates[dim..]
            .iter()
            .fold(latency, |bound, options| {
                let reachable = options.iter().rev().find(|c| c.factor <= room);
                bound * reachable.map_or(f64::INFINITY, |c| c.iterations)
            })
    }
}

/// Ordering key: lower is better.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
struct Score {
    /// Estimated iteration latency (total iterations / parallelism).
    latency: f64,
    /// Number of dimensions whose factor differs from an imposed constraint.
    mismatches: f64,
    /// Largest single-dimension factor (prefer balanced unrolling).
    max_factor: f64,
    /// Negative weight on later dimensions (prefer unrolling inner dimensions).
    inner_preference: f64,
}

/// Runs the full parallelization (steps 1-4 plus array partitioning) over a schedule.
///
/// # Errors
/// Propagates unroll application failures.
pub fn parallelize_schedule(
    ctx: &mut Context,
    analyses: &mut AnalysisManager,
    schedule: ScheduleOp,
    max_parallel_factor: i64,
    mode: ParallelMode,
) -> IrResult<()> {
    let (graph, profiles) = schedule_profiles(ctx, analyses, schedule);
    let connections = analyze_connections(&graph, &profiles);
    let incident = IncidentConnections::group(&graph, &connections);
    let infos = analyze_nodes(&graph, &profiles);
    let budgets = node_parallel_factors(&infos, max_parallel_factor, mode.intensity_aware());

    // The unroll factors chosen so far, by node position.
    let mut chosen: Vec<Option<Vec<i64>>> = vec![None; profiles.len()];
    for (info, &budget) in infos.iter().zip(&budgets) {
        let constraints_list = if mode.connection_aware() {
            constraints_for(
                info,
                incident.of(info.position).map(|at| &connections[at]),
                &graph,
                &chosen,
            )
        } else {
            Vec::new()
        };
        let factors = if mode == ParallelMode::Naive {
            naive_factors(&info.profile, max_parallel_factor)
        } else {
            select_unroll_factors(&info.profile, budget, &constraints_list)
        };
        transforms::apply_unroll_factors(ctx, info.node.id(), &factors)?;
        ctx.set_attr(info.node.id(), "parallel_factor", budget);
        ctx.set_attr(info.node.id(), "intensity", info.profile.intensity);
        ctx.set_attr(info.node.id(), "connections", info.connections as i64);
        chosen[info.position] = Some(factors);
    }

    assign_array_partitions(ctx, schedule, &graph, &profiles, &chosen);
    Ok(())
}

/// The naive strategy of the Figure 11 ablation: apply the maximum parallel factor to
/// every node, spreading it evenly over the non-reduction dimensions without any
/// awareness of constraints or budgets.
pub fn naive_factors(profile: &ComputeProfile, max_parallel_factor: i64) -> Vec<i64> {
    select_unroll_factors(profile, max_parallel_factor, &[])
}

/// For every node, by position, the indices of the connections it is an
/// endpoint of, ascending — grouped once, so Algorithm 4 reads a node's
/// connections instead of scanning all of them for every node.
struct IncidentConnections {
    /// `connections[starts[p]..starts[p + 1]]` belong to the node at `p`.
    starts: Vec<u32>,
    connections: Vec<u32>,
}

impl IncidentConnections {
    fn group(graph: &DataflowGraph, connections: &[Connection]) -> Self {
        let position = |node| graph.position(node).expect("a connection joins nodes");
        let ends = |c: &Connection| [c.source, c.target].map(position);
        let mut starts = vec![0_u32; graph.nodes().len() + 1];
        for connection in connections {
            for end in ends(connection) {
                starts[end + 1] += 1;
            }
        }
        for position in 0..graph.nodes().len() {
            starts[position + 1] += starts[position];
        }
        let mut grouped = vec![0_u32; 2 * connections.len()];
        let mut next = starts.clone();
        for (index, connection) in connections.iter().enumerate() {
            for end in ends(connection) {
                grouped[next[end] as usize] = index as u32;
                next[end] += 1;
            }
        }
        IncidentConnections {
            starts,
            connections: grouped,
        }
    }

    fn of(&self, position: usize) -> impl Iterator<Item = usize> + '_ {
        let group = self.starts[position] as usize..self.starts[position + 1] as usize;
        self.connections[group].iter().map(|&at| at as usize)
    }
}

/// Builds the constraint vectors for `info` from its connections to nodes that were
/// already parallelized (Algorithm 4 lines 2-8).
fn constraints_for<'a>(
    info: &NodeInfo,
    connections: impl Iterator<Item = &'a Connection>,
    graph: &DataflowGraph,
    chosen: &[Option<Vec<i64>>],
) -> Vec<Vec<Option<i64>>> {
    let (node, rank) = (info.node, info.profile.loop_dims.len());
    let chosen_of = |peer| graph.position(peer).and_then(|at| chosen[at].as_ref());
    let mut list = Vec::new();
    for connection in connections {
        // Peer already parallelized, `node` is the other endpoint.
        if connection.target == node {
            if let Some(peer_factors) = chosen_of(connection.source) {
                let mut constraints = vec![None; rank];
                for (source_loop, &target_loop) in connection.t_to_s_perm.iter().enumerate() {
                    if let (Some(target_loop), Some(scale)) =
                        (target_loop, connection.s_to_t_scale[source_loop])
                    {
                        if target_loop < rank && source_loop < peer_factors.len() {
                            let value = (peer_factors[source_loop] as f64 * scale).round() as i64;
                            constraints[target_loop] = Some(value.max(1));
                        }
                    }
                }
                list.push(constraints);
            }
        } else if connection.source == node {
            if let Some(peer_factors) = chosen_of(connection.target) {
                let mut constraints = vec![None; rank];
                for (target_loop, &source_loop) in connection.s_to_t_perm.iter().enumerate() {
                    if let (Some(source_loop), Some(scale)) =
                        (source_loop, connection.t_to_s_scale[target_loop])
                    {
                        if source_loop < rank && target_loop < peer_factors.len() {
                            let value = (peer_factors[target_loop] as f64 * scale).round() as i64;
                            constraints[source_loop] = Some(value.max(1));
                        }
                    }
                }
                list.push(constraints);
            }
        }
    }
    list
}

/// Assigns array partitions to every internal buffer of the schedule from the chosen
/// unroll factors and the access strides of the nodes touching it. `profiles` and
/// `chosen` go by node position in `graph`; a node without an entry in `chosen`
/// asks nothing of its buffers.
pub fn assign_array_partitions(
    ctx: &mut Context,
    schedule: ScheduleOp,
    graph: &DataflowGraph,
    profiles: &[Arc<ComputeProfile>],
    chosen: &[Option<Vec<i64>>],
) {
    /// The dimensions of one partitionable buffer in the flat arrays below.
    struct Run {
        buffer: BufferOp,
        start: usize,
        rank: usize,
    }
    const NO_RUN: u32 = u32::MAX;
    // What the nodes touching a buffer require of each of its dimensions, all
    // buffers back to back in `internal_buffers` order: the factor, and
    // `Cyclic` until a strided access makes the dimension `Block`.
    let buffers = schedule.internal_buffers(ctx);
    let mut runs: Vec<Run> = Vec::with_capacity(buffers.len());
    // Room for four dimensions a buffer: feature maps have three, weights four.
    let mut factors: Vec<i64> = Vec::with_capacity(4 * buffers.len());
    let mut run_of_slot = vec![NO_RUN; graph.buffers().len()];
    for buffer in buffers {
        let value = buffer.value(ctx);
        let rank = ctx.value_type(value).shape().map_or(0, <[i64]>::len);
        if rank == 0 {
            continue;
        }
        if let Some(slot) = graph.buffer_slot(value) {
            run_of_slot[slot] = runs.len() as u32;
        }
        runs.push(Run {
            buffer,
            start: factors.len(),
            rank,
        });
        factors.resize(factors.len() + rank, 1);
    }
    let mut fashions = vec![PartitionFashion::Cyclic; factors.len()];

    // One pass over the nodes; `max` and `or` commute, so folding node by
    // node equals folding buffer by buffer.
    for (position, &node) in graph.nodes().iter().enumerate() {
        let Some(unroll) = chosen.get(position).and_then(Option::as_ref) else {
            continue;
        };
        for port in graph.ports(node) {
            let run = match run_of_slot[port.slot] {
                NO_RUN => continue,
                run => &runs[run as usize],
            };
            let Some(access) = port.arg.and_then(|arg| profiles[position].access_of(arg)) else {
                continue;
            };
            for (dim, pattern) in access.pattern.dims.iter().enumerate() {
                if let Some((loop_idx, stride)) = pattern {
                    let u = unroll.get(*loop_idx).copied().unwrap_or(1).max(1);
                    let requirement = next_pow2(u * stride.abs().max(1));
                    if dim < run.rank {
                        let dim = run.start + dim;
                        factors[dim] = factors[dim].max(requirement);
                        if stride.abs() > 1 {
                            fashions[dim] = PartitionFashion::Block;
                        }
                    }
                }
            }
        }
    }

    let mut writer = hls::PartitionWriter::default();
    for run in &runs {
        let dims = run.start..run.start + run.rank;
        // An unpartitioned dimension has no fashion; the factor is clamped
        // to the dimension size only after the fashion is settled.
        let shape = ctx.value_type(run.buffer.value(ctx)).shape();
        for (dim, &size) in dims.clone().zip(shape.unwrap_or_default()) {
            if factors[dim] <= 1 {
                fashions[dim] = PartitionFashion::None;
            }
            factors[dim] = factors[dim].clamp(1, size.max(1));
        }
        writer.write(
            ctx,
            run.buffer.id(),
            &fashions[dims.clone()],
            &factors[dims],
        );
    }
}

/// Returns the partition assigned to a buffer (test/report helper).
pub fn partition_of(ctx: &Context, buffer: BufferOp) -> ArrayPartition {
    buffer.partition(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::construct_functional_dataflow;
    use crate::lower::lower_to_structural;
    use hida_frontend::listing1::build_listing1;

    /// Lowers Listing 1 to a structural schedule and returns its pieces.
    fn listing1_schedule() -> (Context, ScheduleOp, AnalysisManager) {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let l1 = build_listing1(&mut ctx, module);
        construct_functional_dataflow(&mut ctx, l1.func).unwrap();
        let mut analyses = AnalysisManager::new();
        let schedule = lower_to_structural(&mut ctx, &mut analyses, l1.func).unwrap();
        hida_ir_core::verifier::verify(&ctx, module).unwrap();
        (ctx, schedule, analyses)
    }

    fn node_by_name(ctx: &Context, schedule: ScheduleOp, name_part: &str) -> NodeOp {
        schedule
            .nodes(ctx)
            .into_iter()
            .find(|n| n.name(ctx).contains(name_part))
            .unwrap_or_else(|| panic!("no node containing '{name_part}'"))
    }

    #[test]
    fn connections_reproduce_table4_maps() {
        let (ctx, schedule, mut analyses) = listing1_schedule();
        let (graph, profiles) = schedule_profiles(&ctx, &mut analyses, schedule);
        let connections = analyze_connections(&graph, &profiles);
        assert_eq!(connections.len(), 2, "A and B each connect two nodes");

        // The Node0 -> Node2 connection through array A.
        let node2 = node_by_name(&ctx, schedule, "task2");
        let a_conn = connections
            .iter()
            .find(|c| {
                c.target == node2
                    && c.s_to_t_perm.iter().filter(|p| p.is_some()).count() == 2
                    && c.s_to_t_scale.contains(&Some(0.5))
            })
            .expect("connection through A");
        // Permutation maps of Table 4.
        assert_eq!(a_conn.s_to_t_perm, vec![Some(0), None, Some(1)]);
        assert_eq!(a_conn.t_to_s_perm, vec![Some(0), Some(2)]);
        assert_eq!(a_conn.s_to_t_scale, vec![Some(0.5), Some(1.0)]);
        assert_eq!(a_conn.t_to_s_scale, vec![Some(2.0), None, Some(1.0)]);

        // The Node1 -> Node2 connection through array B.
        let b_conn = connections.iter().find(|c| *c != a_conn).unwrap();
        assert_eq!(b_conn.s_to_t_perm, vec![None, Some(1), Some(0)]);
        assert_eq!(b_conn.t_to_s_perm, vec![Some(2), Some(1)]);
        assert_eq!(b_conn.s_to_t_scale, vec![Some(1.0), Some(1.0)]);
        assert_eq!(b_conn.t_to_s_scale, vec![None, Some(1.0), Some(1.0)]);
    }

    #[test]
    fn node_ordering_and_parallel_factors_match_table5() {
        let (ctx, schedule, mut analyses) = listing1_schedule();
        let (graph, profiles) = schedule_profiles(&ctx, &mut analyses, schedule);
        let infos = analyze_nodes(&graph, &profiles);
        // Node2 (two connections, highest intensity) is parallelized first.
        assert!(infos[0].node.name(&ctx).contains("task2"));
        assert_eq!(infos[0].connections, 2);
        assert_eq!(graph.nodes()[infos[0].position], infos[0].node);

        // Intensity-aware parallel factors with a maximum of 32 (Table 5):
        // Node2 -> 32, Node0 -> 4, Node1 -> 2.
        let budgets = node_parallel_factors(&infos, 32, true);
        let budget_of = |name_part: &str| {
            let node = node_by_name(&ctx, schedule, name_part);
            budgets[infos.iter().position(|info| info.node == node).unwrap()]
        };
        assert_eq!(budget_of("task2"), 32);
        assert!(budget_of("task0") <= 8 && budget_of("task0") >= 2);
        assert!(budget_of("task1") <= budget_of("task0"));
        // Without intensity awareness every node receives the maximum.
        let uniform = node_parallel_factors(&infos, 32, false);
        assert!(uniform.iter().all(|&f| f == 32));
    }

    #[test]
    fn ia_ca_unroll_factors_align_with_connections() {
        let (mut ctx, schedule, mut analyses) = listing1_schedule();
        parallelize_schedule(&mut ctx, &mut analyses, schedule, 32, ParallelMode::IaCa).unwrap();
        let node0 = node_by_name(&ctx, schedule, "task0");
        let node2 = node_by_name(&ctx, schedule, "task2");
        let f0 = transforms::unroll_factors_of(&ctx, node0.id(), 2);
        let f2 = transforms::unroll_factors_of(&ctx, node2.id(), 3);
        // Node2 gets the full budget of 32 spread over its non-reduction dims; the k
        // dimension (reduction) stays 1.
        assert_eq!(f2.iter().product::<i64>(), 32);
        assert_eq!(f2[2], 1);
        // Node0's budget is ~4 and its factors respect the A-array alignment:
        // its i factor must be mutually divisible with 2x Node2's i factor.
        assert!(f0.iter().product::<i64>() <= 8);
        let constraint = 2 * f2[0];
        assert!(constraint % f0[0] == 0 || f0[0] % constraint == 0);
    }

    #[test]
    fn array_partitions_shrink_with_ia_ca_as_in_table6() {
        let total_banks = |mode: ParallelMode| -> i64 {
            let (mut ctx, schedule, mut analyses) = listing1_schedule();
            parallelize_schedule(&mut ctx, &mut analyses, schedule, 32, mode).unwrap();
            schedule
                .internal_buffers(&ctx)
                .iter()
                .map(|b| b.partition(&ctx).bank_count())
                .sum()
        };
        let ia_ca = total_banks(ParallelMode::IaCa);
        let ia = total_banks(ParallelMode::IaOnly);
        let ca = total_banks(ParallelMode::CaOnly);
        let naive = total_banks(ParallelMode::Naive);
        // Table 6 trend: IA+CA uses the fewest banks, Naive the most.
        assert!(ia_ca <= ia, "IA+CA ({ia_ca}) must not exceed IA ({ia})");
        assert!(ia_ca <= ca, "IA+CA ({ia_ca}) must not exceed CA ({ca})");
        assert!(ia_ca < naive, "IA+CA ({ia_ca}) must beat Naive ({naive})");
        assert!(naive >= ca.max(ia));
    }

    #[test]
    fn select_unroll_factors_respects_constraints_and_budget() {
        use hida_dialects::analysis::ProfileLoopDim;
        let profile = ComputeProfile {
            loop_dims: vec![
                ProfileLoopDim {
                    name: "i".into(),
                    trip: 32,
                    reduction: false,
                },
                ProfileLoopDim {
                    name: "k".into(),
                    trip: 16,
                    reduction: false,
                },
            ],
            ..ComputeProfile::default()
        };
        // Without constraints and a budget of 4 the factors are balanced.
        let balanced = select_unroll_factors(&profile, 4, &[]);
        assert_eq!(balanced.iter().product::<i64>(), 4);
        assert_eq!(balanced, vec![2, 2]);
        // With an [8, 1] constraint (the Table 5 situation) the i dimension absorbs
        // the whole budget.
        let constrained = select_unroll_factors(&profile, 4, &[vec![Some(8), Some(1)]]);
        assert_eq!(constrained, vec![4, 1]);
        // Reduction dimensions are never unrolled.
        let with_reduction = ComputeProfile {
            loop_dims: vec![
                ProfileLoopDim {
                    name: "i".into(),
                    trip: 16,
                    reduction: false,
                },
                ProfileLoopDim {
                    name: "k".into(),
                    trip: 16,
                    reduction: true,
                },
            ],
            ..ComputeProfile::default()
        };
        let factors = select_unroll_factors(&with_reduction, 8, &[]);
        assert_eq!(factors[1], 1);
        assert_eq!(factors[0], 8);
    }

    /// The exhaustive search `select_unroll_factors` replaced, kept verbatim as
    /// the oracle of the differential test below.
    mod reference {
        use super::super::{next_pow2, Score};
        use hida_dialects::analysis::ComputeProfile;

        pub fn select_unroll_factors(
            profile: &ComputeProfile,
            parallel_factor: i64,
            constraints_list: &[Vec<Option<i64>>],
        ) -> Vec<i64> {
            let rank = profile.loop_dims.len();
            if rank == 0 {
                return Vec::new();
            }
            // Candidate factors per dimension: powers of two up to min(trip, budget);
            // reduction dimensions are not unrolled.
            let mut candidates: Vec<Vec<i64>> = Vec::with_capacity(rank);
            for dim in &profile.loop_dims {
                if dim.reduction {
                    candidates.push(vec![1]);
                    continue;
                }
                let cap = next_pow2(dim.trip.max(1)).min(next_pow2(parallel_factor));
                let mut options = Vec::new();
                let mut f = 1;
                while f <= cap {
                    options.push(f);
                    f *= 2;
                }
                candidates.push(options);
            }

            // Exhaustive enumeration with product pruning (the DSE loop of Algorithm 4).
            let mut best: Option<(Score, Vec<i64>)> = None;
            let mut current = vec![1_i64; rank];
            enumerate(
                &candidates,
                0,
                1,
                parallel_factor,
                &mut current,
                &mut |factors| {
                    if !is_valid(factors, parallel_factor, constraints_list) {
                        return;
                    }
                    let score = score_factors(profile, factors, constraints_list);
                    if best.as_ref().map(|(b, _)| score < *b).unwrap_or(true) {
                        best = Some((score, factors.to_vec()));
                    }
                },
            );
            best.map(|(_, f)| f).unwrap_or_else(|| vec![1; rank])
        }

        fn enumerate(
            candidates: &[Vec<i64>],
            dim: usize,
            product: i64,
            cap: i64,
            current: &mut Vec<i64>,
            visit: &mut dyn FnMut(&[i64]),
        ) {
            if dim == candidates.len() {
                visit(current);
                return;
            }
            for &f in &candidates[dim] {
                if product * f > cap {
                    break;
                }
                current[dim] = f;
                enumerate(candidates, dim + 1, product * f, cap, current, visit);
            }
            current[dim] = 1;
        }

        /// Validity per Algorithm 4 lines 13-18: every factor must be mutually divisible
        /// with its constraint, and the total parallelism must not exceed the parallel
        /// factor.
        fn is_valid(
            factors: &[i64],
            parallel_factor: i64,
            constraints_list: &[Vec<Option<i64>>],
        ) -> bool {
            let product: i64 = factors.iter().product();
            if product > parallel_factor {
                return false;
            }
            for constraints in constraints_list {
                for (&factor, constraint) in factors.iter().zip(constraints) {
                    if let Some(c) = constraint {
                        let c = (*c).max(1);
                        if c % factor != 0 && factor % c != 0 {
                            return false;
                        }
                    }
                }
            }
            true
        }

        fn score_factors(
            profile: &ComputeProfile,
            factors: &[i64],
            constraints_list: &[Vec<Option<i64>>],
        ) -> Score {
            let total_iterations: f64 = profile
                .loop_dims
                .iter()
                .zip(factors)
                .map(|(d, &f)| ((d.trip.max(1) + f - 1) / f) as f64)
                .product();
            let mut mismatches = 0.0;
            for constraints in constraints_list {
                for (&factor, constraint) in factors.iter().zip(constraints) {
                    if let Some(c) = constraint {
                        if *c != factor {
                            mismatches += 1.0;
                        }
                    }
                }
            }
            let max_factor = factors.iter().copied().max().unwrap_or(1) as f64;
            // Prefer placing larger factors on later (inner) dimensions.
            let inner_preference: f64 = factors
                .iter()
                .enumerate()
                .map(|(i, &f)| -((i + 1) as f64) * (f as f64).log2())
                .sum();
            Score {
                latency: total_iterations,
                mismatches,
                max_factor,
                inner_preference,
            }
        }
    }

    #[test]
    fn branch_and_bound_agrees_with_the_exhaustive_search() {
        use hida_dialects::analysis::ProfileLoopDim;
        const TRIPS: [i64; 14] = [1, 2, 3, 5, 7, 8, 12, 16, 28, 56, 64, 100, 224, 1000];
        const BUDGETS: [i64; 12] = [1, 2, 3, 4, 6, 8, 16, 32, 48, 64, 128, 256];
        const POWERS: [i64; 7] = [1, 2, 4, 8, 16, 32, 64];
        // Fixed seed: every run checks the same cases.
        let mut rng = proptest::TestRng::default_rng();
        let pick = |rng: &mut proptest::TestRng, options: &[i64]| {
            options[rng.below(options.len() as u64) as usize]
        };
        for case in 0..100_000 {
            let rank = 1 + rng.below(7) as usize;
            let profile = ComputeProfile {
                loop_dims: (0..rank)
                    .map(|d| ProfileLoopDim {
                        name: format!("d{d}"),
                        trip: pick(&mut rng, &TRIPS),
                        reduction: rng.below(3) == 0,
                    })
                    .collect(),
                ..ComputeProfile::default()
            };
            let budget = pick(&mut rng, &BUDGETS);
            let constraints_list: Vec<Vec<Option<i64>>> = (0..rng.below(4))
                .map(|_| {
                    (0..rank)
                        .map(|_| match rng.below(3) {
                            0 => None,
                            1 => Some(pick(&mut rng, &POWERS)),
                            _ => Some(1 + rng.below(40) as i64),
                        })
                        .collect()
                })
                .collect();
            assert_eq!(
                select_unroll_factors(&profile, budget, &constraints_list),
                reference::select_unroll_factors(&profile, budget, &constraints_list),
                "case {case}: trips {:?}, budget {budget}, constraints {constraints_list:?}",
                profile
                    .loop_dims
                    .iter()
                    .map(|d| (d.trip, d.reduction))
                    .collect::<Vec<_>>(),
            );
        }
    }

    /// A schedule exercising the corners of `assign_array_partitions`:
    /// `A` is passed to `n0` as two operands, `S` has rank 0, `n1` is absent
    /// from `chosen`, and `n2` reads `B` at stride 2.
    #[test]
    fn array_partition_corner_cases() {
        use hida_dataflow_ir::structural::{build_buffer, build_node, build_schedule};
        use hida_dialects::analysis::MemEffect;
        use hida_dialects::loops::build_loop_nest;
        use hida_dialects::memory::{build_apply, build_load, build_store};
        use hida_ir_core::{OpBuilder, Type};

        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let (schedule, body) = build_schedule(&mut OpBuilder::at_end_of(&mut ctx, func), "top");
        let buffer = |ctx: &mut Context, shape: Vec<i64>, name: &str| {
            let mut b = OpBuilder::at_block_end(ctx, body);
            build_buffer(&mut b, Type::memref(shape, Type::f32()), 2, name)
        };
        let (a_buf, a) = buffer(&mut ctx, vec![64, 16], "A");
        let (s_buf, s) = buffer(&mut ctx, vec![], "S");
        let (b_buf, b) = buffer(&mut ctx, vec![16, 16], "B");
        // A node over `operands` whose body is an empty 16x16 (i, j) loop nest.
        let node = |ctx: &mut Context, name: &str, operands: &[(ValueId, MemEffect)]| {
            let (node, args) = build_node(ctx, body, name, operands);
            let node_body = node.body(ctx);
            let (_, ivs, inner) = build_loop_nest(ctx, node_body, &[(0, 16, "i"), (0, 16, "j")]);
            (node, args, ivs, inner)
        };

        // n0: A[4i][j] = A[2i][j], reading through operand 0 and writing through
        // operand 1 — only the first operand's access may count.
        let (n0, args, ivs, inner) = node(
            &mut ctx,
            "n0",
            &[(a, MemEffect::Read), (a, MemEffect::Write)],
        );
        let mut bld = OpBuilder::at_block_end(&mut ctx, inner);
        let i2 = build_apply(&mut bld, ivs[0], 2, 0);
        let i4 = build_apply(&mut bld, ivs[0], 4, 0);
        let value = build_load(&mut bld, args[0], &[i2, ivs[1]]);
        build_store(&mut bld, value, args[1], &[i4, ivs[1]]);

        // n1: B[i][j] = A[i][j]; S[] = A[i][j] — not in `chosen`.
        let (n1, args, ivs, inner) = node(
            &mut ctx,
            "n1",
            &[
                (a, MemEffect::Read),
                (b, MemEffect::Write),
                (s, MemEffect::Write),
            ],
        );
        let mut bld = OpBuilder::at_block_end(&mut ctx, inner);
        let value = build_load(&mut bld, args[0], &[ivs[0], ivs[1]]);
        build_store(&mut bld, value, args[1], &[ivs[0], ivs[1]]);
        build_store(&mut bld, value, args[2], &[]);

        // n2: S[] = B[i][2j].
        let (n2, args, ivs, inner) = node(
            &mut ctx,
            "n2",
            &[(b, MemEffect::Read), (s, MemEffect::Write)],
        );
        let mut bld = OpBuilder::at_block_end(&mut ctx, inner);
        let j2 = build_apply(&mut bld, ivs[1], 2, 0);
        let value = build_load(&mut bld, args[0], &[ivs[0], j2]);
        build_store(&mut bld, value, args[1], &[]);

        let (graph, profiles) = schedule_profiles(&ctx, &mut AnalysisManager::new(), schedule);
        assert_eq!(graph.nodes(), [n0, n1, n2]);
        let chosen = [Some(vec![2, 4]), None, Some(vec![1, 8])];
        assign_array_partitions(&mut ctx, schedule, &graph, &profiles, &chosen);

        use PartitionFashion::{Block, Cyclic, None as Unpartitioned};
        // First-operand rule: 2 (unroll) x 2 (stride) on dim 0, not 2 x 4.
        assert_eq!(
            partition_of(&ctx, a_buf),
            ArrayPartition {
                fashions: vec![Block, Cyclic],
                factors: vec![4, 4],
            }
        );
        // Only n2 counts for B: stride 2 makes dim 1 a block partition of
        // 8 x 2 banks; n1's unit-stride write is skipped with n1.
        assert_eq!(
            partition_of(&ctx, b_buf),
            ArrayPartition {
                fashions: vec![Unpartitioned, Block],
                factors: vec![1, 16],
            }
        );
        // Rank-0 buffers are never given a directive.
        assert!(!ctx
            .op(s_buf.id())
            .attributes
            .contains_key(hida_dialects::hls::ATTR_PARTITION_FASHIONS));
    }

    #[test]
    fn round_pow2_behaviour() {
        assert_eq!(round_pow2(0.5), 1);
        assert_eq!(round_pow2(3.0), 4);
        assert_eq!(round_pow2(4.0), 4);
        assert_eq!(round_pow2(5.9), 4);
        assert_eq!(round_pow2(6.1), 8);
        assert_eq!(next_pow2(17), 32);
        assert_eq!(next_pow2(1), 1);
    }
}
