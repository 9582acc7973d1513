//! Dataflow graph view over a structural schedule.
//!
//! Multi-producer elimination (Algorithm 3) and data-path balancing (§6.4.2) reason
//! about the producer/consumer relationships induced by shared buffers: which node
//! writes a buffer, which nodes read it, how long each data path is, and where paths
//! of different lengths reconverge. [`DataflowGraph`] materialises that view from a
//! [`ScheduleOp`] so the optimizations stay simple graph algorithms.

use crate::op_names;
use crate::structural::{effect_from_str, NodeOp, ScheduleOp};
use hida_dialects::analysis::MemEffect;
use hida_ir_core::{Attribute, Context, ValueId};

/// A producer→consumer edge through a shared buffer or stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataflowEdge {
    /// Writing node.
    pub producer: NodeOp,
    /// Reading node.
    pub consumer: NodeOp,
    /// The buffer/stream value connecting them.
    pub buffer: ValueId,
}

/// One distinct buffer a node takes: the node reaches the buffer through the
/// body argument of the *first* operand position holding it, and that
/// position's entry of the `effects` attribute is its effect on the buffer
/// (a buffer passed twice counts once).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodePort {
    /// Index of the buffer in [`DataflowGraph::buffers`].
    pub slot: usize,
    /// The body block argument standing for the buffer inside the node;
    /// `None` when the body has fewer arguments than the node has operands.
    pub arg: Option<ValueId>,
}

/// Where one node's entries sit in the flat arrays of a [`DataflowGraph`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct NodeEntry {
    /// `peers[preds..preds + pred_count]`: distinct predecessors.
    preds: u32,
    pred_count: u32,
    /// Number of distinct successors: the nodes whose predecessors list
    /// this one.
    succ_count: u32,
    /// `ports[ports..ports + port_count]`.
    ports: u32,
    port_count: u32,
    /// Longest path from any source, in edges.
    depth: u32,
}

/// Marks an op that is not a node of the graph in `DataflowGraph::position`.
const ABSENT: u32 = u32::MAX;

/// A dataflow graph derived from a schedule: its nodes and edges, plus a
/// dense index over them built in the same walk — every query below is an
/// indexed load or a slice, none allocates, none hashes an id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataflowGraph {
    /// All nodes in program order.
    nodes: Vec<NodeOp>,
    /// All producer→consumer edges: buffer-major in first-use order, then by
    /// producer, then by consumer, both in program order.
    edges: Vec<DataflowEdge>,
    /// Every distinct operand of the nodes, in first-use order.
    buffers: Vec<ValueId>,
    /// Value index → index in `buffers`; [`ABSENT`] for every other value.
    slot_of: Vec<u32>,
    /// Op index → position in `nodes`; [`ABSENT`] for every other op.
    position: Vec<u32>,
    /// One entry per node, by position.
    entries: Vec<NodeEntry>,
    /// The predecessor lists of all nodes, back to back.
    peers: Vec<NodeOp>,
    /// The ports of all nodes, back to back, each node's in operand order.
    ports: Vec<NodePort>,
}

/// [`DataflowGraph`] is a cacheable [`Analysis`](hida_ir_core::analysis::Analysis)
/// keyed at the schedule op, so multi-pass flows (balancing, parallelization,
/// estimation) rebuild it only when the schedule actually changed.
impl hida_ir_core::analysis::Analysis for DataflowGraph {
    const NAME: &'static str = "dataflow-graph";

    fn compute(ctx: &Context, root: hida_ir_core::OpId) -> Self {
        DataflowGraph::from_schedule(ctx, ScheduleOp(root))
    }
}

impl DataflowGraph {
    /// Builds the dataflow graph of `schedule`: a pass over its body to size
    /// the arrays, then one walk that reads each node's operands, `effects`
    /// and body arguments once.
    ///
    /// An edge `(p, c, b)` is created when node `p` writes buffer `b`, node `c` reads
    /// it, and `p` appears before `c` in program order (the dataflow direction).
    pub fn from_schedule(ctx: &Context, schedule: ScheduleOp) -> Self {
        /// A port while the graph is built: who touches which buffer, how.
        #[derive(Clone, Copy, Default)]
        struct Access {
            node: u32,
            reads: bool,
            writes: bool,
        }

        // Sizes first, so every array below is allocated once.
        let body = entry_block(ctx, schedule.id()).map_or(&[][..], |block| &block.ops);
        let is_node = |&&op: &&hida_ir_core::OpId| ctx.op(op).is(op_names::NODE);
        let (mut node_count, mut operand_count, mut op_indices) = (0, 0, 0);
        for &op in body.iter().filter(is_node) {
            node_count += 1;
            operand_count += ctx.op(op).operands.len();
            op_indices = op_indices.max(op.index() + 1);
        }
        let mut graph = DataflowGraph {
            nodes: Vec::with_capacity(node_count),
            edges: Vec::new(),
            buffers: Vec::with_capacity(operand_count),
            slot_of: vec![ABSENT; ctx.arena_sizes().3],
            position: vec![ABSENT; op_indices],
            entries: Vec::with_capacity(node_count),
            peers: Vec::new(),
            ports: Vec::with_capacity(operand_count),
        };
        // Scratch: per port (in `graph.ports` order) what the node does to
        // the buffer.
        let mut accesses: Vec<Access> = Vec::with_capacity(operand_count);
        for &op in body.iter().filter(is_node) {
            let operation = ctx.op(op);
            let node = graph.nodes.len() as u32;
            graph.nodes.push(NodeOp(op));
            graph.position[op.index()] = node;
            let effects = operation.attr("effects").and_then(Attribute::as_str_array);
            let args = entry_block(ctx, op).map_or(&[][..], |block| &block.args);
            let operands = &operation.operands;
            let first_port = graph.ports.len();
            for (index, &operand) in operands.iter().enumerate() {
                let slot = &mut graph.slot_of[operand.index()];
                if *slot == ABSENT {
                    *slot = graph.buffers.len() as u32;
                    graph.buffers.push(operand);
                }
                if operands[..index].contains(&operand) {
                    continue;
                }
                // No `effects` at all means every operand is read and
                // written; an array too short leaves the rest untouched.
                let effect = match effects {
                    None => Some(MemEffect::ReadWrite),
                    Some(effects) => effects.get(index).map(|e| effect_from_str(e)),
                };
                graph.ports.push(NodePort {
                    slot: *slot as usize,
                    arg: args.get(index).copied(),
                });
                accesses.push(Access {
                    node,
                    reads: effect.is_some_and(|e| e.reads()),
                    writes: effect.is_some_and(|e| e.writes()),
                });
            }
            graph.entries.push(NodeEntry {
                ports: first_port as u32,
                port_count: (graph.ports.len() - first_port) as u32,
                ..NodeEntry::default()
            });
        }

        // Group the accesses by buffer (a counting sort: each buffer's stay
        // in program order, and a node appears at most once per buffer), then
        // pair every writer with every later reader.
        let mut starts = vec![0_u32; graph.buffers.len() + 1];
        for port in &graph.ports {
            starts[port.slot + 1] += 1;
        }
        for slot in 0..graph.buffers.len() {
            starts[slot + 1] += starts[slot];
        }
        let mut by_buffer = vec![Access::default(); accesses.len()];
        let mut next = starts.clone();
        for (port, &access) in graph.ports.iter().zip(&accesses) {
            by_buffer[next[port.slot] as usize] = access;
            next[port.slot] += 1;
        }
        graph.edges.reserve(accesses.len());
        for (slot, &buffer) in graph.buffers.iter().enumerate() {
            let users = &by_buffer[starts[slot] as usize..starts[slot + 1] as usize];
            for (at, producer) in users.iter().enumerate() {
                if !producer.writes {
                    continue;
                }
                for consumer in users[at + 1..].iter().filter(|user| user.reads) {
                    graph.edges.push(DataflowEdge {
                        producer: graph.nodes[producer.node as usize],
                        consumer: graph.nodes[consumer.node as usize],
                        buffer,
                    });
                    graph.entries[consumer.node as usize].pred_count += 1;
                }
            }
        }

        // Distinct predecessors in first-edge order. Each node gets room for
        // one per incoming edge; two nodes sharing several buffers leave some
        // unused.
        let mut room = 0;
        for entry in &mut graph.entries {
            entry.preds = room;
            room += entry.pred_count;
            entry.pred_count = 0;
        }
        if let Some(&filler) = graph.nodes.first() {
            graph.peers = vec![filler; room as usize];
        }
        for edge in &graph.edges {
            let consumer = graph.position[edge.consumer.0.index()] as usize;
            let NodeEntry {
                preds, pred_count, ..
            } = &mut graph.entries[consumer];
            add_peer(&mut graph.peers, *preds, pred_count, edge.producer);
        }

        // `p` is a distinct predecessor of `c` exactly when `c` is a distinct
        // successor of `p`, so one pass over the predecessor lists counts the
        // successors. Edges point forward in program order, so every
        // predecessor's depth is final when its consumer is reached.
        for node in 0..graph.entries.len() {
            let NodeEntry {
                preds, pred_count, ..
            } = graph.entries[node];
            let mut depth = 0;
            for &pred in &graph.peers[preds as usize..][..pred_count as usize] {
                let pred = &mut graph.entries[graph.position[pred.0.index()] as usize];
                pred.succ_count += 1;
                depth = depth.max(pred.depth + 1);
            }
            graph.entries[node].depth = depth;
        }
        graph
    }

    /// All nodes in program order.
    pub fn nodes(&self) -> &[NodeOp] {
        &self.nodes
    }

    /// All producer→consumer edges.
    pub fn edges(&self) -> &[DataflowEdge] {
        &self.edges
    }

    /// Every distinct buffer or stream the nodes take, in first-use order.
    pub fn buffers(&self) -> &[ValueId] {
        &self.buffers
    }

    /// Index of `buffer` in [`DataflowGraph::buffers`]: an indexed load.
    pub fn buffer_slot(&self, buffer: ValueId) -> Option<usize> {
        match self.slot_of.get(buffer.index()) {
            Some(&slot) if slot != ABSENT => Some(slot as usize),
            _ => None,
        }
    }

    /// Position of `node` in [`DataflowGraph::nodes`] — the index of its
    /// entry in any per-node table a caller keeps beside the graph.
    pub fn position(&self, node: NodeOp) -> Option<usize> {
        match self.position.get(node.0.index()) {
            Some(&position) if position != ABSENT => Some(position as usize),
            _ => None,
        }
    }

    fn entry(&self, node: NodeOp) -> Option<&NodeEntry> {
        self.position(node).map(|position| &self.entries[position])
    }

    /// Distinct nodes with an edge into `node`, in first-edge order.
    pub fn predecessors(&self, node: NodeOp) -> &[NodeOp] {
        self.entry(node).map_or(&[], |entry| {
            &self.peers[entry.preds as usize..][..entry.pred_count as usize]
        })
    }

    /// Number of distinct nodes `node` is connected to (in either direction) through
    /// shared buffers — the "connections" count of §6.5 step (2). Predecessors come
    /// before `node` and successors after it, so no peer is counted twice.
    pub fn connection_count(&self, node: NodeOp) -> usize {
        self.entry(node)
            .map_or(0, |entry| (entry.pred_count + entry.succ_count) as usize)
    }

    /// The distinct buffers `node` takes, in operand order.
    pub fn ports(&self, node: NodeOp) -> &[NodePort] {
        self.entry(node).map_or(&[], |entry| {
            &self.ports[entry.ports as usize..][..entry.port_count as usize]
        })
    }

    /// The body block argument through which `node` accesses `buffer`, if
    /// `buffer` is one of its operands.
    pub fn arg_for(&self, node: NodeOp, buffer: ValueId) -> Option<ValueId> {
        let ports = self.ports(node);
        let port = ports
            .iter()
            .find(|port| self.buffers[port.slot] == buffer)?;
        port.arg
    }

    /// Longest-path depth of `node` measured in edges from any source.
    ///
    /// Sources have depth 0; every other node has depth `1 + max(depth of preds)`.
    /// Because edges always point forward in program order the graph is acyclic.
    fn depth(&self, node: NodeOp) -> usize {
        self.entry(node).map_or(0, |entry| entry.depth as usize)
    }

    /// Edges whose producer and consumer depths differ by more than one — the "short
    /// paths" that make the producer wait for longer reconverging paths (Figure 8).
    /// Yields `(edge, imbalance)` where `imbalance = depth(consumer) - depth(producer) - 1`.
    pub fn unbalanced_edges(&self) -> impl Iterator<Item = (DataflowEdge, usize)> + '_ {
        self.edges.iter().filter_map(|&edge| {
            let (d_p, d_c) = (self.depth(edge.producer), self.depth(edge.consumer));
            (d_c > d_p + 1).then(|| (edge, d_c - d_p - 1))
        })
    }
}

/// The entry block of `op`'s first region; `None` for an op parsed without one.
fn entry_block(ctx: &Context, op: hida_ir_core::OpId) -> Option<&hida_ir_core::Block> {
    let region = *ctx.op(op).regions.first()?;
    ctx.region(region).entry().map(|block| ctx.block(block))
}

/// Appends `peer` to the list of `*count` nodes at `peers[start..]` unless it
/// is already there.
fn add_peer(peers: &mut [NodeOp], start: u32, count: &mut u32, peer: NodeOp) {
    let start = start as usize;
    if !peers[start..start + *count as usize].contains(&peer) {
        peers[start + *count as usize] = peer;
        *count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structural::{build_buffer, build_node, build_schedule};
    use hida_ir_core::{OpBuilder, Type};

    /// Builds the residual-block shape of Figure 8(a):
    /// `Node0 -> (Buf1 -> Node1 -> Buf2 -> Node2)` and `Node0 -> Buf3 -> Node2`.
    fn residual_schedule(ctx: &mut Context) -> (ScheduleOp, Vec<NodeOp>) {
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![]);
        let (schedule, body) = {
            let mut b = OpBuilder::at_end_of(ctx, func);
            build_schedule(&mut b, "residual")
        };
        let ty = Type::memref(vec![16], Type::f32());
        let mk_buf = |ctx: &mut Context, name: &str| {
            let mut b = OpBuilder::at_block_end(ctx, body);
            build_buffer(&mut b, ty, 2, name).1
        };
        let buf0 = mk_buf(ctx, "buf0");
        let buf1 = mk_buf(ctx, "buf1");
        let buf2 = mk_buf(ctx, "buf2");
        let buf3 = mk_buf(ctx, "buf3");
        let (n0, _) = build_node(
            ctx,
            body,
            "node0",
            &[
                (buf0, MemEffect::Read),
                (buf1, MemEffect::Write),
                (buf3, MemEffect::Write),
            ],
        );
        let (n1, _) = build_node(
            ctx,
            body,
            "node1",
            &[(buf1, MemEffect::Read), (buf2, MemEffect::Write)],
        );
        let (n2, _) = build_node(
            ctx,
            body,
            "node2",
            &[(buf2, MemEffect::Read), (buf3, MemEffect::Read)],
        );
        (schedule, vec![n0, n1, n2])
    }

    #[test]
    fn edges_follow_program_order_producers_to_consumers() {
        let mut ctx = Context::new();
        let (schedule, nodes) = residual_schedule(&mut ctx);
        let g = DataflowGraph::from_schedule(&ctx, schedule);
        assert_eq!(g.nodes(), nodes);
        // Edges: n0->n1 (buf1), n0->n2 (buf3), n1->n2 (buf2) — buffers in
        // first-use order.
        let ends = |e: &DataflowEdge| (e.producer, e.consumer);
        assert_eq!(
            g.edges().iter().map(ends).collect::<Vec<_>>(),
            [
                (nodes[0], nodes[1]),
                (nodes[0], nodes[2]),
                (nodes[1], nodes[2])
            ]
        );
        assert_eq!(g.position(nodes[2]), Some(2));
        // First-edge order: buf3 (n0 -> n2) is first used before buf2 (n1 -> n2).
        assert_eq!(g.predecessors(nodes[2]), [nodes[0], nodes[1]]);
        assert_eq!(g.predecessors(nodes[1]), [nodes[0]]);
        assert!(g.predecessors(nodes[0]).is_empty());
        // n0 feeds two nodes; n2 feeds none, so its connections are its
        // predecessors.
        assert_eq!(g.connection_count(nodes[0]), 2);
        assert_eq!(g.connection_count(nodes[2]), g.predecessors(nodes[2]).len());
    }

    #[test]
    fn connection_counts_match_figure8() {
        let mut ctx = Context::new();
        let (schedule, nodes) = residual_schedule(&mut ctx);
        let g = DataflowGraph::from_schedule(&ctx, schedule);
        assert_eq!(g.connection_count(nodes[0]), 2);
        assert_eq!(g.connection_count(nodes[1]), 2);
        assert_eq!(g.connection_count(nodes[2]), 2);
    }

    #[test]
    fn unbalanced_edge_detected_on_shortcut_path() {
        let mut ctx = Context::new();
        let (schedule, nodes) = residual_schedule(&mut ctx);
        let g = DataflowGraph::from_schedule(&ctx, schedule);
        assert_eq!(g.depth(nodes[0]), 0);
        assert_eq!(g.depth(nodes[1]), 1);
        assert_eq!(g.depth(nodes[2]), 2);
        let unbalanced: Vec<_> = g.unbalanced_edges().collect();
        assert_eq!(unbalanced.len(), 1);
        let (edge, imbalance) = unbalanced[0];
        assert_eq!(edge.producer, nodes[0]);
        assert_eq!(edge.consumer, nodes[2]);
        assert_eq!(imbalance, 1);
    }

    #[test]
    fn empty_schedule_produces_empty_graph() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let (schedule, _) = {
            let mut b = OpBuilder::at_end_of(&mut ctx, func);
            build_schedule(&mut b, "empty")
        };
        let g = DataflowGraph::from_schedule(&ctx, schedule);
        assert!(g.nodes().is_empty());
        assert!(g.edges().is_empty());
        assert!(g.buffers().is_empty());
        assert_eq!(g.unbalanced_edges().count(), 0);
    }

    /// Edges are grouped by buffer, so the two `n0 -> n1` edges (through `a`
    /// and `c`) have `n0 -> n2` (through `b`) between them: peers must still
    /// be listed once.
    #[test]
    fn a_peer_reached_through_two_buffers_is_listed_once() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let (schedule, body) = build_schedule(&mut OpBuilder::at_end_of(&mut ctx, func), "s");
        let ty = Type::memref(vec![16], Type::f32());
        let [a, b, c] = ["a", "b", "c"]
            .map(|name| build_buffer(&mut OpBuilder::at_block_end(&mut ctx, body), ty, 2, name).1);
        let written = [a, b, c].map(|buffer| (buffer, MemEffect::Write));
        let (n0, _) = build_node(&mut ctx, body, "n0", &written);
        let (n1, n1_args) = build_node(
            &mut ctx,
            body,
            "n1",
            &[(a, MemEffect::Read), (c, MemEffect::Read)],
        );
        let (n2, _) = build_node(&mut ctx, body, "n2", &[(b, MemEffect::Read)]);

        let g = DataflowGraph::from_schedule(&ctx, schedule);
        let ends = |e: &DataflowEdge| (e.producer, e.consumer, e.buffer);
        assert_eq!(
            g.edges().iter().map(ends).collect::<Vec<_>>(),
            [(n0, n1, a), (n0, n2, b), (n0, n1, c)]
        );
        assert_eq!(g.predecessors(n1), [n0]);
        assert_eq!(g.predecessors(n2), [n0]);
        assert_eq!(g.connection_count(n0), 2);
        assert_eq!(g.connection_count(n1), 1);
        assert_eq!(g.buffers(), [a, b, c]);
        assert_eq!(g.arg_for(n1, c), Some(n1_args[1]));
        assert_eq!(g.arg_for(n2, a), None);
        assert_eq!(g.ports(n2).len(), 1);
    }

    /// `from_schedule` as it was before it became a single walk — every
    /// (buffer, node) pair asked through [`NodeOp::reads`]/[`NodeOp::writes`] —
    /// kept verbatim as the oracle of the differential test below.
    mod reference {
        use super::super::DataflowEdge;
        use crate::structural::{NodeOp, ScheduleOp};
        use hida_ir_core::{Context, ValueId};
        use std::collections::HashMap;

        pub fn from_schedule(
            ctx: &Context,
            schedule: ScheduleOp,
        ) -> (Vec<NodeOp>, Vec<DataflowEdge>) {
            let nodes = schedule.nodes(ctx);
            let position: HashMap<NodeOp, usize> =
                nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
            let mut edges = Vec::new();
            let mut buffers: Vec<ValueId> = Vec::new();
            for node in &nodes {
                for operand in node.operands(ctx) {
                    if !buffers.contains(&operand) {
                        buffers.push(operand);
                    }
                }
            }
            for buffer in buffers {
                let producers: Vec<NodeOp> = nodes
                    .iter()
                    .copied()
                    .filter(|n| n.writes(ctx, buffer))
                    .collect();
                let consumers: Vec<NodeOp> = nodes
                    .iter()
                    .copied()
                    .filter(|n| n.reads(ctx, buffer))
                    .collect();
                for &p in &producers {
                    for &c in &consumers {
                        if p != c && position[&p] < position[&c] {
                            edges.push(DataflowEdge {
                                producer: p,
                                consumer: c,
                                buffer,
                            });
                        }
                    }
                }
            }
            (nodes, edges)
        }
    }

    /// Nodes and edges equal the oracle's, in order; every derived query
    /// equals what the edge list says.
    fn assert_matches_reference(ctx: &Context, schedule: hida_ir_core::OpId, subject: &str) {
        // The optimizer crates link the library build of this crate: the op
        // id is what their `ScheduleOp` and this build's have in common.
        let schedule = ScheduleOp(schedule);
        let graph = DataflowGraph::from_schedule(ctx, schedule);
        let (nodes, edges) = reference::from_schedule(ctx, schedule);
        assert_eq!(graph.nodes(), nodes, "{subject}: nodes");
        assert_eq!(graph.edges(), edges, "{subject}: edges");
        for (position, &node) in nodes.iter().enumerate() {
            assert_eq!(graph.position(node), Some(position), "{subject}");
            let mut successors: Vec<NodeOp> = Vec::new();
            let mut predecessors: Vec<NodeOp> = Vec::new();
            for edge in &edges {
                if edge.producer == node && !successors.contains(&edge.consumer) {
                    successors.push(edge.consumer);
                }
                if edge.consumer == node && !predecessors.contains(&edge.producer) {
                    predecessors.push(edge.producer);
                }
            }
            assert_eq!(graph.predecessors(node), predecessors, "{subject}");
            assert_eq!(
                graph.connection_count(node),
                successors.len() + predecessors.len(),
                "{subject}"
            );
            let depth = predecessors.iter().map(|&p| graph.depth(p) + 1).max();
            assert_eq!(graph.depth(node), depth.unwrap_or(0), "{subject}");
            let (operands, args) = (node.operands(ctx), node.body_args(ctx));
            for &operand in &operands {
                let first = operands.iter().position(|&o| o == operand).unwrap();
                let arg = args.get(first).copied();
                assert_eq!(graph.arg_for(node, operand), arg, "{subject}");
            }
        }
        for (slot, &buffer) in graph.buffers().iter().enumerate() {
            assert_eq!(graph.buffer_slot(buffer), Some(slot), "{subject}");
        }
        let body = schedule.body(ctx);
        for &op in &ctx.block(body).ops {
            for &value in &ctx.op(op).results {
                let slot = graph.buffers().iter().position(|&b| b == value);
                assert_eq!(graph.buffer_slot(value), slot, "{subject}");
            }
        }
    }

    #[test]
    fn single_walk_agrees_with_the_per_pair_construction() {
        use hida_frontend::nn::{build_model, Model};
        use hida_frontend::polybench::{build_kernel, PolybenchKernel};
        use hida_opt::{registry, HidaOptions, Pipeline};

        // The six Table 8 models at three tile sizes.
        for model in Model::table8() {
            for tile in [2, 8, 32] {
                let mut ctx = Context::new();
                let module = ctx.create_module("m");
                let func = build_model(&mut ctx, module, model);
                let options = HidaOptions {
                    tile_size: Some(tile),
                    ..HidaOptions::dnn()
                };
                let schedule = Pipeline::from_options(&options)
                    .run(&mut ctx, func)
                    .unwrap();
                let subject = format!("{} tile {tile}", model.name());
                assert_matches_reference(&ctx, schedule.id(), &subject);
            }
        }
        // The eleven PolyBench kernels.
        for kernel in PolybenchKernel::all() {
            let mut ctx = Context::new();
            let module = ctx.create_module("m");
            let func = build_kernel(&mut ctx, module, kernel, 32);
            let schedule = Pipeline::from_options(&HidaOptions::polybench())
                .run(&mut ctx, func)
                .unwrap();
            assert_matches_reference(&ctx, schedule.id(), kernel.name());
        }
        // Both textual examples.
        for example in ["two_mm", "attention"] {
            let path = format!(
                "{}/../../examples/{example}.hir",
                env!("CARGO_MANIFEST_DIR")
            );
            let text = std::fs::read_to_string(&path).unwrap();
            let (mut ctx, module) = hida_ir_core::parse_module(&text).unwrap();
            let func = ctx
                .find_in_body(module, hida_ir_core::op_names::FUNC)
                .unwrap();
            let schedule = Pipeline::from_options(&HidaOptions::polybench())
                .run(&mut ctx, func)
                .unwrap();
            assert_matches_reference(&ctx, schedule.id(), example);
        }
        // 1 000 fuzzed functions under fuzzed pipelines, fixed seeds.
        let registry = registry();
        for seed in 0..1_000 {
            let mut rng = hida_fuzz::FuzzRng::new(seed);
            let mut ctx = Context::new();
            let workload = hida_fuzz::gen_workload(&mut ctx, &mut rng);
            let pipeline = hida_fuzz::gen_pipeline(&mut rng);
            let schedule = Pipeline::parse(&registry, &pipeline)
                .unwrap()
                .run(&mut ctx, workload.func)
                .unwrap();
            assert_matches_reference(&ctx, schedule.id(), &format!("seed {seed}: {pipeline}"));
        }
    }
}
