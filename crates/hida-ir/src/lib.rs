//! HIDA-IR: the hierarchical dataflow dialect (paper §5).
//!
//! HIDA-IR models dataflow at two levels of abstraction:
//!
//! * **Functional dataflow** ([`functional`]) — `hida.dispatch` and `hida.task`
//!   operations with *transparent* regions sharing the global context. Tensors are
//!   immutable values passed between producers and consumers. This level drives
//!   algorithmic optimization and task fusion.
//! * **Structural dataflow** ([`structural`]) — `hida.schedule` and `hida.node`
//!   operations with *isolated* regions and explicit per-argument memory effects,
//!   plus `hida.buffer` (ping-pong, partition and layout attributes) and
//!   `hida.stream` channels. This level drives scheduling and parallelization.
//! * **Elastic tokens** ([`interface`]) — `hida.token_push` / `hida.token_pop`
//!   over token streams: the elastic token flow of §6.4.2.
//! * **Dataflow graph views** ([`graph`]) — producer/consumer adjacency derived from
//!   shared buffers, used by multi-producer elimination and data-path balancing.

pub mod functional;
pub mod graph;
pub mod interface;
pub mod structural;

pub use functional::{DispatchOp, TaskOp};
pub use graph::DataflowGraph;
pub use structural::{BufferOp, NodeOp, ScheduleOp, StreamOp};

/// Fully-qualified HIDA operation names.
pub mod op_names {
    /// Functional dataflow: launches the tasks in its region.
    pub const DISPATCH: &str = "hida.dispatch";
    /// Functional dataflow: a transparent task region.
    pub const TASK: &str = "hida.task";
    /// Terminator yielding task/dispatch results.
    pub const YIELD: &str = "hida.yield";
    /// Structural dataflow: an isolated region with multiple nodes.
    pub const SCHEDULE: &str = "hida.schedule";
    /// Structural dataflow: an isolated node with explicit I/O memory effects.
    pub const NODE: &str = "hida.node";
    /// Structural dataflow: a multi-stage (ping-pong) on-chip buffer.
    pub const BUFFER: &str = "hida.buffer";
    /// Structural dataflow: a FIFO stream channel.
    pub const STREAM: &str = "hida.stream";
    /// Elastic execution: produce a synchronization token.
    pub const TOKEN_PUSH: &str = "hida.token_push";
    /// Elastic execution: wait for a synchronization token.
    pub const TOKEN_POP: &str = "hida.token_pop";
}
