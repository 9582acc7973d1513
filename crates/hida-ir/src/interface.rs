//! Module interface operations: `hida.port`, `hida.bundle`, `hida.pack`, and the
//! elastic token flow of §6.4.2.
//!
//! Ports capture the characteristics of memory-mapped or stream interfaces (e.g. AXI
//! latency and burst behaviour) that "can have a considerable impact on the dataflow
//! efficiency" (§5.2). Tokens maintain the execution order between nodes whose
//! dependency became implicit after a buffer was moved to external memory (soft FIFO).

use crate::op_names;
use hida_ir_core::{Attribute, Context, OpBuilder, OpId, Type, ValueId};

/// Kind of an interface port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortKind {
    /// Memory-mapped AXI interface.
    MemoryMapped,
    /// AXI-Stream interface.
    Stream,
}

impl PortKind {
    /// Canonical string form stored in attributes.
    pub fn as_str(self) -> &'static str {
        match self {
            PortKind::MemoryMapped => "mm",
            PortKind::Stream => "stream",
        }
    }

    /// Parses the canonical string form (unknown strings map to `MemoryMapped`).
    pub fn parse(s: &str) -> PortKind {
        match s {
            "stream" => PortKind::Stream,
            _ => PortKind::MemoryMapped,
        }
    }
}

/// Typed view over a `hida.port` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortOp(pub OpId);

impl PortOp {
    /// Wraps `op` if it is a `hida.port`.
    pub fn try_from_op(ctx: &Context, op: OpId) -> Option<PortOp> {
        if ctx.op(op).is(op_names::PORT) {
            Some(PortOp(op))
        } else {
            None
        }
    }

    /// The port SSA value (a memref or stream handle).
    pub fn value(self, ctx: &Context) -> ValueId {
        ctx.op(self.0).results[0]
    }

    /// Interface kind of the port.
    pub fn kind(self, ctx: &Context) -> PortKind {
        ctx.op(self.0)
            .attr_str("port_kind")
            .map(PortKind::parse)
            .unwrap_or(PortKind::MemoryMapped)
    }

    /// Read/write latency of the interface in cycles.
    pub fn latency(self, ctx: &Context) -> i64 {
        ctx.op(self.0).attr_int("latency").unwrap_or(0).max(0)
    }

    /// Maximum burst length supported by the interface.
    pub fn burst_length(self, ctx: &Context) -> i64 {
        ctx.op(self.0).attr_int("burst_length").unwrap_or(1).max(1)
    }
}

/// Creates a `hida.port` with the given handle type, interface kind, access latency
/// and supported burst length.
pub fn build_port(
    builder: &mut OpBuilder<'_>,
    ty: Type,
    kind: PortKind,
    latency: i64,
    burst_length: i64,
    name: &str,
) -> (PortOp, ValueId) {
    let (op, results) = builder.create(
        op_names::PORT,
        vec![],
        vec![ty],
        vec![
            ("port_kind", Attribute::from(kind.as_str())),
            ("latency", Attribute::Int(latency.max(0))),
            ("burst_length", Attribute::Int(burst_length.max(1))),
            ("port_name", Attribute::from(name)),
        ],
    );
    builder.context().set_name_hint(results[0], name);
    (PortOp(op), results[0])
}

/// Creates a `hida.bundle` grouping the given port values under one name.
pub fn build_bundle(builder: &mut OpBuilder<'_>, ports: &[ValueId], name: &str) -> OpId {
    builder
        .create(
            op_names::BUNDLE,
            ports.to_vec(),
            vec![],
            vec![("bundle_name", Attribute::from(name))],
        )
        .0
}

/// Creates a `hida.pack` op mapping an external-memory block (identified by a byte
/// offset and size) onto a port value. Returns the packed memref handle.
pub fn build_pack(
    builder: &mut OpBuilder<'_>,
    port: ValueId,
    offset_bytes: i64,
    ty: Type,
    name: &str,
) -> ValueId {
    let (_, results) = builder.create(
        op_names::PACK,
        vec![port],
        vec![ty],
        vec![
            ("offset_bytes", Attribute::Int(offset_bytes.max(0))),
            ("pack_name", Attribute::from(name)),
        ],
    );
    results[0]
}

/// Creates a `hida.token_push` op that signals completion over the given token
/// stream (producer side of the elastic token flow).
pub fn build_token_push(builder: &mut OpBuilder<'_>, stream: ValueId) -> OpId {
    builder
        .create(op_names::TOKEN_PUSH, vec![stream], vec![], vec![])
        .0
}

/// Creates a `hida.token_pop` op that blocks until a token is available on the given
/// token stream (consumer side of the elastic token flow).
pub fn build_token_pop(builder: &mut OpBuilder<'_>, stream: ValueId) -> OpId {
    builder
        .create(op_names::TOKEN_POP, vec![stream], vec![], vec![])
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structural::build_stream;

    fn fixture(ctx: &mut Context) -> OpId {
        let module = ctx.create_module("m");
        OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![])
    }

    #[test]
    fn port_kind_round_trips() {
        assert_eq!(PortKind::parse(PortKind::Stream.as_str()), PortKind::Stream);
        assert_eq!(
            PortKind::parse(PortKind::MemoryMapped.as_str()),
            PortKind::MemoryMapped
        );
        assert_eq!(PortKind::parse("junk"), PortKind::MemoryMapped);
    }

    #[test]
    fn port_attributes_and_pack() {
        let mut ctx = Context::new();
        let func = fixture(&mut ctx);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let (port, handle) = build_port(
            &mut b,
            Type::memref(vec![1 << 20], Type::i8()),
            PortKind::MemoryMapped,
            120,
            256,
            "axi0",
        );
        assert_eq!(port.kind(&ctx), PortKind::MemoryMapped);
        assert_eq!(port.latency(&ctx), 120);
        assert_eq!(port.burst_length(&ctx), 256);
        assert_eq!(port.value(&ctx), handle);

        let packed = {
            let mut b = OpBuilder::at_end_of(&mut ctx, func);
            build_pack(
                &mut b,
                handle,
                4096,
                Type::memref(vec![64, 64], Type::i8()),
                "blockA",
            )
        };
        let pack_op = ctx.value(packed).defining_op().unwrap();
        assert!(ctx.op(pack_op).is(op_names::PACK));
        assert_eq!(ctx.op(pack_op).attr_int("offset_bytes"), Some(4096));

        let bundle = {
            let mut b = OpBuilder::at_end_of(&mut ctx, func);
            build_bundle(&mut b, &[handle], "ddr")
        };
        assert_eq!(ctx.op(bundle).operands, vec![handle]);
    }

    #[test]
    fn token_push_and_pop_share_a_stream() {
        let mut ctx = Context::new();
        let func = fixture(&mut ctx);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let (_, tok) = build_stream(&mut b, Type::i1(), 3, "token");
        let push = build_token_push(&mut b, tok);
        let pop = build_token_pop(&mut b, tok);
        assert!(ctx.op(push).is(op_names::TOKEN_PUSH));
        assert!(ctx.op(pop).is(op_names::TOKEN_POP));
        assert_eq!(ctx.op(push).operands, ctx.op(pop).operands);
        assert_eq!(ctx.users_of(tok).len(), 2);
    }
}
