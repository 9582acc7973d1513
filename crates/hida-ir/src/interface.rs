//! The elastic token flow of §6.4.2.
//!
//! Tokens maintain the execution order between nodes whose dependency became
//! implicit after a buffer was moved to external memory (soft FIFO).

use crate::op_names;
use hida_ir_core::{OpBuilder, OpId, ValueId};

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
    use hida_ir_core::{Context, Type};

    fn fixture(ctx: &mut Context) -> OpId {
        let module = ctx.create_module("m");
        OpBuilder::at_end_of(ctx, module).create_func("f", vec![], vec![])
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
