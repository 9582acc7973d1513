//! Textual IR printer.
//!
//! Produces an MLIR-flavoured textual rendering of an operation tree, primarily for
//! debugging, golden tests and documentation. Values are numbered `%0, %1, ...` in
//! definition order unless a name hint is attached.

use crate::context::Context;
use crate::ids::{OpId, ValueId};
use crate::storage::EntityMap;
use std::fmt::Write;

/// Prints `root` and everything nested below it.
pub fn print_op(ctx: &Context, root: OpId) -> String {
    let mut printer = Printer {
        ctx,
        names: EntityMap::new(),
        next_id: 0,
        out: String::new(),
    };
    printer.print(root, 0);
    printer.out
}

struct Printer<'a> {
    ctx: &'a Context,
    /// Per-walk value numbering, dense over the value arena.
    names: EntityMap<ValueId, String>,
    next_id: usize,
    out: String,
}

impl<'a> Printer<'a> {
    fn value_name(&mut self, v: ValueId) -> String {
        if let Some(name) = self.names.get(v) {
            return name.clone();
        }
        let name = match &self.ctx.value(v).name_hint {
            Some(hint) => format!("%{hint}{}", self.next_id),
            None => format!("%{}", self.next_id),
        };
        self.next_id += 1;
        self.names.insert(v, name.clone());
        name
    }

    fn print(&mut self, op: OpId, indent: usize) {
        // `ctx` is an independent shared borrow, so reading op payloads from
        // it does not freeze `self` — no per-op clone needed.
        let ctx = self.ctx;
        let pad = "  ".repeat(indent);
        let operation = ctx.op(op);
        let mut line = String::new();

        if !operation.results.is_empty() {
            let results: Vec<String> = operation
                .results
                .iter()
                .map(|&r| self.value_name(r))
                .collect();
            write!(line, "{} = ", results.join(", ")).unwrap();
        }
        write!(line, "\"{}\"", operation.name).unwrap();

        let operands: Vec<String> = operation
            .operands
            .iter()
            .map(|&o| self.value_name(o))
            .collect();
        write!(line, "({})", operands.join(", ")).unwrap();

        if !operation.attributes().is_empty() {
            let attrs: Vec<String> = operation
                .attributes()
                .iter()
                .map(|(k, v)| format!("{k} = {v}"))
                .collect();
            write!(line, " {{{}}}", attrs.join(", ")).unwrap();
        }

        if !operation.results.is_empty() {
            let types: Vec<String> = operation
                .results
                .iter()
                .map(|&r| ctx.value_type(r).to_string())
                .collect();
            write!(line, " : {}", types.join(", ")).unwrap();
        }

        writeln!(self.out, "{pad}{line}").unwrap();

        for &region in &operation.regions {
            writeln!(self.out, "{pad}{{").unwrap();
            for &block in &ctx.region(region).blocks {
                let args = &ctx.block(block).args;
                if !args.is_empty() {
                    let arg_strs: Vec<String> = args
                        .iter()
                        .map(|&a| {
                            let name = self.value_name(a);
                            format!("{name}: {}", ctx.value_type(a))
                        })
                        .collect();
                    writeln!(self.out, "{pad}^bb({}):", arg_strs.join(", ")).unwrap();
                }
                for &nested in &ctx.block(block).ops {
                    self.print(nested, indent + 1);
                }
            }
            writeln!(self.out, "{pad}}}").unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OpBuilder;
    use crate::types::Type;
    use crate::Attribute;

    #[test]
    fn prints_nested_structure_with_attributes() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("main", vec![], vec![]);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let c = b.create_constant_int(42, Type::i32());
        let (_, results) = b.create(
            "arith.addi",
            vec![c, c],
            vec![Type::i32()],
            vec![("overflow", Attribute::Str("none".into()))],
        );
        b.create_return(vec![results[0]]);

        let text = print_op(&ctx, module);
        assert!(text.contains("\"builtin.module\""));
        assert!(text.contains("\"func.func\""));
        assert!(text.contains("value = 42"));
        assert!(text.contains("\"arith.addi\""));
        assert!(text.contains(": i32"));
        assert!(text.contains("overflow = \"none\""));
        // Nested ops are indented more than the module.
        let module_line_indent = text
            .lines()
            .find(|l| l.contains("builtin.module"))
            .map(|l| l.len() - l.trim_start().len())
            .unwrap();
        let const_line_indent = text
            .lines()
            .find(|l| l.contains("arith.constant"))
            .map(|l| l.len() - l.trim_start().len())
            .unwrap();
        assert!(const_line_indent > module_line_indent);
    }

    #[test]
    fn value_numbers_are_stable_within_one_print() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let c = b.create_constant_int(1, Type::i8());
        b.create("arith.addi", vec![c, c], vec![Type::i8()], vec![]);
        let text = print_op(&ctx, module);
        // The constant result should be printed with the same number at def and use.
        let def_line = text.lines().find(|l| l.contains("arith.constant")).unwrap();
        let use_line = text.lines().find(|l| l.contains("arith.addi")).unwrap();
        let def_name = def_line.trim().split(' ').next().unwrap().to_string();
        assert!(use_line.contains(&def_name));
    }

    #[test]
    fn prints_block_arguments() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func =
            OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![Type::f32()], vec![]);
        let text = print_op(&ctx, func);
        assert!(text.contains("^bb("));
        assert!(text.contains(": f32"));
    }
}
