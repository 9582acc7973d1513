//! Textual pipeline syntax: parser and printer.
//!
//! Pipelines are written as a comma-separated pass list where each pass may carry
//! a brace-enclosed option block, mirroring MLIR's `--pass-pipeline` syntax:
//!
//! ```text
//! pipeline := pass ( ',' pass )*
//! pass     := NAME ( '{' option ( ',' option )* '}' )?
//! option   := NAME '=' VALUE
//! NAME     := [A-Za-z0-9_.-]+
//! VALUE    := any characters except ',' '{' '}' '='
//! ```
//!
//! Whitespace around tokens is ignored. [`parse_pipeline`] and [`print_pipeline`]
//! round-trip: parsing the printed form of an invocation list yields the same
//! list. Parse failures are reported as structured [`PipelineParseError`]s
//! carrying the byte position, the expected token and what was found instead.

//!
//! This module also hosts the **textual IR parser** ([`parse_module`]), the
//! inverse of [`printer::print_op`](crate::printer::print_op). See
//! `docs/IR_SYNTAX.md` for the full grammar.

// The value-scope map is keyed by printed names (strings, no dense index) and
// touched once per operand during a parse — cold, not a walk-step structure.
#![allow(clippy::disallowed_types)]

use crate::attributes::Attribute;
use crate::context::Context;
use crate::ids::{BlockId, OpId, ValueId};
use crate::intern::Symbol;
use crate::operation::Operation;
use crate::pass::PassOption;
use crate::types::Type;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// One parsed pass invocation: a pass name plus its textual options.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PassInvocation {
    /// Pass name as written in the pipeline text (e.g. `"tiling"`).
    pub name: String,
    /// Options in written order (e.g. `factor=4`).
    pub options: Vec<PassOption>,
}

impl PassInvocation {
    /// An invocation without options.
    pub fn new(name: impl Into<String>) -> Self {
        PassInvocation {
            name: name.into(),
            options: Vec::new(),
        }
    }

    /// An invocation with explicit options.
    pub fn with_options(name: impl Into<String>, options: Vec<PassOption>) -> Self {
        PassInvocation {
            name: name.into(),
            options,
        }
    }
}

impl fmt::Display for PassInvocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.options.is_empty() {
            let rendered: Vec<String> = self.options.iter().map(|o| o.to_string()).collect();
            write!(f, "{{{}}}", rendered.join(","))?;
        }
        Ok(())
    }
}

/// Structured pipeline parse error: where it happened and what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineParseError {
    /// Byte offset into the pipeline text where the error was detected.
    pub position: usize,
    /// Token class the parser expected (e.g. `"pass name"`, `"'='"`).
    pub expected: String,
    /// What was actually found (a rendered character or `"end of input"`).
    pub found: String,
}

impl PipelineParseError {
    fn new(position: usize, expected: impl Into<String>, found: impl Into<String>) -> Self {
        PipelineParseError {
            position,
            expected: expected.into(),
            found: found.into(),
        }
    }
}

impl fmt::Display for PipelineParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pipeline parse error at byte {}: expected {}, found {}",
            self.position, self.expected, self.found
        )
    }
}

impl Error for PipelineParseError {}

/// True for characters allowed in pass and option names.
fn is_name_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.')
}

/// True for characters allowed in option values (everything but the structural
/// characters of the grammar).
fn is_value_char(c: char) -> bool {
    !matches!(c, ',' | '{' | '}' | '=')
}

/// Character-level cursor over the pipeline text.
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Self {
        Scanner { text, pos: 0 }
    }

    fn peek(&self) -> Option<char> {
        self.text[self.pos..].chars().next()
    }

    fn bump(&mut self) {
        if let Some(c) = self.peek() {
            self.pos += c.len_utf8();
        }
    }

    fn skip_whitespace(&mut self) {
        while self.peek().is_some_and(|c| c.is_whitespace()) {
            self.bump();
        }
    }

    /// Renders what sits at the cursor, for error messages.
    fn found(&self) -> String {
        match self.peek() {
            Some(c) => format!("'{c}'"),
            None => "end of input".to_string(),
        }
    }

    fn error(&self, expected: &str) -> PipelineParseError {
        PipelineParseError::new(self.pos, expected, self.found())
    }

    /// Consumes a run of name characters; errors when none are present.
    fn name(&mut self, expected: &str) -> Result<String, PipelineParseError> {
        self.skip_whitespace();
        let start = self.pos;
        while self.peek().is_some_and(is_name_char) {
            self.bump();
        }
        if self.pos == start {
            return Err(self.error(expected));
        }
        Ok(self.text[start..self.pos].to_string())
    }

    /// Consumes a run of value characters (trimmed); errors when empty.
    fn value(&mut self) -> Result<String, PipelineParseError> {
        self.skip_whitespace();
        let start = self.pos;
        while self.peek().is_some_and(is_value_char) {
            self.bump();
        }
        let raw = self.text[start..self.pos].trim_end();
        if raw.is_empty() {
            return Err(PipelineParseError::new(start, "option value", self.found()));
        }
        Ok(raw.to_string())
    }

    /// Consumes `c` or errors.
    fn expect(&mut self, c: char) -> Result<(), PipelineParseError> {
        self.skip_whitespace();
        if self.peek() == Some(c) {
            self.bump();
            Ok(())
        } else {
            Err(self.error(&format!("'{c}'")))
        }
    }

    /// Consumes `c` when present.
    fn eat(&mut self, c: char) -> bool {
        self.skip_whitespace();
        if self.peek() == Some(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn at_end(&mut self) -> bool {
        self.skip_whitespace();
        self.peek().is_none()
    }
}

/// Parses a textual pipeline into pass invocations.
///
/// Empty (or all-whitespace) input yields an empty pipeline.
///
/// # Errors
/// Returns a [`PipelineParseError`] locating the first offending token.
pub fn parse_pipeline(text: &str) -> Result<Vec<PassInvocation>, PipelineParseError> {
    let mut scanner = Scanner::new(text);
    let mut passes = Vec::new();
    if scanner.at_end() {
        return Ok(passes);
    }
    loop {
        let name = scanner.name("pass name")?;
        let mut options = Vec::new();
        if scanner.eat('{') {
            loop {
                let key = scanner.name("option name")?;
                scanner.expect('=')?;
                let value = scanner.value()?;
                options.push(PassOption::new(key, value));
                if !scanner.eat(',') {
                    break;
                }
            }
            scanner.expect('}')?;
        }
        passes.push(PassInvocation::with_options(name, options));
        if scanner.at_end() {
            return Ok(passes);
        }
        scanner.expect(',')?;
        // A trailing comma leaves the scanner at end-of-input here; the next
        // iteration's name() reports "expected pass name, found end of input".
    }
}

/// Prints pass invocations in the textual pipeline syntax; the inverse of
/// [`parse_pipeline`].
pub fn print_pipeline(passes: &[PassInvocation]) -> String {
    let rendered: Vec<String> = passes.iter().map(|p| p.to_string()).collect();
    rendered.join(",")
}

// ---------------------------------------------------------------------------
// Textual IR parser
// ---------------------------------------------------------------------------

/// Structured IR parse error: byte position, 1-based line/column, what the
/// parser expected and what it found instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrParseError {
    /// Byte offset into the module text where the error was detected.
    pub position: usize,
    /// 1-based line of the error.
    pub line: usize,
    /// 1-based column (in bytes from the line start) of the error.
    pub column: usize,
    /// Token class the parser expected (e.g. `"a type"`, `"'='"`).
    pub expected: String,
    /// What was actually found (a rendered token or `"end of input"`).
    pub found: String,
}

impl fmt::Display for IrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IR parse error at line {}, column {}: expected {}, found {}",
            self.line, self.column, self.expected, self.found
        )
    }
}

impl Error for IrParseError {}

/// Parses the textual form produced by
/// [`printer::print_op`](crate::printer::print_op) into a fresh [`Context`],
/// returning the context and the root operation.
///
/// # Errors
/// Returns an [`IrParseError`] with line/column for the first offending token.
pub fn parse_module(text: &str) -> Result<(Context, OpId), IrParseError> {
    let mut ctx = Context::new();
    let root = parse_module_into(&mut ctx, text)?;
    Ok((ctx, root))
}

/// Parses one top-level operation (and everything nested below it) into an
/// existing context. The parsed root is detached — not inserted into any
/// block — exactly like [`Context::create_module`]'s result.
///
/// # Errors
/// Returns an [`IrParseError`] with line/column for the first offending token.
pub fn parse_module_into(ctx: &mut Context, text: &str) -> Result<OpId, IrParseError> {
    let mut parser = ModuleParser {
        text,
        pos: 0,
        ctx,
        values: HashMap::new(),
        next_value: 0,
    };
    parser.skip_blank();
    let root = parser.parse_op(None)?;
    parser.skip_blank();
    if parser.peek().is_some() {
        return Err(parser.error("end of input"));
    }
    Ok(root)
}

/// Recursive-descent parser over the printer's output grammar.
struct ModuleParser<'a, 'c> {
    text: &'a str,
    pos: usize,
    ctx: &'c mut Context,
    /// Textual value name (without the leading `%`) to arena id.
    values: HashMap<String, ValueId>,
    /// Mirror of the printer's global numbering counter: definitions appear in
    /// first-print order, so replaying the counter recovers name hints.
    next_value: usize,
}

impl<'a> ModuleParser<'a, '_> {
    fn peek(&self) -> Option<char> {
        self.text[self.pos..].chars().next()
    }

    fn bump(&mut self) {
        if let Some(c) = self.peek() {
            self.pos += c.len_utf8();
        }
    }

    /// Skips horizontal whitespace only — the grammar is newline-sensitive
    /// (regions open on a fresh line; attribute blocks sit on the op line).
    fn skip_spaces(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\r')) {
            self.bump();
        }
    }

    /// Skips all whitespace, including newlines.
    fn skip_blank(&mut self) {
        while self.peek().is_some_and(|c| c.is_whitespace()) {
            self.bump();
        }
    }

    fn found_at(&self, pos: usize) -> String {
        match self.text[pos..].chars().next() {
            Some('\n') => "end of line".to_string(),
            Some(c) => format!("'{c}'"),
            None => "end of input".to_string(),
        }
    }

    fn error_at(&self, pos: usize, expected: impl Into<String>, found: String) -> IrParseError {
        let prefix = &self.text[..pos];
        let line_start = prefix.rfind('\n').map_or(0, |at| at + 1);
        IrParseError {
            position: pos,
            line: prefix.matches('\n').count() + 1,
            column: pos - line_start + 1,
            expected: expected.into(),
            found,
        }
    }

    fn error(&self, expected: impl Into<String>) -> IrParseError {
        self.error_at(self.pos, expected, self.found_at(self.pos))
    }

    fn expect(&mut self, c: char) -> Result<(), IrParseError> {
        self.skip_spaces();
        if self.peek() == Some(c) {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("'{c}'")))
        }
    }

    fn eat(&mut self, c: char) -> bool {
        self.skip_spaces();
        if self.peek() == Some(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Consumes the newline ending the current line; end-of-input counts too.
    fn end_line(&mut self) -> Result<(), IrParseError> {
        self.skip_spaces();
        match self.peek() {
            None => Ok(()),
            Some('\n') => {
                self.bump();
                Ok(())
            }
            Some(_) => Err(self.error("end of line")),
        }
    }

    /// Consumes a run of name characters; errors when none are present.
    fn ident(&mut self, expected: &str) -> Result<String, IrParseError> {
        let start = self.pos;
        while self.peek().is_some_and(is_name_char) {
            self.bump();
        }
        if self.pos == start {
            return Err(self.error(expected));
        }
        Ok(self.text[start..self.pos].to_string())
    }

    /// Consumes `%name`, returning the name and the position of the `%`.
    fn value_token(&mut self) -> Result<(String, usize), IrParseError> {
        self.skip_spaces();
        let at = self.pos;
        if self.peek() != Some('%') {
            return Err(self.error("a value name starting with '%'"));
        }
        self.bump();
        let name = self.ident("a value name")?;
        Ok((name, at))
    }

    /// Consumes the remainder of a double-quoted string (the opening quote is
    /// already consumed) and returns it as a slice of the input. Strings carry
    /// no escape sequences.
    fn quoted_rest(&mut self, open_at: usize) -> Result<&'a str, IrParseError> {
        let start = self.pos;
        loop {
            match self.peek() {
                Some('"') => {
                    let s = &self.text[start..self.pos];
                    self.bump();
                    return Ok(s);
                }
                Some('\n') | None => {
                    return Err(self.error_at(open_at, "a closing '\"'", self.found_at(self.pos)));
                }
                Some(_) => self.bump(),
            }
        }
    }

    /// Records a value definition, replaying the printer's numbering to
    /// recover the original name hint (`%tmp3` at counter 3 → hint `"tmp"`).
    fn define_value(&mut self, raw: String, at: usize, vid: ValueId) -> Result<(), IrParseError> {
        if self.values.contains_key(&raw) {
            return Err(self.error_at(
                at,
                "a fresh value name",
                format!("'%{raw}' (already defined)"),
            ));
        }
        let counter = self.next_value.to_string();
        self.next_value += 1;
        if raw != counter {
            let hint = match raw.strip_suffix(counter.as_str()) {
                Some(prefix) if !prefix.is_empty() => prefix,
                _ => raw.as_str(),
            };
            self.ctx.set_name_hint(vid, hint);
        }
        self.values.insert(raw, vid);
        Ok(())
    }

    /// Parses one operation line plus any trailing regions. When `block` is
    /// given the op is appended to it; otherwise it is left detached (root).
    fn parse_op(&mut self, block: Option<BlockId>) -> Result<OpId, IrParseError> {
        self.skip_spaces();

        // Result list: `%a, %b = ` — present only when the op has results.
        let mut result_names: Vec<(String, usize)> = Vec::new();
        if self.peek() == Some('%') {
            loop {
                result_names.push(self.value_token()?);
                if !self.eat(',') {
                    break;
                }
            }
            self.expect('=')?;
        }

        // Quoted op name; dialect-qualified names are required so typos read
        // as "unknown op" instead of silently creating a new opcode.
        self.skip_spaces();
        let name_at = self.pos;
        self.expect('"')?;
        let name = self.quoted_rest(name_at)?;
        let dialect_form = name
            .split_once('.')
            .is_some_and(|(d, o)| !d.is_empty() && !o.is_empty());
        if !dialect_form {
            return Err(self.error_at(
                name_at,
                "an op name of the form \"dialect.op\"",
                format!("\"{name}\""),
            ));
        }

        // Operand list.
        self.expect('(')?;
        let mut operands = Vec::new();
        self.skip_spaces();
        if self.peek() != Some(')') {
            loop {
                let (oname, oat) = self.value_token()?;
                let vid = self.values.get(&oname).copied().ok_or_else(|| {
                    self.error_at(oat, "a value defined earlier", format!("'%{oname}'"))
                })?;
                operands.push(vid);
                if !self.eat(',') {
                    break;
                }
            }
        }
        self.expect(')')?;

        // Optional attribute block — on the op line, unlike region braces.
        let mut attrs: Vec<(String, Attribute)> = Vec::new();
        self.skip_spaces();
        if self.peek() == Some('{') {
            self.bump();
            self.skip_spaces();
            if self.peek() == Some('}') {
                self.bump();
            } else {
                loop {
                    let key = self.ident("an attribute name")?;
                    self.expect('=')?;
                    self.skip_spaces();
                    attrs.push((key, self.parse_attr()?));
                    if !self.eat(',') {
                        break;
                    }
                    self.skip_spaces();
                }
                self.expect('}')?;
            }
        }

        // Result types: `: ty1, ty2` — count must match the result list.
        let mut result_types = Vec::new();
        self.skip_spaces();
        let types_at = self.pos;
        if self.peek() == Some(':') {
            self.bump();
            loop {
                self.skip_spaces();
                result_types.push(self.parse_type()?);
                if !self.eat(',') {
                    break;
                }
            }
        }
        if result_types.len() != result_names.len() {
            return Err(self.error_at(
                types_at,
                format!(
                    "{} result type{}",
                    result_names.len(),
                    if result_names.len() == 1 { "" } else { "s" }
                ),
                format!("{}", result_types.len()),
            ));
        }
        self.end_line()?;

        let mut op = Operation::new(name);
        op.operands = operands.into();
        let id = self.ctx.create_op(op);
        for (key, value) in attrs {
            self.ctx.put_attr(id, Symbol::intern(&key), value);
        }
        for ((raw, at), ty) in result_names.into_iter().zip(result_types) {
            let vid = self.ctx.add_result(id, ty);
            self.define_value(raw, at, vid)?;
        }
        if let Some(block) = block {
            self.ctx.append_op(block, id);
        }

        // Trailing regions: each opens with `{` on its own line.
        loop {
            let save = self.pos;
            self.skip_blank();
            if self.peek() == Some('{') {
                self.bump();
                self.parse_region(id)?;
            } else {
                self.pos = save;
                break;
            }
        }
        Ok(id)
    }

    /// Parses a region body after its opening `{`: an optional `^bb(...)`
    /// argument line, then nested ops until the closing `}`. The printer
    /// renders every region as a single block, so that is what is rebuilt.
    fn parse_region(&mut self, parent: OpId) -> Result<(), IrParseError> {
        self.skip_spaces();
        if self.peek() != Some('\n') {
            return Err(self.error("a newline after '{'"));
        }
        self.bump();
        let region = self.ctx.create_region(parent);
        let block = self.ctx.create_block(region);

        self.skip_blank();
        if self.peek() == Some('^') {
            self.bump();
            let label = self.ident("a block label")?;
            if label != "bb" {
                return Err(self.error_at(
                    self.pos - label.len(),
                    "the block label 'bb'",
                    format!("'{label}'"),
                ));
            }
            self.expect('(')?;
            loop {
                let (raw, at) = self.value_token()?;
                self.expect(':')?;
                self.skip_spaces();
                let ty = self.parse_type()?;
                let vid = self.ctx.add_block_arg(block, ty);
                self.define_value(raw, at, vid)?;
                if !self.eat(',') {
                    break;
                }
            }
            self.expect(')')?;
            self.expect(':')?;
            self.end_line()?;
        }

        loop {
            self.skip_blank();
            match self.peek() {
                Some('}') => {
                    self.bump();
                    break;
                }
                None => return Err(self.error("an operation or '}'")),
                Some(_) => {
                    self.parse_op(Some(block))?;
                }
            }
        }
        // The closing `}` sits on its own line; consume its newline so the
        // parent's region scan starts at a line boundary.
        self.end_line()
    }

    /// Parses one attribute value.
    fn parse_attr(&mut self) -> Result<Attribute, IrParseError> {
        self.skip_spaces();
        match self.peek() {
            Some('"') => {
                let at = self.pos;
                self.bump();
                Ok(Attribute::Str(self.quoted_rest(at)?.into()))
            }
            Some('[') => {
                self.bump();
                let mut items = Vec::new();
                self.skip_spaces();
                if self.peek() != Some(']') {
                    loop {
                        items.push(self.parse_attr()?);
                        if !self.eat(',') {
                            break;
                        }
                    }
                }
                self.expect(']')?;
                Ok(classify_array(items))
            }
            Some(c) if c == '-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) if c.is_ascii_alphabetic() => {
                let at = self.pos;
                let word = self.ident("an attribute value")?;
                match word.as_str() {
                    "unit" => Ok(Attribute::Unit),
                    "true" => Ok(Attribute::Bool(true)),
                    "false" => Ok(Attribute::Bool(false)),
                    // How `Display` spells the non-finite floats.
                    "NaN" => Ok(Attribute::Float(f64::NAN)),
                    "inf" => Ok(Attribute::Float(f64::INFINITY)),
                    _ => self
                        .parse_type_from_word(&word, at)
                        .map(Attribute::TypeAttr),
                }
            }
            _ => Err(self.error("an attribute value")),
        }
    }

    /// Parses an integer or float literal; a `.` or exponent makes it a float
    /// (the printer guarantees floats always carry one).
    fn parse_number(&mut self) -> Result<Attribute, IrParseError> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.bump();
            if self.text[self.pos..].starts_with("inf") {
                self.pos += "inf".len();
                return Ok(Attribute::Float(f64::NEG_INFINITY));
            }
        }
        let mut saw_digit = false;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
            saw_digit = true;
        }
        let mut is_float = false;
        if self.peek() == Some('.') {
            is_float = true;
            self.bump();
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            is_float = true;
            self.bump();
            if matches!(self.peek(), Some('+' | '-')) {
                self.bump();
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
            }
        }
        let text = &self.text[start..self.pos];
        if !saw_digit {
            return Err(self.error_at(start, "a number", self.found_at(start)));
        }
        if is_float {
            text.parse::<f64>()
                .map(Attribute::Float)
                .map_err(|_| self.error_at(start, "a float literal", format!("'{text}'")))
        } else {
            text.parse::<i64>()
                .map(Attribute::Int)
                .map_err(|_| self.error_at(start, "a 64-bit integer", format!("'{text}'")))
        }
    }

    /// Parses a type starting at the cursor.
    fn parse_type(&mut self) -> Result<Type, IrParseError> {
        self.skip_spaces();
        let at = self.pos;
        let word = self.ident("a type")?;
        self.parse_type_from_word(&word, at)
    }

    /// Parses a type given its already-consumed leading keyword.
    fn parse_type_from_word(&mut self, word: &str, at: usize) -> Result<Type, IrParseError> {
        match word {
            "index" => Ok(Type::Index),
            "token" => Ok(Type::Token),
            "none" => Ok(Type::None),
            "tensor" | "memref" => {
                self.expect('<')?;
                let (shape, elem) = self.parse_shape_elem()?;
                self.expect('>')?;
                Ok(if word == "tensor" {
                    Type::tensor(shape, elem)
                } else {
                    Type::memref(shape, elem)
                })
            }
            "stream" => {
                self.expect('<')?;
                let elem = self.parse_type()?;
                self.expect(',')?;
                self.skip_spaces();
                let depth_at = self.pos;
                let depth = match self.parse_number()? {
                    Attribute::Int(d) => d,
                    _ => {
                        return Err(self.error_at(
                            depth_at,
                            "an integer stream depth",
                            self.found_at(depth_at),
                        ))
                    }
                };
                self.expect('>')?;
                Ok(Type::stream(elem, depth))
            }
            _ => {
                if let Some(width) = word.strip_prefix('i').and_then(|w| w.parse::<u32>().ok()) {
                    return Ok(Type::Int(width));
                }
                if let Some(width) = word.strip_prefix('f').and_then(|w| w.parse::<u32>().ok()) {
                    return Ok(Type::Float(width));
                }
                Err(self.error_at(at, "a type", format!("'{word}'")))
            }
        }
    }

    /// Parses `4x8xi8`-style shape-then-element inside `tensor<...>` /
    /// `memref<...>` angle brackets.
    fn parse_shape_elem(&mut self) -> Result<(Vec<i64>, Type), IrParseError> {
        let mut shape = Vec::new();
        loop {
            self.skip_spaces();
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                break;
            }
            let start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
            }
            let digits = &self.text[start..self.pos];
            if self.peek() != Some('x') {
                return Err(self.error("'x' after a shape dimension"));
            }
            self.bump();
            let dim = digits
                .parse::<i64>()
                .map_err(|_| self.error_at(start, "a shape dimension", format!("'{digits}'")))?;
            shape.push(dim);
        }
        let elem = self.parse_type()?;
        Ok((shape, elem))
    }
}

/// Canonicalizes a parsed bracket list into the most specific `Attribute`
/// array variant — the form the printer would have produced it from.
///
/// `[]` maps to the generic `Array` (the printer's only source of empty
/// lists, e.g. a no-result function's `result_types`), homogeneous leaves map
/// to `IntArray`/`FloatArray`/`StrArray`, and anything else stays `Array`.
///
/// Each variant is collected from `items` in one exact-size pass, so its
/// payload is allocated once, at its final size.
fn classify_array(items: Vec<Attribute>) -> Attribute {
    if items.is_empty() {
        return Attribute::Array(items.into());
    }
    if items.iter().all(|a| matches!(a, Attribute::Int(_))) {
        return Attribute::IntArray(
            items
                .iter()
                .map(|a| match a {
                    Attribute::Int(v) => *v,
                    _ => unreachable!(),
                })
                .collect(),
        );
    }
    if items.iter().all(|a| matches!(a, Attribute::Float(_))) {
        return Attribute::FloatArray(
            items
                .iter()
                .map(|a| match a {
                    Attribute::Float(v) => *v,
                    _ => unreachable!(),
                })
                .collect(),
        );
    }
    if items.iter().all(|a| matches!(a, Attribute::Str(_))) {
        return Attribute::StrArray(
            items
                .into_iter()
                .map(|a| match a {
                    Attribute::Str(v) => v,
                    _ => unreachable!(),
                })
                .collect(),
        );
    }
    Attribute::Array(items.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opt(name: &str, value: &str) -> PassOption {
        PassOption::new(name, value)
    }

    #[test]
    fn parses_bare_pass_list() {
        let passes = parse_pipeline("construct,fusion,lower").unwrap();
        assert_eq!(
            passes,
            vec![
                PassInvocation::new("construct"),
                PassInvocation::new("fusion"),
                PassInvocation::new("lower"),
            ]
        );
    }

    #[test]
    fn parses_options_and_whitespace() {
        let passes =
            parse_pipeline(" tiling { factor = 4 , external-threshold-bytes = 65536 } , balance ")
                .unwrap();
        assert_eq!(
            passes,
            vec![
                PassInvocation::with_options(
                    "tiling",
                    vec![opt("factor", "4"), opt("external-threshold-bytes", "65536")],
                ),
                PassInvocation::new("balance"),
            ]
        );
    }

    #[test]
    fn option_values_may_contain_plus_and_dots() {
        let passes = parse_pipeline("parallelize{mode=IA+CA,device=vu9p-slr}").unwrap();
        assert_eq!(
            passes[0].options,
            vec![opt("mode", "IA+CA"), opt("device", "vu9p-slr")]
        );
    }

    #[test]
    fn empty_input_is_an_empty_pipeline() {
        assert!(parse_pipeline("").unwrap().is_empty());
        assert!(parse_pipeline("   ").unwrap().is_empty());
    }

    #[test]
    fn trailing_comma_is_a_structured_error() {
        let err = parse_pipeline("construct,").unwrap_err();
        assert_eq!(err.expected, "pass name");
        assert_eq!(err.found, "end of input");
        assert_eq!(err.position, 10);
    }

    #[test]
    fn missing_equals_is_a_structured_error() {
        let err = parse_pipeline("tiling{factor}").unwrap_err();
        assert_eq!(err.expected, "'='");
        assert_eq!(err.found, "'}'");
        assert_eq!(err.position, 13);
    }

    #[test]
    fn missing_value_is_a_structured_error() {
        let err = parse_pipeline("tiling{factor=}").unwrap_err();
        assert_eq!(err.expected, "option value");
        assert_eq!(err.found, "'}'");
    }

    #[test]
    fn unterminated_option_block_is_a_structured_error() {
        let err = parse_pipeline("tiling{factor=4").unwrap_err();
        assert_eq!(err.expected, "'}'");
        assert_eq!(err.found, "end of input");
    }

    #[test]
    fn empty_option_block_is_a_structured_error() {
        let err = parse_pipeline("tiling{}").unwrap_err();
        assert_eq!(err.expected, "option name");
        assert_eq!(err.found, "'}'");
    }

    #[test]
    fn garbage_between_passes_is_a_structured_error() {
        let err = parse_pipeline("construct lower").unwrap_err();
        assert_eq!(err.expected, "','");
        assert_eq!(err.found, "'l'");
        let err = parse_pipeline("construct,,lower").unwrap_err();
        assert_eq!(err.expected, "pass name");
        assert_eq!(err.found, "','");
    }

    #[test]
    fn errors_render_position_and_expectation() {
        let err = parse_pipeline("construct,").unwrap_err();
        assert_eq!(
            err.to_string(),
            "pipeline parse error at byte 10: expected pass name, found end of input"
        );
    }

    #[test]
    fn print_is_the_inverse_of_parse() {
        let text = "construct,fusion{patterns=a+b},tiling{factor=4,external-threshold-bytes=65536},parallelize{mode=IA+CA}";
        let passes = parse_pipeline(text).unwrap();
        assert_eq!(print_pipeline(&passes), text);
        assert_eq!(parse_pipeline(&print_pipeline(&passes)).unwrap(), passes);
    }
}

#[cfg(test)]
mod module_tests {
    use super::*;
    use crate::builder::OpBuilder;
    use crate::fingerprint::structural_fingerprint;
    use crate::printer::print_op;

    /// A module exercising results, operands, attrs of every kind, block
    /// args, nesting and name hints.
    fn sample_module() -> (Context, OpId) {
        let mut ctx = Context::new();
        let module = ctx.create_module("sample");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func(
            "main",
            vec![Type::f32(), Type::memref(vec![4, 8], Type::f32())],
            vec![Type::i32()],
        );
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let c = b.create_constant_int(42, Type::i32());
        let f = b.create_constant_float(1.0, Type::f32());
        let (_, sums) = b.create(
            "arith.addi",
            vec![c, c],
            vec![Type::i32()],
            vec![
                ("flag", Attribute::Unit),
                ("fast", Attribute::Bool(true)),
                ("factors", Attribute::from([2, 4])),
                ("scales", Attribute::from(vec![0.5, 2.0])),
                (
                    "fashions",
                    Attribute::StrArray(["cyclic".into(), "block".into()].into()),
                ),
                ("elem", Attribute::TypeAttr(Type::stream(Type::i1(), 3))),
                (
                    "nested",
                    Attribute::Array([Attribute::from([1, 2]), Attribute::Str("x".into())].into()),
                ),
            ],
        );
        let _ = b.create("test.use", vec![sums[0], f], vec![], vec![]);
        b.create_return(vec![sums[0]]);
        (ctx, module)
    }

    #[test]
    fn round_trips_by_fingerprint_and_reprint() {
        let (ctx, module) = sample_module();
        let text = print_op(&ctx, module);
        let (parsed_ctx, parsed_root) = parse_module(&text).expect("parse printed module");
        assert_eq!(
            structural_fingerprint(&ctx, module),
            structural_fingerprint(&parsed_ctx, parsed_root),
            "fingerprint mismatch; printed:\n{text}"
        );
        assert_eq!(
            print_op(&parsed_ctx, parsed_root),
            text,
            "re-print is not byte-identical"
        );
    }

    #[test]
    fn reconstructs_the_isolated_flag_from_op_names() {
        let (ctx, module) = sample_module();
        let text = print_op(&ctx, module);
        let (parsed_ctx, parsed_root) = parse_module(&text).unwrap();
        assert!(
            parsed_ctx.op(parsed_root).name.is_isolated(),
            "module must be isolated"
        );
        let func = parsed_ctx.body_ops(parsed_root)[0];
        assert!(
            parsed_ctx.op(func).name.is_isolated(),
            "func must be isolated"
        );
        let first = parsed_ctx.body_ops(func)[0];
        assert!(!parsed_ctx.op(first).name.is_isolated());
    }

    #[test]
    fn recovers_name_hints() {
        let mut ctx = Context::new();
        let module = ctx.create_module("m");
        let func = OpBuilder::at_end_of(&mut ctx, module).create_func("f", vec![], vec![]);
        let mut b = OpBuilder::at_end_of(&mut ctx, func);
        let c = b.create_constant_int(1, Type::i32());
        b.context().set_name_hint(c, "acc");
        let text = print_op(&ctx, module);
        assert!(text.contains("%acc"), "hint missing from:\n{text}");
        let (parsed_ctx, parsed_root) = parse_module(&text).unwrap();
        assert_eq!(print_op(&parsed_ctx, parsed_root), text);
    }

    #[test]
    fn truncated_module_is_a_positioned_error() {
        let err = parse_module("\"builtin.module\"() {sym_name = \"m\"}\n{\n").unwrap_err();
        assert_eq!(err.expected, "an operation or '}'");
        assert_eq!(err.found, "end of input");
        assert_eq!(err.line, 3);
        assert_eq!(err.column, 1);
    }

    #[test]
    fn unknown_op_shape_is_a_positioned_error() {
        let err = parse_module("\"noddotname\"()\n").unwrap_err();
        assert_eq!(err.expected, "an op name of the form \"dialect.op\"");
        assert_eq!(err.found, "\"noddotname\"");
        assert_eq!(err.line, 1);
        assert_eq!(err.column, 1);
    }

    #[test]
    fn bad_attr_syntax_is_a_positioned_error() {
        let err = parse_module("\"a.b\"() {key = @bogus}\n").unwrap_err();
        assert_eq!(err.expected, "an attribute value");
        assert_eq!(err.found, "'@'");
        assert_eq!(err.line, 1);
        assert_eq!(err.column, 16);
    }

    #[test]
    fn dangling_value_ref_is_a_positioned_error() {
        let text = "\"builtin.module\"() {sym_name = \"m\"}\n{\n  \"a.use\"(%ghost)\n}\n";
        let err = parse_module(text).unwrap_err();
        assert_eq!(err.expected, "a value defined earlier");
        assert_eq!(err.found, "'%ghost'");
        assert_eq!(err.line, 3);
        assert_eq!(err.column, 11);
    }

    #[test]
    fn duplicate_definition_is_a_positioned_error() {
        let text = "\"builtin.module\"() {sym_name = \"m\"}\n{\n  \
                    %x0 = \"a.b\"() : i32\n  %x0 = \"a.b\"() : i32\n}\n";
        let err = parse_module(text).unwrap_err();
        assert_eq!(err.expected, "a fresh value name");
        assert_eq!(err.line, 4);
    }

    #[test]
    fn result_count_mismatch_is_a_positioned_error() {
        let err = parse_module("%a0, %a1 = \"a.b\"() : i32\n").unwrap_err();
        assert_eq!(err.expected, "2 result types");
        assert_eq!(err.found, "1");
    }

    #[test]
    fn trailing_garbage_is_a_positioned_error() {
        let err = parse_module("\"a.b\"()\n\"c.d\"()\n").unwrap_err();
        assert_eq!(err.expected, "end of input");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn errors_render_line_and_column() {
        let err = parse_module("\"a.b\"() {key = @x}\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "IR parse error at line 1, column 16: expected an attribute value, found '@'"
        );
    }

    #[test]
    fn parses_every_type_form() {
        let text = "%r0, %r1, %r2, %r3, %r4, %r5, %r6 = \"t.t\"() : index, i1, f64, \
                    tensor<4x8xi8>, memref<16xf32>, stream<i1, 3>, token\n";
        let (ctx, root) = parse_module(text).unwrap();
        let tys: Vec<&Type> = ctx
            .op(root)
            .results
            .iter()
            .map(|&r| ctx.value_type(r))
            .collect();
        assert_eq!(tys[0], &Type::Index);
        assert_eq!(tys[3], &Type::tensor(vec![4, 8], Type::i8()));
        assert_eq!(tys[4], &Type::memref(vec![16], Type::f32()));
        assert_eq!(tys[5], &Type::stream(Type::i1(), 3));
        assert_eq!(tys[6], &Type::Token);
    }

    /// Float payloads are interned by bit pattern, and the printed form
    /// keeps every bit a round trip can see: `-0.0` stays negative, the
    /// non-finite values parse back, and the parsed arrays are the very
    /// payloads the printed ones were.
    #[test]
    fn float_payloads_survive_a_round_trip_bit_for_bit() {
        let mut ctx = Context::new();
        let root = ctx.create_op(Operation::new("test.floats"));
        let signed = Attribute::from(vec![0.0, -0.0]);
        let non_finite = Attribute::from(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        ctx.set_attr(root, "signed", signed);
        ctx.set_attr(root, "non_finite", non_finite);
        ctx.set_attr(root, "zero", -0.0);
        ctx.set_attr(root, "nan", f64::NAN);
        let text = crate::printer::print_op(&ctx, root);
        assert!(
            text.contains("[0.0, -0.0]") && text.contains("[NaN, inf, -inf]"),
            "{text}"
        );

        let (parsed, parsed_root) = parse_module(&text).unwrap();
        let attr = |key| *parsed.op(parsed_root).attr(key).unwrap();
        let same_payload = |a: Attribute, b: Attribute| match (a, b) {
            (Attribute::FloatArray(a), Attribute::FloatArray(b)) => a.ptr_eq(b),
            _ => false,
        };
        assert!(same_payload(attr("signed"), signed));
        assert!(same_payload(attr("non_finite"), non_finite));
        let bits = |a: Attribute| a.as_float().unwrap().to_bits();
        assert_eq!(bits(attr("zero")), (-0.0_f64).to_bits());
        assert_eq!(bits(attr("nan")), f64::NAN.to_bits());
        assert_eq!(crate::printer::print_op(&parsed, parsed_root), text);
    }

    #[test]
    fn float_and_int_attrs_stay_distinct_through_round_trip() {
        let text = "\"a.b\"() {f = 1.0, i = 1}\n";
        let (ctx, root) = parse_module(text).unwrap();
        assert_eq!(ctx.op(root).attr("f"), Some(&Attribute::Float(1.0)));
        assert_eq!(ctx.op(root).attr("i"), Some(&Attribute::Int(1)));
    }
}
