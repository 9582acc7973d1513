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
//!
//! Both parsers read their text through one byte cursor: every token of either
//! grammar is ASCII, so the cursor steps over bytes, hands tokens out as
//! slices of the input, and decodes a character only to skip non-ASCII
//! whitespace or to show one in an error.

// Values whose printed name does not end in their number (hand-written
// `.hir` only) are looked up by name: a string key, no dense index.
#![allow(clippy::disallowed_types)]

use crate::attributes::Attribute;
use crate::context::Context;
use crate::ids::{BlockId, OpId, ValueId};
use crate::intern::{Interned, KeyHasher, Symbol};
use crate::operation::Operation;
use crate::pass::PassOption;
use crate::storage::IdList;
use crate::types::Type;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::BuildHasherDefault;

/// One parsed pass invocation: a pass name plus its options, all interned,
/// so an invocation is two words to copy and the rendering it holds is
/// shared by whatever records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PassInvocation {
    /// Pass name as written in the pipeline text (e.g. `"tiling"`).
    pub name: Symbol,
    /// Options in written order (e.g. `factor=4`).
    pub options: Interned<[PassOption]>,
}

impl PassInvocation {
    /// An invocation without options.
    pub fn new(name: impl Into<Symbol>) -> Self {
        PassInvocation::with_options(name, [])
    }

    /// An invocation with explicit options.
    pub fn with_options(
        name: impl Into<Symbol>,
        options: impl Into<Interned<[PassOption]>>,
    ) -> Self {
        PassInvocation {
            name: name.into(),
            options: options.into(),
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

// ---------------------------------------------------------------------------
// Byte cursor
// ---------------------------------------------------------------------------

/// Byte classes of both grammars, one bit each: [`NAME`] marks the bytes of
/// pass, option, attribute and type names, [`VALUE_NAME`] those of value
/// names — a name byte, or the `+` that the names of fused tasks carry into
/// the hints of their buffers.
static CLASSES: [u8; 256] = {
    let mut classes = [0_u8; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        if c.is_ascii_alphanumeric() || matches!(c, b'-' | b'_' | b'.') {
            classes[b] = NAME | VALUE_NAME;
        } else if c == b'+' {
            classes[b] = VALUE_NAME;
        }
        b += 1;
    }
    classes
};
const NAME: u8 = 1;
const VALUE_NAME: u8 = 2;

/// True for bytes allowed in pass, option, attribute and type names.
#[inline]
fn is_name_byte(b: u8) -> bool {
    CLASSES[usize::from(b)] & NAME != 0
}

/// True for bytes allowed in value names.
#[inline]
fn is_value_name_byte(b: u8) -> bool {
    CLASSES[usize::from(b)] & VALUE_NAME != 0
}

/// A position in UTF-8 text. It steps over ASCII a byte at a time and over
/// anything else a whole character at a time, so it always sits on a
/// character boundary, and every token it hands out is a slice of the input.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor { text, pos: 0 }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn at(&self, byte: u8) -> bool {
        self.peek() == Some(byte)
    }

    /// Consumes `byte` when it is next.
    #[inline]
    fn eat(&mut self, byte: u8) -> bool {
        let next = self.at(byte);
        self.pos += usize::from(next);
        next
    }

    /// Consumes the run of bytes `keep` accepts and returns it. `keep` must
    /// accept every non-ASCII byte or none, so the run ends on a boundary.
    #[inline]
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        let rest = &self.text.as_bytes()[start..];
        self.pos += rest.iter().position(|&b| !keep(b)).unwrap_or(rest.len());
        &self.text[start..self.pos]
    }

    /// Skips spaces, tabs and carriage returns, but not newlines.
    #[inline]
    fn skip_spaces(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace as [`char::is_whitespace`] defines it: ASCII by the
    /// byte, anything else decoded.
    fn skip_whitespace(&mut self) {
        loop {
            match self.peek() {
                Some(b'\t'..=b'\r' | b' ') => self.pos += 1,
                Some(0x80..) => match self.char_at(self.pos) {
                    Some(c) if c.is_whitespace() => self.pos += c.len_utf8(),
                    _ => return,
                },
                _ => return,
            }
        }
    }

    /// The character starting at `pos`, decoded.
    fn char_at(&self, pos: usize) -> Option<char> {
        self.text[pos..].chars().next()
    }
}

// ---------------------------------------------------------------------------
// Pipeline parser
// ---------------------------------------------------------------------------

/// The pipeline grammar over a [`Cursor`]; whitespace may precede any token.
struct Scanner<'a> {
    cur: Cursor<'a>,
}

impl Scanner<'_> {
    /// Renders what sits at the cursor, for error messages.
    fn found(&self) -> String {
        match self.cur.char_at(self.cur.pos) {
            Some(c) => format!("'{c}'"),
            None => "end of input".to_string(),
        }
    }

    fn error(&self, expected: &str) -> PipelineParseError {
        PipelineParseError::new(self.cur.pos, expected, self.found())
    }

    /// Consumes a run of name characters; errors when none are present.
    fn name(&mut self, expected: &str) -> Result<Symbol, PipelineParseError> {
        self.cur.skip_whitespace();
        let name = self.cur.take_while(is_name_byte);
        if name.is_empty() {
            return Err(self.error(expected));
        }
        Ok(Symbol::intern(name))
    }

    /// Consumes a run of value characters — everything but the structural
    /// characters of the grammar — trimmed; errors when empty.
    fn value(&mut self) -> Result<Symbol, PipelineParseError> {
        self.cur.skip_whitespace();
        let start = self.cur.pos;
        let raw = self
            .cur
            .take_while(|b| !matches!(b, b',' | b'{' | b'}' | b'='))
            .trim_end();
        if raw.is_empty() {
            return Err(PipelineParseError::new(start, "option value", self.found()));
        }
        Ok(Symbol::intern(raw))
    }

    /// Consumes `byte` or errors.
    fn expect(&mut self, byte: u8) -> Result<(), PipelineParseError> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.error(&format!("'{}'", char::from(byte))))
        }
    }

    /// Consumes `byte` when present.
    fn eat(&mut self, byte: u8) -> bool {
        self.cur.skip_whitespace();
        self.cur.eat(byte)
    }

    fn at_end(&mut self) -> bool {
        self.cur.skip_whitespace();
        self.cur.peek().is_none()
    }
}

/// Parses a textual pipeline into pass invocations.
///
/// Empty (or all-whitespace) input yields an empty pipeline.
///
/// # Errors
/// Returns a [`PipelineParseError`] locating the first offending token.
pub fn parse_pipeline(text: &str) -> Result<Vec<PassInvocation>, PipelineParseError> {
    let mut scanner = Scanner {
        cur: Cursor::new(text),
    };
    let mut passes = Vec::new();
    if scanner.at_end() {
        return Ok(passes);
    }
    // One buffer for every pass's options; each list is interned from it.
    let mut options = Vec::new();
    loop {
        let name = scanner.name("pass name")?;
        options.clear();
        if scanner.eat(b'{') {
            loop {
                let key = scanner.name("option name")?;
                scanner.expect(b'=')?;
                let value = scanner.value()?;
                options.push(PassOption { name: key, value });
                if !scanner.eat(b',') {
                    break;
                }
            }
            scanner.expect(b'}')?;
        }
        passes.push(PassInvocation::with_options(name, options.as_slice()));
        if scanner.at_end() {
            return Ok(passes);
        }
        scanner.expect(b',')?;
        // A trailing comma leaves the scanner at end-of-input here; the next
        // iteration's name() reports "expected pass name, found end of input".
    }
}

/// Prints pass invocations in the textual pipeline syntax; the inverse of
/// [`parse_pipeline`].
pub fn print_pipeline<'a>(passes: impl IntoIterator<Item = &'a PassInvocation>) -> String {
    let rendered: Vec<String> = passes.into_iter().map(|p| p.to_string()).collect();
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

/// How deeply regions, attribute arrays and aggregate types may nest, all
/// counted together. The parser descends recursively, so an unbounded
/// depth would let a hostile input overflow the stack of whichever thread
/// parses it; past the bound the input is rejected with a positioned error
/// instead. The compiler's own designs nest fewer than ten levels.
pub const MAX_NESTING: usize = 100;

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
    // A printed kernel takes about 75 bytes per op and defines a value per
    // op (a DNN design twice as many bytes): room for that many up front
    // keeps the arenas from growing step by step while the module is read.
    let ops = text.len() / 64 + 1;
    ctx.reserve(ops, ops);
    let mut parser = ModuleParser {
        cur: Cursor::new(text),
        ctx,
        by_number: Vec::with_capacity(ops),
        by_name: HashMap::default(),
        symbols: [None; SYMBOL_SLOTS],
        depth: 0,
        results: Vec::new(),
        dims: Vec::new(),
        items: Vec::new(),
    };
    parser.cur.skip_whitespace();
    let root = parser.parse_op(None)?;
    parser.cur.skip_whitespace();
    if parser.cur.peek().is_some() {
        return Err(parser.error("end of input"));
    }
    Ok(root)
}

/// The length of the name hint in `raw`, the printed name of the value
/// the printer numbered `number`, when `raw` ends in that number: the
/// printer writes `%<hint><number>` (`tmp3` at 3 has the hint `tmp`, `3`
/// none). `None` when `raw` does not end in it — the whole name is then
/// the hint.
fn hint_len(raw: &str, number: usize) -> Option<usize> {
    let mut digits = [0_u8; 20];
    let mut at = digits.len();
    let mut n = number;
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    let digits = &digits[at..];
    raw.as_bytes()
        .ends_with(digits)
        .then(|| raw.len() - digits.len())
}

/// Slots of a parse's symbol cache; a module has a few dozen distinct op
/// names, attribute keys and strings.
const SYMBOL_SLOTS: usize = 64;

/// The slot of `s` in a symbol cache: a hash of its length and its first
/// and last eight bytes, which tell apart names like `arith.addf` and
/// `arith.mulf`.
fn symbol_slot(s: &str) -> usize {
    let bytes = s.as_bytes();
    let word = |eight: &[u8]| u64::from_le_bytes(eight.try_into().expect("eight bytes"));
    let (head, tail) = match bytes.len() {
        0..8 => (bytes.iter().fold(0, |w, &b| (w << 8) | u64::from(b)), 0),
        n => (word(&bytes[..8]), word(&bytes[n - 8..])),
    };
    let mixed =
        (head ^ tail.rotate_left(29) ^ bytes.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (mixed >> (64 - SYMBOL_SLOTS.trailing_zeros())) as usize
}

/// The value of `text` — an optional `-`, then ASCII digits — when it fits
/// in an `i64`.
fn parse_int(text: &str) -> Option<i64> {
    let (digits, negative) = match text.strip_prefix('-') {
        Some(digits) => (digits, true),
        None => (text, false),
    };
    digits.bytes().try_fold(0_i64, |value, b| {
        let digit = i64::from(b - b'0');
        let value = value.checked_mul(10)?;
        if negative {
            value.checked_sub(digit)
        } else {
            value.checked_add(digit)
        }
    })
}

/// The number of bits a shaped type of `shape` and `elem` holds, when its
/// element count, multiplied out left to right, and that count times the
/// element width all fit in an `i64`.
fn shaped_bits(shape: &[i64], elem: &Type) -> Option<i64> {
    shape
        .iter()
        .try_fold(1_i64, |count, &dim| count.checked_mul(dim))?
        .checked_mul(i64::from(elem.elem_bit_width()))
}

/// Recursive-descent parser over the printer's output grammar.
struct ModuleParser<'a, 'c> {
    cur: Cursor<'a>,
    ctx: &'c mut Context,
    /// Every value defined so far, by its number: the printer numbers
    /// values in definition order with one counter, so the definitions are
    /// read in the order it numbered them. Names are without the `%`.
    by_number: Vec<(&'a str, ValueId)>,
    /// The values whose name does not end in their number (written by
    /// hand), by name.
    by_name: HashMap<&'a str, ValueId, BuildHasherDefault<KeyHasher>>,
    /// Symbols this parse interned, by [`symbol_slot`]: op names,
    /// attribute keys and strings repeat line after line, and a hit here
    /// skips the process-wide table.
    symbols: [Option<(&'a str, Symbol)>; SYMBOL_SLOTS],
    /// Regions, attribute arrays and aggregate types open at the cursor.
    depth: usize,
    /// The result names of the op line being read, with their positions,
    /// until its result types are read. Nothing below the line's tokens
    /// reads them, so one vector serves every op.
    results: Vec<(&'a str, usize)>,
    /// Stacks of the shape dimensions and array items being read: a nested
    /// type or array pushes above its parent's and truncates back.
    dims: Vec<i64>,
    items: Vec<Attribute>,
}

impl<'a> ModuleParser<'a, '_> {
    fn intern(&mut self, s: &'a str) -> Symbol {
        let slot = &mut self.symbols[symbol_slot(s)];
        match *slot {
            Some((cached, symbol)) if cached == s => symbol,
            _ => {
                let symbol = Symbol::intern(s);
                *slot = Some((s, symbol));
                symbol
            }
        }
    }

    // The error paths are kept out of line, away from the token loops.
    #[cold]
    fn found_at(&self, pos: usize) -> String {
        match self.cur.char_at(pos) {
            Some('\n') => "end of line".to_string(),
            Some(c) => format!("'{c}'"),
            None => "end of input".to_string(),
        }
    }

    #[cold]
    #[inline(never)]
    fn error_at(&self, pos: usize, expected: impl Into<String>, found: String) -> IrParseError {
        let prefix = &self.cur.text[..pos];
        let line_start = prefix.rfind('\n').map_or(0, |at| at + 1);
        IrParseError {
            position: pos,
            line: prefix.matches('\n').count() + 1,
            column: pos - line_start + 1,
            expected: expected.into(),
            found,
        }
    }

    #[cold]
    #[inline(never)]
    fn error(&self, expected: impl Into<String>) -> IrParseError {
        self.error_at(self.cur.pos, expected, self.found_at(self.cur.pos))
    }

    fn expect(&mut self, byte: u8) -> Result<(), IrParseError> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.error(format!("'{}'", char::from(byte))))
        }
    }

    /// Consumes `byte` when it is next on this line.
    fn eat(&mut self, byte: u8) -> bool {
        self.cur.skip_spaces();
        self.cur.eat(byte)
    }

    /// Opens one more level of nesting at the bracket at `open`.
    fn descend(&mut self, open: usize) -> Result<(), IrParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.error_at(
                open,
                format!("at most {MAX_NESTING} nested regions, arrays and types"),
                self.found_at(open),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    /// Consumes the newline ending the current line; end-of-input counts too.
    fn end_line(&mut self) -> Result<(), IrParseError> {
        self.cur.skip_spaces();
        match self.cur.peek() {
            None => Ok(()),
            Some(b'\n') => {
                self.cur.pos += 1;
                Ok(())
            }
            Some(_) => Err(self.error("end of line")),
        }
    }

    /// Consumes a run of name characters; errors when none are present.
    fn ident(&mut self, expected: &str) -> Result<&'a str, IrParseError> {
        let name = self.cur.take_while(is_name_byte);
        if name.is_empty() {
            return Err(self.error(expected));
        }
        Ok(name)
    }

    /// Consumes `%name`, returning the name and the position of the `%`.
    fn value_token(&mut self) -> Result<(&'a str, usize), IrParseError> {
        self.cur.skip_spaces();
        let at = self.cur.pos;
        if !self.cur.eat(b'%') {
            return Err(self.error("a value name starting with '%'"));
        }
        let name = self.cur.take_while(is_value_name_byte);
        if name.is_empty() {
            return Err(self.error("a value name"));
        }
        Ok((name, at))
    }

    /// Consumes the remainder of a double-quoted string (the opening quote is
    /// already consumed) and returns it as a slice of the input. Strings carry
    /// no escape sequences.
    fn quoted_rest(&mut self, open_at: usize) -> Result<&'a str, IrParseError> {
        let start = self.cur.pos;
        let rest = &self.cur.text.as_bytes()[start..];
        let end = rest.iter().position(|&b| b == b'"' || b == b'\n');
        self.cur.pos += end.unwrap_or(rest.len());
        if !self.cur.eat(b'"') {
            return Err(self.error_at(open_at, "a closing '\"'", self.found_at(self.cur.pos)));
        }
        Ok(&self.cur.text[start..self.cur.pos - 1])
    }

    /// The value printed as `%name`. The printer ends every name in the
    /// number of its definition, so the numbers the trailing digits of
    /// `name` spell are tried first; any other name is in `by_name`.
    fn lookup(&self, name: &str) -> Option<ValueId> {
        let defined = self.by_number.len();
        let (mut number, mut place) = (0, 1);
        for &b in name.as_bytes().iter().rev() {
            if !b.is_ascii_digit() || place > defined {
                break;
            }
            number += usize::from(b - b'0') * place;
            place *= 10;
            // The printer writes no leading zero: `07` is not 7.
            let canonical = b != b'0' || place == 10;
            if canonical && number < defined && self.by_number[number].0 == name {
                return Some(self.by_number[number].1);
            }
        }
        self.by_name.get(name).copied()
    }

    /// Records a value definition, replaying the printer's numbering to
    /// recover the original name hint (see [`hint_len`]).
    fn define_value(&mut self, raw: &'a str, at: usize, vid: ValueId) -> Result<(), IrParseError> {
        if self.lookup(raw).is_some() {
            return Err(self.error_at(
                at,
                "a fresh value name",
                format!("'%{raw}' (already defined)"),
            ));
        }
        match hint_len(raw, self.by_number.len()) {
            Some(0) => {}
            Some(len) => self.ctx.set_name_hint(vid, &raw[..len]),
            None => {
                self.by_name.insert(raw, vid);
                self.ctx.set_name_hint(vid, raw);
            }
        }
        self.by_number.push((raw, vid));
        Ok(())
    }

    /// Parses one operation line plus any trailing regions. When `block` is
    /// given the op is appended to it; otherwise it is left detached (root).
    fn parse_op(&mut self, block: Option<BlockId>) -> Result<OpId, IrParseError> {
        self.cur.skip_spaces();

        // Result list: `%a, %b = ` — present only when the op has results.
        self.results.clear();
        if self.cur.at(b'%') {
            loop {
                let result = self.value_token()?;
                self.results.push(result);
                if !self.eat(b',') {
                    break;
                }
            }
            self.expect(b'=')?;
        }

        // Quoted op name; dialect-qualified names are required so typos read
        // as "unknown op" instead of silently creating a new opcode.
        self.cur.skip_spaces();
        let name_at = self.cur.pos;
        self.expect(b'"')?;
        let name = self.quoted_rest(name_at)?;
        let dialect_form = name
            .bytes()
            .position(|b| b == b'.')
            .is_some_and(|dot| dot > 0 && dot + 1 < name.len());
        if !dialect_form {
            return Err(self.error_at(
                name_at,
                "an op name of the form \"dialect.op\"",
                format!("\"{name}\""),
            ));
        }

        // Operand list.
        self.expect(b'(')?;
        let mut operands = IdList::new();
        self.cur.skip_spaces();
        if !self.cur.at(b')') {
            loop {
                let (oname, oat) = self.value_token()?;
                let Some(vid) = self.lookup(oname) else {
                    return Err(self.error_at(
                        oat,
                        "a value defined earlier",
                        format!("'%{oname}'"),
                    ));
                };
                operands.push(vid);
                if !self.eat(b',') {
                    break;
                }
            }
        }
        self.expect(b')')?;

        // The op is built here and given its attributes and results as they
        // are read; an error further on leaves it unattached.
        let mut op = Operation::new(self.intern(name));
        op.operands = operands;
        let id = self.ctx.create_op(op);

        // Optional attribute block — on the op line, unlike region braces.
        self.cur.skip_spaces();
        if self.cur.eat(b'{') {
            self.cur.skip_spaces();
            if !self.cur.eat(b'}') {
                loop {
                    let key = self.ident("an attribute name")?;
                    let key = self.intern(key);
                    self.expect(b'=')?;
                    self.cur.skip_spaces();
                    let value = self.parse_attr()?;
                    self.ctx.put_attr(id, key, value);
                    if !self.eat(b',') {
                        break;
                    }
                    self.cur.skip_spaces();
                }
                self.expect(b'}')?;
            }
        }

        // Result types: `: ty1, ty2` — count must match the result list.
        self.cur.skip_spaces();
        let types_at = self.cur.pos;
        if self.cur.eat(b':') {
            loop {
                self.cur.skip_spaces();
                let ty = self.parse_type()?;
                self.ctx.add_result(id, ty);
                if !self.eat(b',') {
                    break;
                }
            }
        }
        let types = self.ctx.op(id).results.len();
        if types != self.results.len() {
            let expected = self.results.len();
            return Err(self.error_at(
                types_at,
                format!(
                    "{expected} result type{}",
                    if expected == 1 { "" } else { "s" }
                ),
                types.to_string(),
            ));
        }
        self.end_line()?;

        for i in 0..self.results.len() {
            let (raw, at) = self.results[i];
            let vid = self.ctx.op(id).results[i];
            self.define_value(raw, at, vid)?;
        }
        if let Some(block) = block {
            self.ctx.append_op(block, id);
        }

        // Trailing regions: each opens with `{` on its own line. Whatever
        // follows them, the caller skips whitespace first.
        loop {
            self.cur.skip_whitespace();
            if !self.cur.at(b'{') {
                return Ok(id);
            }
            self.parse_region(id)?;
        }
    }

    /// Parses a region from its opening `{`: an optional `^bb(...)` argument
    /// line, then nested ops until the closing `}`. The printer renders
    /// every region as a single block, so that is what is rebuilt.
    fn parse_region(&mut self, parent: OpId) -> Result<(), IrParseError> {
        self.descend(self.cur.pos)?;
        self.cur.pos += 1;
        self.cur.skip_spaces();
        if !self.cur.eat(b'\n') {
            return Err(self.error("a newline after '{'"));
        }
        let region = self.ctx.create_region(parent);
        let block = self.ctx.create_block(region);

        self.cur.skip_whitespace();
        if self.cur.eat(b'^') {
            let label_at = self.cur.pos;
            let label = self.ident("a block label")?;
            if label != "bb" {
                return Err(self.error_at(label_at, "the block label 'bb'", format!("'{label}'")));
            }
            self.expect(b'(')?;
            loop {
                let (raw, at) = self.value_token()?;
                self.expect(b':')?;
                self.cur.skip_spaces();
                let ty = self.parse_type()?;
                let vid = self.ctx.add_block_arg(block, ty);
                self.define_value(raw, at, vid)?;
                if !self.eat(b',') {
                    break;
                }
            }
            self.expect(b')')?;
            self.expect(b':')?;
            self.end_line()?;
        }

        loop {
            self.cur.skip_whitespace();
            match self.cur.peek() {
                Some(b'}') => {
                    self.cur.pos += 1;
                    break;
                }
                None => return Err(self.error("an operation or '}'")),
                Some(_) => {
                    self.parse_op(Some(block))?;
                }
            }
        }
        self.depth -= 1;
        // The closing `}` sits on its own line; consume its newline so the
        // parent's region scan starts at a line boundary.
        self.end_line()
    }

    /// Parses one attribute value.
    fn parse_attr(&mut self) -> Result<Attribute, IrParseError> {
        self.cur.skip_spaces();
        let at = self.cur.pos;
        match self.cur.peek() {
            Some(b'"') => {
                self.cur.pos += 1;
                let text = self.quoted_rest(at)?;
                Ok(Attribute::Str(self.intern(text)))
            }
            Some(b'[') => {
                self.descend(at)?;
                self.cur.pos += 1;
                let base = self.items.len();
                self.cur.skip_spaces();
                if !self.cur.at(b']') {
                    loop {
                        let item = self.parse_attr()?;
                        self.items.push(item);
                        if !self.eat(b',') {
                            break;
                        }
                    }
                }
                self.expect(b']')?;
                self.depth -= 1;
                let array = classify_array(&self.items[base..]);
                self.items.truncate(base);
                Ok(array)
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(b) if b.is_ascii_alphabetic() => {
                let word = self.ident("an attribute value")?;
                match word {
                    "unit" => Ok(Attribute::Unit),
                    "true" => Ok(Attribute::Bool(true)),
                    "false" => Ok(Attribute::Bool(false)),
                    // How `Display` spells the non-finite floats.
                    "NaN" => Ok(Attribute::Float(f64::NAN)),
                    "inf" => Ok(Attribute::Float(f64::INFINITY)),
                    _ => self.parse_type_from_word(word, at).map(Attribute::TypeAttr),
                }
            }
            _ => Err(self.error("an attribute value")),
        }
    }

    /// Parses an integer or float literal; a `.` or exponent makes it a float
    /// (the printer guarantees floats always carry one).
    fn parse_number(&mut self) -> Result<Attribute, IrParseError> {
        let start = self.cur.pos;
        if self.cur.eat(b'-') && self.cur.text[self.cur.pos..].starts_with("inf") {
            self.cur.pos += "inf".len();
            return Ok(Attribute::Float(f64::NEG_INFINITY));
        }
        let saw_digit = !self.cur.take_while(|b| b.is_ascii_digit()).is_empty();
        let mut is_float = false;
        if self.cur.eat(b'.') {
            is_float = true;
            self.cur.take_while(|b| b.is_ascii_digit());
        }
        if self.cur.eat(b'e') || self.cur.eat(b'E') {
            is_float = true;
            if !self.cur.eat(b'+') {
                self.cur.eat(b'-');
            }
            self.cur.take_while(|b| b.is_ascii_digit());
        }
        let text = &self.cur.text[start..self.cur.pos];
        if !saw_digit {
            return Err(self.error_at(start, "a number", self.found_at(start)));
        }
        if is_float {
            text.parse::<f64>()
                .map(Attribute::Float)
                .map_err(|_| self.error_at(start, "a float literal", format!("'{text}'")))
        } else {
            parse_int(text)
                .map(Attribute::Int)
                .ok_or_else(|| self.error_at(start, "a 64-bit integer", format!("'{text}'")))
        }
    }

    /// Parses a type starting at the cursor.
    fn parse_type(&mut self) -> Result<Type, IrParseError> {
        self.cur.skip_spaces();
        let at = self.cur.pos;
        let word = self.ident("a type")?;
        self.parse_type_from_word(word, at)
    }

    /// Consumes the `<` that opens an aggregate type's parameters.
    fn open_angle(&mut self) -> Result<(), IrParseError> {
        self.cur.skip_spaces();
        let open = self.cur.pos;
        self.expect(b'<')?;
        self.descend(open)
    }

    /// Parses a type given its already-consumed leading keyword.
    fn parse_type_from_word(&mut self, word: &str, at: usize) -> Result<Type, IrParseError> {
        match word {
            "index" => Ok(Type::Index),
            "token" => Ok(Type::Token),
            "none" => Ok(Type::None),
            "tensor" | "memref" => {
                self.open_angle()?;
                let base = self.dims.len();
                self.parse_dims()?;
                let elem = self.parse_type()?;
                self.expect(b'>')?;
                self.depth -= 1;
                let shape = &self.dims[base..];
                if shaped_bits(shape, &elem).is_none() {
                    return Err(self.error_at(
                        at,
                        "a shaped type of at most 2^63-1 bits",
                        format!("'{}'", &self.cur.text[at..self.cur.pos]),
                    ));
                }
                let ty = if word == "tensor" {
                    Type::tensor(shape, elem)
                } else {
                    Type::memref(shape, elem)
                };
                self.dims.truncate(base);
                Ok(ty)
            }
            "stream" => {
                self.open_angle()?;
                let elem = self.parse_type()?;
                self.expect(b',')?;
                self.cur.skip_spaces();
                let depth_at = self.cur.pos;
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
                self.expect(b'>')?;
                self.depth -= 1;
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

    /// Pushes the `4x8x`-style dimensions that open a `tensor<...>` /
    /// `memref<...>` parameter list onto `dims`.
    fn parse_dims(&mut self) -> Result<(), IrParseError> {
        loop {
            self.cur.skip_spaces();
            let start = self.cur.pos;
            let digits = self.cur.take_while(|b| b.is_ascii_digit());
            if digits.is_empty() {
                return Ok(());
            }
            if !self.cur.eat(b'x') {
                return Err(self.error("'x' after a shape dimension"));
            }
            let dim = parse_int(digits)
                .ok_or_else(|| self.error_at(start, "a shape dimension", format!("'{digits}'")))?;
            self.dims.push(dim);
        }
    }
}

/// Canonicalizes a parsed bracket list into the most specific `Attribute`
/// array variant — the form the printer would have produced it from.
///
/// `[]` maps to the generic `Array` (the printer's only source of empty
/// lists, e.g. a no-result function's `result_types`), homogeneous leaves map
/// to `IntArray`/`FloatArray`/`StrArray`, and anything else stays `Array`.
///
/// Each variant is interned straight from `items`, so a payload seen before
/// allocates nothing.
fn classify_array(items: &[Attribute]) -> Attribute {
    if items.is_empty() {
        return Attribute::Array(Interned::new(items));
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
                .iter()
                .map(|a| match a {
                    Attribute::Str(v) => *v,
                    _ => unreachable!(),
                })
                .collect(),
        );
    }
    Attribute::Array(Interned::new(items))
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
            passes[0].options[..],
            [opt("mode", "IA+CA"), opt("device", "vu9p-slr")]
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

    /// `depth` regions, each the body of a `t.n` op inside the one before.
    fn nested_regions(depth: usize) -> String {
        "\"t.n\"()\n{\n".repeat(depth) + &"}\n".repeat(depth)
    }

    /// An op whose attribute is `depth` arrays, each inside the one before.
    fn nested_arrays(depth: usize) -> String {
        format!(
            "\"t.a\"() {{a = {}1{}}}\n",
            "[".repeat(depth),
            "]".repeat(depth)
        )
    }

    /// Asserts that `depth` levels parse and `depth + 1` fail at the opening
    /// bracket of the last level, `at` of `depth + 1` levels.
    fn assert_bounded(nest: fn(usize) -> String, at: fn(usize) -> (usize, usize)) {
        parse_module(&nest(MAX_NESTING)).expect("nesting at the bound parses");
        let err = parse_module(&nest(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(
            err.expected,
            format!("at most {MAX_NESTING} nested regions, arrays and types")
        );
        assert_eq!((err.line, err.column), at(MAX_NESTING + 1));
    }

    fn assert_nesting_is_bounded() {
        // The last `{` opens line `2 * depth`; the last `[` follows the 13
        // bytes of `"t.a"() {a = ` and `depth - 1` others.
        assert_bounded(nested_regions, |depth| (2 * depth, 1));
        assert_bounded(nested_arrays, |depth| (1, 13 + depth));
        let err = parse_module(&nested_regions(10_000)).unwrap_err();
        assert_eq!(err.line, 2 * (MAX_NESTING + 1));
        let err = parse_module(&nested_arrays(50_000)).unwrap_err();
        assert_eq!(err.column, 13 + MAX_NESTING + 1);
    }

    /// Nesting past the bound is a positioned error, not a stack overflow,
    /// on a thread with the default 2 MiB stack of a spawned (sweep worker)
    /// thread; the CLI tests cover the main thread.
    #[test]
    fn nesting_is_bounded_on_a_default_size_thread() {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(assert_nesting_is_bounded)
            .expect("spawn")
            .join()
            .expect("nesting stays within the stack");
    }

    #[test]
    fn aggregate_types_count_towards_the_nesting_bound() {
        let text = |depth: usize| {
            format!(
                "%s0 = \"t.s\"() : {}i1{}\n",
                "stream<".repeat(depth),
                ", 1>".repeat(depth)
            )
        };
        parse_module(&text(MAX_NESTING)).expect("nesting at the bound parses");
        let err = parse_module(&text(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(err.column, 17 + 7 * MAX_NESTING + "stream".len());
        assert_eq!(err.found, "'<'");
    }

    #[test]
    fn shapes_too_large_for_64_bit_sizes_are_positioned_errors() {
        // 2^31 x 2^31 elements fit in an i64, their 32-bit words do not;
        // 2^32 x 2^32 elements do not fit at all.
        for shape in ["2147483648x2147483648x", "4294967296x4294967296x"] {
            let text = format!("%m0 = \"memref.alloc\"() : memref<{shape}f32>\n");
            let err = parse_module(&text).unwrap_err();
            assert_eq!(err.expected, "a shaped type of at most 2^63-1 bits");
            assert_eq!(err.found, format!("'memref<{shape}f32>'"));
            assert_eq!((err.line, err.column), (1, 26));
        }
        // A count that overflows on the way still overflows when a later
        // dimension is 0; the largest shape that fits still parses.
        let zero = "%t0 = \"t.t\"() : tensor<4294967296x4294967296x0xi8>\n";
        assert!(parse_module(zero).is_err());
        let largest = "%t0 = \"t.t\"() : tensor<1152921504606846975xi8>\n";
        parse_module(largest).expect("2^60 - 1 bytes fit");
    }

    #[test]
    fn names_that_do_not_end_in_their_number_are_found_by_name() {
        // Hand-written names, a hint ending in digits, a name that is the
        // number of another definition, and a leading zero.
        let text = "\"builtin.module\"() {sym_name = \"m\"}\n{\n  \
                    %x = \"a.b\"() : i32\n  %value_101 = \"a.b\"() : i32\n  \
                    %0 = \"a.b\"() : i32\n  %03 = \"a.b\"() : i32\n  \
                    \"a.use\"(%x, %value_101, %0, %03)\n}\n";
        let (ctx, root) = parse_module(text).expect("parses");
        let body = ctx.body_ops(root);
        let user = ctx.op(*body.last().unwrap());
        let defs: Vec<_> = body[..4].iter().map(|&op| ctx.op(op).results[0]).collect();
        assert_eq!(&user.operands[..], &defs[..]);
        let hint = |v: ValueId| ctx.value(v).name_hint.map(|h| h.as_str());
        assert_eq!(hint(defs[0]), Some("x"));
        assert_eq!(hint(defs[1]), Some("value_10"));
        assert_eq!(hint(defs[2]), Some("0"));
        assert_eq!(hint(defs[3]), Some("0"));

        let duplicate = "\"builtin.module\"() {sym_name = \"m\"}\n{\n  \
                         %x = \"a.b\"() : i32\n  %x = \"a.b\"() : i32\n}\n";
        let err = parse_module(duplicate).unwrap_err();
        assert_eq!(err.found, "'%x' (already defined)");
    }

    #[test]
    fn value_names_may_carry_the_plus_of_fused_task_names() {
        let text = "\"builtin.module\"() {sym_name = \"m\"}\n{\n  \
                    %task0+task1_out0 = \"a.b\"() : i32\n  \"a.use\"(%task0+task1_out0)\n}\n";
        let (ctx, root) = parse_module(text).expect("parses");
        assert_eq!(print_op(&ctx, root), text);
    }
}
