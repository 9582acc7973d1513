//! A small typed JSON value and its writer: the one place the `--stats-json`
//! documents are rendered and escaped (no JSON dependency without registry
//! access). Objects keep their keys in insertion order and floats carry their
//! own precision, so a document renders byte for byte as it is declared — the
//! schema is `docs/STATS_SCHEMA.md`.

use std::fmt::{self, Write as _};

/// One JSON value.
#[derive(Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (counters, sizes, indices).
    UInt(u64),
    /// A float rendered with exactly this many decimals.
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys render in the order given.
    Object(Vec<(&'static str, Json)>),
}

impl Json {
    /// An array with one element per item.
    pub fn array<T>(items: impl IntoIterator<Item = T>, element: impl FnMut(T) -> Json) -> Json {
        Json::Array(items.into_iter().map(element).collect())
    }

    /// `value` rendered by `some`, or `null`.
    pub fn option<T>(value: Option<T>, some: impl FnOnce(T) -> Json) -> Json {
        value.map_or(Json::Null, some)
    }
}

/// Object fields written as they render — `json_fields! { "key": value, ... }`,
/// keys in order, each value anything `Json: From` — for a
/// [`Json::Object`] that is assembled in parts.
#[macro_export]
macro_rules! json_fields {
    ($($key:literal : $value:expr),* $(,)?) => {
        vec![$(($key, $crate::report::Json::from($value))),*]
    };
}

/// A whole [`Json::Object`] written as it renders (see [`json_fields!`]).
#[macro_export]
macro_rules! json_object {
    ($($fields:tt)*) => { $crate::report::Json::Object($crate::json_fields!($($fields)*)) };
}

impl From<bool> for Json {
    fn from(value: bool) -> Json {
        Json::Bool(value)
    }
}

impl From<i64> for Json {
    fn from(value: i64) -> Json {
        Json::Int(value)
    }
}

impl From<u64> for Json {
    fn from(value: u64) -> Json {
        Json::UInt(value)
    }
}

impl From<usize> for Json {
    fn from(value: usize) -> Json {
        Json::UInt(value as u64)
    }
}

impl From<&str> for Json {
    fn from(value: &str) -> Json {
        Json::Str(value.to_string())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(value) => write!(f, "{value}"),
            Json::Int(value) => write!(f, "{value}"),
            Json::UInt(value) => write!(f, "{value}"),
            Json::Fixed(value, decimals) => write!(f, "{value:.decimals$}"),
            Json::Str(value) => write!(f, "\"{}\"", json_escape(value)),
            Json::Array(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Object(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "\"{key}\":{value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Minimal JSON string escaping: quotes, backslashes and control characters.
pub fn json_escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_render_compactly_in_declaration_order() {
        let doc = json_object! {
            "name": "a \"b\"\n", "hit_rate": Json::Fixed(0.5, 3), "delta": -3_i64,
            "items": Json::array([1_usize, 2], Json::from),
            "store": Json::option(None::<u64>, Json::from), "ok": true,
        };
        assert_eq!(
            doc.to_string(),
            "{\"name\":\"a \\\"b\\\"\\n\",\"hit_rate\":0.500,\"delta\":-3,\
             \"items\":[1,2],\"store\":null,\"ok\":true}"
        );
        assert_eq!(json_escape("\u{1}\t\\"), "\\u0001\\t\\\\");
    }
}
