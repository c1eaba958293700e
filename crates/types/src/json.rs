//! A minimal JSON value: what the operator surface (`/stats`, `/rules`),
//! the soak reports and the figure binaries print, and what their tests
//! read back. Output only needs to be valid, stable and readable; input
//! only needs to accept what [`Json::pretty`] produces (and any other
//! well-formed document).
//!
//! Numbers keep their source text, so a `u64` above 2^53 (microcredits)
//! survives a round trip exactly.

use crate::{JanusError, Result};
use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its literal text.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, so output reads in field order.
    Obj(Vec<(String, Json)>),
}

/// Conversion into a [`Json`] value. Structs implement it with
/// [`impl_to_json!`](crate::impl_to_json).
pub trait ToJson {
    /// This value as JSON.
    fn to_json(&self) -> Json;
}

impl Json {
    /// The member `key` of an object (`None` for anything else).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (empty for anything else).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// A number that is a whole, non-negative `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// A string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Multi-line rendering, two spaces per level.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// `depth` is the nesting level of this value.
    fn write(&self, out: &mut String, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(text) => out.push_str(text),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Obj(members) if members.is_empty() => out.push_str("{}"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, depth + 1);
                }
                newline(out, depth);
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(key, out);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                newline(out, depth);
                out.push('}');
            }
        }
    }

    /// Parse one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.at != parser.bytes.len() {
            return Err(parser.error("trailing characters"));
        }
        Ok(value)
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting bound: a hostile document cannot overflow the parser's stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> JanusError {
        JanusError::codec(format!("JSON: {what} at byte {}", self.at))
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.at), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(literal.as_bytes());
        if hit {
            self.at += literal.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Json> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_whitespace();
        match self.bytes.get(self.at) {
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_whitespace();
                    if items.is_empty() && self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    items.push(self.value(depth + 1)?);
                    self.skip_whitespace();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected ',' or ']'"));
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                loop {
                    self.skip_whitespace();
                    if members.is_empty() && self.eat("}") {
                        return Ok(Json::Obj(members));
                    }
                    if self.bytes.get(self.at) != Some(&b'"') {
                        return Err(self.error("expected a member name"));
                    }
                    let key = self.string()?;
                    self.skip_whitespace();
                    if !self.eat(":") {
                        return Err(self.error("expected ':'"));
                    }
                    members.push((key, self.value(depth + 1)?));
                    self.skip_whitespace();
                    if self.eat("}") {
                        return Ok(Json::Obj(members));
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected ',' or '}'"));
                    }
                }
            }
            _ => Err(self.error("expected a value")),
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.at;
        while matches!(
            self.bytes.get(self.at),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ASCII number");
        if text.parse::<f64>().is_err() {
            self.at = start;
            return Err(self.error("malformed number"));
        }
        Ok(Json::Num(text.to_string()))
    }

    /// A string literal; `self.at` is on its opening quote.
    fn string(&mut self) -> Result<String> {
        self.at += 1;
        let mut out = Vec::new();
        loop {
            let Some(&byte) = self.bytes.get(self.at) else {
                return Err(self.error("unterminated string"));
            };
            self.at += 1;
            match byte {
                b'"' => break,
                b'\\' => {
                    let Some(&escape) = self.bytes.get(self.at) else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.at += 1;
                    let c = match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self.bytes.get(self.at..self.at + 4);
                            let code = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            // Surrogate pairs are not produced by the
                            // writer and not accepted here.
                            let Some(c) = code else {
                                return Err(self.error("bad \\u escape"));
                            };
                            self.at += 4;
                            c
                        }
                        _ => return Err(self.error("unknown escape")),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0u8; 4]).as_bytes());
                }
                byte if byte < 0x20 => return Err(self.error("control character in string")),
                byte => out.push(byte),
            }
        }
        String::from_utf8(out).map_err(|_| self.error("string is not UTF-8"))
    }
}

macro_rules! to_json_via_display {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Num(self.to_string())
            }
        }
    )*};
}
to_json_via_display!(u8, u16, u32, u64, u128, usize, i32, i64);

impl ToJson for f64 {
    /// Non-finite values have no JSON spelling and become `null`.
    fn to_json(&self) -> Json {
        if self.is_finite() {
            Json::Num(self.to_string())
        } else {
            Json::Null
        }
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self[..].to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

/// Implement [`ToJson`] for a struct as an object of the named fields, in
/// the order given: `impl_to_json!(FleetStats { routers, rules });`.
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    ),)*
                ])
            }
        }
    };
}

impl ToJson for crate::QosKey {
    fn to_json(&self) -> Json {
        self.as_str().to_json()
    }
}

impl ToJson for crate::Credits {
    /// Microcredits, exact.
    fn to_json(&self) -> Json {
        self.as_micro().to_json()
    }
}

impl ToJson for crate::RefillRate {
    /// Microcredits per second, exact.
    fn to_json(&self) -> Json {
        self.micro_per_sec().to_json()
    }
}

impl_to_json!(crate::QosRule {
    key,
    refill_rate,
    capacity,
    credit
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Credits, QosKey, QosRule};

    struct Report {
        name: String,
        rates: Vec<f64>,
        ok: bool,
        worst: Option<u64>,
    }
    impl_to_json!(Report {
        name,
        rates,
        ok,
        worst
    });

    #[test]
    fn struct_renders_in_field_order_and_reads_back() {
        let report = Report {
            name: "soak \"a\"\n".into(),
            rates: vec![1.5, 2.0],
            ok: true,
            worst: None,
        };
        let json = report.to_json();
        assert_eq!(
            json.pretty(),
            "{\n  \"name\": \"soak \\\"a\\\"\\n\",\n  \"rates\": [\n    1.5,\n    2\n  ],\n  \"ok\": true,\n  \"worst\": null\n}"
        );
        assert_eq!(Json::parse(&json.pretty()).unwrap(), json);
        assert_eq!(json.get("name").unwrap().as_str(), Some("soak \"a\"\n"));
        assert_eq!(
            json.get("rates").unwrap().items()[0],
            Json::Num("1.5".into())
        );
        assert_eq!(json.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(json.get("missing"), None);
    }

    #[test]
    fn rule_round_trips_with_exact_microcredits() {
        let mut rule = QosRule::per_second(QosKey::new("alice:photos").unwrap(), 1000, 100);
        // Above 2^53: a float-typed number would round this.
        rule.capacity = Credits::from_micro((1 << 60) + 1);
        let parsed = Json::parse(&rule.to_json().pretty()).unwrap();
        assert_eq!(parsed.get("key").unwrap().as_str(), Some("alice:photos"));
        assert_eq!(
            parsed.get("capacity").unwrap().as_u64(),
            Some((1 << 60) + 1)
        );
        assert_eq!(
            parsed.get("refill_rate").unwrap().as_u64(),
            Some(100_000_000)
        );
    }

    #[test]
    fn empty_containers_and_non_finite_numbers() {
        assert_eq!(Vec::<u64>::new().to_json().pretty(), "[]");
        assert_eq!(Json::Obj(vec![]).pretty(), "{}");
        assert_eq!(f64::NAN.to_json(), Json::Null);
        assert_eq!(Json::parse(" [ ] ").unwrap(), Json::Arr(vec![]));
    }

    #[test]
    fn parser_reads_foreign_documents() {
        let doc = r#" {"a": [1, -2.5e3, {"b": "x\u0041\/"}], "c": false} "#;
        let json = Json::parse(doc).unwrap();
        let a = json.get("a").unwrap().items();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1], Json::Num("-2.5e3".into()));
        assert_eq!(a[1].as_u64(), None);
        assert_eq!(a[2].get("b").unwrap().as_str(), Some("xA/"));
    }

    #[test]
    fn parser_rejects_malformed_documents_without_panicking() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "\"abc",
            "\"\\x\"",
            "\"\\u12\"",
            "tru",
            "1.2.3",
            "--1",
            "[1]x",
            "\"\u{1}\"",
            "{\"a\":1,}",
            "[,]",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }
}
