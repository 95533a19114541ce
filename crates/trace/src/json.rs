//! The one JSON reader and writer of the workspace, without external
//! dependencies.
//!
//! The reader supports the full JSON grammar except that numbers are always
//! parsed as `f64` (sufficient for trace timestamps, metric values and
//! counts below 2^53), and it refuses documents nested deeper than
//! [`MAX_DEPTH`] with an error instead of exhausting the stack.
//!
//! The writer renders a [`Json`] value with one escaper, one number rule
//! and one layout:
//!
//! - strings escape `"`, `\`, `\n`, `\r` and `\t` by name and every other
//!   control character as `\u00xx`;
//! - numbers use the shortest form that parses back to the same `f64`
//!   (Rust's `Display`), and a non-finite number, which JSON cannot
//!   encode, is written as `0`;
//! - [`Json::render`] puts each top-level key, and each entry of a
//!   top-level array, on its own line, and writes everything deeper inline
//!   with `", "` and `": "` — the layout of `BENCH_core.json` and
//!   `tune_db.json`. [`Json`]'s `Display` writes the inline form.

use std::fmt::{self, Write};

/// Deepest nesting of arrays and objects [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// The nesting level [`Json::write`] is given for values written inline.
const INLINE: usize = usize::MAX;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as a count: a number that is a non-negative integer.
    pub fn as_count(&self) -> Option<u64> {
        self.as_f64()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as u64)
    }

    /// An object with `fields` in the given order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders the value as a document: top-level keys and the entries of
    /// top-level arrays one per line, everything deeper inline, and a
    /// final newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0)
            .expect("writing to a String cannot fail");
        out.push('\n');
        out
    }

    /// Writes the value found at nesting `level` of a document; a value at
    /// [`INLINE`], and everything inside it, is written on one line.
    fn write(&self, out: &mut impl Write, level: usize) -> fmt::Result {
        let entries: Vec<(Option<&str>, &Json)> = match self {
            Json::Null => return out.write_str("null"),
            Json::Bool(b) => return write!(out, "{b}"),
            Json::Num(n) if n.is_finite() => return write!(out, "{n}"),
            Json::Num(_) => return out.write_str("0"),
            Json::Str(s) => return escape(out, s),
            Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            Json::Obj(fields) => fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        };
        let is_array = matches!(self, Json::Arr(_));
        let lines = !entries.is_empty() && (level == 0 || level == 1 && is_array);
        let indent = if lines {
            "  ".repeat(level + 1)
        } else {
            String::new()
        };
        out.write_char(if is_array { '[' } else { '{' })?;
        for (i, (key, v)) in entries.into_iter().enumerate() {
            out.write_str(match (i, lines) {
                (0, false) => "",
                (_, false) => ", ",
                (0, true) => "\n",
                _ => ",\n",
            })?;
            out.write_str(&indent)?;
            if let Some(k) = key {
                escape(out, k)?;
                out.write_str(": ")?;
            }
            v.write(out, if lines { level + 1 } else { INLINE })?;
        }
        if lines {
            write!(out, "\n{}", &indent[2..])?;
        }
        out.write_char(if is_array { ']' } else { '}' })
    }
}

/// Writes `s` as a quoted JSON string: the one escaper.
fn escape(out: &mut impl Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// The inline form: `{"a": [1, 2], "b": "x"}`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, INLINE)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}

from_number!(f64, u32, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// The fields of one record in an array of records, read with the checks
/// every reader of a stored file shares. Each error names the array, the
/// record's index in it and the field.
pub struct Fields<'a> {
    section: &'static str,
    index: usize,
    json: &'a Json,
}

impl<'a> Fields<'a> {
    /// The fields of `json`, record `index` of the array `section`.
    pub fn new(section: &'static str, index: usize, json: &'a Json) -> Fields<'a> {
        Fields {
            section,
            index,
            json,
        }
    }

    /// Where an error was found: the section and the record's index.
    fn at(&self) -> String {
        format!("`{}` record {}", self.section, self.index)
    }

    /// An error naming the record and `field`.
    pub fn error(&self, field: &str, problem: &str) -> String {
        format!("{}: `{field}` {problem}", self.at())
    }

    fn get(&self, field: &str) -> Result<&'a Json, String> {
        let v = self.json.get(field);
        v.ok_or_else(|| format!("{}: missing `{field}`", self.at()))
    }

    /// A string.
    pub fn text(&self, field: &str) -> Result<String, String> {
        let v = self.get(field)?.as_str();
        v.map(str::to_string)
            .ok_or_else(|| self.error(field, "must be a string"))
    }

    /// A count: a non-negative integer.
    pub fn count(&self, field: &str) -> Result<u64, String> {
        let v = self.get(field)?.as_count();
        v.ok_or_else(|| self.error(field, "must be a non-negative integer"))
    }

    /// A finite number of either sign.
    pub fn finite(&self, field: &str) -> Result<f64, String> {
        let v = self.get(field)?.as_f64();
        v.filter(|n| n.is_finite())
            .ok_or_else(|| self.error(field, "must be a finite number"))
    }

    /// A finite number `>= 0`.
    pub fn real(&self, field: &str) -> Result<f64, String> {
        let v = self.get(field)?.as_f64();
        v.filter(|n| n.is_finite() && *n >= 0.0)
            .ok_or_else(|| self.error(field, "must be a finite number >= 0"))
    }

    /// A latency: a finite number `> 0`.
    pub fn seconds(&self, field: &str) -> Result<f64, String> {
        let v = self.get(field)?.as_f64();
        v.filter(|n| n.is_finite() && *n > 0.0)
            .ok_or_else(|| self.error(field, "must be a finite number > 0"))
    }

    /// An array whose every entry `item` accepts.
    pub fn list<T>(
        &self,
        field: &str,
        what: &str,
        item: impl Fn(&Json) -> Option<T>,
    ) -> Result<Vec<T>, String> {
        let entries = self.get(field)?.as_array();
        let entries = entries.ok_or_else(|| self.error(field, "must be an array"))?;
        entries
            .iter()
            .enumerate()
            .map(|(i, v)| {
                item(v)
                    .ok_or_else(|| self.error(&format!("{field}[{i}]"), &format!("must be {what}")))
            })
            .collect()
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected `,` or `}}`, found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected `,` or `]`, found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our traces;
                            // map unpaired surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let j = Json::parse(
            r#"{"a": [1, 2.5, -3e-2], "b": {"c": "x\ny", "d": true, "e": null}, "f": []}"#,
        )
        .unwrap();
        let a = j.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[2].as_f64(), Some(-0.03));
        assert_eq!(j.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(j.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(j.get("b").unwrap().get("e"), Some(&Json::Null));
        assert_eq!(j.get("f").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn rejects_malformed_documents() {
        // Nesting deep enough to overflow the stack of a recursive parser.
        let deep = format!("{{\"version\": 1, \"records\": {}", "[".repeat(100_000));
        for bad in ["{", "[1,", "\"abc", "{\"a\" 1}", "[1] x", "tru", &deep] {
            assert!(Json::parse(bad).is_err(), "{bad:.20} should not parse");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
    }

    #[test]
    fn render_puts_top_level_entries_on_their_own_lines() {
        let doc = Json::obj([
            ("version", 1u64.into()),
            ("empty", Json::Arr(Vec::new())),
            (
                "rows",
                vec![Json::obj([("a", vec![1.5, 2.0].into())])].into(),
            ),
            ("inner", Json::obj([("b", Json::Null), ("c", true.into())])),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"version\": 1,\n  \"empty\": [],\n  \"rows\": [\n    {\"a\": [1.5, 2]}\n  ],\n  \
             \"inner\": {\"b\": null, \"c\": true}\n}\n"
        );
        assert_eq!(Json::parse(&doc.render()), Ok(doc));
        let top = Json::from(vec!["x", "y"]);
        assert_eq!(top.render(), "[\n  \"x\",\n  \"y\"\n]\n");
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let s = "q\"b\\t\tn\nr\rc\u{1}é";
        let text = Json::from(s).to_string();
        assert_eq!(text, r#""q\"b\\t\tn\nr\rc\u0001é""#);
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn numbers_use_the_shortest_round_trip_form() {
        for (v, text) in [
            (0.1 + 0.2, "0.30000000000000004"),
            (1e-7, "0.0000001"),
            (504.0, "504"),
        ] {
            assert_eq!(Json::Num(v).to_string(), text);
            assert_eq!(Json::parse(text).unwrap().as_f64(), Some(v));
        }
        assert_eq!(Json::from(u64::MAX >> 11).to_string(), "9007199254740991");
        // JSON has no encoding for non-finite numbers.
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(v).to_string(), "0");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        let j = Json::parse(r#""Aé""#).unwrap();
        assert_eq!(j.as_str(), Some("Aé"));
    }
}
