//! The workspace's one JSON codec: a value tree, a parser, and the one
//! escaping writer.
//!
//! Every artifact the workspace exports — launch postmortems, metrics
//! snapshots, chaos reports, Chrome traces, `BENCH_*.json` — is built as a
//! [`Json`] tree and rendered here, and everything it reads back
//! (snapshots, `ci/bench_baseline.json`) goes through [`parse`]. The codec
//! lives in this crate because it is the bottom of the dependency graph:
//! core, bench and cli already depend on it. It is hand-rolled because the
//! workspace builds offline against a vendored dependency set.
//!
//! Numbers come in two variants. [`Json::U64`] is lossless over the whole
//! `u64` range — histogram sums and `u64::MAX` sentinels do not survive a
//! trip through `f64` — and is what [`parse`] yields for any plain
//! non-negative integer; [`Json::F64`] carries everything else and always
//! renders with a fraction or exponent, so the two never change places in
//! a round trip.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Key order preserved; duplicate keys are last-wins at [`Json::get`].
    Obj(Vec<(String, Json)>),
    /// An array.
    Arr(Vec<Json>),
    /// A string (unescaped).
    Str(String),
    /// A non-negative integer, exact.
    U64(u64),
    /// Any other number. Non-finite values render as `null`.
    F64(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from anything convertible to values.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// The error of an accessor that wanted a `wanted` for `what`.
    fn mismatch(&self, what: &str, wanted: &str) -> String {
        let got = match self {
            Json::Obj(_) => "object",
            Json::Arr(_) => "array",
            Json::Str(_) => "string",
            Json::U64(_) | Json::F64(_) => "number",
            Json::Bool(_) => "boolean",
            Json::Null => "null",
        };
        format!("{what}: expected {wanted}, got {got}")
    }

    /// The object's fields, or an error naming `what`.
    pub fn as_obj(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(o) => Ok(o),
            other => Err(other.mismatch(what, "object")),
        }
    }

    /// The array's items, or an error naming `what`.
    pub fn as_arr(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(a) => Ok(a),
            other => Err(other.mismatch(what, "array")),
        }
    }

    /// The string, or an error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(other.mismatch(what, "string")),
        }
    }

    /// The exact integer, or an error naming `what` (an [`Json::F64`] is
    /// not an integer, whatever its value).
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::U64(n) => Ok(*n),
            other => Err(other.mismatch(what, "integer")),
        }
    }

    /// The number as a float (either variant), or an error naming `what`.
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::U64(n) => Ok(*n as f64),
            Json::F64(x) => Ok(*x),
            other => Err(other.mismatch(what, "number")),
        }
    }

    /// Field `key` of an object (`None` for a missing key or a
    /// non-object).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(o) => o.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The human-readable form: two-space indentation, with any container
    /// that holds only scalars kept on one line (a histogram's bucket
    /// array, one record of a baseline file).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// The one writer. `depth` is the indentation level of the pretty
    /// form, `None` for the compact one.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        let (open, close, items): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Obj(o) => (
                '{',
                '}',
                o.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
            Json::Arr(a) => ('[', ']', a.iter().map(|v| (None, v)).collect()),
            Json::Str(s) => return write_str(out, s),
            Json::U64(n) => return out.push_str(&n.to_string()),
            // `{:?}` is the shortest form that parses back to the same
            // bits, and always carries a `.` or an exponent.
            Json::F64(x) if x.is_finite() => return out.push_str(&format!("{x:?}")),
            Json::F64(_) | Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
        };
        // The pretty form breaks a container over lines only when it holds
        // another non-empty container.
        let nests = |v: &Json| match v {
            Json::Obj(o) => !o.is_empty(),
            Json::Arr(a) => !a.is_empty(),
            _ => false,
        };
        let broken = depth.filter(|_| items.iter().any(|(_, v)| nests(v)));
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        };
        out.push(open);
        for (i, (key, v)) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match broken {
                Some(d) => newline(out, d + 1),
                None if i > 0 && depth.is_some() => out.push(' '),
                None => {}
            }
            if let Some(k) = key {
                write_str(out, k);
                out.push_str(if depth.is_some() { ": " } else { ":" });
            }
            v.write(out, broken.map(|d| d + 1).or(depth));
        }
        if let Some(d) = broken {
            newline(out, d);
        }
        out.push(close);
    }
}

/// The compact form: no whitespace at all.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

/// Write `s` as a quoted JSON string: `"` and `\` escaped, control
/// characters as `\n`/`\r`/`\t` or `\u00XX`, everything else (non-ASCII
/// included) verbatim.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

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

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::U64(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::U64(n as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::F64(x)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Containers nested deeper than this are rejected, so a hostile file
/// cannot overflow the parser's stack.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document.
///
/// # Errors
/// A description of the first malformed construct, with its byte offset.
pub fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.b
            .get(self.i)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek()? == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => {
                let mut fields = Vec::new();
                self.items(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    fields.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            b'[' => {
                let mut items = Vec::new();
                self.items(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b'-' | b'0'..=b'9' => self.number(),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            c => Err(format!("unexpected {:?} at byte {}", c as char, self.i)),
        }
    }

    /// The comma-separated items of the container opening at the current
    /// byte, up to `close`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.i
            ));
        }
        self.depth += 1;
        self.i += 1;
        if self.peek()? != close {
            loop {
                item(self)?;
                match self.peek()? {
                    b',' => self.i += 1,
                    c if c == close => break,
                    c => {
                        return Err(format!(
                            "expected ',' or {:?}, got {:?} at byte {}",
                            close as char, c as char, self.i
                        ))
                    }
                }
            }
        }
        self.i += 1;
        self.depth -= 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    /// A run of digits is a [`Json::U64`] when it fits; a sign, fraction,
    /// exponent or overflow makes the token a [`Json::F64`].
    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        let token = std::str::from_utf8(&self.b[start..self.i]).expect("number bytes are ASCII");
        if let Ok(n) = token.parse::<u64>() {
            return Ok(Json::U64(n));
        }
        match token.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::F64(x)),
            _ => Err(format!("bad number {token:?} at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.b.get(self.i).copied() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.b.get(self.i).copied().ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .ok_or("truncated \\u escape")?;
                            self.i += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            let c = char::from_u32(code)
                                .ok_or_else(|| format!("bad \\u{code:04x} escape"))?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        }
                        other => return Err(format!("bad escape \\{:?}", other as char)),
                    }
                }
                Some(c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) {
        assert_eq!(&parse(&v.to_string()).unwrap(), v, "compact: {v}");
        assert_eq!(&parse(&v.pretty()).unwrap(), v, "pretty: {}", v.pretty());
    }

    #[test]
    fn integers_and_floats_keep_their_variant_and_their_bits() {
        for v in [
            Json::U64(u64::MAX),
            Json::F64(12970.0),
            Json::F64(-0.1),
            Json::F64(1e21),
            Json::F64(u64::MAX as f64),
        ] {
            round_trip(&v);
        }
        assert_eq!(Json::U64(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Json::F64(12970.0).to_string(), "12970.0");
        // One past u64::MAX no longer fits the exact variant.
        assert_eq!(
            parse("18446744073709551616"),
            Ok(Json::F64(18446744073709551616.0))
        );
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert!(Json::F64(1.0).as_u64("x").is_err());
        assert_eq!(Json::U64(3).as_f64("x"), Ok(3.0));
    }

    #[test]
    fn every_escape_round_trips() {
        let all_controls: String = (0u8..0x20).map(char::from).collect();
        for s in [
            "with \"quotes\" and \\backslashes\\",
            "line\nbreak\r\ttab",
            all_controls.as_str(),
            "non-ASCII: ρ = t_C / T, 同期, 🚀",
            "",
        ] {
            round_trip(&Json::obj([(s, Json::arr([s]))]));
        }
        assert_eq!(
            Json::from("a\"b\\c\n\u{1}").to_string(),
            r#""a\"b\\c\n\u0001""#
        );
        // Escapes this writer never emits still parse.
        assert_eq!(parse(r#""\/\b\fé""#), Ok(Json::from("/\u{8}\u{c}é")));
    }

    #[test]
    fn nested_pretty_output_reparses_to_the_same_tree() {
        let v = Json::obj([
            ("empty", Json::obj::<&str>([])),
            ("flat", Json::arr([1u64, 2, 3])),
            (
                "nested",
                Json::arr([Json::obj([("x", Json::from(None::<u64>))]), true.into()]),
            ),
        ]);
        round_trip(&v);
        // Scalar-only containers stay on one line; the rest indent.
        let lines = [
            "{",
            "  \"empty\": {},",
            "  \"flat\": [1, 2, 3],",
            "  \"nested\": [",
            "    {\"x\": null},",
            "    true",
            "  ]",
            "}",
        ];
        assert_eq!(v.pretty(), lines.join("\n"));
        assert_eq!(v.to_string().matches(char::is_whitespace).count(), 0);
        assert_eq!(v.get("flat"), Some(&Json::arr([1u64, 2, 3])));
        assert_eq!(v.get("missing"), None);
        // Duplicate keys are last-wins.
        assert_eq!(
            parse(r#"{"a": 1, "a": 2}"#).unwrap().get("a"),
            Some(&2u64.into())
        );
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "not json",
            "{",
            "[1,]",
            "[1 2]",
            r#"{"a" 1}"#,
            r#"{"a": 1} x"#,
            "\"open",
            r#""\q""#,
            r#""\ud800""#,
            "1e999",
            "--1",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1))
            .unwrap_err()
            .contains("nesting"));
    }

    /// The committed CI baseline is read as it stands.
    #[test]
    fn committed_bench_baseline_parses() {
        let text = include_str!("../../../ci/bench_baseline.json");
        let doc = parse(text).unwrap();
        let records = doc.get("records").unwrap().as_arr("records").unwrap();
        assert_eq!(records.len(), 48);
        assert_eq!(records[0].get("method"), Some(&"sim:cpu-explicit".into()));
        assert_eq!(records[0].get("blocks"), Some(&Json::U64(30)));
        assert_eq!(records[0].get("ns_per_round"), Some(&Json::F64(12970.0)));
        // And the pretty form writes the file back byte for byte.
        assert_eq!(doc.pretty(), text.trim_end());
    }
}
