//! The one module that knows JSON syntax: a value type, its reader and
//! its deterministic writer.
//!
//! Every `BENCH_*.json` is built as a [`Json`] value by a pure function,
//! written by [`Json::emit`], read back by [`Json::parse`], and edited
//! (`--bin scenarios` replacing one scenario's row) with
//! [`Json::insert`] on the parsed value — so writer, editor and reader
//! cannot disagree about escaping or nesting. [`Json::save`] proves that
//! on every document before it reaches disk, `--smoke` runs included.
//!
//! The emitted spelling is fixed — `"key": value`, two-space indent,
//! members in insertion order, arrays of scalars on one line, one
//! trailing newline — because `scripts/check.sh` greps for it.

use fractal_telemetry::metrics::{bucket_upper, BUCKETS};
use fractal_telemetry::Snapshot;

/// Deepest container nesting [`Json::parse`] accepts — 10× what any bench
/// document uses. The reader recurses per level, so without a cap a file
/// of `[[[[…` overflows the stack instead of returning an error.
const MAX_DEPTH: usize = 64;

/// A JSON value. Object member order is preserved (the bench documents
/// are read by humans, so order is meaningful).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number written without fraction or exponent; wide enough that
    /// `u64` counters and `i64` gauges both round-trip exactly.
    Int(i128),
    /// Any other number.
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: src.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// An object of the given members, in order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `x` rounded to `places` decimals (an [`Json::Int`] when `places` is
    /// 0): bench rates carry no more digits than the measurement has.
    pub fn rounded(x: f64, places: u32) -> Json {
        let scale = 10f64.powi(places as i32);
        let r = (x * scale).round() / scale;
        if places == 0 {
            Json::Int(r as i128)
        } else {
            Json::Num(r)
        }
    }

    /// Member lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Sets member `key` of this object: replaced in place when present,
    /// appended otherwise. Panics on a non-object — callers splice into
    /// objects they built, or loaded and found to be one.
    pub fn insert(&mut self, key: &str, value: Json) {
        let Json::Obj(members) = self else { panic!("Json::insert({key:?}) on a non-object") };
        match members.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = value,
            None => members.push((key.to_string(), value)),
        }
    }

    /// The document as text, in the module's one spelling.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// The document stored at `path`; an absent or empty file is `{}`, so
    /// a bench that splices its section works before and after the sweep
    /// that owns the file.
    pub fn load(path: &str) -> Result<Json, String> {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        if text.trim().is_empty() {
            return Ok(Json::Obj(Vec::new()));
        }
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Emits the document, asserts it reads back as the same value, and
    /// writes it to `path` unless `dry_run` (the `--smoke` mode) — so the
    /// smoke gates fail on a malformed document without touching the
    /// committed file. Says on stdout which of the two happened.
    pub fn save(&self, path: &str, dry_run: bool) {
        let text = self.emit();
        let back = Json::parse(&text).unwrap_or_else(|e| panic!("{path}: emitted bad JSON: {e}"));
        assert_eq!(&back, self, "{path}: document changed across emit → parse");
        if dry_run {
            println!("(--smoke: {path} built and read back, not written)");
        } else {
            std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("wrote {path}");
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            // `{:?}` is the shortest text that parses back to the same
            // f64 and always carries a `.` or exponent, so a float never
            // rereads as an Int. JSON has no NaN/inf.
            Json::Num(n) if n.is_finite() => out.push_str(&format!("{n:?}")),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                write_seq(out, depth, ['[', ']'], items.iter().map(|v| (None, v)).collect())
            }
            Json::Obj(members) => write_seq(
                out,
                depth,
                ['{', '}'],
                members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        }
    }
}

/// Writes a container, one child per line — except an array of scalars
/// (a histogram bucket's `[8191, 581]`), which stays on one line.
fn write_seq(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    kids: Vec<(Option<&str>, &Json)>,
) {
    let inline = kids.iter().all(|(k, v)| k.is_none() && !matches!(v, Json::Arr(_) | Json::Obj(_)));
    let pad = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    out.push(open);
    for (i, (key, v)) in kids.iter().enumerate() {
        if i > 0 {
            out.push_str(if inline { ", " } else { "," });
        }
        if !inline {
            pad(out, depth + 1);
        }
        if let Some(k) = key {
            write_str(k, out);
            out.push_str(": ");
        }
        v.write(out, depth + 1);
    }
    if !inline {
        pad(out, depth);
    }
    out.push(close);
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n.into())
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as i128)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

/// The `"telemetry"` member of the bench documents: sorted `counters`,
/// `gauges` and `histograms` objects keyed by metric name. Labeled names
/// (`done_total{shard="0"}`) are ordinary keys — the emitter escapes them.
impl From<&Snapshot> for Json {
    fn from(snap: &Snapshot) -> Json {
        let hist = |h: &fractal_telemetry::HistogramSnapshot| {
            let buckets = (0..BUCKETS)
                .filter(|&i| h.buckets[i] > 0)
                .map(|i| Json::Arr(vec![bucket_upper(i).into(), h.buckets[i].into()]))
                .collect();
            Json::object([
                ("count", h.count.into()),
                ("sum", h.sum.into()),
                ("min", h.min.into()),
                ("max", h.max.into()),
                ("p50", h.quantile(0.50).into()),
                ("p99", h.quantile(0.99).into()),
                ("buckets", Json::Arr(buckets)),
            ])
        };
        Json::object([
            ("counters", Json::object(snap.counters.iter().map(|(k, v)| (k, Json::from(*v))))),
            ("gauges", Json::object(snap.gauges.iter().map(|(k, v)| (k, Json::Int((*v).into()))))),
            ("histograms", Json::object(snap.histograms.iter().map(|(k, h)| (k, hist(h))))),
        ])
    }
}

struct Parser<'s> {
    bytes: &'s [u8],
    pos: usize,
    depth: usize,
}

impl<'s> Parser<'s> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    Json::Obj(self.sequence(b'}', Self::member)?)
                } else {
                    Json::Arr(self.sequence(b']', Self::value)?)
                };
                self.depth -= 1;
                Ok(v)
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        // The scanned bytes are ASCII, so the slice is valid UTF-8.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        // Integers beyond i128 fall through to the nearest f64; `1e999`
        // parses to infinity, which JSON cannot say back.
        let float = || text.parse::<f64>().ok().filter(|n| n.is_finite()).map(Json::Num);
        text.parse::<i128>()
            .ok()
            .map(Json::Int)
            .or_else(float)
            .ok_or_else(|| format!("bad number at byte {start}"))
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
                    out.push(match esc {
                        b'"' | b'\\' | b'/' => esc as char,
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            char::from_u32(hex).unwrap_or('\u{fffd}')
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    });
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through untouched: copy the
                    // raw bytes until the next ASCII quote/backslash.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid utf-8 in string")?,
                    );
                }
            }
        }
    }

    /// The comma-separated `item`s of the container opening at `pos`, up
    /// to its `close` bracket.
    fn sequence<T>(
        &mut self,
        close: u8,
        item: fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                other => {
                    let close = close as char;
                    return Err(format!("expected , or {close} got {other:?} at {}", self.pos));
                }
            }
        }
    }

    fn member(&mut self) -> Result<(String, Json), String> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok((key, self.value()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_the_bench_grammar() {
        let doc = Json::parse(r#"{"bench": "capacity", "negotiations": 1000}"#).expect("parses");
        assert_eq!(doc.get("negotiations"), Some(&Json::Int(1000)));
        assert_eq!(doc.get("bench"), Some(&Json::Str("capacity".into())));
        let escaped = Json::parse(r#"{"a{b": "x\"y\n", "n": -3.5e2}"#).unwrap();
        assert_eq!(escaped.get("a{b"), Some(&Json::Str("x\"y\n".into())));
        assert_eq!(escaped.get("n"), Some(&Json::Num(-350.0)));
        assert!(Json::parse("{\"a\": 1,}").is_err(), "trailing comma rejected");
        assert!(Json::parse("[1, 2] tail").is_err(), "trailing garbage rejected");
    }

    #[test]
    fn nesting_is_capped_with_an_error_not_a_stack_overflow() {
        let err = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(err, format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"));
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok(), "exactly {MAX_DEPTH} levels still parse");
    }

    #[test]
    fn emitter_spelling_is_what_check_sh_greps_for() {
        let doc = Json::object([
            ("rows", Json::Arr(vec![Json::object([("git_sha", "abc123".into())])])),
            ("scenarios", Json::object([("stuck", 0u64.into())])),
            ("buckets", Json::Arr(vec![Json::Arr(vec![1u64.into(), Json::Num(2.5)])])),
            ("empty", Json::Obj(Vec::new())),
        ]);
        assert_eq!(
            doc.emit(),
            "{\n  \"rows\": [\n    {\n      \"git_sha\": \"abc123\"\n    }\n  ],\n  \"scenarios\": \
             {\n    \"stuck\": 0\n  },\n  \"buckets\": [\n    [1, 2.5]\n  ],\n  \"empty\": {}\n}\n"
        );
    }
}
