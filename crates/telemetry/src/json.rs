//! Minimal JSON writer and a validating parser.
//!
//! The build is hermetic (no serde_json), so this module provides the
//! escaping helper, [`JsonWriter`] — which places every comma, line
//! break and indent, so a caller names fields and never punctuation —
//! and a small recursive-descent parser used by the BENCH gates, tests
//! and the CI smoke job to prove the emitted documents actually parse.

/// Quote and escape a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// One open object or array of a [`JsonWriter`].
struct Frame {
    close: char,
    /// One member per line, indented; otherwise members follow on the
    /// same line after `", "`.
    lines: bool,
    empty: bool,
}

/// Builds one JSON document. Values are written as the caller formats
/// them (`field("x", format_args!("{x:.3}"))`), strings go through
/// [`quote`]; the writer owns the punctuation.
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    open: Vec<Frame>,
    /// The next member stays on the current line even in a `lines` frame.
    glued: bool,
    /// A key was just written: the value that follows needs no separator.
    keyed: bool,
}

impl JsonWriter {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    fn indent(&mut self) {
        let depth = self.open.iter().filter(|f| f.lines).count();
        self.out.push('\n');
        self.out.push_str(&"  ".repeat(depth));
    }

    /// Comma, line break and indent due before the next member.
    fn separate(&mut self) {
        let own_line = !std::mem::take(&mut self.glued);
        let Some(frame) = self.open.last_mut().filter(|_| !self.keyed) else {
            self.keyed = false;
            return;
        };
        let own_line = own_line && frame.lines;
        if !std::mem::replace(&mut frame.empty, false) {
            self.out.push_str(if own_line { "," } else { ", " });
        }
        if own_line {
            self.indent();
        }
    }

    fn begin(&mut self, open: char, close: char, lines: bool) -> &mut Self {
        self.separate();
        self.out.push(open);
        self.open.push(Frame {
            close,
            lines,
            empty: true,
        });
        self
    }

    /// Open an object; with `lines`, one field per line.
    pub fn object(&mut self, lines: bool) -> &mut Self {
        self.begin('{', '}', lines)
    }

    /// Open an array; with `lines`, one element per line.
    pub fn array(&mut self, lines: bool) -> &mut Self {
        self.begin('[', ']', lines)
    }

    /// Close the innermost open object or array.
    pub fn end(&mut self) -> &mut Self {
        let frame = self.open.pop().expect("end() without an open container");
        if frame.lines {
            self.indent();
        }
        self.out.push(frame.close);
        self
    }

    /// Keep the next field on the current line of a one-per-line object.
    pub fn glue(&mut self) -> &mut Self {
        self.glued = true;
        self
    }

    /// Write a field's key; its value (or container) follows.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        self.out.push_str(&quote(key));
        self.out.push_str(": ");
        self.keyed = true;
        self
    }

    /// Write a number, boolean or ready-made JSON text as the next value.
    pub fn value(&mut self, value: impl std::fmt::Display) -> &mut Self {
        use std::fmt::Write as _;
        self.separate();
        let _ = write!(self.out, "{value}");
        self
    }

    /// `key` and [`value`](Self::value) in one call.
    pub fn field(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        self.key(key).value(value)
    }

    /// `key` and the string `value`, quoted, in one call.
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key).value(quote(value))
    }

    /// The finished document, newline-terminated.
    pub fn finish(mut self) -> String {
        assert!(self.open.is_empty(), "finish() with an open container");
        self.out.push('\n');
        self.out
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone)]
pub enum JsonValue {
    /// Key/value pairs in document order.
    Object(Vec<(String, JsonValue)>),
    /// Array elements.
    Array(Vec<JsonValue>),
    /// String literal.
    String(String),
    /// Any number (as f64).
    Number(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl JsonValue {
    /// Look up an object field.
    pub fn get(&self, key: &str) -> Result<&JsonValue, String> {
        match self {
            JsonValue::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {key:?}")),
            _ => Err(format!("expected object looking up {key:?}")),
        }
    }

    /// View as a string.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            JsonValue::String(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    /// View as an array.
    pub fn as_array(&self) -> Result<&[JsonValue], String> {
        match self {
            JsonValue::Array(v) => Ok(v),
            other => Err(format!("expected array, got {other:?}")),
        }
    }

    /// View as a number.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            JsonValue::Number(n) => Ok(*n),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    /// View as a number, rounded to u64.
    pub fn as_u64(&self) -> Result<u64, String> {
        Ok(self.as_f64()?.round() as u64)
    }
}

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", ch as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Object(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Object(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::String(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(JsonValue::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(JsonValue::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(JsonValue::Null)
        }
        Some(_) => {
            // JSON's number characters, plus the letters of `inf` and
            // `NaN`: every writer in the workspace prints floats with
            // `{:?}`, and that is what a non-finite one comes out as.
            let start = *pos;
            let in_number = |c: u8| c.is_ascii_digit() || b"-+.eEinfNa".contains(&c);
            while *pos < b.len() && in_number(b[*pos]) {
                *pos += 1;
            }
            let tok = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            tok.parse::<f64>()
                .map(JsonValue::Number)
                .map_err(|_| format!("bad number {tok:?} at byte {start}"))
        }
        None => Err("unexpected end of input".into()),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("bad \\u escape".to_string())?);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("unexpected end".to_string())?;
                out.push(c);
                *pos += c.len_utf8();
            }
            None => return Err("unterminated string".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, "x\n"], "b": {"c": true, "d": null}}"#).expect("parses");
        assert_eq!(
            v.get("a").and_then(|a| a.as_array()).map(|a| a.len()),
            Ok(3)
        );
        let a = v.get("a").expect("a").as_array().expect("array");
        assert_eq!(a[1].as_f64(), Ok(2.5));
        assert_eq!(a[2].as_str(), Ok("x\n"));
        assert!(matches!(
            v.get("b").expect("b").get("c"),
            Ok(JsonValue::Bool(true))
        ));
    }

    #[test]
    fn reads_back_what_debug_prints_for_non_finite_floats() {
        let doc = format!("[{:?}, {:?}, 1e3]", -f64::INFINITY, f64::NAN);
        let v = parse(&doc).expect("parses");
        let a = v.as_array().expect("array");
        assert_eq!(a[0].as_f64(), Ok(f64::NEG_INFINITY));
        assert!(a[1].as_f64().expect("number").is_nan());
        assert_eq!(a[2].as_f64(), Ok(1000.0));
        assert!(parse("[fin]").is_err(), "letters alone are not a number");
    }

    #[test]
    fn writer_places_commas_lines_and_indents() {
        let mut w = JsonWriter::new();
        w.object(true).field_str("bench", "x\"y").field("n", 3);
        w.glue().field("m", format_args!("{:.1}", 0.25));
        w.key("rows").array(true);
        for i in 0..2 {
            w.object(false).field("i", i).key("v").array(false);
            w.value(1).value(2).end().end();
        }
        w.end().key("none").array(true).end().end();
        let text = w.finish();
        assert_eq!(
            text,
            "{\n  \"bench\": \"x\\\"y\",\n  \"n\": 3, \"m\": 0.2,\n  \"rows\": [\n    \
             {\"i\": 0, \"v\": [1, 2]},\n    {\"i\": 1, \"v\": [1, 2]}\n  ],\n  \
             \"none\": [\n  ]\n}\n"
        );
        let doc = parse(&text).expect("what the writer writes parses");
        assert_eq!(
            doc.get("rows").and_then(|r| r.as_array()).map(<[_]>::len),
            Ok(2)
        );
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn quote_round_trips_through_parse() {
        let s = "a\"b\\c\nd\te";
        let v = parse(&quote(s)).expect("parses");
        assert_eq!(v.as_str(), Ok(s));
    }
}
