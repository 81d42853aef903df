//! The one JSON layer: a minimal value model, parser, and writer shared
//! by the worker wire frames, the campaign journal, and the run profile.
//!
//! The build environment vendors no serde, so the workspace carries its
//! own small JSON layer. It covers exactly what those documents need:
//! objects, arrays, strings, booleans, `null`, and **unsigned 64-bit
//! integers**. All their numbers are unsigned integers, and `u64` (unlike
//! `f64`) represents solver counters and 64-bit bit-vector values
//! exactly; floats, exponents and negative numbers are rejected as
//! malformed.
//!
//! The parser reads input from outside the process — frames from worker
//! children and fleet sockets, journals and profiles from disk — so it
//! is linear in its input and bounded in depth. A string is copied run
//! by run between escapes, never re-validated as UTF-8; nesting deeper
//! than `MAX_DEPTH` (128, far above the deepest document any writer
//! emits) is an error instead of a stack overflow.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number form these documents use).
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serializes the value (compact, no whitespace).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serializes the value to a fresh string.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Parses a complete JSON document; trailing non-whitespace is an
    /// error (a record line must be exactly one value).
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            text: input,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != input.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }
}

/// `s` as a fresh JSON string literal (see [`write_str`]).
pub(crate) fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_str(&mut out, s);
    out
}

/// Writes `s` as a JSON string literal with escapes.
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

/// Nesting bound of [`Json::parse`]: the writers' deepest documents
/// (journal CEX traces, wire modules) nest under ten levels, and the
/// parser recurses once per level.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while self
            .bytes()
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("malformed literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(format!(
                "unexpected byte `{}` at {}",
                char::from(b),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Parses an array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Parser<'a>) -> Result<Json, String>,
    ) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if let Some(b'.' | b'e' | b'E' | b'-' | b'+') = self.peek() {
            return Err(format!(
                "non-integer number at byte {start} (numbers are unsigned integers)"
            ));
        }
        self.text[start..self.pos]
            .parse::<u64>()
            .ok()
            .map(Json::Num)
            .ok_or_else(|| format!("number out of range at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` in one go. Neither
            // byte occurs inside a multi-byte UTF-8 sequence, so the run
            // ends on a char boundary of the already-valid input.
            let run = self.bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| "unterminated string".to_string())?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes()[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => {
                    // Exactly four hex digits: `to_digit` refuses the sign
                    // `from_str_radix` would accept.
                    let hex = self
                        .bytes()
                        .get(self.pos + 1..self.pos + 5)
                        .and_then(|h| {
                            h.iter().try_fold(0, |code, &b| {
                                Some(code << 4 | char::from(b).to_digit(16)?)
                            })
                        })
                        .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                    // The writers never emit surrogate pairs (only control
                    // characters are \u-escaped).
                    out.push(
                        char::from_u32(hex)
                            .ok_or_else(|| format!("bad code point at {}", self.pos))?,
                    );
                    self.pos += 4;
                }
                _ => return Err(format!("bad escape at byte {}", self.pos)),
            }
            self.pos += 1;
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) {
        let s = v.to_string_compact();
        assert_eq!(&Json::parse(&s).expect("parse"), v, "via {s}");
    }

    #[test]
    fn values_round_trip() {
        round_trip(&Json::Null);
        round_trip(&Json::Bool(true));
        round_trip(&Json::Num(0));
        round_trip(&Json::Num(u64::MAX));
        round_trip(&Json::Str("plain".to_string()));
        round_trip(&Json::Str("esc \" \\ \n \t \r \u{1} é".to_string()));
        round_trip(&Json::Arr(vec![Json::Num(1), Json::Null]));
        round_trip(&Json::Obj(vec![
            ("a".to_string(), Json::Num(7)),
            ("b".to_string(), Json::Arr(vec![])),
        ]));
    }

    #[test]
    fn u64_precision_is_exact() {
        // 2^53 + 1 is where f64-based JSON layers silently corrupt.
        let v = Json::Num((1 << 53) + 1);
        assert_eq!(Json::parse(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        let deep = "[".repeat(10_000);
        for bad in [
            "",
            "{",
            "[1,",
            "\"x",
            "{\"a\"}",
            "1.5",
            "-3",
            "1e9",
            "nul",
            "{} x",
            "\"\\u+041\"",
            deep.as_str(),
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_up_to_the_depth_bound_parses() {
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_bound).is_ok());
    }

    #[test]
    fn string_scan_is_linear_in_the_input() {
        // Three ~1 MiB strings with escapes and UTF-8 of every width. A
        // scan that re-validates the rest of the document per character
        // takes minutes on this; a linear one takes milliseconds. On a
        // timeout the helper thread is left running until the test
        // binary exits.
        let s = "plain é € 𝄞 \" \\ \n \u{1} ".repeat(40_000);
        let doc = Json::Arr(vec![Json::Str(s); 3]);
        let text = doc.to_string_compact();
        let (done, parsed) = std::sync::mpsc::channel();
        let parser = std::thread::spawn(move || done.send(Json::parse(&text)));
        let parsed = parsed
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("3 MiB of strings parse within 5 s");
        assert_eq!(parsed.expect("parse"), doc);
        parser
            .join()
            .expect("parser thread")
            .expect("result delivered");
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }
}
