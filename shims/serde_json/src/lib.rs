//! In-tree stand-in for `serde_json`: renders the serde shim's [`Value`]
//! tree to JSON bytes and parses JSON bytes back into it. Only the entry
//! points this workspace uses are provided (`to_vec`, `from_slice`,
//! `Error`).

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize, Value};

pub use serde::Error;

/// Serializes a value to JSON bytes. Fails only for non-finite floats,
/// which JSON cannot represent.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    let mut out = Vec::new();
    write_value(&value.to_value(), &mut out)?;
    Ok(out)
}

/// Deserializes a value from JSON bytes.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let value = Parser { bytes, pos: 0 }.parse_document()?;
    T::from_value(&value)
}

// --- Writer ---

fn write_value(v: &Value, out: &mut Vec<u8>) -> Result<(), Error> {
    match v {
        Value::Null => out.extend_from_slice(b"null"),
        Value::Bool(true) => out.extend_from_slice(b"true"),
        Value::Bool(false) => out.extend_from_slice(b"false"),
        Value::U64(n) => out.extend_from_slice(itoa(*n).as_bytes()),
        Value::I64(n) => {
            use std::io::Write;
            write!(out, "{n}").expect("write to Vec cannot fail");
        }
        Value::F64(n) => {
            if !n.is_finite() {
                return Err(Error::msg("cannot serialize non-finite float as JSON"));
            }
            use std::io::Write;
            // `{}` is Rust's shortest round-trip float formatting; integral
            // values print without a fractional part ("5" not "5.0"), which
            // the numeric coercions on the parse side accept.
            write!(out, "{n}").expect("write to Vec cannot fail");
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push(b'[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_value(item, out)?;
            }
            out.push(b']');
        }
        Value::Object(fields) => {
            out.push(b'{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_string(k, out);
                out.push(b':');
                write_value(v, out)?;
            }
            out.push(b'}');
        }
    }
    Ok(())
}

fn itoa(mut n: u64) -> String {
    if n == 0 {
        return "0".to_string();
    }
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while n > 0 {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    std::str::from_utf8(&buf[i..]).expect("digits are ASCII").to_string()
}

fn write_string(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    for c in s.chars() {
        match c {
            '"' => out.extend_from_slice(b"\\\""),
            '\\' => out.extend_from_slice(b"\\\\"),
            '\n' => out.extend_from_slice(b"\\n"),
            '\r' => out.extend_from_slice(b"\\r"),
            '\t' => out.extend_from_slice(b"\\t"),
            '\u{08}' => out.extend_from_slice(b"\\b"),
            '\u{0c}' => out.extend_from_slice(b"\\f"),
            c if (c as u32) < 0x20 => {
                use std::io::Write;
                write!(out, "\\u{:04x}", c as u32).expect("write to Vec cannot fail");
            }
            c => {
                let mut utf8 = [0u8; 4];
                out.extend_from_slice(c.encode_utf8(&mut utf8).as_bytes());
            }
        }
    }
    out.push(b'"');
}

// --- Parser ---

struct Parser<'b> {
    bytes: &'b [u8],
    pos: usize,
}

impl Parser<'_> {
    fn parse_document(mut self) -> Result<Value, Error> {
        let value = self.parse_value()?;
        self.skip_whitespace();
        if self.pos != self.bytes.len() {
            return Err(Error::msg("trailing characters after JSON document"));
        }
        Ok(value)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_whitespace();
        self.bytes.get(self.pos).copied().ok_or_else(|| Error::msg("unexpected end of JSON input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!("expected `{}` at offset {}", b as char, self.pos)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'{' => self.parse_object(),
            b'[' => self.parse_array(),
            b'"' => self.parse_string().map(Value::Str),
            b't' => self.parse_keyword(b"true", Value::Bool(true)),
            b'f' => self.parse_keyword(b"false", Value::Bool(false)),
            b'n' => self.parse_keyword(b"null", Value::Null),
            b'-' | b'0'..=b'9' => self.parse_number(),
            other => Err(Error::msg(format!(
                "unexpected character `{}` at offset {}",
                other as char, self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, word: &[u8], value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::msg(format!("invalid literal at offset {}", self.pos)))
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => {
                    return Err(Error::msg(format!("expected `,` or `}}` at offset {}", self.pos)))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::msg(format!("expected `,` or `]` at offset {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(Error::msg(format!("expected string at offset {}", self.pos)));
        }
        self.pos += 1;
        let mut s = String::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or_else(|| Error::msg("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::msg("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{08}'),
                        b'f' => s.push('\u{0c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let high = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&high) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let low = self.parse_hex4()?;
                                    0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                                } else {
                                    return Err(Error::msg("unpaired surrogate in string"));
                                }
                            } else {
                                high
                            };
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::msg("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(Error::msg("invalid escape sequence")),
                    }
                }
                _ => {
                    // Consume the run up to the next quote or escape and
                    // validate only that run: neither byte can occur
                    // inside a multi-byte UTF-8 sequence. Validating the
                    // whole remaining buffer per character made a
                    // document quadratic in its length.
                    let start = self.pos;
                    while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error::msg("invalid UTF-8 in string"))?;
                    s.push_str(run);
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::msg("truncated unicode escape"))?;
        self.pos += 4;
        let hex = std::str::from_utf8(hex).map_err(|_| Error::msg("invalid unicode escape"))?;
        u32::from_str_radix(hex, 16).map_err(|_| Error::msg("invalid unicode escape"))
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::msg(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_value() {
        let v = Value::Object(vec![
            ("a".into(), Value::U64(5)),
            ("b".into(), Value::Array(vec![Value::F64(1.5), Value::I64(-2), Value::Null])),
            ("c".into(), Value::Str("x \"y\" \n z".into())),
            ("d".into(), Value::Bool(true)),
        ]);
        let bytes = to_vec(&v).unwrap();
        let back: Value = from_slice(&bytes).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn rejects_non_finite_floats() {
        assert!(to_vec(&f64::NAN).is_err());
        assert!(to_vec(&f64::INFINITY).is_err());
    }

    /// Regression: `parse_string` used to re-validate the whole remaining
    /// buffer for every character, so a megabyte of strings took minutes
    /// in a debug build.
    #[test]
    fn string_heavy_megabyte_parses_in_linear_time() {
        let item = "\"caf\u{e9} \\\"quoted\\\" \\n \u{1f600} plain ascii filler text\"";
        let n = (1 << 20) / item.len() + 1;
        let doc = format!("[{}]", vec![item; n].join(","));
        assert!(doc.len() >= 1 << 20);
        let started = std::time::Instant::now();
        let parsed: Vec<String> = from_slice(doc.as_bytes()).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed.len(), n);
        assert_eq!(parsed[n - 1], "caf\u{e9} \"quoted\" \n \u{1f600} plain ascii filler text");
        assert!(elapsed < std::time::Duration::from_secs(1), "took {elapsed:?}");
    }

    #[test]
    fn rejects_invalid_utf8_and_unterminated_strings() {
        assert!(from_slice::<String>(b"\"ab\xffcd\"").is_err());
        assert!(from_slice::<String>(b"\"\xe9").is_err());
        assert!(from_slice::<String>(b"\"never closed").is_err());
        assert!(from_slice::<String>(b"\"dangling \\").is_err());
    }

    #[test]
    fn parses_unicode_escapes() {
        let s: String = from_slice("\"\u{e9}\u{1f600}\"".as_bytes()).unwrap();
        assert_eq!(s, "\u{e9}\u{1f600}");
        // The same characters via \u escapes, including a surrogate pair.
        let escaped: String = from_slice(br#""\u00e9 \ud83d\ude00""#).unwrap();
        assert_eq!(escaped, "\u{e9} \u{1f600}");
    }
}
