//! The JSON reader and float rule shared by the telemetry snapshot and the
//! bench documents. The vendored `serde` derives are no-op stand-ins (see
//! DESIGN.md §8), so JSON is written by hand: every float goes through
//! [`Num`] (non-finite → `null`) and [`parse`] reads the documents back.

use std::fmt;

/// A float that formats as JSON: finite values exactly as the `f64` under
/// the same spec (`{:.3}` keeps its precision), non-finite ones as `null`.
#[derive(Clone, Copy, Debug)]
pub struct Num(pub f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            fmt::Display::fmt(&self.0, f)
        } else {
            f.write_str("null")
        }
    }
}

/// Serialises an optional float as JSON: `None` *and* non-finite values
/// become `null` — bare `NaN`/`inf` tokens are not JSON and would poison
/// every standard reader of the document.
pub(crate) fn json_f64(value: Option<f64>) -> String {
    value.map_or_else(|| "null".to_string(), |v| Num(v).to_string())
}

pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value.
#[derive(Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number without fraction or exponent that fits `u64`.
    Int(u64),
    /// Any other number.
    Float(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object's fields, in document order.
    Obj(Vec<(String, Value)>),
}

pub(crate) struct Object<'a>(&'a [(String, Value)]);

impl<'a> Object<'a> {
    pub(crate) fn field(&self, name: &str) -> Result<&'a Value, String> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field {name}"))
    }
}

impl Value {
    pub(crate) fn as_object(&self, what: &str) -> Result<Object<'_>, String> {
        match self {
            Value::Obj(fields) => Ok(Object(fields)),
            _ => Err(format!("{what} is not an object")),
        }
    }

    pub(crate) fn as_array(&self, what: &str) -> Result<&[Value], String> {
        match self {
            Value::Arr(items) => Ok(items),
            _ => Err(format!("{what} is not an array")),
        }
    }

    pub(crate) fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("{what} is not a boolean")),
        }
    }

    pub(crate) fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(format!("{what} is not a string")),
        }
    }

    /// Accepts either a bare integer or a decimal string (the form
    /// used for quantities that can exceed 2⁵³).
    pub(crate) fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Value::Int(n) => Ok(*n),
            Value::Str(s) => s
                .parse::<u64>()
                .map_err(|_| format!("{what} is not a u64: {s:?}")),
            _ => Err(format!("{what} is not an integer")),
        }
    }

    /// Accepts any JSON number.
    pub(crate) fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Value::Int(n) => Ok(*n as f64),
            Value::Float(x) => Ok(*x),
            _ => Err(format!("{what} is not a number")),
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// Describes the first malformed byte.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        _ => Err(format!("unexpected input at byte {}", *pos)),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected {word} at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_digits = *pos;
    while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
        *pos += 1;
    }
    if *pos == int_digits {
        return Err(format!("bad number at byte {start}"));
    }
    let mut is_float = false;
    if bytes.get(*pos) == Some(&b'.') {
        is_float = true;
        *pos += 1;
        let frac_digits = *pos;
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == frac_digits {
            return Err(format!("bad number at byte {start}"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        is_float = true;
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_digits = *pos;
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == exp_digits {
            return Err(format!("bad number at byte {start}"));
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("bad number at byte {start}"))?;
    if !is_float {
        // Counters stay integer-exact as long as they fit u64; a
        // negative or oversized integer falls back to the float form.
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::Int(n));
        }
    }
    text.parse::<f64>()
        .map(Value::Float)
        .map_err(|_| format!("bad number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let read_hex = |at: usize| {
                            bytes
                                .get(at..at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                        };
                        let hex = read_hex(*pos + 1)
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        let (code, hex_len) = if (0xd800..=0xdbff).contains(&hex) {
                            // High surrogate: standard JSON encodes
                            // non-BMP characters as a \uXXXX\uXXXX
                            // surrogate pair.
                            if bytes.get(*pos + 5) != Some(&b'\\')
                                || bytes.get(*pos + 6) != Some(&b'u')
                            {
                                return Err(format!("unpaired surrogate at byte {}", *pos));
                            }
                            let low = read_hex(*pos + 7)
                                .filter(|c| (0xdc00..=0xdfff).contains(c))
                                .ok_or_else(|| format!("unpaired surrogate at byte {}", *pos))?;
                            (0x10000 + ((hex - 0xd800) << 10) + (low - 0xdc00), 10)
                        } else {
                            (hex, 4)
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("bad code point at byte {}", *pos))?,
                        );
                        *pos += hex_len;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the full UTF-8 character, not just one byte.
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| format!("invalid UTF-8 at byte {}", *pos))?;
                let c = rest.chars().next().expect("non-empty by match arm");
                out.push(c);
                *pos += c.len_utf8();
            }
            None => return Err("unterminated string".to_string()),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_reads_floats_and_signed_numbers() {
        for (text, want) in [
            ("107.5", 107.5),
            ("-3.25", -3.25),
            ("1e3", 1000.0),
            ("2.5E-2", 0.025),
            ("-7", -7.0),
        ] {
            let v = parse(text).expect("parses");
            assert_eq!(v.as_f64("n").unwrap(), want, "{text}");
        }
        // Integers that fit u64 stay integer-exact.
        let v = parse("18446744073709551615").expect("parses");
        assert_eq!(v.as_u64("n").unwrap(), u64::MAX);
        for bad in ["-", "1.", ".5", "1e", "1e+", "--1", "1.2.3"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parser_accepts_standard_string_escapes() {
        // A standard JSON library re-emitting a snapshot may use any of
        // the short escape forms; from_json must read them all.
        let value = parse(r#""a\tb\rc\nd\be\ff\/g\"h\\i""#).expect("parses");
        assert_eq!(
            value.as_str("s").unwrap(),
            "a\tb\rc\nd\u{0008}e\u{000c}f/g\"h\\i"
        );
    }

    #[test]
    fn parser_decodes_surrogate_pairs() {
        // U+1F600 as a standard JSON library escapes it: "\ud83d\ude00".
        let text = "\"pre \\ud83d\\ude00 post\"";
        let value = parse(text).expect("parses");
        assert_eq!(value.as_str("s").unwrap(), "pre \u{1f600} post");
    }

    #[test]
    fn parser_rejects_unpaired_surrogates() {
        for bad in [
            "\"\\ud83d\"",        // lone high surrogate at end of string
            "\"\\ud83d rest\"",   // high surrogate not followed by \u
            "\"\\ud83d\\u0041\"", // high surrogate paired with a non-low \u
            "\"\\ude00\"",        // lone low surrogate
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
