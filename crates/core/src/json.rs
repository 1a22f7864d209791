//! The JSON reader and writer shared by the telemetry snapshot and the
//! bench documents. [`document`] owns the layout every one of them uses;
//! callers name a key, a typed value and, for a float, its precision.
//! [`parse`] reads a document back as a [`Value`] tree; the bench
//! binaries' `--check` gate compares two such trees.

use std::fmt::{self, Write};

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

/// A value [`Writer::field`] writes as itself: a boolean, an integer, an
/// escaped string, a float in its shortest round-trip form (non-finite →
/// `null`), or an `Option` of one (`None` → `null`).
pub trait Scalar {
    /// Appends the value's JSON text to `out`.
    fn write_to(&self, out: &mut String);
}

impl Scalar for bool {
    fn write_to(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

macro_rules! integer_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write_to(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
integer_scalar!(u64, usize, i32);

impl Scalar for f64 {
    fn write_to(&self, out: &mut String) {
        let _ = write!(out, "{}", Num(*self));
    }
}

impl Scalar for str {
    fn write_to(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write_to(&self, out: &mut String) {
        (**self).write_to(out);
    }
}

impl<T: Scalar> Scalar for Option<T> {
    fn write_to(&self, out: &mut String) {
        match self {
            Some(value) => value.write_to(out),
            None => out.push_str("null"),
        }
    }
}

/// How an open container separates its entries.
#[derive(Clone, Copy)]
enum Layout {
    /// The document's own object: one field per line, two-space indent.
    Top,
    /// A top-level array of records: one inline record per line,
    /// four-space indent.
    Rows,
    /// Everything nested deeper: one line, `", "` between entries.
    Inline,
}

/// Streams one JSON document; see [`document`].
pub struct Writer {
    out: String,
    /// The open containers, outermost first, each with "still empty".
    open: Vec<(Layout, bool)>,
}

/// Writes one JSON document: `body` adds the top-level fields in order,
/// and the writer lays them out the one way every BENCH file and the
/// telemetry snapshot share: one top-level field per line, nested objects
/// and arrays inline, and a top-level array of records one record per
/// line. The document ends in a newline.
pub fn document(body: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer {
        out: String::with_capacity(1024),
        open: Vec::new(),
    };
    w.nest('{', Layout::Top, body, "\n}\n");
    w.out
}

impl Writer {
    /// Writes `value` as itself (see [`Scalar`]).
    pub fn field(&mut self, key: &str, value: impl Scalar) {
        self.key(key);
        value.write_to(&mut self.out);
    }

    /// Writes a float at `decimals` places; `None` and non-finite values
    /// become `null`.
    pub fn fixed(&mut self, key: &str, value: impl Into<Option<f64>>, decimals: usize) {
        self.key(key);
        let v = value.into().unwrap_or(f64::NAN);
        let _ = write!(self.out, "{:.*}", decimals, Num(v));
    }

    /// Writes a 64-bit seed or checksum as a decimal string, which stays
    /// integer-exact in readers that hold numbers as `f64` (above 2⁵³).
    pub fn u64_string(&mut self, key: &str, value: u64) {
        self.key(key);
        let _ = write!(self.out, "\"{value}\"");
    }

    /// Writes an array of scalars, inline.
    pub fn array<T: Scalar>(&mut self, key: &str, items: impl IntoIterator<Item = T>) {
        self.key(key);
        self.nest(
            '[',
            Layout::Inline,
            |w| {
                for item in items {
                    w.separate();
                    item.write_to(&mut w.out);
                }
            },
            "]",
        );
    }

    /// Writes a nested object, inline; `body` adds its fields.
    pub fn object(&mut self, key: &str, body: impl FnOnce(&mut Writer)) {
        self.key(key);
        self.nest('{', Layout::Inline, body, "}");
    }

    /// Writes an array of objects, `row` adding each item's fields. At the
    /// top level each object takes its own line; deeper, the array is
    /// inline like any other nested value.
    pub fn objects<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut row: impl FnMut(&mut Writer, T),
    ) {
        self.key(key);
        let (layout, close) = if self.open.len() == 1 {
            (Layout::Rows, "\n  ]")
        } else {
            (Layout::Inline, "]")
        };
        self.nest(
            '[',
            layout,
            |w| {
                for item in items {
                    w.separate();
                    w.nest('{', Layout::Inline, |w| row(w, item), "}");
                }
            },
            close,
        );
    }

    fn nest(&mut self, open: char, layout: Layout, body: impl FnOnce(&mut Writer), close: &str) {
        self.out.push(open);
        self.open.push((layout, true));
        body(self);
        self.open.pop();
        self.out.push_str(close);
    }

    fn separate(&mut self) {
        let (layout, empty) = self.open.last_mut().expect("a container is open");
        let first = std::mem::replace(empty, false);
        self.out.push_str(match (*layout, first) {
            (Layout::Top, true) => "\n  ",
            (Layout::Top, false) => ",\n  ",
            (Layout::Rows, true) => "\n    ",
            (Layout::Rows, false) => ",\n    ",
            (Layout::Inline, true) => "",
            (Layout::Inline, false) => ", ",
        });
    }

    fn key(&mut self, key: &str) {
        self.separate();
        key.write_to(&mut self.out);
        self.out.push_str(": ");
    }
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

/// Deepest nesting of arrays and objects [`parse`] accepts. The documents
/// it reads nest four deep; the bound keeps hostile input from exhausting
/// the stack, since each level is one recursive call.
pub const MAX_DEPTH: usize = 64;

/// Why [`parse`] refused a document, and the byte offset where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed syntax; `expected` names what should have been there.
    Syntax {
        /// Byte offset of the offending input.
        at: usize,
        /// What the parser was looking for.
        expected: &'static str,
    },
    /// An array or object nested deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of its opening bracket.
        at: usize,
    },
    /// A number with a leading zero, such as `01` or `-01`.
    LeadingZero {
        /// Byte offset of the number.
        at: usize,
    },
    /// A raw control character (U+0000–U+001F) inside a string.
    ControlCharacter {
        /// Byte offset of the character.
        at: usize,
    },
    /// A number too large for an `f64`, such as `1.5e400`.
    OutOfRange {
        /// Byte offset of the number.
        at: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { at, expected } => write!(f, "expected {expected} at byte {at}"),
            ParseError::TooDeep { at } => write!(f, "nesting deeper than {MAX_DEPTH} at byte {at}"),
            ParseError::LeadingZero { at } => write!(f, "leading zero in number at byte {at}"),
            ParseError::ControlCharacter { at } => {
                write!(f, "unescaped control character in string at byte {at}")
            }
            ParseError::OutOfRange { at } => write!(f, "number out of range at byte {at}"),
        }
    }
}

impl std::error::Error for ParseError {}

fn syntax<T>(at: usize, expected: &'static str) -> Result<T, ParseError> {
    Err(ParseError::Syntax { at, expected })
}

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns the first malformed input: bad syntax, an array or object
/// nested deeper than [`MAX_DEPTH`], a number with a leading zero or too
/// large for an `f64`, or a raw control character inside a string.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return syntax(pos, "end of document");
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

/// Skips whitespace and then `token`, one ASCII byte.
fn expect(bytes: &[u8], pos: &mut usize, token: &'static str) -> Result<(), ParseError> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == token.as_bytes().first() {
        *pos += 1;
        Ok(())
    } else {
        syntax(*pos, token)
    }
}

/// `depth` counts the arrays and objects enclosing the value.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(ParseError::TooDeep { at: *pos }),
        Some(b'{') => parse_object(text, pos, depth + 1),
        Some(b'[') => parse_array(text, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(text, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        _ => syntax(*pos, "a value"),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &'static str,
    value: Value,
) -> Result<Value, ParseError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        syntax(*pos, word)
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_digits = *pos;
    while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
        *pos += 1;
    }
    if *pos == int_digits {
        return syntax(start, "a digit");
    }
    if bytes[int_digits] == b'0' && *pos > int_digits + 1 {
        return Err(ParseError::LeadingZero { at: start });
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
            return syntax(start, "a digit");
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
            return syntax(start, "a digit");
        }
    }
    let Ok(text) = std::str::from_utf8(&bytes[start..*pos]) else {
        return syntax(start, "a number");
    };
    if !is_float {
        // Counters stay integer-exact as long as they fit u64; a
        // negative or oversized integer falls back to the float form.
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::Int(n));
        }
    }
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(Value::Float(x)),
        Ok(_) => Err(ParseError::OutOfRange { at: start }),
        Err(_) => syntax(start, "a number"),
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, ParseError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, "\"")?;
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
                        let hex = read_hex(*pos + 1).ok_or(ParseError::Syntax {
                            at: *pos,
                            expected: "four hex digits",
                        })?;
                        let (code, hex_len) = if (0xd800..=0xdbff).contains(&hex) {
                            // High surrogate: standard JSON encodes
                            // non-BMP characters as a \uXXXX\uXXXX
                            // surrogate pair.
                            let unpaired = ParseError::Syntax {
                                at: *pos,
                                expected: "a low surrogate",
                            };
                            if bytes.get(*pos + 5) != Some(&b'\\')
                                || bytes.get(*pos + 6) != Some(&b'u')
                            {
                                return Err(unpaired);
                            }
                            let low = read_hex(*pos + 7)
                                .filter(|c| (0xdc00..=0xdfff).contains(c))
                                .ok_or(unpaired)?;
                            (0x10000 + ((hex - 0xd800) << 10) + (low - 0xdc00), 10)
                        } else {
                            (hex, 4)
                        };
                        out.push(char::from_u32(code).ok_or(ParseError::Syntax {
                            at: *pos,
                            expected: "a high surrogate first",
                        })?);
                        *pos += hex_len;
                    }
                    _ => return syntax(*pos, "an escape character"),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => return Err(ParseError::ControlCharacter { at: *pos }),
            Some(_) => {
                // Copy the run up to the next quote, backslash or control
                // character as one slice. All are ASCII, so the run ends
                // on a character boundary of the already-valid `text`.
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                    .unwrap_or(bytes.len() - *pos);
                out.push_str(&text[*pos..*pos + run]);
                *pos += run;
            }
            None => return syntax(*pos, "a closing quote"),
        }
    }
}

fn parse_array(text: &str, pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, "[")?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return syntax(*pos, "',' or ']'"),
        }
    }
}

fn parse_object(text: &str, pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, "{")?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(text, pos)?;
        expect(bytes, pos, ":")?;
        let value = parse_value(text, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return syntax(*pos, "',' or '}'"),
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
            assert_eq!(parse(text), Ok(Value::Float(want)), "{text}");
        }
        // Integers that fit u64 stay integer-exact.
        assert_eq!(parse("18446744073709551615"), Ok(Value::Int(u64::MAX)));
        for bad in ["-", "1.", ".5", "1e", "1e+", "--1", "1.2.3"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parser_accepts_standard_string_escapes() {
        // A standard JSON library re-emitting a document may use any of
        // the short escape forms; the parser must read them all.
        let string = |s: &str| Ok(Value::Str(s.to_string()));
        assert_eq!(
            parse(r#""a\tb\rc\nd\be\ff\/g\"h\\i""#),
            string("a\tb\rc\nd\u{0008}e\u{000c}f/g\"h\\i")
        );
        // A long string mixing multi-byte characters with escapes: each
        // run between escapes is copied whole, so this stays linear.
        let piece = r#"é ✓ 😀\"\n\u00e9"#;
        let text = format!("\"{}\"", piece.repeat(20_000));
        let want = "é ✓ 😀\"\né".repeat(20_000);
        assert_eq!(parse(&text), string(&want));
        let accents = "é".repeat(80_000);
        assert_eq!(parse(&format!("\"{accents}\"")), string(&accents));
    }

    #[test]
    fn writer_lays_out_empty_and_nested_containers() {
        let doc = document(|w| {
            w.objects("rows", Vec::<u64>::new(), |_, _| {});
            w.object("o", |w| {
                w.objects("inline", [1u64, 2], |w, n| w.field("n", n))
            });
            w.array("a", [Some(1.5), None]);
            w.fixed("f", f64::NAN, 3);
        });
        assert_eq!(
            doc,
            "{\n  \"rows\": [\n  ],\n  \"o\": {\"inline\": [{\"n\": 1}, {\"n\": 2}]},\n  \
             \"a\": [1.5, null],\n  \"f\": null\n}\n"
        );
        assert!(parse(&doc).is_ok());
    }

    #[test]
    fn parser_rejects_truncated_and_trailing_input() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "nonsense",
            "NaN",
            "{\"seed\": 1} trailing",
        ] {
            assert!(
                matches!(parse(bad), Err(ParseError::Syntax { .. })),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn parser_bounds_nesting_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert!(err.to_string().contains("nesting deeper than 64"), "{err}");
        assert!(parse(&"{\"a\": ".repeat(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn parser_decodes_surrogate_pairs() {
        // U+1F600 as a standard JSON library escapes it: "\ud83d\ude00".
        let text = "\"pre \\ud83d\\ude00 post\"";
        assert_eq!(parse(text), Ok(Value::Str("pre \u{1f600} post".into())));
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

    #[test]
    fn parser_rejects_leading_zeros() {
        for (bad, at) in [("01", 0), ("-01", 0), ("[1, 007]", 4), ("00.5", 0)] {
            assert_eq!(parse(bad), Err(ParseError::LeadingZero { at }), "{bad:?}");
        }
        for good in ["0", "-0", "0.5", "-0.5", "0e3", "10"] {
            assert!(parse(good).is_ok(), "refused {good:?}");
        }
    }

    #[test]
    fn parser_rejects_raw_control_characters_in_strings() {
        for (bad, at) in [("\"a\nb\"", 2), ("\"\u{0}\"", 1), ("{\"k\u{1f}\": 1}", 3)] {
            assert_eq!(
                parse(bad),
                Err(ParseError::ControlCharacter { at }),
                "{bad:?}"
            );
        }
        // Escaped, the same characters are fine, and U+007F is not a
        // control character to JSON.
        assert_eq!(
            parse("\"a\\nb\\u001f\u{7f}\""),
            Ok(Value::Str("a\nb\u{1f}\u{7f}".into()))
        );
    }

    #[test]
    fn parser_rejects_numbers_beyond_f64() {
        for (bad, at) in [("1.5e400", 0), ("-1e309", 0), ("[0, 2E+999]", 4)] {
            assert_eq!(parse(bad), Err(ParseError::OutOfRange { at }), "{bad:?}");
        }
        let huge = "9".repeat(400);
        assert_eq!(parse(&huge), Err(ParseError::OutOfRange { at: 0 }));
        // Underflow to zero loses nothing a writer could have produced.
        for (text, want) in [("1e-400", 0.0), ("1.7976931348623157e308", f64::MAX)] {
            assert_eq!(parse(text), Ok(Value::Float(want)), "{text}");
        }
    }
}
