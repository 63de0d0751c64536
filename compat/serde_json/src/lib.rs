//! Offline stand-in for `serde_json`: renders and parses JSON text over
//! the value tree of the vendored `serde` stub. Covers the API this
//! workspace calls: `to_string`, `to_string_pretty`, `from_str`, `Error`.
//!
//! The codec copies as little as it can, because the artifact store,
//! the job journal and the serve protocol all go through it on their
//! hot paths:
//!
//! * rendering a [`Value`] borrows it ([`Serialize::as_value`]) instead
//!   of cloning the tree first, escapes strings run by run, and writes
//!   numbers straight into the output;
//! * parsing walks the input's bytes in place, copies unescaped runs as
//!   whole slices, and hands the parsed tree over by move
//!   ([`Deserialize::from_owned`]).
//!
//! Output bytes are a pure function of the value tree: object keys keep
//! their order, integral numbers below 2^53 print as integers, other
//! finite numbers in Rust's shortest round-trip form, non-finite ones as
//! `null`, and only `"`, `\` and control characters below 0x20 are
//! escaped. Error offsets are **byte** offsets into the input. A `\u`
//! escape of a high surrogate must be followed by one of a low
//! surrogate; an unpaired surrogate is an `invalid \u escape` error.

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt::{self, Write as _};

/// JSON (de)serialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Error {
        Error(e.0)
    }
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(render(value, None))
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(render(value, Some(2)))
}

fn render<T: Serialize + ?Sized>(value: &T, indent: Option<usize>) -> String {
    let mut out = String::new();
    match value.as_value() {
        Some(v) => write_value(v, &mut out, indent, 0),
        None => write_value(&value.to_value(), &mut out, indent, 0),
    }
    out
}

pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser { src: s, pos: 0 };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(Error(format!("trailing input at offset {}", p.pos)));
    }
    Ok(T::from_owned(v)?)
}

// ---- writer -------------------------------------------------------------

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_number(*n, out),
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => write_seq(out, indent, level, '[', ']', items.len(), |out, i| {
            write_value(&items[i], out, indent, level + 1)
        }),
        Value::Obj(entries) => write_seq(out, indent, level, '{', '}', entries.len(), |out, i| {
            write_string(&entries[i].0, out);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
            write_value(&entries[i].1, out, indent, level + 1)
        }),
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    n: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if n == 0 {
        out.push(close);
        return;
    }
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (level + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * level));
    }
    out.push(close);
}

fn write_number(n: f64, out: &mut String) {
    // Writing into a `String` cannot fail.
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Rust's Display for f64 is the shortest round-trippable form.
        let _ = write!(out, "{n}");
    }
}

/// The escape sequence for byte `b`, if it needs one. Only ASCII bytes
/// do, so a run between two escapes always ends on a char boundary.
fn escape(b: u8) -> Option<&'static str> {
    const CONTROL: [&str; 32] = [
        "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
        "\\u0008", "\\t", "\\n", "\\u000b", "\\u000c", "\\r", "\\u000e", "\\u000f", "\\u0010",
        "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017", "\\u0018",
        "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
    ];
    match b {
        b'"' => Some("\\\""),
        b'\\' => Some("\\\\"),
        0..=0x1f => Some(CONTROL[usize::from(b)]),
        _ => None,
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if let Some(esc) = escape(b) {
            out.push_str(&s[run..i]);
            out.push_str(esc);
            run = i + 1;
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// ---- parser -------------------------------------------------------------

/// A cursor over the input's bytes. `pos` only ever stops on a char
/// boundary: structural tokens are ASCII, string runs end at an ASCII
/// `"` or `\`, and [`Parser::bump`] steps over whole chars.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// The char at the cursor, without consuming it.
    fn peek_char(&self) -> Option<char> {
        self.src
            .get(self.pos..)
            .and_then(|rest| rest.chars().next())
    }

    fn bump(&mut self) -> Result<char, Error> {
        let c = self
            .peek_char()
            .ok_or_else(|| Error("unexpected end of input".into()))?;
        self.pos += c.len_utf8();
        Ok(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), Error> {
        let at = self.pos;
        let got = self.bump()?;
        if got != c {
            return Err(Error(format!(
                "expected `{c}` at offset {at}, found `{got}`"
            )));
        }
        Ok(())
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), Error> {
        for c in lit.chars() {
            self.expect(c)?;
        }
        Ok(())
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                self.eat_lit("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.eat_lit("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.eat_lit("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.bump()? {
                        ',' => {}
                        ']' => return Ok(Value::Arr(items)),
                        c => return Err(Error(format!("expected `,` or `]`, found `{c}`"))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(':')?;
                    let value = self.parse_value()?;
                    entries.push((key, value));
                    self.skip_ws();
                    match self.bump()? {
                        ',' => {}
                        '}' => return Ok(Value::Obj(entries)),
                        c => return Err(Error(format!("expected `,` or `}}`, found `{c}`"))),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(Error(format!(
                "unexpected character `{}`",
                self.peek_char().unwrap_or(char::REPLACEMENT_CHARACTER)
            ))),
            None => Err(Error("unexpected end of input".into())),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect('"')?;
        let bytes = self.src.as_bytes();
        let mut s = String::new();
        loop {
            // Copy the run up to the next quote or backslash whole.
            let run = self.pos;
            while let Some(&b) = bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(&self.src[run..self.pos]);
            match self.bump()? {
                '"' => return Ok(s),
                _ => match self.bump()? {
                    '"' => s.push('"'),
                    '\\' => s.push('\\'),
                    '/' => s.push('/'),
                    'b' => s.push('\u{8}'),
                    'f' => s.push('\u{c}'),
                    'n' => s.push('\n'),
                    'r' => s.push('\r'),
                    't' => s.push('\t'),
                    'u' => {
                        let hi = self.parse_hex4()?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: the high half must be
                            // followed by a low half in DC00..E000.
                            self.expect('\\')?;
                            self.expect('u')?;
                            let lo = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(Error(format!(
                                    "invalid \\u escape {hi:#x} {lo:#x}: unpaired surrogate"
                                )));
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        s.push(
                            char::from_u32(code)
                                .ok_or_else(|| Error(format!("invalid \\u escape {code:#x}")))?,
                        );
                    }
                    c => return Err(Error(format!("invalid escape `\\{c}`"))),
                },
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self.bump()?;
            v = v * 16
                + c.to_digit(16)
                    .ok_or_else(|| Error(format!("invalid hex digit `{c}`")))?;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.skip_digits();
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        let text = &self.src[start..self.pos];
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| Error(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let json = to_string(&vec![1u64, 2, 3]).unwrap();
        assert_eq!(json, "[1,2,3]");
        let back: Vec<u64> = from_str(&json).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
    }

    #[test]
    fn strings_escape_and_parse() {
        let s = "a \"quote\"\nnew\tline \\ done".to_string();
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn unicode_escapes_parse() {
        let back: String = from_str(r#""é😀""#).unwrap();
        assert_eq!(back, "é😀");
    }

    #[test]
    fn pretty_printing_indents() {
        let mut m = std::collections::BTreeMap::new();
        m.insert("k".to_string(), vec![1u32]);
        let pretty = to_string_pretty(&m).unwrap();
        assert_eq!(pretty, "{\n  \"k\": [\n    1\n  ]\n}");
        let back: std::collections::BTreeMap<String, Vec<u32>> = from_str(&pretty).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn float_round_trip() {
        let json = to_string(&vec![1.5f64, -0.25]).unwrap();
        let back: Vec<f64> = from_str(&json).unwrap();
        assert_eq!(back, vec![1.5, -0.25]);
    }

    fn round_trip(s: &str) {
        let json = to_string(s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s, "via {json:?}");
    }

    #[test]
    fn every_escape_class_renders_and_round_trips() {
        // Named escapes, the \u00XX form for the other control
        // characters, and characters that pass through unescaped.
        assert_eq!(to_string("\"\\\n\r\t").unwrap(), r#""\"\\\n\r\t""#);
        assert_eq!(
            to_string("\u{0}\u{8}\u{b}\u{c}\u{1f}").unwrap(),
            r#""\u0000\u0008\u000b\u000c\u001f""#
        );
        assert_eq!(to_string("/ \u{7f} é").unwrap(), "\"/ \u{7f} é\"");
        let controls: String = (0u8..0x20).map(char::from).collect();
        round_trip(&controls);
        round_trip("plain ascii");
        round_trip("");
        // Non-ASCII directly next to escapes, at both ends of a run.
        round_trip("é\"中\\😀\n₿\u{1}é");
        round_trip("\"é\"");
        round_trip("\\😀");
    }

    #[test]
    fn accepted_escapes_decode() {
        let cases = [
            (r#""\/""#, "/"),
            (r#""a\/b""#, "a/b"),
            (r#""\b\f\n\r\t""#, "\u{8}\u{c}\n\r\t"),
            (r#""\u00e9\u00E9""#, "éé"),
            (r#""\ud83d\ude00""#, "😀"),
            // Both ends of the surrogate ranges.
            (r#""\ud800\udc00""#, "\u{10000}"),
            (r#""\udbff\udfff""#, "\u{10ffff}"),
            (r#""x\ud83d\ude00y""#, "x😀y"),
            (r#""é\u0041中""#, "éA中"),
            ("\"raw\u{1}control\"", "raw\u{1}control"),
        ];
        for (json, want) in cases {
            let got: String = from_str(json).unwrap();
            assert_eq!(got, want, "{json}");
        }
    }

    #[test]
    fn numbers_render_exactly() {
        let render = |n: f64| to_string(&n).unwrap();
        assert_eq!(render(-0.0), "0");
        assert_eq!(render(0.0), "0");
        assert_eq!(render(0.1), "0.1");
        assert_eq!(render(-2.5), "-2.5");
        assert_eq!(render(1.5e-7), "0.00000015");
        assert_eq!(render(1e21), "1000000000000000000000");
        assert_eq!(render(9_007_199_254_740_991.0), "9007199254740991");
        assert_eq!(render(-9_007_199_254_740_991.0), "-9007199254740991");
        assert_eq!(render(9_007_199_254_740_992.0), "9007199254740992");
        assert_eq!(render(f64::NAN), "null");
        assert_eq!(render(f64::INFINITY), "null");
        assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709552000");
        // 2^53 + 1 is not representable: it rounds to 2^53 on the way in.
        assert_eq!(
            to_string(&9_007_199_254_740_993u64).unwrap(),
            "9007199254740992"
        );
    }

    #[test]
    fn numbers_parse_exactly() {
        let parse = |s: &str| from_str::<f64>(s).unwrap();
        let neg_zero = parse("-0");
        assert_eq!(neg_zero, 0.0);
        assert!(neg_zero.is_sign_negative());
        assert_eq!(parse("0.1"), 0.1);
        assert_eq!(parse("1e21"), 1e21);
        assert_eq!(parse("1E+2"), 100.0);
        assert_eq!(parse("25e-1"), 2.5);
        assert_eq!(parse("9007199254740991"), 9_007_199_254_740_991.0);
        assert_eq!(parse("9007199254740993"), 9_007_199_254_740_992.0);
        assert_eq!(
            from_str::<u64>("9007199254740991").unwrap(),
            9_007_199_254_740_991
        );
        for text in ["-0", "0.1", "1e21", "0.00000015", "9007199254740991"] {
            let v: f64 = from_str(text).unwrap();
            assert_eq!(
                from_str::<f64>(&to_string(&v).unwrap()).unwrap(),
                v,
                "{text}"
            );
        }
    }

    #[test]
    fn containers_render_and_parse() {
        let empty_arr = Value::Arr(vec![]);
        let empty_obj = Value::Obj(vec![]);
        assert_eq!(to_string(&empty_arr).unwrap(), "[]");
        assert_eq!(to_string(&empty_obj).unwrap(), "{}");
        assert_eq!(to_string_pretty(&empty_arr).unwrap(), "[]");
        let nested = Value::Obj(vec![
            (
                "a".to_string(),
                Value::Arr(vec![empty_arr.clone(), empty_obj.clone()]),
            ),
            (
                "b".to_string(),
                Value::Obj(vec![(
                    "c".to_string(),
                    Value::Arr(vec![Value::Null, Value::Bool(true), Value::Num(-1.0)]),
                )]),
            ),
            ("é\"".to_string(), Value::Str("v".to_string())),
        ]);
        let json = to_string(&nested).unwrap();
        assert_eq!(json, r#"{"a":[[],{}],"b":{"c":[null,true,-1]},"é\"":"v"}"#);
        assert_eq!(from_str::<Value>(&json).unwrap(), nested);
        // Whitespace between tokens is accepted and does not change the tree.
        let spaced = " { \"a\" : [ [ ] , { } ] ,\n\t\"b\" : { \"c\" : [ null , true , -1 ] } , \"é\\\"\" : \"v\" } ";
        assert_eq!(from_str::<Value>(spaced).unwrap(), nested);
        let pretty = to_string_pretty(&nested).unwrap();
        assert_eq!(from_str::<Value>(&pretty).unwrap(), nested);
        // Serializing through a reference renders the same bytes.
        assert_eq!(to_string(&&nested).unwrap(), json);
    }

    fn err(json: &str) -> String {
        match from_str::<Value>(json) {
            Ok(v) => panic!("{json:?} parsed as {v:?}"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn error_paths_keep_their_messages() {
        let cases = [
            // Unterminated strings and containers.
            (r#""abc"#, "JSON error: unexpected end of input"),
            (r#""abc\"#, "JSON error: unexpected end of input"),
            ("[1, 2", "JSON error: unexpected end of input"),
            ("{\"a\":1", "JSON error: unexpected end of input"),
            ("", "JSON error: unexpected end of input"),
            ("   ", "JSON error: unexpected end of input"),
            // Bad escapes.
            (r#""\q""#, "JSON error: invalid escape `\\q`"),
            ("\"\\é\"", "JSON error: invalid escape `\\é`"),
            // Bad hex.
            (r#""\u12g4""#, "JSON error: invalid hex digit `g`"),
            ("\"\\u12é4\"", "JSON error: invalid hex digit `é`"),
            (r#""\u12"#, "JSON error: unexpected end of input"),
            (r#""\udc00""#, "JSON error: invalid \\u escape 0xdc00"),
            // A high surrogate must pair with a low one.
            (
                r#""\ud800\u0041""#,
                "JSON error: invalid \\u escape 0xd800 0x41: unpaired surrogate",
            ),
            (
                r#""\ud800\ud800""#,
                "JSON error: invalid \\u escape 0xd800 0xd800: unpaired surrogate",
            ),
            (
                r#""\udbff\ue000""#,
                "JSON error: invalid \\u escape 0xdbff 0xe000: unpaired surrogate",
            ),
            (
                r#""\ud83dx""#,
                "JSON error: expected `\\` at offset 7, found `x`",
            ),
            // Truncated and misspelt literals.
            ("tru", "JSON error: unexpected end of input"),
            ("nul", "JSON error: unexpected end of input"),
            ("fals", "JSON error: unexpected end of input"),
            ("trux", "JSON error: expected `e` at offset 3, found `x`"),
            ("nope", "JSON error: expected `u` at offset 1, found `o`"),
            // Structure.
            ("[1 2]", "JSON error: expected `,` or `]`, found `2`"),
            (
                "{\"a\":1 \"b\"}",
                "JSON error: expected `,` or `}`, found `\"`",
            ),
            (
                "{\"a\" 1}",
                "JSON error: expected `:` at offset 5, found `1`",
            ),
            ("{1:2}", "JSON error: expected `\"` at offset 1, found `1`"),
            ("@", "JSON error: unexpected character `@`"),
            ("é", "JSON error: unexpected character `é`"),
            ("[1,]", "JSON error: unexpected character `]`"),
            // Numbers.
            ("-", "JSON error: invalid number `-`"),
            ("1e", "JSON error: invalid number `1e`"),
            // Trailing input.
            ("1 x", "JSON error: trailing input at offset 2"),
            ("{} {}", "JSON error: trailing input at offset 3"),
            ("\"a\"b", "JSON error: trailing input at offset 3"),
            // Offsets count bytes: `é` is two of them.
            ("\"é\" x", "JSON error: trailing input at offset 5"),
            (
                "{\"é\" 1}",
                "JSON error: expected `:` at offset 6, found `1`",
            ),
        ];
        for (json, want) in cases {
            assert_eq!(err(json), want, "{json:?}");
        }
    }

    #[test]
    fn malformed_input_errors() {
        assert!(from_str::<Vec<u32>>("[1, 2").is_err());
        assert!(from_str::<String>("nope").is_err());
        assert!(from_str::<u32>("1 garbage").is_err());
    }
}
