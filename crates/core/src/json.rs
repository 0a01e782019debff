//! Minimal JSON emit/parse, replacing `serde`/`serde_json` for the
//! workspace's needs: trace metadata, `.ezv` JSON export, `easyview`
//! input, and the simulated-MPI message payloads.
//!
//! Design notes:
//!
//! * Integers keep their exact width: [`Json::UInt`] covers `0..=u64::MAX`
//!   and [`Json::Int`] negative values. This matters because open iteration
//!   spans use `end_ns == u64::MAX` as a sentinel, which a single-f64
//!   number representation would silently corrupt.
//! * Object fields preserve insertion order (a `Vec` of pairs, not a map),
//!   so emitted documents are stable and diffable.
//! * [`ToJson`] / [`FromJson`] play the role of `Serialize` /
//!   `DeserializeOwned` in generic bounds (see `ezp-mpi`).

use crate::error::{Error, Result};
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Non-negative integer (also produced for `0`).
    UInt(u64),
    /// Negative integer.
    Int(i64),
    /// Number with a fractional part or exponent.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Decode a required object field into a concrete type.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T> {
        let v = self
            .get(key)
            .ok_or_else(|| Error::Json(format!("missing field `{key}`")))?;
        T::from_json(v).map_err(|e| Error::Json(format!("field `{key}`: {e}")))
    }

    /// View as an array.
    pub fn as_arr(&self) -> Result<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(Error::Json(format!("expected array, got {}", other.kind()))),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::UInt(_) | Json::Int(_) | Json::Float(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Serialize without whitespace.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialize with 2-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    // `{}` prints the shortest representation that parses
                    // back to the same f64; force a fractional marker so the
                    // value re-parses as Float, not UInt.
                    let s = format!("{x}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null"); // NaN/inf are not representable
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, level, '[', ']', items.len(), |out, i, lvl| {
                    items[i].write(out, indent, lvl)
                });
            }
            Json::Obj(fields) => {
                write_seq(out, indent, level, '{', '}', fields.len(), |out, i, lvl| {
                    let (k, v) = &fields[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, lvl)
                });
            }
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..(level + 1) * width {
                out.push(' ');
            }
        }
        item(out, i, level + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..level * width {
            out.push(' ');
        }
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error::Json(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]` in array")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
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
                    let val = self.value(depth + 1)?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.err("expected `,` or `}` in object")),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.err(&format!("unexpected character `{}`", b as char))),
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // surrogate pair: expect \uDC00..\uDFFF next
                                if !self.eat_keyword("\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\` at
                    // once. Both are ASCII, which never occurs inside a
                    // multi-byte sequence, and the input is a &str, so
                    // the run is whole characters; checking only the
                    // run (not the rest of the input) keeps parsing
                    // linear in the input length.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
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
            .map_err(|_| self.err("bad number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("bad number"))
        } else if let Some(neg) = text.strip_prefix('-') {
            // parse the magnitude as u64 then negate, so i64::MIN works
            let mag: u64 = neg.parse().map_err(|_| self.err("integer out of range"))?;
            if mag > i64::MAX as u64 + 1 {
                return Err(self.err("integer out of range"));
            }
            Ok(Json::Int((-(mag as i128)) as i64))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| self.err("integer out of range"))
        }
    }
}

// ---------------------------------------------------------------------------
// ToJson / FromJson — the serde replacement for generic payload bounds
// ---------------------------------------------------------------------------

/// Types that can be represented as a [`Json`] value.
pub trait ToJson {
    /// Convert `self` to a JSON value.
    fn to_json(&self) -> Json;
}

/// Types that can be reconstructed from a [`Json`] value.
pub trait FromJson: Sized {
    /// Build `Self` from a JSON value.
    fn from_json(v: &Json) -> Result<Self>;
}

fn type_err(expected: &str, got: &Json) -> Error {
    Error::Json(format!("expected {expected}, got {}", got.kind()))
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<bool> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(type_err("bool", other)),
        }
    }
}

macro_rules! impl_json_uint {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::UInt(*self as u64)
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<$ty> {
                let n = match v {
                    Json::UInt(n) => *n,
                    Json::Int(n) if *n >= 0 => *n as u64,
                    other => return Err(type_err("unsigned integer", other)),
                };
                <$ty>::try_from(n)
                    .map_err(|_| Error::Json(format!("{n} out of range for {}", stringify!($ty))))
            }
        }
    )*};
}

impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                let v = *self as i64;
                if v >= 0 { Json::UInt(v as u64) } else { Json::Int(v) }
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<$ty> {
                let n: i64 = match v {
                    Json::Int(n) => *n,
                    Json::UInt(n) => i64::try_from(*n)
                        .map_err(|_| Error::Json(format!("{n} out of range for i64")))?,
                    other => return Err(type_err("integer", other)),
                };
                <$ty>::try_from(n)
                    .map_err(|_| Error::Json(format!("{n} out of range for {}", stringify!($ty))))
            }
        }
    )*};
}

impl_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<f64> {
        match v {
            Json::Float(x) => Ok(*x),
            Json::UInt(n) => Ok(*n as f64),
            Json::Int(n) => Ok(*n as f64),
            other => Err(type_err("number", other)),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<String> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            other => Err(type_err("string", other)),
        }
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Vec<T>> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(x) => x.to_json(),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Option<T>> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl ToJson for () {
    fn to_json(&self) -> Json {
        Json::Null
    }
}

impl FromJson for () {
    fn from_json(v: &Json) -> Result<()> {
        match v {
            Json::Null => Ok(()),
            other => Err(type_err("null", other)),
        }
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Json> {
        Ok(v.clone())
    }
}

macro_rules! impl_json_tuple {
    ($(($len:literal: $($T:ident . $idx:tt),+))*) => {$(
        impl<$($T: ToJson),+> ToJson for ($($T,)+) {
            fn to_json(&self) -> Json {
                Json::Arr(vec![$(self.$idx.to_json()),+])
            }
        }
        impl<$($T: FromJson),+> FromJson for ($($T,)+) {
            fn from_json(v: &Json) -> Result<Self> {
                let items = v.as_arr()?;
                if items.len() != $len {
                    return Err(Error::Json(format!(
                        "expected {}-tuple, got array of {}", $len, items.len()
                    )));
                }
                Ok(($($T::from_json(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_json_tuple! {
    (2: A.0, B.1)
    (3: A.0, B.1, C.2)
    (4: A.0, B.1, C.2, D.3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) -> Json {
        Json::parse(&v.dump()).unwrap()
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        // regression: `busy_ratio()` is INFINITY when a worker sat fully
        // idle; bare `inf`/`NaN` tokens would make --stats=json invalid
        for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(Json::Float(x).dump(), "null", "{x}");
        }
        // and a document containing one stays parseable
        let doc = Json::obj([("busy_ratio", Json::Float(f64::INFINITY))]);
        let back = Json::parse(&doc.dump()).unwrap();
        assert_eq!(back.get("busy_ratio"), Some(&Json::Null));
    }

    #[test]
    fn boundary_integers_round_trip_exactly() {
        for n in [0u64, 1, u64::MAX, u64::MAX - 1, i64::MAX as u64] {
            assert_eq!(round_trip(&Json::UInt(n)), Json::UInt(n), "u64 {n}");
        }
        for n in [-1i64, i64::MIN, i64::MIN + 1] {
            assert_eq!(round_trip(&Json::Int(n)), Json::Int(n), "i64 {n}");
        }
    }

    #[test]
    fn empty_containers_round_trip() {
        assert_eq!(round_trip(&Json::Arr(vec![])), Json::Arr(vec![]));
        assert_eq!(round_trip(&Json::Obj(vec![])), Json::Obj(vec![]));
    }

    #[test]
    fn nested_records_round_trip() {
        let v = Json::obj([
            ("name", Json::Str("mandel".into())),
            (
                "spans",
                Json::Arr(vec![
                    Json::obj([("start", Json::UInt(0)), ("end", Json::UInt(u64::MAX))]),
                    Json::obj([("start", Json::UInt(1)), ("end", Json::Null)]),
                ]),
            ),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(round_trip(&v), v);
        // and through the pretty printer too
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn strings_escape_and_unescape() {
        for s in ["", "plain", "with \"quotes\"", "tab\there\nnewline", "uni: é λ 🚀", "back\\slash"] {
            let v = Json::Str(s.to_string());
            assert_eq!(round_trip(&v), v, "string {s:?}");
        }
    }

    #[test]
    fn multi_megabyte_strings_parse_in_linear_time() {
        // regression: the parser re-validated the whole remaining input
        // for every character, so a string this long took minutes
        const LEN: usize = 4 << 20;
        let plain = Json::Str("x".repeat(LEN));
        assert_eq!(round_trip(&plain), plain);
        // escapes and 2/3/4-byte characters interleaved
        let unit = "ab\"c\\d\n\té λ€ 🚀/\u{0001}";
        let mixed = Json::Str(unit.repeat(LEN / unit.len() + 1));
        assert_eq!(round_trip(&mixed), mixed);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            Json::parse(r#""Aé😀""#).unwrap(),
            Json::Str("Aé😀".into())
        );
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone surrogate rejected");
    }

    #[test]
    fn floats_keep_fractional_marker() {
        let v = Json::Float(2.0);
        let text = v.dump();
        assert!(text.contains('.'), "got {text}");
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(Json::parse("1.5e3").unwrap(), Json::Float(1500.0));
        assert_eq!(Json::parse("-0.25").unwrap(), Json::Float(-0.25));
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated", "{'a':1}"] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let mut s = String::new();
        for _ in 0..200 {
            s.push('[');
        }
        assert!(Json::parse(&s).is_err());
    }

    #[test]
    fn object_field_access() {
        let v = Json::obj([("dim", Json::UInt(512)), ("label", Json::Null)]);
        assert_eq!(v.field::<usize>("dim").unwrap(), 512);
        assert_eq!(v.field::<Option<String>>("label").unwrap(), None);
        assert!(v.field::<usize>("missing").is_err());
        assert!(v.field::<String>("dim").is_err());
    }

    #[test]
    fn derived_impls_round_trip() {
        let pairs: (u32, Vec<bool>) = (7, vec![true, false, true]);
        assert_eq!(
            <(u32, Vec<bool>)>::from_json(&pairs.to_json()).unwrap(),
            pairs
        );
        let triple: (usize, u32, usize) = (1, 2, 3);
        assert_eq!(
            <(usize, u32, usize)>::from_json(&triple.to_json()).unwrap(),
            triple
        );
        let nested: Vec<Vec<u64>> = vec![vec![], vec![u64::MAX]];
        assert_eq!(Vec::<Vec<u64>>::from_json(&nested.to_json()).unwrap(), nested);
        assert_eq!(i32::from_json(&(-5i32).to_json()).unwrap(), -5);
        assert_eq!(f64::from_json(&1.25f64.to_json()).unwrap(), 1.25);
    }

    #[test]
    fn uint_int_cross_acceptance() {
        // A non-negative Int is acceptable where a UInt is expected and
        // vice versa, as long as the value fits.
        assert_eq!(u64::from_json(&Json::Int(5)).unwrap(), 5);
        assert_eq!(i64::from_json(&Json::UInt(5)).unwrap(), 5);
        assert!(u32::from_json(&Json::UInt(1 << 40)).is_err());
        assert!(i64::from_json(&Json::UInt(u64::MAX)).is_err());
        assert!(u64::from_json(&Json::Int(-1)).is_err());
    }
}
