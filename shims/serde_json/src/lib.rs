//! Offline drop-in replacement for `serde_json` over the `serde` shim:
//! `to_string` and `to_string_pretty` stream JSON text through
//! [`serde::Serializer`]; `from_str` parses into the shim's [`Value`]
//! tree, which also offers indexing/accessors for tests.

pub use serde::Value;

use serde::{Deserialize, Serialize, Serializer};

pub type Error = serde::Error;
pub type Result<T> = std::result::Result<T, Error>;

pub fn from_value<T: Deserialize>(value: &Value) -> Result<T> {
    T::from_value(value)
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut ser = Serializer::compact();
    value.serialize(&mut ser);
    Ok(ser.into_string())
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut ser = Serializer::pretty();
    value.serialize(&mut ser);
    Ok(ser.into_string())
}

pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut parser = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::msg(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    T::from_value(&value)
}

// ---------------------------------------------------------------------
// Parser

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            other => Err(Error::msg(format!(
                "unexpected {other:?} at byte {}",
                self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(Error::msg(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("invalid utf8 in number"))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| Error::msg(format!("invalid number {text:?}")))
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::msg("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::msg("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::msg("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::msg("invalid \\u codepoint"))?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(Error::msg(format!("invalid escape {other:?}"))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 character verbatim.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error::msg("invalid utf8 in string"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected , or ] in array, found {other:?}"
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected , or }} in object, found {other:?}"
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// The value-tree writer that predates the streaming [`Serializer`],
    /// kept as the byte-for-byte oracle for it.
    mod reference {
        use super::Value;

        pub fn to_string(v: &Value, indent: Option<usize>) -> String {
            let mut out = String::new();
            write_value(&mut out, v, indent, 0);
            out
        }

        fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
            match v {
                Value::Null => out.push_str("null"),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Number(n) => write_number(out, *n),
                Value::String(s) => write_string(out, s),
                Value::Array(items) => {
                    if items.is_empty() {
                        out.push_str("[]");
                        return;
                    }
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        newline_indent(out, indent, level + 1);
                        write_value(out, item, indent, level + 1);
                    }
                    newline_indent(out, indent, level);
                    out.push(']');
                }
                Value::Object(fields) => {
                    if fields.is_empty() {
                        out.push_str("{}");
                        return;
                    }
                    out.push('{');
                    for (i, (key, val)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        newline_indent(out, indent, level + 1);
                        write_string(out, key);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        write_value(out, val, indent, level + 1);
                    }
                    newline_indent(out, indent, level);
                    out.push('}');
                }
            }
        }

        fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
            if let Some(width) = indent {
                out.push('\n');
                for _ in 0..width * level {
                    out.push(' ');
                }
            }
        }

        fn write_number(out: &mut String, n: f64) {
            if !n.is_finite() {
                out.push_str("null");
            } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
                out.push_str(&format!("{}", n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }

        fn write_string(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
    }

    /// Arbitrary JSON trees up to `depth` containers deep.
    struct ArbValue {
        depth: u32,
    }

    impl Strategy for ArbValue {
        type Value = Value;

        fn sample(&self, rng: &mut TestRng) -> Value {
            let kinds = if self.depth == 0 { 4 } else { 6 };
            let child = ArbValue {
                depth: self.depth.saturating_sub(1),
            };
            match rng.below(kinds) {
                0 => Value::Null,
                1 => Value::Bool(rng.below(2) == 1),
                2 => Value::Number(arb_number(rng)),
                3 => Value::String(arb_string(rng)),
                // Lengths 0..4: a quarter of the containers are empty.
                4 => Value::Array((0..rng.below(4)).map(|_| child.sample(rng)).collect()),
                _ => Value::Object(
                    (0..rng.below(4))
                        .map(|_| (arb_string(rng), child.sample(rng)))
                        .collect(),
                ),
            }
        }
    }

    /// Non-finite values, the integer/float cut-over at 9e15, and
    /// ordinary integers and fractions of every magnitude.
    fn arb_number(rng: &mut TestRng) -> f64 {
        const EDGES: [f64; 14] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            9.0e15,
            -9.0e15,
            8_999_999_999_999_999.0,
            9.0e15 + 2.0,
            9_007_199_254_740_993.0,
            u64::MAX as f64,
            1e300,
            -0.0,
            0.0,
            5e-324,
            0.1,
        ];
        match rng.below(4) {
            0 => EDGES[rng.below(EDGES.len() as u64) as usize],
            1 => rng.next_u64() as i64 as f64,
            2 => (rng.below(2001) as f64) - 1000.0,
            _ => (rng.unit_f64() - 0.5) * 10f64.powi(rng.below(40) as i32 - 20),
        }
    }

    /// Strings over escapes, control characters and non-ASCII text.
    fn arb_string(rng: &mut TestRng) -> String {
        const CHARS: [char; 18] = [
            'a', 'Z', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
            '\u{7f}', 'é', '∅', '⟨', '😀',
        ];
        (0..rng.below(8))
            .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn streaming_writer_matches_the_value_tree_oracle(v in ArbValue { depth: 4 }) {
            prop_assert_eq!(to_string(&v).unwrap(), reference::to_string(&v, None));
            prop_assert_eq!(to_string_pretty(&v).unwrap(), reference::to_string(&v, Some(2)));
        }
    }

    #[derive(serde::Serialize)]
    enum Kind {
        Alpha,
        Beta,
    }

    #[derive(serde::Serialize)]
    struct Row {
        name: String,
        cells: Vec<Option<f64>>,
        grid: Vec<Vec<Option<f64>>>,
        empty: Vec<Option<f64>>,
        kind: Kind,
    }

    #[test]
    fn derived_struct_prints_pinned_bytes() {
        let row = Row {
            name: "r\"1".to_string(),
            cells: vec![Some(1.0), None, Some(0.5), Some(f64::NAN)],
            grid: vec![vec![], vec![Some(-2.0), None]],
            empty: vec![],
            kind: Kind::Beta,
        };
        assert_eq!(
            to_string(&row).unwrap(),
            r#"{"name":"r\"1","cells":[1,null,0.5,null],"grid":[[],[-2,null]],"empty":[],"kind":"Beta"}"#
        );
        assert_eq!(
            to_string_pretty(&row).unwrap(),
            r#"{
  "name": "r\"1",
  "cells": [
    1,
    null,
    0.5,
    null
  ],
  "grid": [
    [],
    [
      -2,
      null
    ]
  ],
  "empty": [],
  "kind": "Beta"
}"#
        );
    }

    #[test]
    fn unit_enum_prints_pinned_bytes() {
        assert_eq!(to_string(&Kind::Alpha).unwrap(), r#""Alpha""#);
        assert_eq!(
            to_string_pretty(&vec![Kind::Alpha, Kind::Beta]).unwrap(),
            "[\n  \"Alpha\",\n  \"Beta\"\n]"
        );
    }

    #[test]
    fn roundtrip_compact_and_pretty() {
        let value = Value::Object(vec![
            ("name".to_string(), Value::String("a \"b\"\n".to_string())),
            (
                "xs".to_string(),
                Value::Array(vec![Value::Number(1.0), Value::Null, Value::Bool(true)]),
            ),
            ("pi".to_string(), Value::Number(3.25)),
        ]);
        for text in [
            to_string(&value).unwrap(),
            to_string_pretty(&value).unwrap(),
        ] {
            let back: Value = from_str(&text).unwrap();
            assert_eq!(back, value);
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(to_string(&vec![3u64]).unwrap(), "[\n3\n]".replace('\n', ""));
    }

    #[test]
    fn index_and_accessors() {
        let v: Value = from_str(r#"{"metrics":["FPR","FNR"],"n":4}"#).unwrap();
        assert_eq!(v["metrics"][0], "FPR");
        assert_eq!(v["metrics"].as_array().unwrap().len(), 2);
        assert_eq!(v["n"].as_u64(), Some(4));
        assert!(v["missing"].is_null());
    }
}
