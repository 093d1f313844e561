//! Derive macros for the offline `serde` shim.
//!
//! Supports exactly the shapes this workspace derives: non-generic
//! structs with named fields, and enums whose variants are all unit
//! variants. Parsing walks the raw `TokenStream` (no `syn`/`quote`,
//! which are unavailable offline); codegen goes through string
//! formatting + `.parse()`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    /// Struct with named fields.
    Struct { name: String, fields: Vec<String> },
    /// Enum with unit variants only.
    Enum { name: String, variants: Vec<String> },
}

/// Skip attributes (`#[...]`) and visibility (`pub`, `pub(...)`).
fn skip_meta(tokens: &[TokenTree], mut i: usize) -> usize {
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // attribute: `#` followed by a bracket group
                i += 2;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => return i,
        }
    }
}

fn parse_shape(input: TokenStream) -> Shape {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_meta(&tokens, 0);

    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde shim derive: expected struct/enum, found {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde shim derive: expected type name, found {other}"),
    };
    i += 1;
    let body = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        _ => {
            panic!("serde shim derive: only non-generic brace-bodied types are supported ({name})")
        }
    };
    let body: Vec<TokenTree> = body.into_iter().collect();

    match kind.as_str() {
        "struct" => Shape::Struct {
            name,
            fields: parse_named_fields(&body),
        },
        "enum" => Shape::Enum {
            name,
            variants: parse_unit_variants(&body),
        },
        other => panic!("serde shim derive: unsupported item kind `{other}`"),
    }
}

fn parse_named_fields(body: &[TokenTree]) -> Vec<String> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < body.len() {
        i = skip_meta(body, i);
        if i >= body.len() {
            break;
        }
        let field = match &body[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde shim derive: expected field name, found {other}"),
        };
        fields.push(field);
        i += 1;
        match body.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            _ => panic!("serde shim derive: only named fields are supported"),
        }
        // Skip the type: scan to the next top-level comma, tracking
        // angle-bracket depth so `Vec<Option<f64>>`-style types (or a
        // future `HashMap<K, V>`) don't split on inner commas.
        let mut depth = 0i32;
        while i < body.len() {
            match &body[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    fields
}

fn parse_unit_variants(body: &[TokenTree]) -> Vec<String> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i < body.len() {
        i = skip_meta(body, i);
        if i >= body.len() {
            break;
        }
        let variant = match &body[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde shim derive: expected variant name, found {other}"),
        };
        i += 1;
        match body.get(i) {
            None => {}
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            Some(other) => panic!(
                "serde shim derive: only unit enum variants are supported, found {other} after {variant}"
            ),
        }
        variants.push(variant);
    }
    variants
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let code = match parse_shape(input) {
        Shape::Struct { name, fields } => {
            let entries: String = fields
                .iter()
                .map(|f| format!("ser.field(\"{f}\", &self.{f});"))
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn serialize(&self, ser: &mut ::serde::Serializer) {{\n\
                         ser.begin_object();\n\
                         {entries}\n\
                         ser.end_object();\n\
                     }}\n\
                 }}"
            )
        }
        Shape::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| format!("{name}::{v} => ser.string(\"{v}\"),"))
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn serialize(&self, ser: &mut ::serde::Serializer) {{\n\
                         match self {{ {arms} }}\n\
                     }}\n\
                 }}"
            )
        }
    };
    code.parse()
        .expect("serde shim derive: generated code must parse")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let code = match parse_shape(input) {
        Shape::Struct { name, fields } => {
            let entries: String = fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}: ::serde::Deserialize::from_value(v.get_field(\"{f}\"))\
                             .map_err(|e| ::serde::Error::msg(\
                                 ::std::format!(\"{name}.{f}: {{e}}\")))?,"
                    )
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                         ::std::result::Result::Ok({name} {{ {entries} }})\n\
                     }}\n\
                 }}"
            )
        }
        Shape::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| format!("\"{v}\" => ::std::result::Result::Ok({name}::{v}),"))
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                         match v.as_str() {{\n\
                             ::std::option::Option::Some(s) => match s {{\n\
                                 {arms}\n\
                                 other => ::std::result::Result::Err(::serde::Error::msg(\
                                     ::std::format!(\"unknown {name} variant {{other:?}}\"))),\n\
                             }},\n\
                             ::std::option::Option::None => ::std::result::Result::Err(\
                                 ::serde::Error::msg(\"expected string for enum {name}\")),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
    };
    code.parse()
        .expect("serde shim derive: generated code must parse")
}
