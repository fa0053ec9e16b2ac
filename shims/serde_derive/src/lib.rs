//! Offline shim for `serde_derive` (see `shims/README.md`).
//!
//! Generates `serde::Serialize` impls against the shim `serde` crate's
//! `Value` model; there is no `Deserialize` derive, since nothing in the
//! workspace reads its own JSON back. The parser below hand-walks the
//! `proc_macro::TokenStream` (no `syn`/`quote` in this environment) and
//! supports exactly the item shapes this workspace derives on:
//! non-generic structs (named / newtype) and non-generic enums with
//! unit, newtype and struct variants, using serde's external tagging.
//! Unsupported shapes fail the build with a clear message.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Fields {
    Unit,
    Newtype,
    Named(Vec<String>),
}

#[derive(Debug)]
enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<(String, Fields)>,
    },
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let code = match parse_item(input) {
        Ok(Item::Struct { name, fields }) => gen_struct_ser(&name, &fields),
        Ok(Item::Enum { name, variants }) => gen_enum_ser(&name, &variants),
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    code.parse().unwrap()
}

// ---------------------------------------------------------------------
// Token-level parsing
// ---------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&tokens, &mut i);
    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected struct/enum, got {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected item name, got {other:?}")),
    };
    i += 1;
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde shim derive does not support generic type {name}"
        ));
    }
    match kind.as_str() {
        "struct" => {
            let fields = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream())?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    newtype(&name, g.stream())?
                }
                other => return Err(format!("unsupported struct body for {name}: {other:?}")),
            };
            Ok(Item::Struct { name, fields })
        }
        "enum" => {
            let body = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => return Err(format!("expected enum body for {name}, got {other:?}")),
            };
            Ok(Item::Enum {
                name,
                variants: parse_variants(body)?,
            })
        }
        other => Err(format!("cannot derive for item kind {other}")),
    }
}

/// Skip any number of outer attributes (`#[...]`) and a visibility
/// qualifier (`pub`, `pub(crate)`, ...).
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1; // '#'
                if matches!(tokens.get(*i), Some(TokenTree::Group(_))) {
                    *i += 1; // '[...]'
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1; // '(crate)'
                }
            }
            _ => return,
        }
    }
}

/// Split a token sequence on commas at angle-bracket depth zero.
/// (Groups are single trees, but generic arguments like
/// `BTreeMap<String, u64>` put commas behind bare `<`/`>` puncts.)
fn split_top_level_commas(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut out: Vec<Vec<TokenTree>> = vec![Vec::new()];
    let mut depth = 0i32;
    for tt in stream {
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => {
                    out.push(Vec::new());
                    continue;
                }
                _ => {}
            }
        }
        out.last_mut().unwrap().push(tt);
    }
    if out.last().map(Vec::is_empty).unwrap_or(false) {
        out.pop();
    }
    out
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    for chunk in split_top_level_commas(stream) {
        let mut i = 0;
        skip_attrs_and_vis(&chunk, &mut i);
        match chunk.get(i) {
            Some(TokenTree::Ident(id)) => names.push(id.to_string()),
            other => return Err(format!("expected field name, got {other:?}")),
        }
        match chunk.get(i + 1) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => return Err(format!("expected ':' after field name, got {other:?}")),
        }
    }
    Ok(names)
}

/// Tuple shapes are supported with exactly one field.
fn newtype(name: &str, stream: TokenStream) -> Result<Fields, String> {
    match split_top_level_commas(stream).len() {
        1 => Ok(Fields::Newtype),
        n => Err(format!(
            "serde shim derive supports one-field tuples only ({name} has {n})"
        )),
    }
}

fn parse_variants(stream: TokenStream) -> Result<Vec<(String, Fields)>, String> {
    let mut variants = Vec::new();
    for chunk in split_top_level_commas(stream) {
        let mut i = 0;
        skip_attrs_and_vis(&chunk, &mut i);
        let name = match chunk.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected variant name, got {other:?}")),
        };
        i += 1;
        let fields = match chunk.get(i) {
            None => Fields::Unit,
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Fields::Named(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                newtype(&name, g.stream())?
            }
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                return Err(format!(
                    "explicit discriminants unsupported (variant {name})"
                ));
            }
            other => return Err(format!("unsupported variant shape {name}: {other:?}")),
        };
        variants.push((name, fields));
    }
    Ok(variants)
}

// ---------------------------------------------------------------------
// Code generation (emitted as source text, then re-parsed)
// ---------------------------------------------------------------------

fn named_fields_to_object(accessor: impl Fn(&str) -> String, names: &[String]) -> String {
    let entries: Vec<String> = names
        .iter()
        .map(|n| {
            format!(
                "(::std::string::String::from({n:?}), ::serde::Serialize::to_value({})),",
                accessor(n)
            )
        })
        .collect();
    format!("::serde::Value::Object(::std::vec![{}])", entries.join(""))
}

fn gen_struct_ser(name: &str, fields: &Fields) -> String {
    let body = match fields {
        Fields::Unit => unreachable!("a unit struct is rejected by parse_item"),
        Fields::Newtype => "::serde::Serialize::to_value(&self.0)".to_string(),
        Fields::Named(names) => named_fields_to_object(|n| format!("&self.{n}"), names),
    };
    format!(
        "impl ::serde::Serialize for {name} {{\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\
         }}"
    )
}

fn gen_enum_ser(name: &str, variants: &[(String, Fields)]) -> String {
    let arms: Vec<String> = variants
        .iter()
        .map(|(vname, fields)| match fields {
            Fields::Unit => format!(
                "Self::{vname} => ::serde::Value::Str(::std::string::String::from({vname:?})),"
            ),
            Fields::Newtype => format!(
                "Self::{vname}(f0) => ::serde::Value::Object(::std::vec![(\
                     ::std::string::String::from({vname:?}), ::serde::Serialize::to_value(f0))]),"
            ),
            Fields::Named(fnames) => {
                let obj = named_fields_to_object(|n| n.to_string(), fnames);
                format!(
                    "Self::{vname} {{ {} }} => ::serde::Value::Object(::std::vec![(\
                         ::std::string::String::from({vname:?}), {obj})]),",
                    fnames.join(",")
                )
            }
        })
        .collect();
    format!(
        "impl ::serde::Serialize for {name} {{\
             fn to_value(&self) -> ::serde::Value {{ match self {{ {} }} }}\
         }}",
        arms.join("")
    )
}
