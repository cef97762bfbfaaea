//! Vendored `#[derive(Serialize, Deserialize)]` macros for the shim
//! [`serde`] crate.
//!
//! Implemented with hand-rolled token parsing (the container has neither
//! `syn` nor `quote`). Supports the shapes this workspace uses:
//!
//! * structs with named fields — serialized as JSON objects in field
//!   declaration order;
//! * single-field tuple structs (newtypes, `#[serde(transparent)]` or
//!   not) — serialized as the inner value, matching upstream serde;
//! * fieldless enums — serialized as the variant name string.
//!
//! Named-field structs read with upstream serde's rules: unknown fields
//! are ignored, a missing `Option<T>` field (detected from the field's
//! type tokens) reads as `None`, and a field whose key occurs twice is a
//! ``duplicate field `name` `` error. The shim's `serde::get_field` also
//! treats an explicit `null` as a missing field. These attributes
//! are supported, with upstream meaning:
//!
//! * container `#[serde(rename = "name")]` — the name error messages use;
//! * field `#[serde(default)]` — a missing field reads as
//!   `Default::default()`;
//! * field `#[serde(skip_serializing_if = "path")]` — the field is left
//!   out when `path(&field)` is true;
//! * field `#[serde(with = "module")]` — (de)serialize through
//!   `module::serialize(&T) -> Value` and
//!   `module::deserialize(&Value) -> Result<T, DeError>`, the shim's
//!   value-tree forms of upstream's functions.
//!
//! Anything else (generics, data-carrying enums, unions, other
//! attributes) is rejected with a compile error naming the unsupported
//! shape.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive `serde::Serialize` for a supported item shape.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Serialize)
}

/// Derive `serde::Deserialize` for a supported item shape.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Serialize,
    Deserialize,
}

/// One named field and its `#[serde(...)]` attributes.
struct Field {
    name: String,
    /// A missing field reads as `Default::default()`: `#[serde(default)]`,
    /// implied for `Option<T>`.
    default: bool,
    skip_serializing_if: Option<String>,
    with: Option<String>,
}

enum Item {
    /// `struct Name { a: T, b: U }`; `label` names it in error messages.
    Struct {
        name: String,
        label: String,
        fields: Vec<Field>,
    },
    /// `struct Name(T);`
    Newtype { name: String },
    /// `enum Name { A, B, C }`
    Enum { name: String, variants: Vec<String> },
}

/// `key` or `key = "value"` entries of `#[serde(...)]` attributes.
type Attrs = Vec<(String, Option<String>)>;

fn expand(input: TokenStream, mode: Mode) -> TokenStream {
    let code = match parse_item(input) {
        Ok(item) => generate(&item, mode),
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    code.parse().expect("serde_derive generated invalid Rust")
}

/// `true` for an identifier token equal to `word`.
fn is_ident(tok: Option<&TokenTree>, word: &str) -> bool {
    matches!(tok, Some(TokenTree::Ident(i)) if i.to_string() == word)
}

fn is_punct(tok: Option<&TokenTree>, ch: char) -> bool {
    matches!(tok, Some(TokenTree::Punct(p)) if p.as_char() == ch)
}

/// Read the `#[...]` attribute groups starting at `i`, keeping the entries
/// of `#[serde(...)]` ones; returns the next index and those entries.
fn parse_attrs(toks: &[TokenTree], mut i: usize) -> Result<(usize, Attrs), String> {
    let mut attrs = Vec::new();
    while is_punct(toks.get(i), '#') {
        if let Some(TokenTree::Group(g)) = toks.get(i + 1) {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            if let (true, Some(TokenTree::Group(args))) =
                (is_ident(inner.first(), "serde"), inner.get(1))
            {
                parse_serde_args(args.stream(), &mut attrs)?;
            }
        }
        i += 2; // '#' then the bracketed group
    }
    Ok((i, attrs))
}

fn parse_serde_args(stream: TokenStream, attrs: &mut Attrs) -> Result<(), String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    for entry in toks.split(|t| is_punct(Some(t), ',')) {
        match entry {
            [] => {}
            [TokenTree::Ident(key)] => attrs.push((key.to_string(), None)),
            [TokenTree::Ident(key), eq, TokenTree::Literal(lit)] if is_punct(Some(eq), '=') => {
                let lit = lit.to_string();
                let value = lit
                    .strip_prefix('"')
                    .and_then(|l| l.strip_suffix('"'))
                    .ok_or_else(|| {
                        format!("serde shim derive: `{key}` expects a string, found {lit}")
                    })?;
                attrs.push((key.to_string(), Some(value.to_owned())));
            }
            other => {
                let text: Vec<String> = other.iter().map(ToString::to_string).collect();
                return Err(format!(
                    "serde shim derive: unsupported attribute `{}`",
                    text.join(" ")
                ));
            }
        }
    }
    Ok(())
}

fn unsupported(key: &str, value: &Option<String>, on: &str) -> String {
    let shown = value
        .as_ref()
        .map_or(String::new(), |v| format!(" = {v:?}"));
    format!("serde shim derive: unsupported attribute `{key}{shown}` on {on}")
}

/// Skip `pub` / `pub(...)` starting at `i`; returns the next index.
fn skip_vis(toks: &[TokenTree], mut i: usize) -> usize {
    if is_ident(toks.get(i), "pub") {
        i += 1;
        if matches!(toks.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            i += 1;
        }
    }
    i
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let (i, attrs) = parse_attrs(&toks, 0)?;
    let mut i = skip_vis(&toks, i);

    let keyword = match toks.get(i) {
        Some(TokenTree::Ident(kw)) => kw.to_string(),
        other => {
            return Err(format!(
                "serde shim derive: expected item keyword, found {other:?}"
            ))
        }
    };
    i += 1;

    let name = match toks.get(i) {
        Some(TokenTree::Ident(n)) => n.to_string(),
        other => {
            return Err(format!(
                "serde shim derive: expected item name, found {other:?}"
            ))
        }
    };
    i += 1;

    if is_punct(toks.get(i), '<') {
        return Err(format!(
            "serde shim derive: generic type `{name}` is unsupported"
        ));
    }

    let mut label = name.clone();
    for (key, value) in &attrs {
        match (key.as_str(), value) {
            ("rename", Some(v)) => label = v.clone(),
            ("transparent", None) => {}
            _ => return Err(unsupported(key, value, &format!("`{name}`"))),
        }
    }

    match keyword.as_str() {
        "struct" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Item::Struct {
                fields: parse_named_fields(g.stream(), &name)?,
                name,
                label,
            }),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                if count_top_level_fields(&inner) != 1 {
                    return Err(format!(
                        "serde shim derive: tuple struct `{name}` must have exactly one field"
                    ));
                }
                Ok(Item::Newtype { name })
            }
            other => Err(format!(
                "serde shim derive: unsupported struct body {other:?}"
            )),
        },
        "enum" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Ok(Item::Enum {
                variants: parse_fieldless_variants(g.stream(), &name)?,
                name,
            }),
            other => Err(format!(
                "serde shim derive: unsupported enum body {other:?}"
            )),
        },
        other => Err(format!(
            "serde shim derive: unsupported item kind `{other}`"
        )),
    }
}

/// Count comma-separated entries at angle-bracket depth 0.
fn count_top_level_fields(toks: &[TokenTree]) -> usize {
    let mut depth = 0i32;
    let mut fields = 0usize;
    let mut saw_tokens = false;
    for tok in toks {
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                fields += 1;
                saw_tokens = false;
                continue;
            }
            _ => {}
        }
        saw_tokens = true;
    }
    fields + usize::from(saw_tokens)
}

fn parse_named_fields(stream: TokenStream, name: &str) -> Result<Vec<Field>, String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let (next, attrs) = parse_attrs(&toks, i)?;
        i = skip_vis(&toks, next);
        if i >= toks.len() {
            break;
        }
        let field = match toks.get(i) {
            Some(TokenTree::Ident(f)) => f.to_string(),
            other => {
                return Err(format!(
                    "serde shim derive: expected field name in `{name}`, found {other:?}"
                ))
            }
        };
        i += 1;
        if !is_punct(toks.get(i), ':') {
            return Err(format!(
                "serde shim derive: expected `:` after field `{field}` in `{name}`"
            ));
        }
        i += 1;
        // Read the type up to a comma at angle-bracket depth 0, noting the
        // last path segment before its first `<` (`Option` for options).
        let mut depth = 0i32;
        let mut outer = String::new();
        let mut seen_angle = false;
        while i < toks.len() {
            match &toks[i] {
                TokenTree::Ident(seg) if !seen_angle => outer = seg.to_string(),
                TokenTree::Punct(p) if p.as_char() == '<' => {
                    depth += 1;
                    seen_angle = true;
                }
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        let mut parsed = Field {
            default: seen_angle && outer == "Option",
            skip_serializing_if: None,
            with: None,
            name: field,
        };
        for (key, value) in attrs {
            match (key.as_str(), value) {
                ("default", None) => parsed.default = true,
                ("skip_serializing_if", Some(path)) => parsed.skip_serializing_if = Some(path),
                ("with", Some(module)) => parsed.with = Some(module),
                (key, value) => {
                    return Err(unsupported(
                        key,
                        &value,
                        &format!("field `{}` of `{name}`", parsed.name),
                    ))
                }
            }
        }
        fields.push(parsed);
    }
    Ok(fields)
}

fn parse_fieldless_variants(stream: TokenStream, name: &str) -> Result<Vec<String>, String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let (next, attrs) = parse_attrs(&toks, i)?;
        if let Some((key, value)) = attrs.first() {
            return Err(unsupported(key, value, &format!("a variant of `{name}`")));
        }
        i = next;
        if i >= toks.len() {
            break;
        }
        let variant = match toks.get(i) {
            Some(TokenTree::Ident(v)) => v.to_string(),
            other => {
                return Err(format!(
                    "serde shim derive: expected variant name in `{name}`, found {other:?}"
                ))
            }
        };
        i += 1;
        if matches!(toks.get(i), Some(TokenTree::Group(_))) {
            return Err(format!(
                "serde shim derive: enum `{name}` variant `{variant}` carries data (unsupported)"
            ));
        }
        if toks.get(i).is_some() && !is_punct(toks.get(i), ',') {
            return Err(format!(
                "serde shim derive: unexpected token after variant `{variant}` in `{name}`"
            ));
        }
        i += 1; // the comma (or past the end)
        variants.push(variant);
    }
    Ok(variants)
}

fn generate(item: &Item, mode: Mode) -> String {
    match (item, mode) {
        (Item::Struct { name, fields, .. }, Mode::Serialize) => {
            let pushes: String = fields
                .iter()
                .map(|f| {
                    let n = &f.name;
                    let to_value = match &f.with {
                        Some(module) => format!("{module}::serialize"),
                        None => "::serde::Serialize::to_value".to_owned(),
                    };
                    let push = format!(
                        "fields.push((::std::string::String::from({n:?}), {to_value}(&self.{n})));"
                    );
                    match &f.skip_serializing_if {
                        Some(path) => format!("if !{path}(&self.{n}) {{ {push} }}"),
                        None => push,
                    }
                })
                .collect();
            let len = fields.len();
            format!(
                "#[automatically_derived]
                impl ::serde::Serialize for {name} {{
                    fn to_value(&self) -> ::serde::Value {{
                        let mut fields = ::std::vec::Vec::with_capacity({len});
                        {pushes}
                        ::serde::Value::Object(fields)
                    }}
                }}"
            )
        }
        (
            Item::Struct {
                name,
                label,
                fields,
            },
            Mode::Deserialize,
        ) => {
            let entries: String = fields
                .iter()
                .map(|f| {
                    let n = &f.name;
                    let from_value = match &f.with {
                        Some(module) => format!("{module}::deserialize"),
                        None => "::serde::Deserialize::from_value".to_owned(),
                    };
                    if f.default {
                        format!(
                            "{n}: match ::serde::find_field(fields, {n:?})? {{
                                ::std::option::Option::Some(v) => {from_value}(v)?,
                                ::std::option::Option::None => ::std::default::Default::default(),
                            }},"
                        )
                    } else {
                        format!(
                            "{n}: {from_value}(::serde::get_field(fields, {n:?}, {label:?})?)?,"
                        )
                    }
                })
                .collect();
            format!(
                "#[automatically_derived]
                impl ::serde::Deserialize for {name} {{
                    fn from_value(value: &::serde::Value)
                        -> ::std::result::Result<Self, ::serde::DeError> {{
                        let fields = value.as_object().ok_or_else(||
                            ::serde::DeError::expected(\"object\", {label:?}, value))?;
                        ::std::result::Result::Ok(Self {{ {entries} }})
                    }}
                }}"
            )
        }
        (Item::Newtype { name }, Mode::Serialize) => format!(
            "#[automatically_derived]
            impl ::serde::Serialize for {name} {{
                fn to_value(&self) -> ::serde::Value {{
                    ::serde::Serialize::to_value(&self.0)
                }}
            }}"
        ),
        (Item::Newtype { name }, Mode::Deserialize) => format!(
            "#[automatically_derived]
            impl ::serde::Deserialize for {name} {{
                fn from_value(value: &::serde::Value)
                    -> ::std::result::Result<Self, ::serde::DeError> {{
                    ::std::result::Result::Ok(Self(::serde::Deserialize::from_value(value)?))
                }}
            }}"
        ),
        (Item::Enum { name, variants }, Mode::Serialize) => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    format!(
                        "Self::{v} => ::serde::Value::String(\
                         ::std::string::String::from({v:?})),"
                    )
                })
                .collect();
            format!(
                "#[automatically_derived]
                impl ::serde::Serialize for {name} {{
                    fn to_value(&self) -> ::serde::Value {{
                        match self {{ {arms} }}
                    }}
                }}"
            )
        }
        (Item::Enum { name, variants }, Mode::Deserialize) => {
            let arms: String = variants
                .iter()
                .map(|v| format!("::std::option::Option::Some({v:?}) => ::std::result::Result::Ok(Self::{v}),"))
                .collect();
            format!(
                "#[automatically_derived]
                impl ::serde::Deserialize for {name} {{
                    fn from_value(value: &::serde::Value)
                        -> ::std::result::Result<Self, ::serde::DeError> {{
                        match value.as_str() {{
                            {arms}
                            ::std::option::Option::Some(other) =>
                                ::std::result::Result::Err(::serde::DeError::custom(
                                    ::std::format!(\"unknown {name} variant `{{other}}`\"))),
                            ::std::option::Option::None =>
                                ::std::result::Result::Err(::serde::DeError::expected(
                                    \"string\", {name:?}, value)),
                        }}
                    }}
                }}"
            )
        }
    }
}
