//! `#[derive(Serialize, Deserialize)]` for the in-tree serde shim.
//!
//! `syn`/`quote` are unavailable (no registry access), so the macro walks
//! the raw `TokenStream` directly. It supports exactly the shapes this
//! workspace uses — non-generic structs (named, tuple, unit) and
//! non-generic enums with unit, tuple, and struct variants — and produces
//! impls of the shim's `Serialize`/`Deserialize` traits following serde's
//! external-tagging conventions. Unsupported shapes (generics, unions)
//! panic at expansion time with a clear message rather than silently
//! producing wrong code.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// A parsed field list: named fields carry their identifiers, tuple
/// fields only an arity.
enum Fields {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
}

/// A parsed item: its name plus either struct fields or enum variants.
enum Item {
    Struct { name: String, fields: Fields },
    Enum { name: String, variants: Vec<(String, Fields)> },
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item {
        Item::Struct { name, fields } => serialize_struct(name, fields),
        Item::Enum { name, variants } => serialize_enum(name, variants),
    };
    body.parse().expect("serde_derive: generated Serialize impl must parse")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item {
        Item::Struct { name, fields } => deserialize_struct(name, fields),
        Item::Enum { name, variants } => deserialize_enum(name, variants),
    };
    body.parse().expect("serde_derive: generated Deserialize impl must parse")
}

// --- Parsing ---

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attributes_and_visibility(&tokens, &mut i);
    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected `struct` or `enum`, found {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected item name, found {other}"),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim does not support generic type `{name}`");
    }
    match kind.as_str() {
        "struct" => {
            let fields = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                _ => Fields::Unit,
            };
            Item::Struct { name, fields }
        }
        "enum" => {
            let body = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => panic!("serde_derive: expected enum body for `{name}`, found {other:?}"),
            };
            Item::Enum { name, variants: parse_variants(body) }
        }
        other => panic!("serde_derive: cannot derive for `{other}` items"),
    }
}

/// Advances past outer attributes (`#[...]`, including doc comments) and a
/// visibility modifier (`pub`, `pub(...)`).
fn skip_attributes_and_visibility(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 2; // `#` plus the bracketed group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => return,
        }
    }
}

/// Extracts field names from a named-field body, skipping types. Commas
/// inside angle brackets (e.g. `HashMap<K, V>`) do not split fields.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut names = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes_and_visibility(&tokens, &mut i);
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            break;
        };
        names.push(id.to_string());
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde_derive: expected `:` after field name, found {other:?}"),
        }
        let mut angle_depth = 0i32;
        while let Some(tok) = tokens.get(i) {
            match tok {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    names
}

/// Counts top-level fields in a tuple-struct/-variant body.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut angle_depth = 0i32;
    let mut saw_token_since_comma = true;
    for tok in &tokens {
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                count += 1;
                saw_token_since_comma = false;
            }
            _ => saw_token_since_comma = true,
        }
    }
    if !saw_token_since_comma {
        count -= 1; // trailing comma
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<(String, Fields)> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes_and_visibility(&tokens, &mut i);
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            break;
        };
        let name = id.to_string();
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(count_tuple_fields(g.stream()))
            }
            _ => Fields::Unit,
        };
        // Skip an explicit discriminant (`= expr`) up to the next comma.
        while let Some(tok) = tokens.get(i) {
            if matches!(tok, TokenTree::Punct(p) if p.as_char() == ',') {
                i += 1;
                break;
            }
            i += 1;
        }
        variants.push((name, fields));
    }
    variants
}

// --- Code generation ---

fn serialize_struct(name: &str, fields: &Fields) -> String {
    let body = match fields {
        Fields::Named(names) => {
            let pushes: String = names
                .iter()
                .map(|f| {
                    format!(
                        "fields.push((String::from(\"{f}\"), \
                         ::serde::Serialize::to_value(&self.{f})));"
                    )
                })
                .collect();
            format!(
                "let mut fields: Vec<(String, ::serde::Value)> = \
                 Vec::with_capacity({});{pushes} ::serde::Value::Object(fields)",
                names.len()
            )
        }
        Fields::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Fields::Tuple(n) => {
            let items: Vec<String> =
                (0..*n).map(|k| format!("::serde::Serialize::to_value(&self.{k})")).collect();
            format!("::serde::Value::Array(vec![{}])", items.join(","))
        }
        Fields::Unit => "::serde::Value::Null".to_string(),
    };
    format!(
        "#[automatically_derived] impl ::serde::Serialize for {name} {{ \
         fn to_value(&self) -> ::serde::Value {{ {body} }} }}"
    )
}

fn deserialize_struct(name: &str, fields: &Fields) -> String {
    let body = match fields {
        Fields::Named(names) => {
            let inits: Vec<String> = names
                .iter()
                .map(|f| {
                    format!(
                        "{f}: ::serde::Deserialize::from_value(\
                         ::serde::field(obj, \"{f}\")?)?"
                    )
                })
                .collect();
            format!(
                "let obj = v.as_object().ok_or_else(|| \
                 ::serde::Error::ty(\"{name}\", \"object\"))?; \
                 Ok({name} {{ {} }})",
                inits.join(",")
            )
        }
        Fields::Tuple(1) => {
            format!("Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|k| format!("::serde::Deserialize::from_value(&items[{k}])?"))
                .collect();
            format!(
                "let items = v.as_array().ok_or_else(|| \
                 ::serde::Error::ty(\"{name}\", \"array\"))?; \
                 if items.len() != {n} {{ return Err(::serde::Error::ty(\"{name}\", \
                 \"array of length {n}\")); }} \
                 Ok({name}({}))",
                items.join(",")
            )
        }
        Fields::Unit => format!("Ok({name})"),
    };
    format!(
        "#[automatically_derived] impl ::serde::Deserialize for {name} {{ \
         fn from_value(v: &::serde::Value) -> Result<Self, ::serde::Error> {{ {body} }} }}"
    )
}

fn serialize_enum(name: &str, variants: &[(String, Fields)]) -> String {
    let arms: Vec<String> = variants
        .iter()
        .map(|(v, fields)| match fields {
            Fields::Unit => {
                format!("{name}::{v} => ::serde::Value::Str(String::from(\"{v}\")),")
            }
            Fields::Tuple(1) => format!(
                "{name}::{v}(f0) => ::serde::Value::Object(vec![(String::from(\"{v}\"), \
                 ::serde::Serialize::to_value(f0))]),"
            ),
            Fields::Tuple(n) => {
                let binds: Vec<String> = (0..*n).map(|k| format!("f{k}")).collect();
                let items: Vec<String> =
                    (0..*n).map(|k| format!("::serde::Serialize::to_value(f{k})")).collect();
                format!(
                    "{name}::{v}({}) => ::serde::Value::Object(vec![(String::from(\"{v}\"), \
                     ::serde::Value::Array(vec![{}]))]),",
                    binds.join(","),
                    items.join(",")
                )
            }
            Fields::Named(field_names) => {
                let binds = field_names.join(",");
                let pushes: Vec<String> = field_names
                    .iter()
                    .map(|f| format!("(String::from(\"{f}\"), ::serde::Serialize::to_value({f}))"))
                    .collect();
                format!(
                    "{name}::{v} {{ {binds} }} => ::serde::Value::Object(vec![(\
                     String::from(\"{v}\"), ::serde::Value::Object(vec![{}]))]),",
                    pushes.join(",")
                )
            }
        })
        .collect();
    format!(
        "#[automatically_derived] impl ::serde::Serialize for {name} {{ \
         fn to_value(&self) -> ::serde::Value {{ match self {{ {} }} }} }}",
        arms.join("")
    )
}

fn deserialize_enum(name: &str, variants: &[(String, Fields)]) -> String {
    let unit_arms: Vec<String> = variants
        .iter()
        .filter(|(_, f)| matches!(f, Fields::Unit))
        .map(|(v, _)| format!("\"{v}\" => Ok({name}::{v}),"))
        .collect();
    let tagged_arms: Vec<String> = variants
        .iter()
        .filter_map(|(v, fields)| match fields {
            Fields::Unit => None,
            Fields::Tuple(1) => Some(format!(
                "\"{v}\" => Ok({name}::{v}(::serde::Deserialize::from_value(inner)?)),"
            )),
            Fields::Tuple(n) => Some(format!(
                "\"{v}\" => {{ let items = inner.as_array().ok_or_else(|| \
                 ::serde::Error::ty(\"{name}::{v}\", \"array\"))?; \
                 if items.len() != {n} {{ return Err(::serde::Error::ty(\
                 \"{name}::{v}\", \"array of length {n}\")); }} \
                 Ok({name}::{v}({})) }},",
                (0..*n)
                    .map(|k| format!("::serde::Deserialize::from_value(&items[{k}])?"))
                    .collect::<Vec<_>>()
                    .join(",")
            )),
            Fields::Named(field_names) => {
                let inits: Vec<String> = field_names
                    .iter()
                    .map(|f| {
                        format!(
                            "{f}: ::serde::Deserialize::from_value(\
                             ::serde::field(obj, \"{f}\")?)?"
                        )
                    })
                    .collect();
                Some(format!(
                    "\"{v}\" => {{ let obj = inner.as_object().ok_or_else(|| \
                     ::serde::Error::ty(\"{name}::{v}\", \"object\"))?; \
                     Ok({name}::{v} {{ {} }}) }},",
                    inits.join(",")
                ))
            }
        })
        .collect();
    format!(
        "#[automatically_derived] impl ::serde::Deserialize for {name} {{ \
         fn from_value(v: &::serde::Value) -> Result<Self, ::serde::Error> {{ \
         match v {{ \
         ::serde::Value::Str(s) => match s.as_str() {{ {units} \
           other => Err(::serde::Error::msg(format!(\
             \"unknown variant `{{other}}` for {name}\"))), }}, \
         ::serde::Value::Object(fields) if fields.len() == 1 => {{ \
           let (tag, inner) = &fields[0]; \
           match tag.as_str() {{ {tagged} \
             other => Err(::serde::Error::msg(format!(\
               \"unknown variant `{{other}}` for {name}\"))), }} }}, \
         _ => Err(::serde::Error::ty(\"{name}\", \"string or single-key object\")), \
         }} }} }}",
        units = unit_arms.join(""),
        tagged = tagged_arms.join("")
    )
}
