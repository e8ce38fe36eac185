//! Item-level model of a Rust source file, built from the [`crate::lexer`]
//! token stream.
//!
//! This is not a full Rust parser — it is the minimum structure the
//! semantic rules need:
//!
//! * every `fn` signature (name, visibility, parameter names/types,
//!   return type),
//! * every named `struct`/`enum-variant` field (owner, name, type,
//!   visibility),
//! * which tokens sit inside a `#[cfg(test)]` region.
//!
//! The parser is brace/angle-tracked and never panics: on anything it does
//! not understand (macro definitions, exotic syntax) it simply advances,
//! so unknown constructs cost coverage, never correctness.

use crate::lexer::{Tok, TokKind};

/// One parsed parameter: the pattern's identifiers and the type tokens.
#[derive(Clone, Debug)]
pub struct Param {
    /// Identifiers bound by the pattern (empty for `self`).
    pub names: Vec<String>,
    /// Type as space-joined tokens (empty for untyped `self`).
    pub ty: String,
    /// Line of the parameter's first token.
    pub line: usize,
}

/// One parsed `fn` signature.
#[derive(Clone, Debug)]
pub struct FnSig {
    /// Function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Unrestricted `pub` (not `pub(crate)`/`pub(super)`)?
    pub is_pub: bool,
    /// Inside a `#[cfg(test)]` region?
    pub in_test: bool,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Return type as space-joined tokens (`None` for `()`).
    pub ret: Option<String>,
}

/// One named field of a struct or enum variant.
#[derive(Clone, Debug)]
pub struct Field {
    /// `Type` or `Enum::Variant` owning the field.
    pub owner: String,
    /// Field name.
    pub name: String,
    /// Type as space-joined tokens.
    pub ty: String,
    /// Line of the field name.
    pub line: usize,
    /// Externally reachable: unrestricted `pub` on both the item and the
    /// field (enum variant fields inherit the enum's visibility).
    pub is_pub: bool,
    /// Inside a `#[cfg(test)]` region?
    pub in_test: bool,
}

/// The parsed model of one source file.
#[derive(Clone, Debug, Default)]
pub struct Model {
    /// All `fn` signatures, in source order.
    pub fns: Vec<FnSig>,
    /// All named fields, in source order.
    pub fields: Vec<Field>,
    /// `tok_in_test[i]` — does token `i` sit inside `#[cfg(test)]`?
    pub tok_in_test: Vec<bool>,
}

/// Splits an identifier into lowercase words on `_` and camelCase
/// boundaries: `hoverEnergyTotal` → `["hover", "energy", "total"]`.
pub fn ident_words(name: &str) -> Vec<String> {
    let mut words = Vec::new();
    let mut cur = String::new();
    for c in name.chars() {
        if c == '_' {
            if !cur.is_empty() {
                words.push(std::mem::take(&mut cur));
            }
        } else if c.is_uppercase() && !cur.is_empty() {
            words.push(std::mem::take(&mut cur));
            cur.push(c.to_ascii_lowercase());
        } else {
            cur.push(c.to_ascii_lowercase());
        }
    }
    if !cur.is_empty() {
        words.push(cur);
    }
    words
}

/// Does the space-joined type string contain `f64` as a whole token?
pub fn type_has_f64(ty: &str) -> bool {
    ty.split(' ').any(|w| w == "f64")
}

struct Parser<'a> {
    toks: &'a [Tok],
    i: usize,
    depth: i64,
    /// While `Some(d)`, depth > d is a `#[cfg(test)]` region.
    test_above: Option<i64>,
    pending_cfg_test: bool,
    model: Model,
}

/// Parses a token stream into the item model.
pub fn parse(toks: &[Tok]) -> Model {
    let mut p = Parser {
        toks,
        i: 0,
        depth: 0,
        test_above: None,
        pending_cfg_test: false,
        model: Model {
            fns: Vec::new(),
            fields: Vec::new(),
            tok_in_test: vec![false; toks.len()],
        },
    };
    p.run();
    p.model
}

impl<'a> Parser<'a> {
    fn in_test(&self) -> bool {
        self.test_above.is_some_and(|d| self.depth > d)
    }

    fn tok(&self, i: usize) -> Option<&'a Tok> {
        self.toks.get(i)
    }

    /// Advances past one token, maintaining brace depth and the test
    /// region, and recording the token's test-ness.
    fn bump(&mut self) {
        if let Some(t) = self.tok(self.i) {
            self.model.tok_in_test[self.i] = self.in_test();
            if t.is_punct("{") {
                if self.pending_cfg_test && self.test_above.is_none() {
                    self.test_above = Some(self.depth);
                    self.pending_cfg_test = false;
                }
                self.depth += 1;
            } else if t.is_punct("}") {
                self.depth -= 1;
                if let Some(d) = self.test_above {
                    if self.depth <= d {
                        self.test_above = None;
                    }
                }
            }
        }
        self.i += 1;
    }

    /// Main loop: walk the stream, dispatching on item keywords.
    fn run(&mut self) {
        let mut pending_pub = false;
        while let Some(t) = self.tok(self.i) {
            if t.is_punct("#") {
                self.attr();
                continue;
            }
            if t.is_ident("pub") {
                pending_pub = self.vis();
                continue;
            }
            if t.is_ident("fn") {
                self.func(pending_pub);
                pending_pub = false;
                continue;
            }
            if t.is_ident("struct") || t.is_ident("enum") {
                let is_enum = t.is_ident("enum");
                self.adt(pending_pub, is_enum);
                pending_pub = false;
                continue;
            }
            // Function qualifiers sit between the visibility and the `fn`
            // keyword (`pub async fn`, `pub const unsafe fn`,
            // `pub extern "C" fn`); they must not reset a pending `pub`.
            if t.is_ident("async")
                || t.is_ident("unsafe")
                || t.is_ident("const")
                || t.is_ident("extern")
                || (pending_pub && t.kind == TokKind::Str)
            {
                self.bump();
                continue;
            }
            // Any other token resets a dangling visibility (e.g. `pub use`,
            // `pub mod`, `pub const` — items the rules don't model).
            if t.kind == TokKind::Ident || t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
                pending_pub = false;
            }
            self.bump();
        }
    }

    /// Consumes `#[...]` / `#![...]`; arms the cfg(test) region tracker
    /// when the attribute is `cfg(test)`.
    fn attr(&mut self) {
        self.bump(); // '#'
        if self.tok(self.i).is_some_and(|t| t.is_punct("!")) {
            self.bump();
        }
        if !self.tok(self.i).is_some_and(|t| t.is_punct("[")) {
            return;
        }
        let start = self.i;
        self.bump(); // '['
        let mut bd = 1;
        while bd > 0 {
            let Some(t) = self.tok(self.i) else { break };
            if t.is_punct("[") {
                bd += 1;
            } else if t.is_punct("]") {
                bd -= 1;
            }
            self.bump();
        }
        // cfg(test): tokens `cfg ( test )` inside the brackets.
        let inner = &self.toks[start..self.i.min(self.toks.len())];
        let is_cfg_test = inner.windows(4).any(|w| {
            w[0].is_ident("cfg")
                && w[1].is_punct("(")
                && w[2].is_ident("test")
                && w[3].is_punct(")")
        });
        if is_cfg_test && self.test_above.is_none() {
            self.pending_cfg_test = true;
        }
    }

    /// Consumes `pub` (+ optional restriction); returns true only for
    /// unrestricted `pub`.
    fn vis(&mut self) -> bool {
        self.bump(); // 'pub'
        if self.tok(self.i).is_some_and(|t| t.is_punct("(")) {
            // pub(crate) / pub(super) / pub(in path): restricted.
            let mut pd = 0;
            while let Some(t) = self.tok(self.i) {
                if t.is_punct("(") {
                    pd += 1;
                } else if t.is_punct(")") {
                    pd -= 1;
                    self.bump();
                    if pd == 0 {
                        break;
                    }
                    continue;
                }
                self.bump();
            }
            return false;
        }
        true
    }

    /// Skips a balanced `<...>` generics group starting at the current
    /// token (which must be `<`); tolerates `>>` closing two levels.
    fn generics(&mut self) {
        let mut ad: i64 = 0;
        while let Some(t) = self.tok(self.i) {
            if t.is_punct("<") || t.is_punct("<<") {
                ad += if t.text == "<<" { 2 } else { 1 };
            } else if t.is_punct(">") || t.is_punct(">>") {
                ad -= if t.text == ">>" { 2 } else { 1 };
                if ad <= 0 {
                    self.bump();
                    break;
                }
            } else if t.is_punct("{") || t.is_punct(";") {
                break; // malformed; bail without consuming the brace
            }
            self.bump();
        }
    }

    /// Parses `fn name<...>(params) -> Ret {body}` from the `fn` keyword.
    fn func(&mut self, is_pub: bool) {
        let line = self.toks[self.i].line;
        let in_test = self.in_test() || self.pending_cfg_test;
        self.bump(); // 'fn'
        let Some(name_tok) = self.tok(self.i) else {
            return;
        };
        if name_tok.kind != TokKind::Ident {
            return; // macro body fragment like `fn $name`; skip
        }
        let name = name_tok.text.clone();
        self.bump();
        if self.tok(self.i).is_some_and(|t| t.is_punct("<")) {
            self.generics();
        }
        if !self.tok(self.i).is_some_and(|t| t.is_punct("(")) {
            return;
        }
        // Collect parameter tokens between balanced parens.
        let params_start = self.i + 1;
        let mut pd = 0;
        while let Some(t) = self.tok(self.i) {
            if t.is_punct("(") {
                pd += 1;
            } else if t.is_punct(")") {
                pd -= 1;
                if pd == 0 {
                    break;
                }
            }
            self.bump();
        }
        let params_end = self.i;
        self.bump(); // ')'
        let params = split_params(&self.toks[params_start..params_end.min(self.toks.len())]);
        // Return type: up to `{`, `;`, or top-level `where`.
        let mut ret = None;
        if self.tok(self.i).is_some_and(|t| t.is_punct("->")) {
            self.bump();
            let ret_start = self.i;
            let mut ad: i64 = 0;
            let mut rpd: i64 = 0;
            while let Some(t) = self.tok(self.i) {
                if rpd == 0
                    && ad <= 0
                    && (t.is_punct("{") || t.is_punct(";") || t.is_ident("where"))
                {
                    break;
                }
                match t.text.as_str() {
                    "<" => ad += 1,
                    "<<" => ad += 2,
                    ">" => ad -= 1,
                    ">>" => ad -= 2,
                    "(" | "[" => rpd += 1,
                    ")" | "]" => rpd -= 1,
                    _ => {}
                }
                self.bump();
            }
            ret = Some(join(&self.toks[ret_start..self.i.min(self.toks.len())]));
        }
        // Skip a where clause.
        while let Some(t) = self.tok(self.i) {
            if t.is_punct("{") || t.is_punct(";") {
                break;
            }
            self.bump();
        }
        // Skip the body, so items nested in it are not modeled.
        if self.tok(self.i).is_some_and(|t| t.is_punct("{")) {
            let mut bd = 0;
            while let Some(t) = self.tok(self.i) {
                if t.is_punct("{") {
                    bd += 1;
                } else if t.is_punct("}") {
                    bd -= 1;
                    if bd == 0 {
                        break;
                    }
                }
                self.bump();
            }
            self.bump(); // '}'
        }
        self.model.fns.push(FnSig {
            name,
            line,
            is_pub,
            in_test,
            params,
            ret,
        });
    }

    /// Parses `struct`/`enum` bodies for named fields.
    fn adt(&mut self, item_pub: bool, is_enum: bool) {
        let in_test = self.in_test() || self.pending_cfg_test;
        self.bump(); // 'struct' | 'enum'
        let Some(name_tok) = self.tok(self.i) else {
            return;
        };
        if name_tok.kind != TokKind::Ident {
            return;
        }
        let owner = name_tok.text.clone();
        self.bump();
        if self.tok(self.i).is_some_and(|t| t.is_punct("<")) {
            self.generics();
        }
        // Skip where clause; stop at `{`, `(`, or `;`.
        while let Some(t) = self.tok(self.i) {
            if t.is_punct("{") || t.is_punct("(") || t.is_punct(";") {
                break;
            }
            self.bump();
        }
        let Some(open) = self.tok(self.i) else {
            return;
        };
        if open.is_punct("(") || open.is_punct(";") {
            // Tuple struct / unit struct: no named fields to model.
            return;
        }
        // Braced body.
        self.bump(); // '{'
        if is_enum {
            self.enum_variants(&owner, item_pub, in_test);
        } else {
            self.named_fields(&owner, item_pub, in_test, true);
        }
    }

    /// Parses named fields until the *closing* brace of the current body
    /// (which it consumes). `need_field_pub`: struct fields carry their own
    /// visibility; enum-variant fields inherit the enum's.
    fn named_fields(&mut self, owner: &str, item_pub: bool, in_test: bool, need_field_pub: bool) {
        loop {
            let Some(t) = self.tok(self.i) else { return };
            if t.is_punct("}") {
                self.bump();
                return;
            }
            if t.is_punct("#") {
                self.attr();
                continue;
            }
            let mut field_pub = !need_field_pub;
            if t.is_ident("pub") {
                field_pub = self.vis();
            }
            // name ':' type
            let Some(name_tok) = self.tok(self.i) else {
                return;
            };
            if name_tok.kind != TokKind::Ident {
                self.bump();
                continue;
            }
            let fname = name_tok.text.clone();
            let fline = name_tok.line;
            self.bump();
            if !self.tok(self.i).is_some_and(|t| t.is_punct(":")) {
                continue;
            }
            self.bump(); // ':'
            let ty_start = self.i;
            let mut ad: i64 = 0;
            let mut pd: i64 = 0;
            while let Some(t) = self.tok(self.i) {
                if ad <= 0 && pd == 0 && (t.is_punct(",") || t.is_punct("}")) {
                    break;
                }
                match t.text.as_str() {
                    "<" => ad += 1,
                    "<<" => ad += 2,
                    ">" => ad -= 1,
                    ">>" => ad -= 2,
                    "(" | "[" | "{" => pd += 1,
                    ")" | "]" | "}" => pd -= 1,
                    _ => {}
                }
                self.bump();
            }
            self.model.fields.push(Field {
                owner: owner.to_string(),
                name: fname,
                ty: join(&self.toks[ty_start..self.i.min(self.toks.len())]),
                line: fline,
                is_pub: item_pub && field_pub,
                in_test,
            });
            if self.tok(self.i).is_some_and(|t| t.is_punct(",")) {
                self.bump();
            }
        }
    }

    /// Parses enum variants until the enum's closing brace (consumed).
    fn enum_variants(&mut self, owner: &str, item_pub: bool, in_test: bool) {
        loop {
            let Some(t) = self.tok(self.i) else { return };
            if t.is_punct("}") {
                self.bump();
                return;
            }
            if t.is_punct("#") {
                self.attr();
                continue;
            }
            if t.kind != TokKind::Ident {
                self.bump();
                continue;
            }
            let variant = t.text.clone();
            self.bump();
            match self.tok(self.i) {
                Some(t) if t.is_punct("{") => {
                    self.bump();
                    let qual = format!("{owner}::{variant}");
                    self.named_fields(&qual, item_pub, in_test, false);
                }
                Some(t) if t.is_punct("(") => {
                    // Tuple variant: skip the balanced parens.
                    let mut pd = 0;
                    while let Some(t) = self.tok(self.i) {
                        if t.is_punct("(") {
                            pd += 1;
                        } else if t.is_punct(")") {
                            pd -= 1;
                            self.bump();
                            if pd == 0 {
                                break;
                            }
                            continue;
                        }
                        self.bump();
                    }
                }
                _ => {}
            }
            // Optional discriminant `= expr` then comma.
            while let Some(t) = self.tok(self.i) {
                if t.is_punct(",") {
                    self.bump();
                    break;
                }
                if t.is_punct("}") {
                    break;
                }
                self.bump();
            }
        }
    }
}

/// Splits a parameter token slice on top-level commas into [`Param`]s.
fn split_params(toks: &[Tok]) -> Vec<Param> {
    let mut params = Vec::new();
    let mut start = 0;
    let mut ad: i64 = 0;
    let mut pd: i64 = 0;
    let mut pieces: Vec<&[Tok]> = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "<" => ad += 1,
            "<<" => ad += 2,
            ">" => ad -= 1,
            ">>" => ad -= 2,
            "(" | "[" | "{" => pd += 1,
            ")" | "]" | "}" => pd -= 1,
            "," if ad <= 0 && pd == 0 => {
                pieces.push(&toks[start..k]);
                start = k + 1;
            }
            _ => {}
        }
    }
    if start < toks.len() {
        pieces.push(&toks[start..]);
    }
    for piece in pieces {
        if piece.is_empty() {
            continue;
        }
        // Top-level ':' splits pattern from type (absent for self).
        let mut colon = None;
        let mut ad: i64 = 0;
        let mut pd: i64 = 0;
        for (k, t) in piece.iter().enumerate() {
            match t.text.as_str() {
                "<" => ad += 1,
                ">" => ad -= 1,
                "(" | "[" | "{" => pd += 1,
                ")" | "]" | "}" => pd -= 1,
                ":" if ad <= 0 && pd == 0 => {
                    colon = Some(k);
                }
                _ => {}
            }
            if colon.is_some() {
                break;
            }
        }
        let (pat, ty) = match colon {
            Some(k) => (&piece[..k], join(&piece[k + 1..])),
            None => (piece, String::new()),
        };
        let names: Vec<String> = pat
            .iter()
            .filter(|t| {
                t.kind == TokKind::Ident && !matches!(t.text.as_str(), "mut" | "ref" | "self")
            })
            .map(|t| t.text.clone())
            .collect();
        params.push(Param {
            names,
            ty,
            line: piece[0].line,
        });
    }
    params
}

/// Space-joined token text.
fn join(toks: &[Tok]) -> String {
    toks.iter()
        .map(|t| t.text.as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model(src: &str) -> (Model, Vec<Tok>) {
        let l = lex(src);
        (parse(&l.toks), l.toks)
    }

    #[test]
    fn fn_signature_is_modeled() {
        let (m, _) = model(
            "pub fn travel_energy(dist: f64, speed: f64) -> f64 { dist * speed }\nfn helper(x: u32) {}\n",
        );
        assert_eq!(m.fns.len(), 2);
        let f = &m.fns[0];
        assert!(f.is_pub);
        assert_eq!(f.name, "travel_energy");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].names, vec!["dist"]);
        assert_eq!(f.params[0].ty, "f64");
        assert_eq!(f.ret.as_deref(), Some("f64"));
        assert!(!m.fns[1].is_pub);
    }

    #[test]
    fn restricted_visibility_is_not_public() {
        let (m, _) = model("pub(crate) fn secret_energy(e: f64) {}\npub fn open() {}\n");
        assert!(!m.fns[0].is_pub);
        assert!(m.fns[1].is_pub);
    }

    #[test]
    fn generics_and_where_clauses_are_skipped() {
        let (m, _) = model(
            "pub fn pick<T: Ord, F>(items: Vec<Vec<T>>, f: F) -> Option<T> where F: Fn(&T) -> bool { None }",
        );
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].params.len(), 2);
        assert_eq!(m.fns[0].ret.as_deref(), Some("Option < T >"));
    }

    #[test]
    fn struct_and_enum_fields_are_modeled() {
        let (m, _) = model(
            "pub struct Spec { pub energy: f64, name: String }\npub enum E { V { dist: f64 }, T(f64), U }\nstruct Private { pub t: f64 }\n",
        );
        let names: Vec<(&str, &str, bool)> = m
            .fields
            .iter()
            .map(|f| (f.owner.as_str(), f.name.as_str(), f.is_pub))
            .collect();
        assert_eq!(
            names,
            vec![
                ("Spec", "energy", true),
                ("Spec", "name", false),
                ("E::V", "dist", true),
                ("Private", "t", false),
            ]
        );
    }

    #[test]
    fn cfg_test_regions_cover_items() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    pub fn t_energy(t: f64) -> f64 { t }\n}\nfn live2() {}\n";
        let (m, toks) = model(src);
        let t_energy = m.fns.iter().find(|f| f.name == "t_energy").unwrap();
        assert!(t_energy.in_test);
        assert!(!m.fns.iter().find(|f| f.name == "live2").unwrap().in_test);
        let line_in_test =
            |line| (toks.iter().zip(&m.tok_in_test)).any(|(t, &it)| t.line == line && it);
        assert!(line_in_test(4));
        assert!(!line_in_test(6));
    }

    #[test]
    fn ident_word_splitting() {
        assert_eq!(
            ident_words("hover_energy_total"),
            vec!["hover", "energy", "total"]
        );
        assert_eq!(ident_words("tourLen"), vec!["tour", "len"]);
        assert_eq!(ident_words("t"), vec!["t"]);
    }

    #[test]
    fn macro_rules_bodies_do_not_derail() {
        let src = "macro_rules! unit { ($name:ident) => { pub struct $name(pub f64); impl $name { pub fn value(self) -> f64 { self.0 } } }; }\npub fn after() {}\n";
        let (m, _) = model(src);
        // `fn value` inside the macro body still parses (harmless); the
        // key property is that `after` is found and nothing panics.
        assert!(m.fns.iter().any(|f| f.name == "after"));
    }

    #[test]
    fn trait_methods_without_bodies_parse() {
        let (m, _) = model("pub trait P { fn plan(&self, budget: f64) -> f64; }\n");
        let f = m.fns.iter().find(|f| f.name == "plan").unwrap();
        assert_eq!(f.params.len(), 2);
    }

    #[test]
    fn fn_qualifiers_do_not_reset_visibility() {
        // `async`/`unsafe`/`const`/`extern "C"` sit between `pub` and `fn`;
        // the parser must carry the visibility across them.
        let (m, _) = model(concat!(
            "pub async fn fetch_batch(n: usize) -> f64 { n as f64 }\n",
            "pub const fn arity() -> usize { 2 }\n",
            "pub unsafe fn raw_read(p: *const f64) -> f64 { *p }\n",
            "pub extern \"C\" fn abi_hook(x: f64) -> f64 { x }\n",
            "async fn private_fetch() {}\n",
        ));
        let vis: Vec<(&str, bool)> = m.fns.iter().map(|f| (f.name.as_str(), f.is_pub)).collect();
        assert_eq!(
            vis,
            vec![
                ("fetch_batch", true),
                ("arity", true),
                ("raw_read", true),
                ("abi_hook", true),
                ("private_fetch", false),
            ]
        );
    }

    #[test]
    fn pub_const_item_does_not_leak_visibility() {
        // A `pub const NAME: T = ...;` item skips the `const` qualifier but
        // the item name must still clear the dangling `pub` so the next
        // private fn stays private.
        let (m, _) = model("pub const BUDGET_J: f64 = 1.0;\nfn consume() {}\n");
        let f = m.fns.iter().find(|f| f.name == "consume").unwrap();
        assert!(!f.is_pub);
    }

    #[test]
    fn impl_trait_return_is_modeled_verbatim() {
        let (m, _) = model(
            "pub fn route_iter(n: usize) -> impl Iterator<Item = f64> { (0..n).map(|i| i as f64) }\nfn after() {}\n",
        );
        let f = m.fns.iter().find(|f| f.name == "route_iter").unwrap();
        let ret = f.ret.as_deref().unwrap();
        assert!(ret.contains("impl"), "ret was {ret:?}");
        assert!(ret.contains("Iterator"), "ret was {ret:?}");
        // The opaque return type must not swallow the following item.
        assert!(m.fns.iter().any(|f| f.name == "after"));
    }

    #[test]
    fn nested_closures_stay_inside_owning_fn() {
        // Closures belong to the owning fn: closure params never become
        // fns of their own.
        let src = "fn score(xs: &[f64]) -> f64 {\n    let outer = |a: f64| {\n        let inner = |b: f64| b * 2.0;\n        inner(a) + 1.0\n    };\n    xs.iter().map(|x| outer(*x)).sum()\n}\nfn tail() {}\n";
        let (m, _) = model(src);
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["score", "tail"]);
    }

    #[test]
    fn chained_generic_method_calls_do_not_derail() {
        // Method chains through turbofish generics (`collect::<Vec<_>>()`)
        // must not confuse the `<`/`>` skipper into eating the next item.
        let src = "pub fn gather(xs: &[u32]) -> Vec<f64> {\n    xs.iter().map(|x| *x as f64).filter(|v| *v > 0.0).collect::<Vec<f64>>()\n}\npub fn sentinel() {}\n";
        let (m, _) = model(src);
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["gather", "sentinel"]);
        assert!(m.fns.iter().all(|f| f.is_pub));
    }
}
