//! Item-level parser over the token stream: the syntax layer of the
//! flow-aware rules.
//!
//! This is deliberately *not* a Rust parser. It recovers exactly the
//! structure the workspace rules need — `use` paths, `struct` field
//! types, `impl` blocks, `fn` items with their body token ranges — and,
//! inside each body, an ordered stream of [`Event`]s: path calls, method
//! calls (with receiver hints and literal first arguments), panic macros
//! and direct index expressions. Everything else is skipped without
//! error: the parser is total, like the lexer underneath it.
//!
//! Types are approximated as single identifiers. [`extract_type`] strips
//! references, `dyn`/`mut` and common wrapper generics (`Arc<dyn Vfs>` →
//! `Vfs`), which is enough for the receiver-type heuristics in
//! [`symbols`](crate::symbols) to resolve the method calls that matter.

use crate::lexer::{Token, TokenKind};
use std::ops::Range;

/// Parsed view of one file, index-aligned with its token stream.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub uses: Vec<UsePath>,
    pub structs: Vec<StructDef>,
    pub fns: Vec<FnDecl>,
}

/// One imported name: `use a::b::c as d;` yields `name = "d"`,
/// `path = ["a", "b", "c"]`. Grouped imports are flattened.
#[derive(Debug)]
pub struct UsePath {
    pub name: String,
    pub path: Vec<String>,
}

/// A struct definition with approximated field types.
#[derive(Debug)]
pub struct StructDef {
    pub name: String,
    /// `(field, type)` pairs; the type is the [`extract_type`] identifier.
    pub fields: Vec<(String, String)>,
}

/// One `fn` item (free, impl method or trait default).
#[derive(Debug)]
pub struct FnDecl {
    pub name: String,
    pub line: u32,
    /// Self type of the enclosing `impl` block, if any.
    pub impl_type: Option<String>,
    /// Trait name for `impl Trait for Type` blocks.
    pub impl_trait: Option<String>,
    /// Token range of the body, including the outer braces.
    pub body: Range<usize>,
    /// `(name, type)` for typed parameters (receiver excluded).
    pub params: Vec<(String, String)>,
    /// `(name, type)` hints from `let` bindings inside the body.
    pub lets: Vec<(String, String)>,
    /// Ordered call/panic/index events in the body.
    pub events: Vec<Event>,
}

impl FnDecl {
    /// Best-known type of a local name: `let` hints first, then params.
    pub fn local_type(&self, var: &str) -> Option<&str> {
        self.lets
            .iter()
            .chain(self.params.iter())
            .find(|(n, _)| n == var)
            .map(|(_, t)| t.as_str())
    }
}

/// Receiver hint of a method call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// `self.m(…)`
    SelfRecv,
    /// `self.field.m(…)`
    SelfField(String),
    /// `x.m(…)`
    Var(String),
    /// Chained or computed receiver: `f().m(…)`, `a[i].m(…)`, `"s".m(…)`.
    Other,
}

/// What happened at one point in a function body.
#[derive(Debug)]
pub enum EventKind {
    /// Free or path call: `f(…)`, `a::b::f(…)`, `Type::assoc(…)`.
    Call { path: Vec<String> },
    /// Method call `recv.name(…)`.
    Method {
        name: String,
        recv: Recv,
        /// `()` — no arguments at all.
        args_empty: bool,
        /// First argument when it is a plain string literal.
        first_str: Option<String>,
        /// First argument when it is `&format!("…", …)` / `format!("…")`.
        fmt_str: Option<String>,
    },
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    PanicMacro { name: String },
    /// Direct index expression `expr[…]` (never attributes or types).
    Index,
}

/// One event with its absolute token index and source line.
#[derive(Debug)]
pub struct Event {
    pub tok: usize,
    pub line: u32,
    pub kind: EventKind,
}

/// Words that can never be a call/receiver/index base.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut",
    "pub", "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Wrapper-ish generics skipped when approximating a type to one name.
const TYPE_WRAPPERS: &[&str] = &[
    "Arc", "Rc", "Box", "Option", "Result", "Vec", "VecDeque", "HashMap", "BTreeMap", "HashSet",
    "BTreeSet", "Mutex", "RwLock", "RefCell", "Cell", "Cow", "String", "Pin", "Weak",
];

/// Reduce a type's token run to one meaningful identifier: the first
/// capitalized name that is neither a keyword nor a wrapper generic.
/// `Arc<dyn Vfs>` → `Vfs`; `&'a Telemetry` → `Telemetry`; `u32` → None.
pub fn extract_type(tokens: &[Token]) -> Option<String> {
    tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .find(|t| {
            t.text.starts_with(|c: char| c.is_ascii_uppercase())
                && !TYPE_WRAPPERS.contains(&t.text.as_str())
                && !is_keyword(&t.text)
        })
        .map(|t| t.text.clone())
}

/// Parse one file's token stream into items and events. Total: any input
/// yields a (possibly empty) [`ParsedFile`].
pub fn parse_file(tokens: &[Token]) -> ParsedFile {
    let mut out = ParsedFile::default();
    // Stack of `impl` contexts: (type, trait, body-end token index).
    let mut impls: Vec<(Option<String>, Option<String>, usize)> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        while impls.last().is_some_and(|&(_, _, end)| i > end) {
            impls.pop();
        }
        let t = &tokens[i];
        if t.is_ident("use") {
            i = parse_use(tokens, i + 1, &mut out.uses);
            continue;
        }
        if t.is_ident("struct") {
            i = parse_struct(tokens, i + 1, &mut out.structs);
            continue;
        }
        if t.is_ident("impl") {
            if let Some((ty, tr, open)) = parse_impl_header(tokens, i + 1) {
                let end = matching_brace(tokens, open);
                impls.push((ty, tr, end));
                i = open + 1; // scan inside the impl body
                continue;
            }
            i += 1;
            continue;
        }
        if t.is_ident("fn") && tokens.get(i + 1).map(|t| t.kind) == Some(TokenKind::Ident) {
            let (ctx_ty, ctx_tr) = match impls.last() {
                Some((ty, tr, _)) => (ty.clone(), tr.clone()),
                None => (None, None),
            };
            if let Some(decl) = parse_fn(tokens, i, ctx_ty, ctx_tr) {
                let body_start = decl.body.start;
                out.fns.push(decl);
                // Continue inside the body so nested items are still seen.
                i = body_start + 1;
                continue;
            }
            i += 2;
            continue;
        }
        i += 1;
    }
    out
}

/// Index of the `}` matching the `{` at `open` (or the last token).
fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Parse a `use` declaration starting just past the `use` keyword;
/// returns the index past its `;`.
fn parse_use(tokens: &[Token], start: usize, out: &mut Vec<UsePath>) -> usize {
    // Collect the raw tokens of the declaration.
    let mut end = start;
    while end < tokens.len() && !tokens[end].is_punct(';') {
        end += 1;
    }
    flatten_use(&tokens[start..end], &mut Vec::new(), out);
    end + 1
}

/// Recursively flatten `a::b::{c, d as e}` into individual [`UsePath`]s.
fn flatten_use(tokens: &[Token], prefix: &mut Vec<String>, out: &mut Vec<UsePath>) {
    let saved = prefix.len();
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident && t.text != "as" {
            prefix.push(t.text.clone());
            i += 1;
        } else if t.is_punct(':') {
            i += 1;
        } else if t.is_punct('{') {
            // Split the group on top-level commas and recurse.
            let close = matching_group(tokens, i, '{', '}');
            let mut item_start = i + 1;
            let mut depth = 0i32;
            for j in i + 1..close {
                if tokens[j].is_punct('{') {
                    depth += 1;
                } else if tokens[j].is_punct('}') {
                    depth -= 1;
                } else if tokens[j].is_punct(',') && depth == 0 {
                    flatten_use(&tokens[item_start..j], prefix, out);
                    item_start = j + 1;
                }
            }
            if item_start < close {
                flatten_use(&tokens[item_start..close], prefix, out);
            }
            prefix.truncate(saved);
            return;
        } else if t.is_ident("as") {
            // Alias: the imported name is the alias, the path is as built.
            if let Some(alias) = tokens.get(i + 1) {
                out.push(UsePath {
                    name: alias.text.clone(),
                    path: prefix.clone(),
                });
            }
            prefix.truncate(saved);
            return;
        } else if t.is_punct('*') {
            prefix.truncate(saved);
            return; // glob: nothing nameable to record
        } else {
            i += 1;
        }
    }
    if prefix.len() > saved {
        // `use a::b::{self, c}`: a bare `self` leaves the prefix as the name.
        let name = match prefix.last() {
            Some(last) if last == "self" => {
                prefix.pop();
                prefix.last().cloned()
            }
            Some(last) => Some(last.clone()),
            None => None,
        };
        if let Some(name) = name {
            out.push(UsePath {
                name,
                path: prefix.clone(),
            });
        }
    }
    prefix.truncate(saved);
}

/// Index of the closer matching `tokens[open]`.
fn matching_group(tokens: &[Token], open: usize, o: char, c: char) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Parse `struct Name { field: Type, … }`; returns the index to resume at.
fn parse_struct(tokens: &[Token], start: usize, out: &mut Vec<StructDef>) -> usize {
    let Some(name_tok) = tokens.get(start).filter(|t| t.kind == TokenKind::Ident) else {
        return start + 1;
    };
    let name = name_tok.text.clone();
    // Skip generics, find `{`, `(` (tuple) or `;` (unit).
    let mut j = start + 1;
    let mut angle = 0i32;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if angle <= 0 && (t.is_punct(';') || t.is_punct('(')) {
            out.push(StructDef {
                name,
                fields: Vec::new(),
            });
            return j + 1;
        } else if angle <= 0 && t.is_punct('{') {
            break;
        }
        j += 1;
    }
    if j >= tokens.len() {
        return tokens.len();
    }
    let close = matching_brace(tokens, j);
    let mut fields = Vec::new();
    // Fields sit at depth 1: `ident :` pairs, type runs to `,` or `}`.
    let mut k = j + 1;
    while k < close {
        if tokens[k].kind == TokenKind::Ident
            && !is_keyword(&tokens[k].text)
            && tokens.get(k + 1).is_some_and(|t| t.is_punct(':'))
        {
            let fname = tokens[k].text.clone();
            let mut end = k + 2;
            let mut depth = 0i32;
            while end < close {
                let t = &tokens[end];
                if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct('>') || t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if t.is_punct(',') && depth <= 0 {
                    break;
                }
                end += 1;
            }
            if let Some(ty) = extract_type(&tokens[k + 2..end]) {
                fields.push((fname, ty));
            }
            k = end + 1;
        } else {
            k += 1;
        }
    }
    out.push(StructDef { name, fields });
    close + 1
}

/// Parse an `impl` header starting just past `impl`; returns
/// `(self_type, trait_name, body_open_index)`.
fn parse_impl_header(
    tokens: &[Token],
    mut i: usize,
) -> Option<(Option<String>, Option<String>, usize)> {
    // Skip leading generics `impl<T: …>`.
    if tokens.get(i).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i32;
        while i < tokens.len() {
            if tokens[i].is_punct('<') {
                depth += 1;
            } else if tokens[i].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    let (first, mut i) = impl_path(tokens, i)?;
    if tokens.get(i).is_some_and(|t| t.is_ident("for")) {
        let (second, j) = impl_path(tokens, i + 1)?;
        i = j;
        let open = find_brace(tokens, i)?;
        return Some((Some(second), Some(first), open));
    }
    let open = find_brace(tokens, i)?;
    Some((Some(first), None, open))
}

/// Read a type path (`a::b::C<T>`), returning its last identifier and the
/// index just past it (generic arguments skipped).
fn impl_path(tokens: &[Token], mut i: usize) -> Option<(String, usize)> {
    let mut last = None;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident && !is_keyword(&t.text) {
            last = Some(t.text.clone());
            i += 1;
        } else if t.is_punct(':') || t.is_punct('&') || t.is_ident("dyn") || t.is_ident("mut") {
            i += 1;
        } else if t.is_punct('<') {
            let mut depth = 0i32;
            while i < tokens.len() {
                if tokens[i].is_punct('<') {
                    depth += 1;
                } else if tokens[i].is_punct('>') {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                i += 1;
            }
        } else {
            break;
        }
    }
    last.map(|l| (l, i))
}

/// First `{` from `i`, stopping at a top-level `;` (no body to find).
/// Brackets are tracked so the `;` of an array type (`-> [u8; 2]`) does
/// not end the search.
fn find_brace(tokens: &[Token], i: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(i) {
        if t.is_punct('[') || t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(']') || t.is_punct(')') {
            depth -= 1;
        } else if t.is_punct('{') {
            return Some(j);
        } else if t.is_punct(';') && depth <= 0 {
            return None;
        }
    }
    None
}

/// Parse `fn name(params) … { body }` starting at the `fn` token.
fn parse_fn(
    tokens: &[Token],
    at: usize,
    impl_type: Option<String>,
    impl_trait: Option<String>,
) -> Option<FnDecl> {
    let name_tok = &tokens[at + 1];
    let name = name_tok.text.clone();
    // Skip generics to the parameter list, keeping inline bounds
    // (`<S: DataSource>`): a parameter typed by a bounded generic
    // dispatches like `dyn` of its bound, so `s.method()` inside a generic
    // function fans out to every impl of the trait.
    let mut j = at + 2;
    let mut bounds: Vec<(String, String)> = Vec::new();
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i32;
        while j < tokens.len() {
            if tokens[j].is_punct('<') {
                depth += 1;
            } else if tokens[j].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            } else if depth == 1
                && tokens[j].kind == TokenKind::Ident
                && tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
            {
                let bound_end = tokens[j + 2..]
                    .iter()
                    .position(|t| t.is_punct(',') || t.is_punct('>') || t.is_punct('<'))
                    .map_or(tokens.len(), |n| j + 2 + n);
                if let Some(bound) = extract_type(&tokens[j + 2..bound_end]) {
                    bounds.push((tokens[j].text.clone(), bound));
                }
            }
            j += 1;
        }
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    let params_close = matching_group(tokens, j, '(', ')');
    if params_close <= j {
        return None; // parameter list never closes (truncated input)
    }
    let mut params = parse_params(&tokens[j + 1..params_close]);
    for (_, ty) in &mut params {
        if let Some((_, bound)) = bounds.iter().find(|(g, _)| g == ty) {
            *ty = bound.clone();
        }
    }
    // Find the body `{` (or bail at `;` — a bodiless trait signature).
    let open = find_brace(tokens, params_close + 1)?;
    let close = matching_brace(tokens, open);
    let mut decl = FnDecl {
        name,
        line: name_tok.line,
        impl_type,
        impl_trait,
        body: open..close + 1,
        params,
        lets: Vec::new(),
        events: Vec::new(),
    };
    scan_body(tokens, open, close, &mut decl);
    Some(decl)
}

/// Split a parameter list on top-level commas into `(name, type)` pairs.
fn parse_params(tokens: &[Token]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut depth = 0i32;
    let push = |range: &[Token], out: &mut Vec<(String, String)>| {
        // Strip leading `mut`/`&`/lifetimes; expect `ident : type…`.
        let mut k = 0usize;
        while k < range.len()
            && (range[k].is_ident("mut")
                || range[k].is_punct('&')
                || range[k].kind == TokenKind::Lifetime)
        {
            k += 1;
        }
        if k + 1 < range.len()
            && range[k].kind == TokenKind::Ident
            && !range[k].is_ident("self")
            && !is_keyword(&range[k].text)
            && range[k + 1].is_punct(':')
        {
            if let Some(ty) = extract_type(&range[k + 2..]) {
                out.push((range[k].text.clone(), ty));
            }
        }
    };
    for (j, t) in tokens.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
            depth -= 1;
        } else if t.is_punct(',') && depth <= 0 {
            push(&tokens[start..j], &mut out);
            start = j + 1;
        }
    }
    if start < tokens.len() {
        push(&tokens[start..], &mut out);
    }
    out
}

/// Names whose `name!(…)` invocation is a panic site.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Walk a body once, collecting `let` type hints and [`Event`]s.
fn scan_body(tokens: &[Token], open: usize, close: usize, decl: &mut FnDecl) {
    let mut j = open + 1;
    while j < close {
        let t = &tokens[j];
        if t.is_ident("let") {
            scan_let(tokens, j, close, decl);
            j += 1;
            continue;
        }
        if t.kind == TokenKind::Ident && !is_keyword(&t.text) {
            let next = tokens.get(j + 1);
            if next.is_some_and(|n| n.is_punct('!')) {
                if PANIC_MACROS.contains(&t.text.as_str()) {
                    decl.events.push(Event {
                        tok: j,
                        line: t.line,
                        kind: EventKind::PanicMacro {
                            name: t.text.clone(),
                        },
                    });
                }
                j += 2;
                continue;
            }
            if next.is_some_and(|n| n.is_punct('(')) {
                let kind = if j > 0 && tokens[j - 1].is_punct('.') {
                    method_event(tokens, j)
                } else {
                    EventKind::Call {
                        path: call_path(tokens, j),
                    }
                };
                decl.events.push(Event {
                    tok: j,
                    line: t.line,
                    kind,
                });
                j += 1;
                continue;
            }
        }
        if t.is_punct('[') && j > 0 {
            let prev = &tokens[j - 1];
            let indexes = match prev.kind {
                TokenKind::Ident => !is_keyword(&prev.text),
                TokenKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
                _ => false,
            };
            if indexes {
                decl.events.push(Event {
                    tok: j,
                    line: t.line,
                    kind: EventKind::Index,
                });
            }
        }
        j += 1;
    }
}

/// Record a `let` binding's type hint: explicit annotation first, else the
/// first meaningful type name in the initializer. Initializers that call
/// `open_append` bind Vfs file handles and are tagged `VfsFile`.
fn scan_let(tokens: &[Token], at: usize, close: usize, decl: &mut FnDecl) {
    let mut k = at + 1;
    if tokens.get(k).is_some_and(|t| t.is_ident("mut")) {
        k += 1;
    }
    let Some(var) = tokens.get(k).filter(|t| t.kind == TokenKind::Ident) else {
        return;
    };
    if is_keyword(&var.text) {
        return;
    }
    let var_name = var.text.clone();
    // Statement end: `;` at the let's own brace depth.
    let mut end = k + 1;
    let mut depth = 0i32;
    while end < close {
        let t = &tokens[end];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct(';') && depth <= 0 {
            break;
        }
        end += 1;
    }
    let stmt = &tokens[k + 1..end.min(close)];
    if stmt.iter().any(|t| t.is_ident("open_append")) {
        decl.lets.push((var_name, "VfsFile".to_string()));
        return;
    }
    // `let x: Type = …` — annotation runs to the `=`.
    if tokens.get(k + 1).is_some_and(|t| t.is_punct(':')) {
        let eq = stmt
            .iter()
            .position(|t| t.is_punct('='))
            .unwrap_or(stmt.len());
        if let Some(ty) = extract_type(&stmt[..eq]) {
            decl.lets.push((var_name, ty));
        }
        return;
    }
    if let Some(ty) = extract_type(stmt) {
        decl.lets.push((var_name, ty));
    }
}

/// Build the `a::b::f` path of the call whose name is at `at`, walking
/// `ident ::` pairs backwards.
fn call_path(tokens: &[Token], at: usize) -> Vec<String> {
    let mut segs = vec![tokens[at].text.clone()];
    let mut k = at;
    while k >= 3
        && tokens[k - 1].is_punct(':')
        && tokens[k - 2].is_punct(':')
        && tokens[k - 3].kind == TokenKind::Ident
        && !is_keyword(&tokens[k - 3].text)
    {
        segs.push(tokens[k - 3].text.clone());
        k -= 3;
    }
    segs.reverse();
    segs
}

/// Classify the receiver and capture literal arguments of the method call
/// whose name is at `at` (`tokens[at - 1]` is the `.`).
fn method_event(tokens: &[Token], at: usize) -> EventKind {
    let recv = if at >= 2 {
        match &tokens[at - 2] {
            t if t.is_ident("self") => Recv::SelfRecv,
            t if t.kind == TokenKind::Ident && !is_keyword(&t.text) => {
                if at >= 4 && tokens[at - 3].is_punct('.') && tokens[at - 4].is_ident("self") {
                    Recv::SelfField(t.text.clone())
                } else if at >= 3 && tokens[at - 3].is_punct('.') {
                    Recv::Other // deeper chains: x.a.b.m()
                } else {
                    Recv::Var(t.text.clone())
                }
            }
            _ => Recv::Other,
        }
    } else {
        Recv::Other
    };
    let mut args_empty = false;
    let mut first_str = None;
    let mut fmt_str = None;
    // tokens[at + 1] is `(`.
    match tokens.get(at + 2) {
        Some(t) if t.is_punct(')') => args_empty = true,
        Some(t) if t.kind == TokenKind::Str => first_str = str_content(&t.text),
        Some(t) => {
            // `&format!("…")` or `format!("…")`.
            let mut k = at + 2;
            if t.is_punct('&') {
                k += 1;
            }
            if tokens.get(k).is_some_and(|t| t.is_ident("format"))
                && tokens.get(k + 1).is_some_and(|t| t.is_punct('!'))
                && tokens.get(k + 2).is_some_and(|t| t.is_punct('('))
            {
                if let Some(s) = tokens.get(k + 3).filter(|t| t.kind == TokenKind::Str) {
                    fmt_str = str_content(&s.text);
                }
            }
        }
        None => {}
    }
    EventKind::Method {
        name: tokens[at].text.clone(),
        recv,
        args_empty,
        first_str,
        fmt_str,
    }
}

/// Strip the delimiters off a string-literal token's raw text
/// (`"x"`, `b"x"`, `r#"x"#` → `x`).
pub fn str_content(raw: &str) -> Option<String> {
    let mut s = raw;
    s = s.strip_prefix('b').unwrap_or(s);
    if let Some(rest) = s.strip_prefix('r') {
        let hashes = rest.chars().take_while(|&c| c == '#').count();
        let rest = &rest[hashes..];
        let body = rest.strip_prefix('"')?;
        let body = body.strip_suffix(&("\"".to_string() + &"#".repeat(hashes)))?;
        return Some(body.to_string());
    }
    let body = s.strip_prefix('"')?.strip_suffix('"')?;
    Some(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parsed(src: &str) -> ParsedFile {
        parse_file(&lexer::lex(src).tokens)
    }

    #[test]
    fn fn_items_with_impl_context() {
        let p = parsed(
            "impl Service {\n    pub fn handle(&self, req: &Request) -> Response {\n        router::respond(self, req)\n    }\n}\nfn free() { helper(); }\n",
        );
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "handle");
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Service"));
        assert_eq!(p.fns[0].params, vec![("req".into(), "Request".into())]);
        assert_eq!(p.fns[1].name, "free");
        assert!(p.fns[1].impl_type.is_none());
    }

    #[test]
    fn trait_impls_record_both_names() {
        let p = parsed("impl Vfs for MemFs {\n    fn read(&self) {}\n}\n");
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("MemFs"));
        assert_eq!(p.fns[0].impl_trait.as_deref(), Some("Vfs"));
    }

    #[test]
    fn call_paths_and_method_receivers() {
        let p = parsed(
            "fn f(&self) {\n    a::b::go();\n    self.step();\n    self.vfs.rename(x, y);\n    conn.send(msg);\n}\n",
        );
        let ev = &p.fns[0].events;
        assert!(matches!(&ev[0].kind, EventKind::Call { path } if path == &["a", "b", "go"]));
        assert!(
            matches!(&ev[1].kind, EventKind::Method { name, recv, .. } if name == "step" && *recv == Recv::SelfRecv)
        );
        assert!(
            matches!(&ev[2].kind, EventKind::Method { name, recv, .. } if name == "rename" && *recv == Recv::SelfField("vfs".into()))
        );
        assert!(
            matches!(&ev[3].kind, EventKind::Method { name, recv, .. } if name == "send" && *recv == Recv::Var("conn".into()))
        );
    }

    #[test]
    fn panic_macros_and_indexing_are_events() {
        let p = parsed("fn f(v: &[u32]) {\n    let x = v[0];\n    panic!(\"no\");\n}\n");
        let kinds: Vec<&EventKind> = p.fns[0].events.iter().map(|e| &e.kind).collect();
        assert!(kinds.iter().any(|k| matches!(k, EventKind::Index)));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, EventKind::PanicMacro { name } if name == "panic")));
    }

    #[test]
    fn types_and_attributes_are_not_index_events() {
        let p = parsed(
            "#[derive(Debug)]\nfn f(x: [u8; 4], s: &[u8]) -> [u8; 2] {\n    let a = [1, 2];\n    vec![3];\n}\n",
        );
        assert!(p.fns[0]
            .events
            .iter()
            .all(|e| !matches!(e.kind, EventKind::Index)));
    }

    #[test]
    fn string_and_format_first_args_are_captured() {
        let p = parsed(
            "fn f(&self) {\n    t.counter(\"a.b\");\n    t.counter(&format!(\"a.{x}.c\"));\n}\n",
        );
        let ev = &p.fns[0].events;
        assert!(
            matches!(&ev[0].kind, EventKind::Method { first_str, .. } if first_str.as_deref() == Some("a.b"))
        );
        assert!(
            matches!(&ev[1].kind, EventKind::Method { fmt_str, .. } if fmt_str.as_deref() == Some("a.{x}.c"))
        );
    }

    #[test]
    fn bounded_generic_params_take_the_bound_as_their_type() {
        let p = parsed("fn stats<S: DataSource, T>(s: &S, t: T, ctx: &mut QueryCtx) { s.m(); }\n");
        let f = &p.fns[0];
        assert_eq!(f.local_type("s"), Some("DataSource"));
        // Unbounded generics stay opaque.
        assert_eq!(f.local_type("t"), Some("T"));
        assert_eq!(f.local_type("ctx"), Some("QueryCtx"));
    }

    #[test]
    fn let_bindings_capture_type_hints() {
        let p = parsed(
            "fn f(&self) {\n    let a: Artifacts = x;\n    let b = Store::open(p);\n    let h = self.vfs.open_append(p);\n}\n",
        );
        let f = &p.fns[0];
        assert_eq!(f.local_type("a"), Some("Artifacts"));
        assert_eq!(f.local_type("b"), Some("Store"));
        assert_eq!(f.local_type("h"), Some("VfsFile"));
    }

    #[test]
    fn use_paths_flatten_groups_and_aliases() {
        let p = parsed("use a::b::{c, d as e};\nuse x::Y;\n");
        let names: Vec<(&str, Vec<&str>)> = p
            .uses
            .iter()
            .map(|u| (u.name.as_str(), u.path.iter().map(|s| s.as_str()).collect()))
            .collect();
        assert!(names.contains(&("c", vec!["a", "b", "c"])));
        assert!(names.contains(&("e", vec!["a", "b", "d"])));
        assert!(names.contains(&("Y", vec!["x", "Y"])));
    }

    #[test]
    fn struct_fields_get_extracted_types() {
        let p = parsed("struct Server {\n    service: Arc<Service>,\n    vfs: Arc<dyn Vfs>,\n    n: usize,\n}\n");
        assert_eq!(p.structs.len(), 1);
        assert_eq!(
            p.structs[0].fields,
            vec![
                ("service".to_string(), "Service".to_string()),
                ("vfs".to_string(), "Vfs".to_string()),
            ]
        );
    }

    #[test]
    fn parser_is_total_on_garbage() {
        for src in ["fn", "impl {{{", "use ::::;", "struct (", "fn f(", "let"] {
            let _ = parsed(src);
        }
    }
}
