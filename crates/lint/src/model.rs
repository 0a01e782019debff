//! Phase-1 workspace symbol model for the cross-file passes.
//!
//! The per-line rules in [`crate::rules`] see one line at a time; the
//! invariants that PRs 7–9 introduced — paired acquire/release
//! protocols, RAII guards, and a counter registry mirrored in the
//! observability docs — span files. This module is the first phase of
//! the two-phase engine: while the workspace walker lexes each file
//! anyway, [`Model::add_source`] extracts a small symbol table from
//! the lexed lines, and [`Model::add_docs`] parses the counter tables
//! out of `docs/observability.md`. The [`crate::passes`] modules then
//! run over the finished model without touching the filesystem again.
//!
//! What the model records:
//!
//! * **Atomic fields** — struct fields and statics whose declared type
//!   is (or wraps) a `std::sync::atomic` type, with whether the
//!   declaration carries a taxonomy tag (`counter-only` /
//!   `synchronizing` / `via-the-spine`) in a nearby comment.
//! * **Atomic accesses** — every `.load(…)` / `.store(…)` / RMW call
//!   whose receiver resolves to a named field, with the
//!   `Ordering::X` names in its argument list (multi-line calls
//!   included) and whether the site has an `ORDERING:` justification.
//! * **Guard types** — `struct`s named `*Guard` / `*Lease` / `*Ticket`
//!   / `*Handle`, the set of types with an `impl Drop`, and functions
//!   whose return type mentions a guard type (the acquiring APIs).
//! * **Counter registry** — string literals registered on
//!   `CounterSet` plus the canonical constants in ezp-perf's
//!   `mod names`, the `RuntimeEvent` variants declared in ezp-core,
//!   the variants ezp-perf's probe actually matches, and the counter
//!   names documented in the observability docs table.
//!
//! Everything is resolved per *crate* (manifest `package.name`), so a
//! fixture crate that happens to reuse a field name cannot collide
//! with the real workspace. Integration tests and examples
//! (`tests/`, `examples/` path components) and
//! `#[cfg(test)]` regions are excluded from the model: they exercise
//! the invariants rather than define them.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{self, Line};

/// How many code lines above a declaration a taxonomy or `ORDERING:`
/// comment may sit and still justify it — mirrors
/// [`crate::rules::JUSTIFICATION_WINDOW`] so the per-line rule and the
/// cross-file pass agree on what counts as "nearby".
const WINDOW: usize = 8;

/// How many lines a single atomic call may span before the model gives
/// up attributing its orderings (`compare_exchange` calls wrapped by
/// rustfmt are the common case; anything longer is vanishingly rare).
const CALL_SPAN: usize = 6;

/// The `std::sync::atomic` type names a field declaration may use
/// (directly or inside a wrapper such as `CachePadded<AtomicUsize>`).
const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool", "AtomicI8", "AtomicI16", "AtomicI32", "AtomicI64", "AtomicIsize", "AtomicPtr",
    "AtomicU8", "AtomicU16", "AtomicU32", "AtomicU64", "AtomicUsize",
];

/// Taxonomy tags (from PR 5's ordering taxonomy in
/// `docs/static-analysis.md`) that classify a Relaxed-only field.
pub const TAXONOMY_TAGS: &[&str] = &["counter-only", "synchronizing", "via-the-spine"];

/// Suffixes that mark a type as an RAII guard by naming convention.
const GUARD_SUFFIXES: &[&str] = &["Guard", "Lease", "Ticket", "Handle"];

/// Atomic accessor methods and the access kind each one implies.
const ATOMIC_METHODS: &[(&str, AccessKind)] = &[
    ("load", AccessKind::Load),
    ("store", AccessKind::Store),
    ("swap", AccessKind::Rmw),
    ("fetch_add", AccessKind::Rmw),
    ("fetch_sub", AccessKind::Rmw),
    ("fetch_and", AccessKind::Rmw),
    ("fetch_or", AccessKind::Rmw),
    ("fetch_xor", AccessKind::Rmw),
    ("fetch_nand", AccessKind::Rmw),
    ("fetch_max", AccessKind::Rmw),
    ("fetch_min", AccessKind::Rmw),
    ("fetch_update", AccessKind::Rmw),
    ("compare_exchange", AccessKind::Rmw),
    ("compare_exchange_weak", AccessKind::Rmw),
];

/// A position in the workspace: workspace-relative path + 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
}

/// What an atomic method call does to its cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// `load`
    Load,
    /// `store`
    Store,
    /// `swap` / `fetch_*` / `compare_exchange*` — reads and writes.
    Rmw,
}

/// A struct field or static declared with an atomic type.
#[derive(Debug, Clone)]
pub struct AtomicField {
    /// Declaring crate (manifest `package.name`).
    pub krate: String,
    /// Field or static name.
    pub name: String,
    /// Declaration site.
    pub site: Site,
    /// A taxonomy tag comment sits on or near the declaration.
    pub taxonomy: bool,
}

/// One attributed atomic access site.
#[derive(Debug, Clone)]
pub struct AtomicAccess {
    /// Crate the access occurs in.
    pub krate: String,
    /// Receiver field name the access was attributed to.
    pub field: String,
    /// Access site.
    pub site: Site,
    /// Load / store / read-modify-write.
    pub kind: AccessKind,
    /// `Ordering::X` names in the call's argument list, in order.
    pub orderings: Vec<String>,
    /// The site carries an `ORDERING:` justification comment.
    pub justified: bool,
}

/// A type whose name matches a guard suffix.
#[derive(Debug, Clone)]
pub struct GuardType {
    /// Declaring crate.
    pub krate: String,
    /// Type name, e.g. `PoolLease`.
    pub name: String,
    /// `struct` declaration site.
    pub site: Site,
}

/// A function whose return type mentions a guard type — an acquiring
/// API whose result must be bound, not discarded.
#[derive(Debug, Clone)]
pub struct GuardApi {
    /// Declaring crate.
    pub krate: String,
    /// Function name, e.g. `acquire_pool`.
    pub name: String,
    /// Guard type the return type mentions.
    pub guard: String,
    /// `fn` declaration site.
    pub site: Site,
}

/// A counter name registered on a `CounterSet` (or declared as a
/// canonical constant in ezp-perf's `mod names`).
#[derive(Debug, Clone)]
pub struct CounterDecl {
    /// Counter name, e.g. `steals`.
    pub name: String,
    /// Registration / declaration site.
    pub site: Site,
}

/// A counter name documented in the observability docs table.
#[derive(Debug, Clone)]
pub struct DocCounter {
    /// Counter name as documented.
    pub name: String,
    /// Table-row site in the docs file.
    pub site: Site,
}

/// A `RuntimeEvent` enum variant declaration.
#[derive(Debug, Clone)]
pub struct EventVariant {
    /// Variant name, e.g. `StreamStall`.
    pub name: String,
    /// Declaration site inside the enum.
    pub site: Site,
}

/// Per-file record kept so passes can resolve suppressions at arbitrary
/// sites without re-reading the file.
struct FileRecord {
    krate: String,
    lines: Vec<Line>,
}

/// The finished phase-1 model; built by the workspace walker, consumed
/// by [`crate::passes`].
#[derive(Default)]
pub struct Model {
    files: BTreeMap<String, FileRecord>,
    /// Atomic field declarations, in walk order.
    pub atomic_fields: Vec<AtomicField>,
    /// Attributed atomic accesses, in walk order.
    pub atomic_accesses: Vec<AtomicAccess>,
    /// Guard-suffixed type declarations.
    pub guard_types: Vec<GuardType>,
    /// Type names with an `impl … Drop for X` anywhere in the model.
    pub drop_impls: BTreeSet<String>,
    /// Functions returning a guard type (resolved by [`Model::finish`]).
    pub guard_apis: Vec<GuardApi>,
    /// Counter names registered in code.
    pub counter_decls: Vec<CounterDecl>,
    /// Counter names documented in the observability table.
    pub doc_counters: Vec<DocCounter>,
    /// `RuntimeEvent` variant declarations.
    pub event_variants: Vec<EventVariant>,
    /// Variants matched as `RuntimeEvent::X` inside ezp-perf.
    pub events_handled: BTreeSet<String>,
    /// Path of the observability docs file, if the walk found one.
    pub docs_path: Option<String>,
    /// Raw `(krate, fn-name, return-type)` rows awaiting resolution.
    fn_returns: Vec<(String, String, String, Site)>,
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model")
            .field("files", &self.files.len())
            .field("atomic_fields", &self.atomic_fields.len())
            .field("atomic_accesses", &self.atomic_accesses.len())
            .field("guard_types", &self.guard_types.len())
            .field("counter_decls", &self.counter_decls.len())
            .finish_non_exhaustive()
    }
}

/// Does this workspace-relative path hold *production* code? Test and
/// example trees exercise invariants rather than define them, so the
/// model skips them wholesale.
fn is_prod_path(rel: &str) -> bool {
    !rel.split('/').any(|c| c == "tests" || c == "examples")
}

/// Does the declared type text mention a real `std::sync::atomic` type
/// as a standalone word (directly or inside a generic wrapper)?
fn mentions_atomic_type(ty: &str) -> bool {
    ATOMIC_TYPES.iter().any(|t| lexer::has_word(ty, t))
}

/// String literals come out of the lexer with their escapes intact;
/// `"idle_ns{cause=\"x\"}"` in code must compare equal to the docs-side
/// `idle_ns{cause="x"}`.
fn unescape_lit(s: &str) -> String {
    s.replace("\\\"", "\"")
}

/// Counter-name shape: `snake_case`, optionally with a `{key="…"}`
/// label suffix (the per-cause idle counters). Filters arbitrary string
/// literals down to plausible counter names.
fn is_counter_name(s: &str) -> bool {
    let (base, label) = match s.find('{') {
        Some(p) => (&s[..p], &s[p..]),
        None => (s, ""),
    };
    let base_ok = !base.is_empty()
        && base.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        && base.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    let label_ok = label.is_empty() || (label.starts_with('{') && label.ends_with("\"}"));
    base_ok && label_ok
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests one lexed production source file. `rel` is the
    /// workspace-relative path, `krate` the owning manifest's package
    /// name. Non-production paths are ignored (the caller does not need
    /// to filter).
    pub fn add_source(&mut self, rel: &str, krate: &str, lines: &[Line]) {
        if !is_prod_path(rel) {
            return;
        }
        self.scan_decls(rel, krate, lines);
        self.scan_accesses(rel, krate, lines);
        self.scan_counters(rel, krate, lines);
        self.scan_events(rel, krate, lines);
        self.files.insert(
            rel.to_string(),
            FileRecord { krate: krate.to_string(), lines: lines.to_vec() },
        );
    }

    /// Parses counter names out of the observability docs file. Only
    /// rows of tables whose header's first cell is exactly `counter`
    /// participate — auxiliary tables (e.g. the per-rank MPI counters,
    /// which are kernel-reported rather than registry-registered) use a
    /// different header and are deliberately invisible to the drift
    /// pass.
    pub fn add_docs(&mut self, rel: &str, text: &str) {
        self.docs_path = Some(rel.to_string());
        let mut in_counter_table = false;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if !line.starts_with('|') {
                in_counter_table = false;
                continue;
            }
            let cells: Vec<&str> = line.trim_matches('|').split('|').collect();
            let first = cells.first().map(|c| c.trim().trim_matches('`')).unwrap_or("");
            if !in_counter_table {
                if first.eq_ignore_ascii_case("counter") {
                    in_counter_table = true;
                }
                continue;
            }
            if first.chars().all(|c| c == '-' || c == ':' || c.is_whitespace()) {
                continue; // separator row
            }
            // Counter names sit in backticks in the first cell; a row
            // may document a family (`idle_ns{cause="…"}`).
            let cell = cells.first().copied().unwrap_or("");
            let mut rest = cell;
            while let Some(open) = rest.find('`') {
                let tail = &rest[open + 1..];
                let Some(close) = tail.find('`') else { break };
                let name = &tail[..close];
                if is_counter_name(name) {
                    self.doc_counters.push(DocCounter {
                        name: name.to_string(),
                        site: Site { path: rel.to_string(), line: idx + 1 },
                    });
                }
                rest = &tail[close + 1..];
            }
        }
    }

    /// Resolves deferred references (guard-returning APIs) once every
    /// file has been ingested. Must be called before the passes run.
    pub fn finish(&mut self) {
        let fn_returns = std::mem::take(&mut self.fn_returns);
        for (krate, name, ret, site) in fn_returns {
            // A function returns "a guard" when its return type mentions
            // a guard type declared in the same crate; cross-crate
            // re-exports are rare enough to ignore (quiet direction).
            let guard = self
                .guard_types
                .iter()
                .find(|g| g.krate == krate && lexer::has_word(&ret, &g.name));
            if let Some(g) = guard {
                let guard = g.name.clone();
                self.guard_apis.push(GuardApi { krate, name, guard, site });
            }
        }
    }

    /// Is `rule` suppressed at `site` (marker on the site's line or the
    /// line above, matching the per-line engine's convention)?
    pub fn is_allowed(&self, site: &Site, rule: &str) -> bool {
        let Some(rec) = self.files.get(&site.path) else {
            return false;
        };
        let idx = site.line - 1;
        let own = rec.lines.get(idx).is_some_and(|l| l.allows.iter().any(|a| a == rule));
        let above = idx > 0
            && rec.lines.get(idx - 1).is_some_and(|l| l.allows.iter().any(|a| a == rule));
        own || above
    }

    /// Iterates `(path, krate, lines)` over every ingested file — used
    /// by passes that scan call sites (guard-leak).
    pub fn files(&self) -> impl Iterator<Item = (&str, &str, &[Line])> {
        self.files
            .iter()
            .map(|(p, r)| (p.as_str(), r.krate.as_str(), r.lines.as_slice()))
    }

    // ---- phase-1 extraction --------------------------------------------

    /// Atomic field declarations, guard types, `Drop` impls and
    /// function return types.
    fn scan_decls(&mut self, rel: &str, krate: &str, lines: &[Line]) {
        for (i, line) in lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let code = line.code.trim();
            let site = Site { path: rel.to_string(), line: i + 1 };

            // `impl … Drop for X`
            if lexer::has_word(code, "impl") && lexer::has_word(code, "Drop") {
                if let Some(p) = lexer::find_word(code, "for", 0) {
                    let after: String = code.chars().skip(p + 3).collect();
                    let name: String = after
                        .trim_start()
                        .chars()
                        .take_while(|c| lexer::is_ident_char(*c))
                        .collect();
                    if !name.is_empty() {
                        self.drop_impls.insert(name);
                    }
                }
                continue;
            }

            // `struct XGuard …`
            if let Some(p) = lexer::find_word(code, "struct", 0) {
                let after: String = code.chars().skip(p + "struct".len()).collect();
                let name: String = after
                    .trim_start()
                    .chars()
                    .take_while(|c| lexer::is_ident_char(*c))
                    .collect();
                if GUARD_SUFFIXES.iter().any(|s| name.ends_with(s) && name.len() > s.len()) {
                    self.guard_types.push(GuardType {
                        krate: krate.to_string(),
                        name,
                        site: site.clone(),
                    });
                }
            }

            // `fn name(…) -> Ret {` — single-line signatures only; the
            // docs call out multi-line signatures as a known blind spot.
            if let Some(p) = lexer::find_word(code, "fn", 0) {
                let after: String = code.chars().skip(p + 2).collect();
                let name: String = after
                    .trim_start()
                    .chars()
                    .take_while(|c| lexer::is_ident_char(*c))
                    .collect();
                if !name.is_empty() {
                    if let Some(arrow) = after.find("->") {
                        let ret = after[arrow + 2..].trim();
                        self.fn_returns.push((
                            krate.to_string(),
                            name,
                            ret.to_string(),
                            site.clone(),
                        ));
                    }
                }
                continue; // a fn signature line is not a field decl
            }

            // Atomic field / static declarations. Shapes accepted:
            //   `pub name: AtomicUsize,`   `name: CachePadded<AtomicU64>,`
            //   `static NAME: AtomicU32 = …;`
            // Excluded: `let` locals (unattributable scope), reference
            // parameters (`cursor: &AtomicUsize` borrows someone else's
            // field), and anything on a `fn` line (handled above).
            if lexer::has_word(code, "let") {
                continue;
            }
            if let Some(colon) = code.find(':') {
                // skip `::` paths masquerading as a decl colon
                if code.as_bytes().get(colon + 1) == Some(&b':') {
                    continue;
                }
                let (lhs, rhs) = code.split_at(colon);
                let rhs = &rhs[1..];
                let ty = match rhs.find('=') {
                    Some(eq) => &rhs[..eq],
                    None => rhs,
                };
                let ty = ty.trim().trim_end_matches(',').trim();
                if !mentions_atomic_type(ty) || ty.contains('&') {
                    continue;
                }
                // A struct-literal initializer (`head:
                // CachePadded(AtomicUsize::new(0)),`) has the same
                // `name: …Atomic…` shape as a declaration; type
                // expressions never contain parens or a path call, so
                // those mark the line as an initializer, not a decl.
                if ty.contains('(') || ty.contains('.') {
                    continue;
                }
                let name: String = lhs
                    .chars()
                    .rev()
                    .take_while(|c| lexer::is_ident_char(*c))
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                    .collect();
                if name.is_empty() {
                    continue;
                }
                let taxonomy = TAXONOMY_TAGS
                    .iter()
                    .any(|t| lexer::justified(lines, i, t, WINDOW));
                self.atomic_fields.push(AtomicField {
                    krate: krate.to_string(),
                    name,
                    site,
                    taxonomy,
                });
            }
        }
    }

    /// Attributed atomic accesses with their orderings.
    fn scan_accesses(&mut self, rel: &str, krate: &str, lines: &[Line]) {
        for (i, line) in lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let code = &line.code;
            for (method, kind) in ATOMIC_METHODS {
                let mut from = 0;
                while let Some(p) = lexer::find_word(code, method, from) {
                    from = p + method.len();
                    // must be a method call: `.method(` (whitespace-free
                    // on the method side; rustfmt never splits there)
                    let chars: Vec<char> = code.chars().collect();
                    if p == 0 || chars[p - 1] != '.' {
                        continue;
                    }
                    if chars.get(p + method.len()) != Some(&'(') {
                        continue;
                    }
                    // receiver: walk left from the dot; if the dot opens
                    // the line, look back one line for a wrapped chain
                    let field = lexer::receiver_field(code, p - 1).or_else(|| {
                        let lead: String = chars[..p - 1].iter().collect();
                        if lead.trim().is_empty() && i > 0 {
                            let prev = &lines[i - 1].code;
                            lexer::receiver_field(prev, prev.chars().count())
                        } else {
                            None
                        }
                    });
                    let Some(field) = field else { continue };
                    let orderings =
                        lexer::call_orderings(lines, i, p + method.len(), CALL_SPAN);
                    if orderings.is_empty() {
                        continue; // not an atomic call (or unattributable)
                    }
                    let justified = lexer::justified(lines, i, "ORDERING:", WINDOW);
                    self.atomic_accesses.push(AtomicAccess {
                        krate: krate.to_string(),
                        field,
                        site: Site { path: rel.to_string(), line: i + 1 },
                        kind: *kind,
                        orderings,
                        justified,
                    });
                }
            }
        }
    }

    /// Counter registrations: `.register("name")` calls in files that
    /// mention `CounterSet` (the kernel `Registry` has a `register`
    /// method too — the word gate keeps kernel names out of the
    /// counter namespace), plus the canonical name constants inside
    /// ezp-perf's `mod names`.
    fn scan_counters(&mut self, rel: &str, krate: &str, lines: &[Line]) {
        let uses_counter_set = lines.iter().any(|l| lexer::has_word(&l.code, "CounterSet"));
        // `.register("…")` sites
        for (i, line) in lines.iter().enumerate() {
            if !uses_counter_set {
                break;
            }
            if line.in_test {
                continue;
            }
            let mut from = 0;
            while let Some(p) = lexer::find_word(&line.code, "register", from) {
                from = p + "register".len();
                let chars: Vec<char> = line.code.chars().collect();
                if p == 0 || chars[p - 1] != '.' {
                    continue;
                }
                for (pos, s) in &line.strings {
                    let s = unescape_lit(s);
                    if *pos > p && is_counter_name(&s) {
                        self.counter_decls.push(CounterDecl {
                            name: s,
                            site: Site { path: rel.to_string(), line: i + 1 },
                        });
                        break; // first literal after the call is the name
                    }
                }
            }
        }
        // ezp-perf's `pub mod names { … }` region: every counter-shaped
        // string literal is a canonical name, registered at probe
        // construction.
        if krate != "ezp-perf" {
            return;
        }
        let mut depth = 0i32;
        let mut inside = false;
        for (i, line) in lines.iter().enumerate() {
            if !inside {
                if lexer::has_word(&line.code, "mod") && lexer::has_word(&line.code, "names") {
                    inside = true;
                    depth = 0;
                } else {
                    continue;
                }
            }
            for c in line.code.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if !line.in_test {
                for (_, s) in &line.strings {
                    let s = unescape_lit(s);
                    if is_counter_name(&s) {
                        self.counter_decls.push(CounterDecl {
                            name: s,
                            site: Site { path: rel.to_string(), line: i + 1 },
                        });
                    }
                }
            }
            if inside && depth <= 0 && line.code.contains('}') {
                break;
            }
        }
    }

    /// `RuntimeEvent` variant declarations (any crate declaring the
    /// enum) and the variants ezp-perf matches on.
    fn scan_events(&mut self, rel: &str, krate: &str, lines: &[Line]) {
        // declarations
        let mut i = 0;
        while i < lines.len() {
            let code = &lines[i].code;
            if !lines[i].in_test
                && lexer::has_word(code, "enum")
                && lexer::has_word(code, "RuntimeEvent")
            {
                i = self.scan_enum_body(rel, lines, i);
            } else {
                i += 1;
            }
        }
        // handled variants: `RuntimeEvent::X` tokens inside ezp-perf
        if krate != "ezp-perf" {
            return;
        }
        for line in lines {
            if line.in_test {
                continue;
            }
            let mut from = 0;
            while let Some(p) = lexer::find_word(&line.code, "RuntimeEvent", from) {
                from = p + "RuntimeEvent".len();
                let rest: String = line.code.chars().skip(from).collect();
                if let Some(tail) = rest.strip_prefix("::") {
                    let name: String =
                        tail.chars().take_while(|c| lexer::is_ident_char(*c)).collect();
                    if !name.is_empty() {
                        self.events_handled.insert(name);
                    }
                }
            }
        }
    }

    /// Parses the body of a `RuntimeEvent` enum starting at `start`;
    /// returns the line index after the enum. A variant is a depth-1
    /// line opening with a capitalized identifier whose following
    /// delimiter is `,` / `{` / `(` / end-of-line — field lines inside
    /// struct variants sit at depth 2 and are skipped naturally.
    fn scan_enum_body(&mut self, rel: &str, lines: &[Line], start: usize) -> usize {
        let mut depth = 0i32;
        let mut opened = false;
        for (i, line) in lines.iter().enumerate().skip(start) {
            let code = line.code.trim();
            if opened && depth == 1 {
                let name: String =
                    code.chars().take_while(|c| lexer::is_ident_char(*c)).collect();
                let rest: String = code.chars().skip(name.chars().count()).collect();
                let delim = rest.trim_start().chars().next();
                let delim_ok = matches!(delim, None | Some(',') | Some('{') | Some('('));
                if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) && delim_ok {
                    self.event_variants.push(EventVariant {
                        name,
                        site: Site { path: rel.to_string(), line: i + 1 },
                    });
                }
            }
            for c in line.code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth == 0 {
                            return i + 1;
                        }
                    }
                    _ => {}
                }
            }
        }
        lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex_file;

    fn model_of(rel: &str, krate: &str, src: &str) -> Model {
        let mut m = Model::new();
        m.add_source(rel, krate, &lex_file(src));
        m.finish();
        m
    }

    #[test]
    fn atomic_field_decls_include_wrappers_and_exclude_refs_and_lets() {
        let src = "\
struct S {
    tail: CachePadded<AtomicUsize>,
    // counter-only: never synchronizes
    pub hits: AtomicU64,
}
static LEVEL: AtomicU8 = AtomicU8::new(0);
fn f(cursor: &AtomicUsize) {
    let local: AtomicU32 = AtomicU32::new(0);
    let _ = (cursor, local);
}
";
        let m = model_of("crates/x/src/lib.rs", "x", src);
        let names: Vec<&str> = m.atomic_fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["tail", "hits", "LEVEL"]);
        assert!(!m.atomic_fields[0].taxonomy);
        assert!(m.atomic_fields[1].taxonomy);
    }

    #[test]
    fn accesses_attribute_receivers_and_multiline_orderings() {
        let src = "\
impl S {
    fn go(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.flag.compare_exchange(
            false,
            true,
            Ordering::Acquire,
            Ordering::Relaxed,
        ).ok();
        make().load(Ordering::SeqCst);
    }
}
";
        let m = model_of("crates/x/src/lib.rs", "x", src);
        assert_eq!(m.atomic_accesses.len(), 2); // call-result receiver dropped
        assert_eq!(m.atomic_accesses[0].field, "hits");
        assert_eq!(m.atomic_accesses[0].orderings, vec!["Relaxed"]);
        assert_eq!(m.atomic_accesses[1].field, "flag");
        assert_eq!(m.atomic_accesses[1].orderings, vec!["Acquire", "Relaxed"]);
        assert_eq!(m.atomic_accesses[1].kind, AccessKind::Rmw);
    }

    #[test]
    fn guard_types_drop_impls_and_apis_resolve() {
        let src = "\
pub struct PoolLease<'a> { mux: &'a Mux }
impl<'a> Drop for PoolLease<'a> { fn drop(&mut self) {} }
pub struct JobTicket { live: bool }
pub fn lease(&self) -> PoolLease<'_> { todo!() }
pub fn plain(&self) -> usize { 0 }
";
        let m = model_of("crates/x/src/lib.rs", "x", src);
        let guards: Vec<&str> = m.guard_types.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(guards, vec!["PoolLease", "JobTicket"]);
        assert!(m.drop_impls.contains("PoolLease"));
        assert!(!m.drop_impls.contains("JobTicket"));
        assert_eq!(m.guard_apis.len(), 1);
        assert_eq!(m.guard_apis[0].name, "lease");
        assert_eq!(m.guard_apis[0].guard, "PoolLease");
    }

    #[test]
    fn counter_registry_reads_registers_names_module_and_events() {
        let src = "\
use crate::counters::CounterSet;
pub mod names {
    pub const STEALS: &str = \"steals\";
    pub const IDLE: [&str; 1] = [\"idle_ns{cause=\\\"steal_fail\\\"}\"];
}
impl Probe {
    fn build(&self) {
        self.counters.register(\"extra_counter\");
    }
    fn on(&self, ev: RuntimeEvent) {
        match ev {
            RuntimeEvent::Steals { n } => {}
        }
    }
}
";
        let m = model_of("crates/perf/src/probe.rs", "ezp-perf", src);
        let names: Vec<&str> = m.counter_decls.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"steals"));
        assert!(names.contains(&"idle_ns{cause=\"steal_fail\"}"));
        assert!(names.contains(&"extra_counter"));
        assert!(m.events_handled.contains("Steals"));
        // a `register` call in a file that never mentions CounterSet is
        // some other registry (the kernel registry), not a counter
        let no_cs = model_of(
            "crates/kernels/src/lib.rs",
            "ezp-kernels",
            "fn r(reg: &mut Registry) { reg.register(\"mandel\", || x()); }\n",
        );
        assert!(no_cs.counter_decls.is_empty());
    }

    #[test]
    fn runtime_event_variants_parse_struct_and_unit_forms() {
        let src = "\
pub enum RuntimeEvent {
    /// doc
    ChunkDispensed { worker: usize, chunk: usize },
    Steals(u64),
    PoolSync,
}
";
        let m = model_of("crates/core/src/kernel.rs", "ezp-core", src);
        let names: Vec<&str> = m.event_variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["ChunkDispensed", "Steals", "PoolSync"]);
    }

    #[test]
    fn docs_table_parses_only_counter_headed_tables() {
        let docs = "\
# Obs

| counter | incremented by |
|---|---|
| `steals` | the scheduler |
| `idle_ns{cause=\"steal_fail\"}` | idle loop |

| per-rank counter | notes |
|---|---|
| `mpi_msgs_sent` | per rank |
";
        let mut m = Model::new();
        m.add_docs("docs/observability.md", docs);
        let names: Vec<&str> = m.doc_counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["steals", "idle_ns{cause=\"steal_fail\"}"]);
    }

    #[test]
    fn test_regions_and_test_trees_are_invisible() {
        let src = "\
#[cfg(test)]
mod tests {
    struct FakeGuard;
    static T: AtomicU64 = AtomicU64::new(0);
}
";
        let m = model_of("crates/x/src/lib.rs", "x", src);
        assert!(m.guard_types.is_empty());
        assert!(m.atomic_fields.is_empty());
        let mut m2 = Model::new();
        m2.add_source("crates/x/tests/it.rs", "x", &lex_file("struct ItGuard;\n"));
        m2.finish();
        assert!(m2.guard_types.is_empty());
    }
}
