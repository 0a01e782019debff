//! Phase-1 workspace symbol model for the cross-file pass.
//!
//! The per-line rule in [`crate::rules`] sees one line at a time; a
//! paired acquire/release protocol spans files. While the workspace
//! walker lexes each file anyway, [`Model::add_source`] extracts a
//! small symbol table from the lexed lines, and [`crate::atomics`] then
//! runs over the finished model without touching the filesystem again.
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
//!
//! Everything is resolved per *crate* — the directory that holds the
//! file's `src/` ([`crate_of`]) — so a fixture crate that happens to
//! reuse a field name cannot collide with the real workspace.
//! Integration tests and examples (`tests/`, `examples/` path
//! components) and `#[cfg(test)]` regions are excluded from the model:
//! they exercise the invariants rather than define them.

use crate::lexer::{self, Line};
use crate::rules::JUSTIFICATION_WINDOW;

/// How many lines a single atomic call may span before the model gives
/// up attributing its orderings (`compare_exchange` calls wrapped by
/// rustfmt are the common case; anything longer is vanishingly rare).
const CALL_SPAN: usize = 6;

/// The `std::sync::atomic` type names a field declaration may use
/// (directly or inside a wrapper such as `CachePadded<AtomicUsize>`).
const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
];

/// Taxonomy tags (from PR 5's ordering taxonomy in
/// `docs/static-analysis.md`) that classify a Relaxed-only field.
pub const TAXONOMY_TAGS: &[&str] = &["counter-only", "synchronizing", "via-the-spine"];

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

/// The finished phase-1 model; built by the workspace walker, consumed
/// by [`crate::atomics`].
#[derive(Default)]
pub struct Model {
    /// Atomic field declarations, in walk order.
    pub atomic_fields: Vec<AtomicField>,
    /// Attributed atomic accesses, in walk order.
    pub atomic_accesses: Vec<AtomicAccess>,
}

/// Does this workspace-relative path hold *production* code? Test and
/// example trees exercise invariants rather than define them, so the
/// model skips them wholesale.
fn is_prod_path(rel: &str) -> bool {
    !rel.split('/').any(|c| c == "tests" || c == "examples")
}

/// The crate a workspace-relative path belongs to: everything before
/// its first `src` component (`crates/sched/src/pool.rs` →
/// `crates/sched`; the root package's `src/lib.rs` → the empty string).
pub fn crate_of(rel: &str) -> &str {
    rel.find("/src/").map_or("", |p| &rel[..p])
}

/// Does the declared type text mention a real `std::sync::atomic` type
/// as a standalone word (directly or inside a generic wrapper)?
fn mentions_atomic_type(ty: &str) -> bool {
    ATOMIC_TYPES.iter().any(|t| lexer::has_word(ty, t))
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests one lexed production source file; `rel` is the
    /// workspace-relative path. Non-production paths are ignored (the
    /// caller does not need to filter).
    pub fn add_source(&mut self, rel: &str, lines: &[Line]) {
        if !is_prod_path(rel) {
            return;
        }
        let krate = crate_of(rel);
        self.scan_decls(rel, krate, lines);
        self.scan_accesses(rel, krate, lines);
    }

    // ---- phase-1 extraction --------------------------------------------

    /// Atomic field and static declarations.
    fn scan_decls(&mut self, rel: &str, krate: &str, lines: &[Line]) {
        for (i, line) in lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let code = line.code.trim();
            let site = Site {
                path: rel.to_string(),
                line: i + 1,
            };

            // a fn signature line is not a field decl
            if lexer::has_word(code, "fn") {
                continue;
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
                    .any(|t| lexer::justified(lines, i, t, JUSTIFICATION_WINDOW));
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
                    let orderings = lexer::call_orderings(lines, i, p + method.len(), CALL_SPAN);
                    if orderings.is_empty() {
                        continue; // not an atomic call (or unattributable)
                    }
                    let justified = lexer::justified(lines, i, "ORDERING:", JUSTIFICATION_WINDOW);
                    self.atomic_accesses.push(AtomicAccess {
                        krate: krate.to_string(),
                        field,
                        site: Site {
                            path: rel.to_string(),
                            line: i + 1,
                        },
                        kind: *kind,
                        orderings,
                        justified,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex_file;

    fn model_of(rel: &str, src: &str) -> Model {
        let mut m = Model::new();
        m.add_source(rel, &lex_file(src));
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
        let m = model_of("crates/x/src/lib.rs", src);
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
        let m = model_of("crates/x/src/lib.rs", src);
        assert_eq!(m.atomic_accesses.len(), 2); // call-result receiver dropped
        assert_eq!(m.atomic_accesses[0].field, "hits");
        assert_eq!(m.atomic_accesses[0].orderings, vec!["Relaxed"]);
        assert_eq!(m.atomic_accesses[1].field, "flag");
        assert_eq!(m.atomic_accesses[1].orderings, vec!["Acquire", "Relaxed"]);
        assert_eq!(m.atomic_accesses[1].kind, AccessKind::Rmw);
    }

    #[test]
    fn crates_are_keyed_by_the_directory_holding_src() {
        assert_eq!(crate_of("crates/sched/src/pool.rs"), "crates/sched");
        assert_eq!(crate_of("crates/cli/src/bin/easypap.rs"), "crates/cli");
        assert_eq!(crate_of("src/lib.rs"), "");
        assert_eq!(crate_of("core/src/state.rs"), "core");
        let m = model_of("crates/x/src/lib.rs", "struct S { n: AtomicU8 }\n");
        assert_eq!(m.atomic_fields[0].krate, "crates/x");
    }

    #[test]
    fn test_regions_and_test_trees_are_invisible() {
        let src = "\
#[cfg(test)]
mod tests {
    static T: AtomicU64 = AtomicU64::new(0);
}
";
        let m = model_of("crates/x/src/lib.rs", src);
        assert!(m.atomic_fields.is_empty());
        let m2 = model_of(
            "crates/x/tests/it.rs",
            "static T: AtomicU64 = AtomicU64::new(0);\n",
        );
        assert!(m2.atomic_fields.is_empty());
    }
}
