//! The written atomic-ordering arguments, which neither rustc nor clippy
//! reads, checked over the whole tree by the two rules and scopes of
//! docs/static-analysis.md. Run: `cargo test -q --test ordering_arguments`.

use std::path::Path;
use std::time::{Duration, Instant};

/// Code lines an `ORDERING:` comment or a field's tag may sit above its site.
const WINDOW: usize = 8;
/// Lines one atomic call may span before its orderings count as unknown.
const CALL_SPAN: usize = 6;
const WEAK: [&str; 4] = ["Relaxed", "Acquire", "Release", "AcqRel"];
const RELEASES: [&str; 2] = ["Release", "AcqRel"];
const ACQUIRES: [&str; 3] = ["Acquire", "AcqRel", "SeqCst"];
const EDGES: [&str; 3] = ["Acquire", "Release", "AcqRel"];
const ORDER: &str = "ordering-needs-justification";
const PAIR: &str = "atomics-pairing";
const UNARGUED: &str = "has no ORDERING: comment";
const TAGS: [&str; 3] = ["counter-only", "synchronizing", "via-the-spine"];
const ATOMICS: &str = "AtomicBool AtomicI8 AtomicI16 AtomicI32 AtomicI64 AtomicIsize AtomicPtr \
                       AtomicU8 AtomicU16 AtomicU32 AtomicU64 AtomicUsize";
const CALLS: &str = ".load( .store( .swap( .fetch_add( .fetch_sub( .fetch_and( .fetch_or( \
                     .fetch_xor( .fetch_nand( .fetch_max( .fetch_min( .fetch_update( \
                     .compare_exchange( .compare_exchange_weak(";

/// An atomic access: `(path:line, writes, orderings, argued)`.
type Use = (String, bool, Vec<String>, bool);
/// An atomic field or static: its declarations `(path:line, tagged)`, its accesses.
type Field = (Vec<(String, bool)>, Vec<Use>);

#[derive(Clone, Copy, PartialEq)]
enum Lex {
    Code,
    LineComment,
    Block(u32),
    /// A `"…"` or `'…'` literal: its closing quote, and whether a `\` is pending.
    Lit(char, bool),
    Raw(usize),
}
use Lex::*;

fn ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn words(s: &str) -> impl Iterator<Item = &str> {
    s.split(|c: char| !ident(c))
}

/// The source as code and as comments, blanked to spaces elsewhere
/// (line breaks stay), so a column is the same in both.
fn lex(src: &str) -> (String, String) {
    let s: Vec<char> = src.chars().collect();
    let (mut code, mut note, mut st, mut i) = (String::new(), String::new(), Code, 0);
    let comment = |st| matches!(st, LineComment | Block(_));
    while i < s.len() {
        let (c, next) = (s[i], s.get(i + 1).copied());
        let (n, to) = match st {
            _ if c == '\n' => (1, if st == LineComment { Code } else { st }),
            Code if c == '/' && next == Some('/') => (2, LineComment),
            Code if c == '/' && next == Some('*') => (2, Block(1)),
            Code if c == '"' => {
                let body = code.trim_end_matches('#');
                let r = body.strip_suffix('r');
                let raw = r.is_some_and(|b| !b.ends_with(ident) || b.ends_with('b'));
                let hashes = code.len() - body.len();
                (1, if raw { Raw(hashes) } else { Lit(c, false) })
            }
            // `'a` is a lifetime or a label unless a quote closes it: `'a'`.
            Code if c == '\'' && !(next.is_some_and(ident) && s.get(i + 2) != Some(&c)) => {
                (1, Lit(c, false))
            }
            Block(1) if c == '*' && next == Some('/') => (2, Code),
            Block(d) if c == '*' && next == Some('/') => (2, Block(d - 1)),
            Block(d) if c == '/' && next == Some('*') => (2, Block(d + 1)),
            Lit(q, true) => (1, Lit(q, false)),
            Lit(q, false) if c == '\\' => (1, Lit(q, true)),
            Lit(q, false) if c == q => (1, Code),
            Raw(h) if c == '"' && (1..=h).all(|k| s.get(i + k) == Some(&'#')) => (1 + h, Code),
            _ => (1, st),
        };
        // A comment's delimiters go to `note`; a literal's quotes stay code.
        let to_note = comment(st) || comment(to);
        let to_code = !to_note && (st == Code || to == Code);
        for &ch in &s[i..i + n] {
            code.push(if to_code || ch == '\n' { ch } else { ' ' });
            note.push(if to_note || ch == '\n' { ch } else { ' ' });
        }
        (st, i) = (to, i + n);
    }
    (code, note)
}

/// Which lines sit in a `#[cfg(test)]` or `#[test]` item: the attribute
/// arms a flag, and the next `{` opens a region that its matching `}`
/// closes. A `;` first (`#[cfg(test)] mod tests;`) disarms the flag.
fn test_lines(lines: &[&str]) -> Vec<bool> {
    let (mut depth, mut armed, mut open) = (0, false, Vec::new());
    let is_test = |a: &str| words(a).any(|w| w == "test") && !a.contains("not(");
    let test_attr = |a: &str| is_test(a) && (a.trim() == "test" || a.contains("cfg"));
    let mark = |l: &&str| {
        let attr = l.split_once("#[").and_then(|(_, a)| a.split_once(']'));
        armed |= attr.is_some_and(|(a, _)| test_attr(a));
        let mut test = !open.is_empty();
        for c in l.chars() {
            depth += i32::from(c == '{');
            if c == '{' && armed {
                (armed, test) = (false, true);
                open.push(depth);
            }
            if c == '}' && open.last() == Some(&depth) {
                open.pop();
            }
            depth -= i32::from(c == '}');
            armed &= c != ';' || !open.is_empty();
        }
        test || !open.is_empty()
    };
    lines.iter().map(mark).collect()
}

/// The `X` of each `Ordering::X` in `code`.
fn orderings(code: &str) -> impl Iterator<Item = &str> {
    let at = code.match_indices("Ordering::").map(|(p, _)| p);
    at.filter(|&p| !code[..p].ends_with(ident)).filter_map(|p| {
        let x = &code[p + 10..];
        let name = &x[..x.len() - x.trim_start_matches(char::is_alphanumeric).len()];
        (!name.is_empty()).then_some(name)
    })
}

/// Is `tag` in a comment on line `at`, or above it up to the WINDOW+1st
/// code line?
fn argued((lines, notes): (&[&str], &[&str]), at: usize, tag: &str) -> bool {
    let mut code_lines = 0;
    let mut above = (0..=at).rev().take_while(|&k| {
        let within = code_lines <= WINDOW;
        code_lines += usize::from(k < at && !lines[k].trim().is_empty());
        within
    });
    above.any(|k| notes[k].contains(tag))
}

/// The field the receiver `s` ends on: index groups and tuple
/// projections are skipped (`self.lanes[k].tail.0` is `tail`), and a
/// call result (`make()`) names none.
fn receiver(s: &str) -> Option<&str> {
    let s = s.trim_end();
    if let Some(inner) = s.strip_suffix(']') {
        let mut depth = 1;
        let (open, _) = inner.char_indices().rev().find(|&(_, c)| {
            depth += i32::from(c == ']') - i32::from(c == '[');
            depth == 0
        })?;
        return receiver(&inner[..open]);
    }
    let name = &s[s.trim_end_matches(ident).len()..];
    match name.bytes().all(|b| b.is_ascii_digit()) {
        _ if name.is_empty() => None,
        false => Some(name),
        true => receiver(s[..s.len() - name.len()].strip_suffix('.')?),
    }
}

/// The orderings in the argument list opening at byte `from` of line
/// `at`, or none if it does not close within CALL_SPAN more lines.
fn call_orderings(lines: &[&str], at: usize, from: usize) -> Vec<String> {
    let (mut out, mut depth) = (Vec::new(), 0);
    for (k, l) in lines.iter().enumerate().skip(at).take(CALL_SPAN + 1) {
        let s = &l[if k == at { from } else { 0 }..];
        let end = s.char_indices().find(|&(_, c)| {
            depth += i32::from(c == '(') - i32::from(c == ')');
            depth == 0
        });
        out.extend(orderings(&s[..end.map_or(s.len(), |(p, _)| p + 1)]).map(String::from));
        if end.is_some() {
            return out;
        }
    }
    Vec::new()
}

/// The field a line declares atomic: `name: Atomic…` or `static NAME:
/// Wrapper<Atomic…> = …`, but not a `let`, a `fn` line (an `&Atomic…`
/// parameter) or an initializer (`name: AtomicU8::new(0)`).
fn declared(code: &str) -> Option<&str> {
    let (lhs, rhs) = code.trim().split_once(':')?;
    let ty = rhs.split('=').next()?.trim().trim_end_matches(',').trim();
    let name = &lhs[lhs.trim_end_matches(ident).len()..];
    let atomic = words(ty).any(|w| ATOMICS.split(' ').any(|a| a == w));
    let local = words(code).any(|w| w == "fn" || w == "let");
    let decl = atomic && !local && !rhs.starts_with(':') && !ty.contains(['&', '(', '.']);
    (decl && !name.is_empty()).then_some(name)
}

/// Both rules over `(path, source)` pairs, paths relative to the root;
/// each finding reads `path:line: [rule] message`.
fn check(files: &[(String, String)]) -> Vec<String> {
    let (mut out, mut fields) = (Vec::new(), std::collections::BTreeMap::<_, Field>::new());
    for (path, src) in files {
        let ((code, note), krate) = (lex(src), path.find("/src/").map_or(".", |p| &path[..p]));
        let (lines, notes): (Vec<_>, Vec<_>) = (code.lines().collect(), note.lines().collect());
        let text = (&lines[..], &notes[..]);
        let scoped = path.split('/').any(|c| c == "sched" || c == "chan");
        let prod = !path.split('/').any(|c| c == "tests" || c == "examples");
        let live = lines.iter().enumerate().zip(test_lines(&lines));
        for (i, l) in live.filter(|(_, test)| !test).map(|(l, _)| l) {
            let at = format!("{path}:{}", i + 1);
            let weak = orderings(l).filter(|o| scoped && WEAK.contains(o));
            for o in weak.filter(|_| !argued(text, i, "ORDERING:")) {
                out.push(format!("{at}: [{ORDER}] `Ordering::{o}` {UNARGUED}"));
            }
            if let Some(name) = declared(l).filter(|_| prod) {
                let tagged = TAGS.iter().any(|tag| argued(text, i, tag));
                let field = fields.entry((krate, name.to_string())).or_default();
                field.0.push((at.clone(), tagged));
            }
            for call in CALLS.split(' ').filter(|c| prod && !c.is_empty()) {
                for (p, _) in l.match_indices(call) {
                    // a chain wrapped before `.call(` ends on the line above
                    let wrapped = i > 0 && l[..p].trim().is_empty();
                    let above = || receiver(lines[i - 1]);
                    let name = receiver(&l[..p]).or(wrapped.then(above).flatten());
                    let orders = call_orderings(&lines, i, p + call.len() - 1);
                    if let Some(name) = name.filter(|_| !orders.is_empty()) {
                        let why = argued(text, i, "ORDERING:");
                        let field = fields.entry((krate, name.to_string())).or_default();
                        field.1.push((at.clone(), call != ".load(", orders, why));
                    }
                }
            }
        }
    }
    for ((krate, name), field) in &fields {
        pairing(krate, name, field, &mut out);
    }
    out.sort();
    out
}

/// The three pairing checks on one field; `SeqCst` alone triggers none.
fn pairing(krate: &str, name: &str, (decls, uses): &Field, out: &mut Vec<String>) {
    let has = |u: &Use, any: &[&str]| u.2.iter().any(|o| any.contains(&o.as_str()));
    let relaxed = |u: &Use| u.2.iter().all(|o| o == "Relaxed");
    let mut flag = |at: &str, why: &str| out.push(format!("{at}: [{PAIR}] `{name}`: {why}"));
    if decls.is_empty() || uses.is_empty() {
        return;
    }
    let acquired = uses.iter().any(|u| has(u, &ACQUIRES));
    if let Some(u) = uses.iter().find(|u| u.1 && has(u, &RELEASES) && !acquired) {
        let why = format!("a Release write, and no acquire side in {krate}/");
        flag(&u.0, &why);
    }
    if uses.iter().all(relaxed) {
        let why = "only Relaxed accesses, and no counter-only/synchronizing/via-the-spine tag";
        decls.iter().filter(|d| !d.1).for_each(|d| flag(&d.0, why));
    } else if uses.iter().any(|u| has(u, &EDGES)) {
        let why = format!("an unargued Relaxed access beside acquire/release edges in {krate}/");
        let unargued = uses.iter().filter(|u| relaxed(u) && !u.3);
        unargued.for_each(|u| flag(&u.0, &why));
    }
}

/// Every `.rs` file under `dir`, skipping `target` and hidden directories.
fn walk(dir: &Path, prefix: &str, out: &mut Vec<(String, String)>) {
    let entries = std::fs::read_dir(dir).into_iter().flatten();
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        let name = p.file_name().unwrap_or_default().to_string_lossy();
        let rel = format!("{prefix}{name}");
        if p.is_dir() && name != "target" && !name.starts_with('.') {
            walk(&p, &format!("{rel}/"), out);
        } else if let Some(Ok(src)) = name.ends_with(".rs").then(|| std::fs::read_to_string(&p)) {
            out.push((rel, src));
        }
    }
}

#[test]
fn every_weak_ordering_in_the_tree_carries_its_argument() {
    let (clock, budget, mut files) = (Instant::now(), Duration::from_secs(5), Vec::new());
    walk(Path::new(env!("CARGO_MANIFEST_DIR")), "", &mut files);
    let found = check(&files).join("\n");
    let took = clock.elapsed();
    assert!(found.is_empty(), "docs/static-analysis.md:\n{found}");
    assert!(files.len() > 100, "only {} files scanned", files.len());
    assert!(took <= budget, "{took:?} > {budget:?}");
}

/// A case: `path => line subject, …`, then the source. A `--- path` line starts
/// another file, whose findings read `path:line subject`. A subject is `Ordering::X` or a field.
const CASES: &[&str] = &[
    // Comments (nested too), byte and raw strings, lifetimes and `'\''`
    // are not code, and `MyOrdering` is not `Ordering`.
    "sched/src/a.rs => 3 Ordering::Relaxed, 6 Ordering::Relaxed, 8 Ordering::Relaxed\n\
     let s = \"Ordering::Relaxed\"; // a.store(1, Ordering::Relaxed);\n\
     /* a /* nested */ Ordering::Acquire */ let b = b\"Ordering::Release\";\n\
     let r = r#\"quote \" Ordering::Relaxed \"#; x.store(1, Ordering::Relaxed);\n\
     let y = br\"Ordering::AcqRel\"; a.store(1, MyOrdering::Relaxed);\n\
     fn get<'a>(s: &'a S) -> &'a AtomicU8 {\n    s.n.store(1, Ordering::Relaxed);\n\
     \x20   let q = '\\'';\n    s.n.store(2, Ordering::Relaxed);\n}\n",
    // A test region is its matching braces; `not(test)` and an
    // out-of-line `mod tests;` open none; `#[test]` marks its fn's body.
    "sched/src/a.rs => 5 Ordering::Relaxed, 7 Ordering::Relaxed, 10 Ordering::Relaxed, \
     15 Ordering::Release\n\
     #[cfg(test)]\nmod tests {\n    fn t() { a.store(1, Ordering::Relaxed); }\n}\n\
     fn after() { a.store(1, Ordering::Relaxed); }\n\
     #[cfg(not(test))]\nfn prod() { a.store(1, Ordering::Relaxed); }\n\
     #[cfg(test)]\nmod tests;\nfn prod() { a.store(1, Ordering::Relaxed); }\n\
     #[test]\nfn t() {\n    a.store(1, Ordering::Relaxed);\n}\nfn u() { a.store(1, Ordering::Release); }\n",
    // The scope is `sched` and `chan`, and SeqCst needs no argument.
    "chan/src/ring.rs => 1 Ordering::Acquire\na.store(1, Ordering::Acquire);\nb.load(Ordering::SeqCst);\n",
    // The window is 8 code lines; comment and blank lines do not use it up.
    "sched/src/a.rs => 21 Ordering::Acquire\n\
     // ORDERING: 8 code lines up\na\na\na\na\na\na\na\na\na.load(Ordering::Acquire);\n\
     // ORDERING: 9 code lines up\na\na\na\na\na\na\na\na\na\na.load(Ordering::Acquire);\n\
     // ORDERING: a long argument\n//\n//\n//\n//\n//\n//\n//\n//\n\na.load(Ordering::Acquire);\n",
    // The ordering fixture pair.
    "sched/src/work.rs => 3 Ordering::Relaxed\n\
     use std::sync::atomic::{AtomicUsize, Ordering};\n\
     pub fn bump(c: &AtomicUsize) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n",
    "sched/src/work.rs => \n\
     use std::sync::atomic::{AtomicUsize, Ordering};\n\
     pub fn bump(c: &AtomicUsize) {\n    // ORDERING: counter-only, summed after join.\n\
     \x20   c.fetch_add(1, Ordering::Relaxed);\n}\n\
     pub fn publish(c: &AtomicUsize) {\n    c.store(1, Ordering::SeqCst);\n}\n",
    // Receivers resolve through chains, indexes, tuple fields and a wrapped line, not a call
    // result. Wrapped types and statics are fields; locals, `&Atomic…` parameters and
    // initializers are not. A wrapped compare_exchange is read in full; past 6 more lines a
    // call's orderings are unknown. AcqRel pairs with itself; SeqCst + Relaxed is the spine.
    "x/src/lib.rs => 2 depth, 4 slots, 10 LEVEL, 13 tail, 28 seq\n\
     struct S {\n    depth: AtomicUsize,\n    tail: CachePadded<AtomicUsize>,\n\
     \x20   slots: Vec<AtomicU8>,\n    flag: AtomicBool,\n    seq: AtomicBool,\n\
     \x20   remaining: AtomicUsize,\n    n: AtomicU64,\n}\n\
     static LEVEL: AtomicU8 = AtomicU8::new(0);\n\
     fn f(s: &S, cursor: &AtomicUsize) -> S {\n\
     \x20   s.lanes[k].depth.fetch_add(1, Ordering::Relaxed);\n\
     \x20   s.tail.0.store(1, Ordering::Release);\n    s.tail().load(Ordering::Acquire);\n\
     \x20   s.slots[k & 3].swap(1, Ordering::Relaxed);\n\
     \x20   let local: AtomicU32 = AtomicU32::new(0);\n    local.fetch_add(1, Ordering::Relaxed);\n\
     \x20   cursor.fetch_add(1, Ordering::Relaxed);\n    LEVEL\n        .store(1, Ordering::Relaxed);\n\
     \x20   s.flag.store(true, Ordering::Release);\n    s.flag.compare_exchange(\n\
     \x20       false,\n        true,\n        Ordering::Acquire,\n        Ordering::Relaxed,\n    );\n\
     \x20   s.seq.store(true, Ordering::Release);\n    s.seq.load(\n\n\n\n\n\n        Ordering::Acquire,\n    );\n\
     \x20   s.remaining.fetch_sub(1, Ordering::AcqRel);\n\
     \x20   s.n.store(1, Ordering::SeqCst);\n    s.n.load(Ordering::Relaxed);\n\
     \x20   S { depth: AtomicUsize::new(0) }\n}\n",
    // A crate is the directory holding `src/`: a bin pairs with its
    // library; another crate's field of the same name, or a test, does not.
    "x/src/lib.rs => y/src/lib.rs:2 flag\n\
     pub struct S {\n    pub flag: AtomicBool,\n}\nfn set(s: &S) { s.flag.store(true, Ordering::Release); }\n\
     --- x/src/bin/main.rs\nfn get(s: &S) -> bool { s.flag.load(Ordering::Acquire) }\n\
     --- y/src/lib.rs\nstruct T { flag: AtomicBool }\nfn set(t: &T) { t.flag.store(true, Ordering::Release); }\n\
     --- y/tests/it.rs\nfn get(t: &T) -> bool { t.flag.load(Ordering::Acquire) }\n",
    // The pairing fixture pair: an unpaired Release, an untagged
    // Relaxed-only field and an unargued Relaxed read, then repaired.
    "core/src/state.rs => 3 hits, 7 flag, 11 seq\n\
     pub struct State {\n    flag: AtomicBool,\n    hits: AtomicU64,\n    seq: AtomicU64,\n}\n\
     impl State {\n\
     \x20   pub fn publish(&self) { self.flag.store(true, Ordering::Release); }\n\
     \x20   pub fn record(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }\n\
     \x20   pub fn bump(&self) { self.seq.store(1, Ordering::Release); }\n\
     \x20   pub fn wait(&self) -> u64 { self.seq.load(Ordering::Acquire) }\n\
     \x20   pub fn peek(&self) -> u64 { self.seq.load(Ordering::Relaxed) }\n}\n",
    "core/src/state.rs => \n\
     pub struct State {\n    flag: AtomicBool,\n    // counter-only: statistics\n    hits: AtomicU64,\n\
     \x20   seq: AtomicU64,\n}\n\
     impl State {\n\
     \x20   pub fn publish(&self) { self.flag.store(true, Ordering::Release); }\n\
     \x20   pub fn observe(&self) -> bool { self.flag.load(Ordering::Acquire) }\n\
     \x20   pub fn record(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }\n\
     \x20   pub fn bump(&self) { self.seq.store(1, Ordering::Release); }\n\
     \x20   pub fn wait(&self) -> u64 { self.seq.load(Ordering::Acquire) }\n\
     \x20   pub fn peek(&self) -> u64 {\n        // ORDERING: own-counter fast path.\n\
     \x20       self.seq.load(Ordering::Relaxed)\n    }\n}\n",
];

#[test]
fn each_case_gives_the_findings_it_pins() {
    for case in CASES {
        let (head, src) = case.split_once('\n').unwrap_or_default();
        let (path, want) = head.split_once(" => ").unwrap_or_default();
        let all = format!("{path}\n{src}");
        let files = all.split("--- ").filter_map(|f| f.split_once('\n'));
        let files: Vec<_> = files.map(|(p, s)| (p.to_string(), s.to_string())).collect();
        let mut got = Vec::new();
        for f in check(&files) {
            let (at, message) = f.split_once(": [").unwrap_or_default();
            let subject = message.split('`').nth(1).unwrap_or_default();
            let at = at.strip_prefix(&format!("{path}:")).unwrap_or(at);
            got.push(format!("{at} {subject}"));
        }
        let mut want: Vec<&str> = want.split(", ").filter(|w| !w.is_empty()).collect();
        got.sort();
        want.sort();
        assert_eq!(got, want, "case {path}:\n{src}");
    }
}
