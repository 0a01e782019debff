//! A lightweight line-oriented Rust lexer.
//!
//! The rules in this crate do not need a syntax tree — every invariant
//! they enforce is visible at the token level ("an `unsafe` token with
//! no `SAFETY:` comment near it", "a `Mutex` token in a hot-path
//! file"). What they *do* need, and what a naive `grep` gets wrong, is
//! the classification of every character as **code**, **comment** or
//! **string-literal content**: a kernel that logs the word "Mutex", or
//! a doc comment discussing `Ordering::Relaxed`, must not trip a rule.
//!
//! [`lex_file`] walks a source file once and produces one [`Line`] per
//! input line, holding
//!
//! * `code` — the line with comments and string/char-literal *contents*
//!   blanked to spaces (length-preserving, so char positions line up
//!   with the original),
//! * `comment` — only the comment text, similarly aligned,
//! * `in_test` — whether the line sits inside a `#[cfg(test)]` /
//!   `#[test]` item, tracked by brace depth,
//! * `allows` — rule names suppressed via an `allow(rule)` marker
//!   comment (the tool-tag prefix + `allow(...)` syntax documented in
//!   `docs/static-analysis.md`).
//!
//! Handled token classes: line comments, nested block comments, string
//! literals (escapes), raw strings (`r#"…"#`, any hash count, `b`
//! prefix), char and byte-char literals, and the lifetime/char-literal
//! ambiguity (`'a` vs `'a'`).

/// One lexed source line.
#[derive(Debug, Default, Clone)]
pub struct Line {
    /// Code text: comments and literal contents blanked to spaces.
    pub code: String,
    /// Comment text only, everything else blanked to spaces.
    pub comment: String,
    /// True when the line is inside a `#[cfg(test)]` or `#[test]` item.
    pub in_test: bool,
    /// Rule names suppressed on this line (and, by the engine's
    /// convention, on the line below it).
    pub allows: Vec<String>,
}

/// Lexer state carried across characters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    /// Nested block comment depth.
    BlockComment(u32),
    /// Inside `"…"`; the flag notes a pending backslash escape.
    Str { escaped: bool },
    /// Inside `r##"…"##` with this many hashes.
    RawStr { hashes: usize },
    /// Inside `'…'`; the flag notes a pending backslash escape.
    CharLit { escaped: bool },
}

/// Lexes a whole file into per-line classifications.
pub fn lex_file(src: &str) -> Vec<Line> {
    let chars: Vec<char> = src.chars().collect();
    let mut lines: Vec<Line> = Vec::new();
    let mut cur = Line::default();
    let mut cur_code: Vec<char> = Vec::new();
    let mut cur_comment: Vec<char> = Vec::new();
    let mut state = State::Code;

    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            // Line comments end at the newline; everything else carries
            // its state across lines (block comments, raw strings and —
            // conservatively — normal strings, which rustc allows to
            // span lines).
            if state == State::LineComment {
                state = State::Code;
            }
            cur.code = cur_code.drain(..).collect();
            cur.comment = cur_comment.drain(..).collect();
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    cur_code.push(' ');
                    cur_code.push(' ');
                    cur_comment.push(' ');
                    cur_comment.push(' ');
                    i += 2;
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    cur_code.push(' ');
                    cur_code.push(' ');
                    cur_comment.push(' ');
                    cur_comment.push(' ');
                    i += 2;
                    continue;
                }
                if c == '"' {
                    // Raw string? Scan back over hashes to an `r`.
                    let mut j = cur_code.len();
                    let mut hashes = 0usize;
                    while j > 0 && cur_code[j - 1] == '#' {
                        hashes += 1;
                        j -= 1;
                    }
                    let is_raw = j > 0
                        && cur_code[j - 1] == 'r'
                        // `r` must not be the tail of an identifier
                        // (`br"` byte-raw strings pass this check too:
                        // `b` alone is treated as the identifier end,
                        // which is fine — we only need to know the
                        // literal is raw).
                        && (j < 2 || !is_ident_char(cur_code[j - 2]) || cur_code[j - 2] == 'b');
                    state = if is_raw && hashes > 0 {
                        State::RawStr { hashes }
                    } else if is_raw {
                        State::RawStr { hashes: 0 }
                    } else {
                        State::Str { escaped: false }
                    };
                    cur_code.push('"');
                    cur_comment.push(' ');
                    i += 1;
                    continue;
                }
                if c == '\'' {
                    // Lifetime (`'a`, `'static`, loop labels) or char
                    // literal (`'a'`, `'\n'`)? A quote followed by an
                    // identifier char is a lifetime unless the char
                    // after that closes the literal.
                    let next = chars.get(i + 1).copied();
                    let after = chars.get(i + 2).copied();
                    let is_lifetime = matches!(next, Some(n) if is_ident_char(n))
                        && after != Some('\'')
                        && next != Some('\\');
                    if !is_lifetime {
                        state = State::CharLit { escaped: false };
                    }
                    cur_code.push('\'');
                    cur_comment.push(' ');
                    i += 1;
                    continue;
                }
                cur_code.push(c);
                cur_comment.push(' ');
                i += 1;
            }
            State::LineComment => {
                cur_code.push(' ');
                cur_comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    cur_code.push(' ');
                    cur_code.push(' ');
                    cur_comment.push(' ');
                    cur_comment.push(' ');
                    i += 2;
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(depth + 1);
                    cur_code.push(' ');
                    cur_code.push(' ');
                    cur_comment.push(' ');
                    cur_comment.push(' ');
                    i += 2;
                    continue;
                }
                cur_code.push(' ');
                cur_comment.push(c);
                i += 1;
            }
            State::Str { escaped } => {
                if escaped {
                    state = State::Str { escaped: false };
                    cur_code.push(' ');
                } else if c == '\\' {
                    state = State::Str { escaped: true };
                    cur_code.push(' ');
                } else if c == '"' {
                    state = State::Code;
                    cur_code.push('"');
                } else {
                    cur_code.push(' ');
                }
                cur_comment.push(' ');
                i += 1;
            }
            State::RawStr { hashes } => {
                if c == '"' {
                    // Closing quote must be followed by `hashes` hashes.
                    let closes = (0..hashes).all(|k| chars.get(i + 1 + k) == Some(&'#'));
                    if closes {
                        state = State::Code;
                        cur_code.push('"');
                        cur_comment.push(' ');
                        for _ in 0..hashes {
                            cur_code.push('#');
                            cur_comment.push(' ');
                        }
                        i += 1 + hashes;
                        continue;
                    }
                }
                cur_code.push(' ');
                cur_comment.push(' ');
                i += 1;
            }
            State::CharLit { escaped } => {
                if escaped {
                    state = State::CharLit { escaped: false };
                } else if c == '\\' {
                    state = State::CharLit { escaped: true };
                } else if c == '\'' {
                    state = State::Code;
                    cur_code.push('\'');
                    cur_comment.push(' ');
                    i += 1;
                    continue;
                }
                cur_code.push(' ');
                cur_comment.push(' ');
                i += 1;
            }
        }
    }
    // Flush a final line without a trailing newline.
    if !cur_code.is_empty() || !cur_comment.is_empty() {
        cur.code = cur_code.into_iter().collect();
        cur.comment = cur_comment.into_iter().collect();
        lines.push(cur);
    }

    mark_test_regions(&mut lines);
    parse_suppressions(&mut lines);
    lines
}

/// True for characters that can continue a Rust identifier.
pub fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Is `tag` present in a trailing comment on `line` or in a comment
/// within `window` *code* lines above it? Comment and blank lines do
/// not consume the window — a long justification paragraph must not
/// push itself out of range — but more than `window` unrelated code
/// lines between comment and site means the comment is justifying
/// something else. Shared by the per-line rules (`SAFETY:` /
/// `ORDERING:`) and the cross-file passes (taxonomy tags on atomic
/// field declarations).
pub fn justified(lines: &[Line], line: usize, tag: &str, window: usize) -> bool {
    if lines[line].comment.contains(tag) {
        return true;
    }
    let mut code_seen = 0usize;
    let mut i = line;
    while i > 0 && code_seen <= window {
        i -= 1;
        let l = &lines[i];
        if l.comment.contains(tag) {
            return true;
        }
        if !l.code.trim().is_empty() {
            code_seen += 1;
        }
    }
    false
}

/// Is `rule` switched off at 0-based line `idx` by an `allow(rule)`
/// marker comment on that line or on the line directly above it?
pub fn allowed_at(lines: &[Line], idx: usize, rule: &str) -> bool {
    [idx.checked_sub(1), Some(idx)].into_iter().flatten().any(|i| {
        lines
            .get(i)
            .is_some_and(|l| l.allows.iter().any(|a| a == rule))
    })
}

/// The struct field (or static) an atomic method call is invoked on.
///
/// `dot` is the char position of the `.` introducing the method
/// (`self.lanes[slot].depth.fetch_add(…)` → pass the `.` before
/// `fetch_add`, get `"depth"`). The walk runs right-to-left over the
/// receiver chain, skipping index/call groups and numeric tuple
/// projections (`self.tail.0.store` → `"tail"`), and stops at the first
/// named component. Returns `None` when the receiver is a call result
/// (`factory().load(…)`) or the chain starts on a previous line with
/// nothing before the dot.
pub fn receiver_field(code: &str, dot: usize) -> Option<String> {
    let chars: Vec<char> = code.chars().collect();
    let mut i = dot; // exclusive end of the component before the dot
    loop {
        // skip whitespace between tokens
        while i > 0 && chars[i - 1].is_whitespace() {
            i -= 1;
        }
        if i == 0 {
            return None;
        }
        // skip a trailing index group; a call group means the component
        // is a call result we cannot attribute to a field
        if chars[i - 1] == ']' {
            let mut depth = 0i32;
            while i > 0 {
                i -= 1;
                match chars[i] {
                    ']' => depth += 1,
                    '[' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if depth != 0 {
                return None; // group opens on an earlier line
            }
            continue;
        }
        if chars[i - 1] == ')' {
            return None;
        }
        // read one identifier backwards
        let end = i;
        while i > 0 && is_ident_char(chars[i - 1]) {
            i -= 1;
        }
        if i == end {
            return None;
        }
        let comp: String = chars[i..end].iter().collect();
        if comp.chars().all(|c| c.is_ascii_digit()) {
            // numeric tuple projection (`.0`): attribute to the field
            // it projects out of, one component further left
            if i > 0 && chars[i - 1] == '.' {
                i -= 1;
                continue;
            }
            return None;
        }
        return Some(comp);
    }
}

/// Atomic-ordering names (`Ordering::X`) appearing in the argument list
/// that opens at or after `from` on `lines[line].code` and runs to its
/// matching close paren, spanning up to `max_span` following lines.
/// Used to classify atomic access sites; an access whose call spans
/// further than `max_span` lines is treated as having no orderings
/// (and is ignored by the passes — conservative in the quiet
/// direction).
pub fn call_orderings(lines: &[Line], line: usize, from: usize, max_span: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut opened = false;
    for (k, l) in lines.iter().enumerate().skip(line).take(max_span + 1) {
        let code = &l.code;
        let start = if k == line { from } else { 0 };
        let chars: Vec<char> = code.chars().collect();
        let mut i = start;
        while i < chars.len() {
            match chars[i] {
                '(' => {
                    depth += 1;
                    opened = true;
                }
                ')' => {
                    depth -= 1;
                }
                _ => {}
            }
            i += 1;
            if opened && depth == 0 {
                break;
            }
        }
        // collect Ordering::X inside the scanned span of this line
        let span: String = chars[start..i.min(chars.len())].iter().collect();
        let mut pos = 0;
        while let Some(p) = find_word(&span, "Ordering", pos) {
            pos = p + "Ordering".len();
            let rest: String = span.chars().skip(pos).collect();
            if let Some(tail) = rest.strip_prefix("::") {
                let ident: String = tail.chars().take_while(|c| c.is_alphanumeric()).collect();
                if !ident.is_empty() {
                    out.push(ident);
                }
            }
        }
        if opened && depth == 0 {
            return out;
        }
    }
    // never closed within the window: unknown orderings
    Vec::new()
}

/// Does `code` contain `word` as a standalone token (not a substring of
/// a longer identifier)?
pub fn has_word(code: &str, word: &str) -> bool {
    find_word(code, word, 0).is_some()
}

/// Finds the next standalone occurrence of `word` in `code` at or after
/// char position `from`; returns its char position.
pub fn find_word(code: &str, word: &str, from: usize) -> Option<usize> {
    let chars: Vec<char> = code.chars().collect();
    let w: Vec<char> = word.chars().collect();
    if w.is_empty() || chars.len() < w.len() {
        return None;
    }
    let mut i = from;
    while i + w.len() <= chars.len() {
        if chars[i..i + w.len()] == w[..] {
            let before_ok = i == 0 || !is_ident_char(chars[i - 1]);
            let after = chars.get(i + w.len()).copied();
            let after_ok = after.is_none_or(|c| !is_ident_char(c));
            if before_ok && after_ok {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

/// Marks lines inside `#[cfg(test)]` / `#[test]` items by tracking
/// brace depth: the attribute arms a pending flag, the next `{` opens a
/// test region that closes with its matching `}`. A `;` before any `{`
/// (e.g. `#[cfg(test)] mod tests;`) disarms the flag — out-of-line test
/// modules are whole files this linter never maps back, which is fine:
/// no such module exists in this workspace and the miss is conservative
/// (the code is linted *more*, not less).
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    let mut pending = false;
    let mut stack: Vec<i64> = Vec::new();
    for line in lines.iter_mut() {
        let code = line.code.clone();
        let chars: Vec<char> = code.chars().collect();
        let mut in_test = !stack.is_empty();
        if is_test_attr(&code) {
            pending = true;
        }
        for &c in &chars {
            match c {
                '{' => {
                    depth += 1;
                    if pending {
                        stack.push(depth);
                        pending = false;
                        in_test = true;
                    }
                }
                '}' => {
                    if stack.last() == Some(&depth) {
                        stack.pop();
                    }
                    depth -= 1;
                }
                ';' => {
                    if stack.is_empty() {
                        pending = false;
                    }
                }
                _ => {}
            }
        }
        line.in_test = in_test || !stack.is_empty();
    }
}

/// Is there a `#[cfg(test)]`-style or `#[test]` attribute on this code
/// line? (`#[cfg(all(test, …))]` counts; `#[cfg(not(test))]` does not.)
fn is_test_attr(code: &str) -> bool {
    let Some(open) = code.find("#[") else {
        return false;
    };
    let body = &code[open + 2..];
    let Some(close) = body.find(']') else {
        return false;
    };
    let body = &body[..close];
    if has_word(body, "test") && !body.contains("not(") {
        return body.trim() == "test" || body.contains("cfg");
    }
    false
}

/// Extracts suppression markers — the tool tag followed by
/// `allow(rule-a, rule-b)` — from comment text into [`Line::allows`].
fn parse_suppressions(lines: &mut [Line]) {
    for line in lines.iter_mut() {
        let mut rest = line.comment.as_str();
        while let Some(pos) = rest.find("ezp-lint:") {
            rest = &rest[pos + "ezp-lint:".len()..];
            let trimmed = rest.trim_start();
            if let Some(args) = trimmed.strip_prefix("allow(") {
                if let Some(close) = args.find(')') {
                    for name in args[..close].split(',') {
                        let name = name.trim();
                        if !name.is_empty() {
                            line.allows.push(name.to_string());
                        }
                    }
                    rest = &args[close + 1..];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked_out_of_code() {
        let lines = lex_file("let m = \"Mutex\"; // Mutex here too\n");
        assert!(!has_word(&lines[0].code, "Mutex"));
        assert!(lines[0].comment.contains("Mutex here too"));
        assert!(lines[0].code.starts_with("let m = \"     \";"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let src = "a /* one /* two */ still */ b\n/* open\nstill comment\n*/ code\n";
        let lines = lex_file(src);
        assert!(has_word(&lines[0].code, "a"));
        assert!(has_word(&lines[0].code, "b"));
        assert!(!has_word(&lines[0].code, "two"));
        assert!(!has_word(&lines[2].code, "still"));
        assert!(has_word(&lines[3].code, "code"));
    }

    #[test]
    fn raw_strings_do_not_end_at_inner_quotes() {
        let src = "let s = r#\"quote \" unsafe \"#; unsafe_fn();\n";
        let lines = lex_file(src);
        assert!(!has_word(&lines[0].code, "unsafe"));
        assert!(has_word(&lines[0].code, "unsafe_fn"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }\nlet u = unsafe_token;\n";
        let lines = lex_file(src);
        // If 'a were lexed as an unterminated char literal, line 2's
        // code would be swallowed.
        assert!(has_word(&lines[1].code, "unsafe_token"));
        assert!(!has_word(&lines[0].code, "x'"));
    }

    #[test]
    fn escaped_quote_char_literal() {
        let src = "let q = '\\''; let m = Mutex::new(());\n";
        let lines = lex_file(src);
        assert!(has_word(&lines[0].code, "Mutex"));
    }

    #[test]
    fn test_regions_cover_matching_braces_only() {
        let src = "\
fn real() { body(); }
#[cfg(test)]
mod tests {
    fn inner() { x(); }
}
fn after() { y(); }
";
        let lines = lex_file(src);
        assert!(!lines[0].in_test);
        assert!(lines[2].in_test);
        assert!(lines[3].in_test);
        assert!(lines[4].in_test);
        assert!(!lines[5].in_test);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let lines = lex_file("#[cfg(not(test))]\nmod prod { a(); }\n");
        assert!(!lines[1].in_test);
    }

    #[test]
    fn test_attr_on_fn_marks_its_body() {
        let src = "#[test]\nfn t() {\n    probe();\n}\nfn u() { real(); }\n";
        let lines = lex_file(src);
        assert!(lines[2].in_test);
        assert!(!lines[4].in_test);
    }

    #[test]
    fn suppression_covers_own_and_next_line() {
        let lines = lex_file(
            "// ezp-lint: allow(determinism)\nlet t = x();\nlet u = y();\n",
        );
        assert!(allowed_at(&lines, 0, "determinism"));
        assert!(allowed_at(&lines, 1, "determinism"));
        assert!(!allowed_at(&lines, 2, "determinism"));
    }

    #[test]
    fn suppressions_parse_multiple_rules() {
        let lines = lex_file("x(); // ezp-lint: allow(rule-a, rule-b)\n");
        assert_eq!(lines[0].allows, vec!["rule-a", "rule-b"]);
    }

    #[test]
    fn receiver_field_walks_chains_indexes_and_tuples() {
        let probe = |code: &str| {
            let dot = code.rfind(".f").unwrap();
            receiver_field(code, dot)
        };
        assert_eq!(probe("self.depth.fetch_add"), Some("depth".into()));
        assert_eq!(probe("self.lanes[slot].depth.fetch_add"), Some("depth".into()));
        assert_eq!(probe("self.tail.0 .fetch_add"), Some("tail".into()));
        assert_eq!(probe("slots[i & mask].fetch_add"), Some("slots".into()));
        assert_eq!(probe("factory().fetch_add"), None);
        assert_eq!(probe(".fetch_add"), None);
        // lone tuple index with nothing to project out of
        assert_eq!(probe("0.fetch_add"), None);
    }

    #[test]
    fn call_orderings_spans_multiline_calls() {
        let lines = lex_file(
            "x.compare_exchange(\n    false,\n    true,\n    Ordering::Acquire,\n    Ordering::Relaxed,\n); y.load(Ordering::SeqCst);\n",
        );
        let from = lines[0].code.find('(').unwrap();
        assert_eq!(call_orderings(&lines, 0, from, 6), vec!["Acquire", "Relaxed"]);
        // the second call on the closing line is outside the first span
        let from2 = lines[5].code.rfind('(').unwrap();
        assert_eq!(call_orderings(&lines, 5, from2, 6), vec!["SeqCst"]);
    }

    #[test]
    fn call_orderings_gives_up_past_the_span_cap() {
        let lines = lex_file("x.store(\n\n\n\n\n\n\n    1, Ordering::Release);\n");
        assert!(call_orderings(&lines, 0, lines[0].code.find('(').unwrap(), 3).is_empty());
    }

    #[test]
    fn justified_sees_trailing_and_nearby_comments() {
        let lines = lex_file("// ORDERING: counter only\nlet a = 1;\nx.load(r);\n");
        assert!(justified(&lines, 2, "ORDERING:", 8));
        assert!(!justified(&lines, 2, "ORDERING:", 0));
    }

    #[test]
    fn word_matching_respects_identifier_boundaries() {
        assert!(has_word("let m: Mutex<u32>;", "Mutex"));
        assert!(!has_word("let m: FakeMutexLike;", "Mutex"));
        assert!(!has_word("unsafely()", "unsafe"));
        assert!(has_word("unsafe { x }", "unsafe"));
    }
}
