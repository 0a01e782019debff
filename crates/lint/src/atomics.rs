//! **atomics-pairing** — cross-file acquire/release discipline.
//!
//! The per-line `ordering-needs-justification` rule checks that each
//! weak-ordering *site* carries an argument; this pass checks that the
//! arguments *compose* per field, across the whole crate:
//!
//! 1. **Unpaired release** — a `Release` (or `AcqRel`) write to a field
//!    with no `Acquire` / `AcqRel` / `SeqCst` read of the same field
//!    anywhere in the crate. Nothing can synchronize-with that store,
//!    so either the acquire side is missing or the ordering is
//!    stronger than the protocol needs. (`AcqRel` RMWs satisfy both
//!    sides at once — the indegree-decrement pattern, where the last
//!    decrementer must observe every earlier one, pairs with itself.)
//! 2. **Untagged relaxed-only field** — every access is `Relaxed`, but
//!    the declaration carries no taxonomy tag (`counter-only` /
//!    `synchronizing` / `via-the-spine`, from the PR 5 ordering
//!    taxonomy). Relaxed-only is usually right for statistics; the tag
//!    records that someone decided that, so a later reader reaching
//!    for the counter in a protocol knows its limits.
//! 3. **Unjustified mix** — the field participates in acquire/release
//!    edges *and* has `Relaxed` sites with no `ORDERING:` comment.
//!    A relaxed fast-path read of a synchronizing field can be
//!    correct (own-counter reads in the SPSC ring are the canonical
//!    case) but only on an argument, which must be written down.
//!
//! `SeqCst` accesses never trigger any of the three — the workspace
//! treats SeqCst as its default spine, and a Relaxed+SeqCst mix is the
//! documented "counter read off the spine" pattern.

use std::collections::BTreeMap;

use crate::diag::Diagnostic;
use crate::model::{AccessKind, AtomicAccess, AtomicField, Model};

const RULE: &str = "atomics-pairing";

/// Does the access write with release semantics?
fn is_release_write(a: &AtomicAccess) -> bool {
    !matches!(a.kind, AccessKind::Load)
        && a.orderings.iter().any(|o| o == "Release" || o == "AcqRel")
}

/// Can the access serve as the acquire side of an edge?
fn is_acquire_side(a: &AtomicAccess) -> bool {
    a.orderings
        .iter()
        .any(|o| o == "Acquire" || o == "AcqRel" || o == "SeqCst")
}

/// Is every ordering at the access `Relaxed`?
fn is_relaxed_pure(a: &AtomicAccess) -> bool {
    a.orderings.iter().all(|o| o == "Relaxed")
}

/// Runs the pass over the finished model.
pub fn check(model: &Model) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    let mut decls: BTreeMap<(&str, &str), Vec<&AtomicField>> = BTreeMap::new();
    for f in &model.atomic_fields {
        decls
            .entry((f.krate.as_str(), f.name.as_str()))
            .or_default()
            .push(f);
    }
    let mut accs: BTreeMap<(&str, &str), Vec<&AtomicAccess>> = BTreeMap::new();
    for a in &model.atomic_accesses {
        accs.entry((a.krate.as_str(), a.field.as_str()))
            .or_default()
            .push(a);
    }

    for ((krate, field), field_decls) in &decls {
        // The root package's own `src/` resolves to an empty crate name.
        let krate_desc = if krate.is_empty() {
            "this crate"
        } else {
            krate
        };
        let Some(list) = accs.get(&(krate, field)) else {
            continue; // declared but never accessed (or only in tests)
        };

        // 1. unpaired release
        if let Some(rel) = list.iter().find(|a| is_release_write(a)) {
            if !list.iter().any(|a| is_acquire_side(a)) {
                out.push(Diagnostic {
                    rule: RULE,
                    path: rel.site.path.clone(),
                    line: rel.site.line,
                    message: format!(
                        "Release write to `{field}` has no Acquire/AcqRel/SeqCst read of \
                         the same field anywhere in {krate_desc}; nothing can \
                         synchronize-with this store — add the acquire side, or weaken \
                         the ordering with an ORDERING: argument"
                    ),
                });
            }
        }

        // 2. relaxed-only field without a taxonomy tag
        if list.iter().all(|a| is_relaxed_pure(a)) {
            for d in field_decls {
                if !d.taxonomy {
                    out.push(Diagnostic {
                        rule: RULE,
                        path: d.site.path.clone(),
                        line: d.site.line,
                        message: format!(
                            "atomic field `{field}` is accessed only with \
                             Ordering::Relaxed but its declaration carries no taxonomy \
                             tag; add a `counter-only` (or `synchronizing` / \
                             `via-the-spine`) comment here so the relaxed argument is \
                             written down"
                        ),
                    });
                }
            }
            continue;
        }

        // 3. unjustified Relaxed sites on a field with acquire/release
        //    edges (SeqCst-mixed fields are exempt: that is the spine)
        let has_sync_edge = list.iter().any(|a| {
            a.orderings
                .iter()
                .any(|o| o == "Acquire" || o == "Release" || o == "AcqRel")
        });
        if has_sync_edge {
            for a in list {
                if is_relaxed_pure(a) && !a.justified {
                    out.push(Diagnostic {
                        rule: RULE,
                        path: a.site.path.clone(),
                        line: a.site.line,
                        message: format!(
                            "Relaxed access to `{field}`, which also carries \
                             acquire/release edges in {krate_desc}; say why this site \
                             may stay relaxed with an ORDERING: comment, or use the \
                             protocol's ordering"
                        ),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex_file;

    fn model_of(src: &str) -> Model {
        let mut m = Model::new();
        m.add_source("crates/x/src/lib.rs", &lex_file(src));
        m
    }

    #[test]
    fn unpaired_release_fires_and_pairing_silences() {
        let bad = model_of(
            "struct S { flag: AtomicBool }\nimpl S { fn f(&self) { self.flag.store(true, Ordering::Release); } }\n",
        );
        let d = check(&bad);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("no Acquire"));
        let good = model_of(
            "struct S { flag: AtomicBool }\nimpl S { fn f(&self) { self.flag.store(true, Ordering::Release); let _v = self.flag.load(Ordering::Acquire); } }\n",
        );
        assert!(check(&good).is_empty());
    }

    #[test]
    fn acqrel_rmw_pairs_with_itself() {
        let m = model_of(
            "struct S { remaining: AtomicUsize }\nimpl S { fn f(&self) { self.remaining.fetch_sub(1, Ordering::AcqRel); } }\n",
        );
        assert!(check(&m).is_empty());
    }

    #[test]
    fn relaxed_only_field_needs_a_taxonomy_tag() {
        let bad = model_of(
            "struct S { hits: AtomicU64 }\nimpl S { fn f(&self) { self.hits.fetch_add(1, Ordering::Relaxed); } }\n",
        );
        let d = check(&bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1); // anchored at the declaration
        let good = model_of(
            "struct S {\n    // counter-only: stats, never synchronizes\n    hits: AtomicU64,\n}\nimpl S { fn f(&self) { self.hits.fetch_add(1, Ordering::Relaxed); } }\n",
        );
        assert!(check(&good).is_empty());
    }

    #[test]
    fn unjustified_mix_fires_but_seqcst_mix_is_the_spine() {
        let bad = model_of(
            "struct S { seq: AtomicU64 }\nimpl S { fn f(&self) { self.seq.store(1, Ordering::Release); let _a = self.seq.load(Ordering::Acquire); let _b = self.seq.load(Ordering::Relaxed); } }\n",
        );
        let d = check(&bad);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("stay relaxed"));
        let spine = model_of(
            "struct S { n: AtomicU64 }\nimpl S { fn f(&self) { self.n.store(1, Ordering::SeqCst); let _b = self.n.load(Ordering::Relaxed); } }\n",
        );
        assert!(check(&spine).is_empty());
    }
}
