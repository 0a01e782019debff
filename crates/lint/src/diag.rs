//! A finding and its one-line rendering.

use std::fmt;

/// One finding: a rule violated at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule name, e.g. `ordering-needs-justification`.
    pub rule: &'static str,
    /// Path of the offending file, relative to the lint root.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation, including the fix direction.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}
