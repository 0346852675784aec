//! Diagnostics and their text rendering.

use std::fmt::Write as _;

/// The six rule identifiers, in report order.
pub const RULE_IDS: [&str; 6] = ["D2", "O1", "O2", "C1", "C2", "W1"];

/// One finding at a source position.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    pub line: u32,
    pub col: u32,
    /// Rule id, one of [`RULE_IDS`].
    pub rule: &'static str,
    pub message: String,
    /// Actionable fix suggestion.
    pub hint: String,
    /// `Some(reason)` when a `// lint:allow(...)` waiver covers the site.
    pub waived: Option<String>,
}

impl Diagnostic {
    /// `file:line:col: RULE message` with the hint on a second line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let waived = if self.waived.is_some() {
            " (waived)"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{}:{}:{}: {}{} {}",
            self.file, self.line, self.col, self.rule, waived, self.message
        );
        if let Some(reason) = &self.waived {
            let _ = writeln!(out, "    waiver: {reason}");
        } else {
            let _ = writeln!(out, "    hint: {}", self.hint);
        }
        out
    }
}
