//! Report rendering: human `file:line:col` diagnostics and the
//! machine-readable JSON document (hand-rolled — no serializer
//! dependency).

use crate::rules::{Finding, Severity, RULES};
use std::fmt::Write as _;

/// The aggregated result of auditing a workspace.
#[derive(Debug)]
pub struct AuditReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Every finding, waived or not, in (path, line, col) order.
    pub findings: Vec<Finding>,
}

impl AuditReport {
    /// Findings that fail the audit: deny severity and not waived.
    pub fn unwaived_denies(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Deny && !f.waived)
    }

    /// `(unwaived deny, waived, warn)` counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let deny = self.unwaived_denies().count();
        let waived = self.findings.iter().filter(|f| f.waived).count();
        let warn = self
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Warn && !f.waived)
            .count();
        (deny, waived, warn)
    }

    /// Human diagnostics. Unwaived findings always print; waived ones and
    /// warnings print under `verbose` (waivers with their reasons, so a
    /// review can audit the audit).
    pub fn render_human(&self, verbose: bool) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let tag = match (f.waived, f.severity) {
                (true, _) => "waived",
                (false, Severity::Deny) => "deny",
                (false, Severity::Warn) => "warn",
            };
            if !verbose && (f.waived || f.severity == Severity::Warn) {
                continue;
            }
            let _ = write!(
                out,
                "{}:{}:{}: {}({}): {}",
                f.path, f.line, f.col, tag, f.rule, f.message
            );
            if let Some(reason) = &f.waive_reason {
                let _ = write!(out, " [waiver: {reason}]");
            }
            out.push('\n');
        }
        let (deny, waived, warn) = self.counts();
        let _ = writeln!(
            out,
            "fairnn-audit: {} file(s), {} unwaived finding(s), {} waived, {} warning(s)",
            self.files_scanned, deny, waived, warn
        );
        out
    }

    /// The machine-readable report (pretty-printed JSON).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"tool\": \"fairnn-audit\",\n  \"format_version\": 1,\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let (deny, waived, warn) = self.counts();
        let _ = writeln!(
            out,
            "  \"counts\": {{ \"unwaived\": {deny}, \"waived\": {waived}, \"warnings\": {warn} }},"
        );
        out.push_str("  \"rules\": [\n");
        for (i, (rule, severity, summary)) in RULES.iter().enumerate() {
            let _ = write!(
                out,
                "    {{ \"rule\": {}, \"severity\": {}, \"summary\": {} }}",
                json_str(rule),
                json_str(match severity {
                    Severity::Deny => "deny",
                    Severity::Warn => "warn",
                }),
                json_str(summary)
            );
            out.push_str(if i + 1 < RULES.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let _ = write!(
                out,
                "    {{ \"rule\": {}, \"severity\": {}, \"path\": {}, \"line\": {}, \"col\": {}, \
                 \"waived\": {}, \"reason\": {}, \"message\": {} }}",
                json_str(f.rule),
                json_str(match f.severity {
                    Severity::Deny => "deny",
                    Severity::Warn => "warn",
                }),
                json_str(&f.path),
                f.line,
                f.col,
                f.waived,
                match &f.waive_reason {
                    Some(r) => json_str(r),
                    None => "null".to_string(),
                },
                json_str(&f.message)
            );
            out.push_str(if i + 1 < self.findings.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// JSON string literal with the escapes the report can actually contain.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, waived: bool, severity: Severity) -> Finding {
        Finding {
            rule,
            severity,
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 7,
            message: "a \"quoted\" message".into(),
            waived,
            waive_reason: waived.then(|| "sorted first".to_string()),
        }
    }

    #[test]
    fn counts_and_exit_relevant_filtering() {
        let report = AuditReport {
            files_scanned: 2,
            findings: vec![
                finding("unordered-iter", false, Severity::Deny),
                finding("unordered-iter", true, Severity::Deny),
                finding("nested-parallel", false, Severity::Warn),
            ],
        };
        assert_eq!(report.counts(), (1, 1, 1));
        assert_eq!(report.unwaived_denies().count(), 1);
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let report = AuditReport {
            files_scanned: 1,
            findings: vec![finding("wall-clock", false, Severity::Deny)],
        };
        let json = report.to_json();
        assert!(json.contains("\"tool\": \"fairnn-audit\""));
        assert!(json.contains("a \\\"quoted\\\" message"));
        assert!(json.contains("\"reason\": null"));
        assert!(json.contains("\"unwaived\": 1"));
    }

    #[test]
    fn human_rendering_hides_waived_unless_verbose() {
        let report = AuditReport {
            files_scanned: 1,
            findings: vec![finding("unordered-iter", true, Severity::Deny)],
        };
        assert!(!report.render_human(false).contains("waived("));
        let verbose = report.render_human(true);
        assert!(verbose.contains("waived(unordered-iter)"));
        assert!(verbose.contains("[waiver: sorted first]"));
    }
}
