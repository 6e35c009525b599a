//! The `kadabra-lint/v2` machine-readable report.
//!
//! The report is the lint analogue of the `kadabra-bench/v1` artifact
//! (DESIGN.md §9): a versioned JSON document CI uploads as an artifact and
//! validates with [`validate_report`] so schema drift fails the PR that
//! causes it.

use kadabra_telemetry::json::{escape, Json};

/// Schema identifier written into every report.
pub const LINT_SCHEMA: &str = "kadabra-lint/v2";

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Pass slug.
    pub pass: &'static str,
    /// Pass rationale (shared by all findings of the pass).
    pub hint: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Trimmed source line.
    pub excerpt: String,
    /// What is wrong at this site.
    pub message: String,
    /// Suppressed by an inline `xtask: allow(...)` waiver.
    pub waived: bool,
}

/// A complete lint run.
#[derive(Debug)]
pub struct Report {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Names of the passes that ran.
    pub passes: Vec<&'static str>,
    /// All findings (active and waived), sorted by position.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Assembles a report.
    #[must_use]
    pub fn new(files_scanned: usize, passes: Vec<&'static str>, findings: Vec<Finding>) -> Report {
        Report { files_scanned, passes, findings }
    }

    /// Findings that gate the build (not waived).
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }

    /// Counts as `(total, active, waived)`.
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize) {
        let waived = self.findings.iter().filter(|f| f.waived).count();
        let total = self.findings.len();
        (total, total - waived, waived)
    }

    /// Serializes the `kadabra-lint/v2` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let (total, active, waived) = self.counts();
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{LINT_SCHEMA}\",\n"));
        s.push_str("  \"engine\": \"ast\",\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        let passes: Vec<String> = self.passes.iter().map(|p| format!("\"{p}\"")).collect();
        s.push_str(&format!("  \"passes\": [{}],\n", passes.join(", ")));
        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            s.push_str(&format!("\"pass\": \"{}\", ", escape(f.pass)));
            s.push_str(&format!("\"file\": \"{}\", ", escape(&f.file)));
            s.push_str(&format!("\"line\": {}, ", f.line));
            s.push_str(&format!("\"col\": {}, ", f.col));
            s.push_str(&format!("\"message\": \"{}\", ", escape(&f.message)));
            s.push_str(&format!("\"excerpt\": \"{}\", ", escape(&f.excerpt)));
            s.push_str(&format!("\"waived\": {}}}", f.waived));
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n");
        s.push_str(&format!(
            "  \"summary\": {{\"total\": {total}, \"active\": {active}, \"waived\": {waived}}}\n"
        ));
        s.push_str("}\n");
        s
    }
}

/// Validates a serialized report against the `kadabra-lint/v2` schema:
/// schema tag, required fields and types, and summary-count consistency.
///
/// # Errors
/// Returns a description of the first schema violation found.
pub fn validate_report(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some(LINT_SCHEMA) {
        return Err(format!("schema tag is {schema:?}, expected {LINT_SCHEMA:?}"));
    }
    let files =
        doc.get("files_scanned").and_then(Json::as_f64).ok_or("missing numeric files_scanned")?;
    if files < 1.0 {
        return Err("files_scanned must be >= 1".to_string());
    }
    let passes = doc.get("passes").and_then(Json::as_array).ok_or("missing passes array")?;
    if passes.is_empty() || !passes.iter().all(|p| p.as_str().is_some()) {
        return Err("passes must be a non-empty array of strings".to_string());
    }
    let findings = doc.get("findings").and_then(Json::as_array).ok_or("missing findings array")?;
    let mut waived = 0u64;
    for (i, f) in findings.iter().enumerate() {
        for key in ["pass", "file", "message", "excerpt"] {
            if f.get(key).and_then(Json::as_str).is_none() {
                return Err(format!("finding {i} lacks string `{key}`"));
            }
        }
        for key in ["line", "col"] {
            let v = f.get(key).and_then(Json::as_f64);
            if v.is_none_or(|v| v < 1.0) {
                return Err(format!("finding {i} lacks positive numeric `{key}`"));
            }
        }
        match f.get("waived") {
            Some(Json::Bool(true)) => waived += 1,
            Some(Json::Bool(false)) => {}
            _ => return Err(format!("finding {i} lacks boolean `waived`")),
        }
    }
    let summary = doc.get("summary").ok_or("missing summary object")?;
    let num = |key: &str| {
        summary.get(key).and_then(Json::as_f64).ok_or_else(|| format!("summary lacks `{key}`"))
    };
    let (total, active, s_waived) = (num("total")?, num("active")?, num("waived")?);
    let consistent =
        total == findings.len() as f64 && s_waived == waived as f64 && active == total - s_waived;
    if !consistent {
        return Err("summary counts are inconsistent with the findings array".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(pass: &'static str, file: &str, excerpt: &str) -> Finding {
        Finding {
            pass,
            hint: "h",
            file: file.to_string(),
            line: 3,
            col: 7,
            excerpt: excerpt.to_string(),
            message: "m".to_string(),
            waived: false,
        }
    }

    #[test]
    fn report_round_trips_through_validation() {
        let mut f = finding("seqcst", "crates/x/src/lib.rs", "a.load(SeqCst);");
        let mut report = Report::new(4, vec!["seqcst", "direct-atomics"], vec![f.clone()]);
        assert!(validate_report(&report.to_json()).is_ok(), "{}", report.to_json());
        f.waived = true;
        report.findings.push(f);
        assert!(validate_report(&report.to_json()).is_ok());
        assert_eq!(report.counts(), (2, 1, 1));
    }

    #[test]
    fn validation_rejects_drift() {
        let report = Report::new(4, vec!["seqcst"], vec![]);
        let good = report.to_json();
        assert!(validate_report(&good.replace("kadabra-lint/v2", "kadabra-lint/v1")).is_err());
        assert!(
            validate_report(&good.replace("\"files_scanned\": 4", "\"files_scanned\": 0")).is_err()
        );
        assert!(validate_report("{}").is_err());
    }
}
