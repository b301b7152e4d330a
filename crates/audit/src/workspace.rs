//! Workspace walking, path classification, and the checked-in allowlist.
//!
//! [`run_audit`] is the whole pipeline: walk every `.rs` file under the
//! workspace root (skipping `target/` and `.git/`), classify each path to
//! decide which lints apply, run [`crate::lints::lint_source`], and filter
//! the findings through the allowlist. The binary in `main.rs` is a thin
//! CLI over this function so the integration tests can drive the identical
//! pipeline against fixture trees.
//!
//! # Path classification
//!
//! * **Library code** (default): all four lints apply as configured.
//! * **Exempt from library-only lints** (`no-unwrap`, `no-println`):
//!   integration tests (`tests/`), benches (`benches/`), examples
//!   (`examples/`), binary targets (`src/bin/`, `src/main.rs`), build
//!   scripts (`build.rs`), and the loadgen/CLI-style crates listed in
//!   [`Config::bin_crate_prefixes`]. `#[cfg(test)]` modules inside library
//!   files are exempted by the lint itself, not by path.
//! * **Kernel modules** ([`Config::kernel_prefixes`]): `Instant::now()` is
//!   banned. The superstep inner loops live in `crates/sparse/src`; timing
//!   belongs at engine phase boundaries.
//!
//! The SAFETY lint applies *everywhere*, including tests and bins — an
//! undocumented `unsafe` in a test is still an undocumented invariant.
//!
//! # Allowlist format (`crates/audit/audit.allow`)
//!
//! One waiver per line; blank lines and `#` comments ignored:
//!
//! ```text
//! <lint-id> <path-prefix> -- <one-line justification>
//! ```
//!
//! The prefix is matched against the `/`-separated path relative to the
//! workspace root, so `no-println crates/perf/ -- report printer owns
//! stdout` would waive that lint for the whole crate. Entries that matched
//! nothing are reported as warnings so the allowlist cannot rot.

use crate::lints::{self, Diagnostic, FileClass, LintId};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// What the audit walks and how paths are classified.
pub struct Config {
    /// Path prefixes (relative, `/`-separated) of superstep kernel modules
    /// where `Instant::now()` is banned.
    pub kernel_prefixes: Vec<String>,
    /// Path prefixes of crates that are binaries in spirit (CLI harnesses)
    /// even where the code lives under `src/`.
    pub bin_crate_prefixes: Vec<String>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            kernel_prefixes: vec!["crates/sparse/src/".into()],
            bin_crate_prefixes: vec!["crates/bench/".into(), "benchmark/".into()],
        }
    }
}

/// One parsed allowlist entry.
pub struct AllowEntry {
    /// The waived lint.
    pub lint: LintId,
    /// Relative-path prefix the waiver covers.
    pub prefix: String,
    /// Mandatory one-line justification.
    pub justification: String,
    /// Set while filtering; unused entries are reported.
    pub used: bool,
}

/// The checked-in file-level allowlist.
#[derive(Default)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parse the `audit.allow` format; returns `Err` with a message naming
    /// the offending line on malformed input.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (spec, justification) = line.split_once(" -- ").ok_or_else(|| {
                format!(
                    "allowlist line {}: missing ` -- <justification>`",
                    lineno + 1
                )
            })?;
            let justification = justification.trim();
            if justification.is_empty() {
                return Err(format!(
                    "allowlist line {}: empty justification",
                    lineno + 1
                ));
            }
            let (id, prefix) = spec.trim().split_once(char::is_whitespace).ok_or_else(|| {
                format!(
                    "allowlist line {}: expected `<lint-id> <path-prefix>`",
                    lineno + 1
                )
            })?;
            let lint = LintId::parse(id)
                .ok_or_else(|| format!("allowlist line {}: unknown lint id `{id}`", lineno + 1))?;
            entries.push(AllowEntry {
                lint,
                prefix: prefix.trim().to_string(),
                justification: justification.to_string(),
                used: false,
            });
        }
        Ok(Allowlist { entries })
    }

    /// Is this diagnostic waived? Marks the matching entry used.
    fn covers(&mut self, rel_path: &str, diag: &Diagnostic) -> bool {
        let mut hit = false;
        for entry in &mut self.entries {
            if entry.lint == diag.lint && rel_path.starts_with(entry.prefix.as_str()) {
                entry.used = true;
                hit = true;
            }
        }
        hit
    }
}

/// Classify a relative (`/`-separated) path per the module docs.
pub fn classify(rel_path: &str, config: &Config) -> FileClass {
    let exempt_markers = ["tests/", "benches/", "examples/", "src/bin/"];
    let exempt_from_lib_lints = exempt_markers
        .iter()
        .any(|m| rel_path.starts_with(m) || rel_path.contains(&format!("/{m}")))
        || rel_path.ends_with("src/main.rs")
        || rel_path.ends_with("build.rs")
        || config
            .bin_crate_prefixes
            .iter()
            .any(|p| rel_path.starts_with(p.as_str()));
    let kernel = config
        .kernel_prefixes
        .iter()
        .any(|p| rel_path.starts_with(p.as_str()));
    FileClass {
        exempt_from_lib_lints,
        kernel,
    }
}

/// Everything one audit run produced.
pub struct AuditReport {
    /// Violations surviving the allowlist, as (relative path, diagnostic),
    /// sorted by path then line.
    pub violations: Vec<(String, Diagnostic)>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Allowlist entries that matched no diagnostic this run.
    pub unused_allow: Vec<String>,
}

impl AuditReport {
    /// Did the audit pass?
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Walk `root` and audit every Rust file (see module docs).
pub fn run_audit(
    root: &Path,
    allowlist: &mut Allowlist,
    config: &Config,
) -> io::Result<AuditReport> {
    let mut files = Vec::new();
    collect_rust_files(root, &mut files)?;
    files.sort();

    let mut violations = Vec::new();
    for path in &files {
        let rel = relative_slash_path(root, path);
        let source = fs::read_to_string(path)?;
        let class = classify(&rel, config);
        for diag in lints::lint_source(&source, class) {
            if !allowlist.covers(&rel, &diag) {
                violations.push((rel.clone(), diag));
            }
        }
    }
    violations.sort_by(|a, b| (a.0.as_str(), a.1.line).cmp(&(b.0.as_str(), b.1.line)));

    let unused_allow = allowlist
        .entries
        .iter()
        .filter(|e| !e.used)
        .map(|e| format!("{} {}", e.lint.id(), e.prefix))
        .collect();
    Ok(AuditReport {
        violations,
        files_scanned: files.len(),
        unused_allow,
    })
}

/// Recursively gather `.rs` files, skipping build output and VCS internals.
fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rust_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated regardless of platform.
fn relative_slash_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_library_vs_exempt_paths() {
        let config = Config::default();
        assert!(!classify("crates/core/src/engine.rs", &config).exempt_from_lib_lints);
        assert!(classify("tests/engine_behaviour.rs", &config).exempt_from_lib_lints);
        assert!(classify("crates/core/benches/spmv.rs", &config).exempt_from_lib_lints);
        assert!(classify("crates/server/src/bin/server.rs", &config).exempt_from_lib_lints);
        assert!(classify("crates/io/examples/load.rs", &config).exempt_from_lib_lints);
        assert!(classify("crates/bench/src/figures.rs", &config).exempt_from_lib_lints);
    }

    #[test]
    fn classify_kernel_paths() {
        let config = Config::default();
        assert!(classify("crates/sparse/src/spmv.rs", &config).kernel);
        assert!(!classify("crates/core/src/engine.rs", &config).kernel);
    }

    #[test]
    fn allowlist_parse_and_match() {
        let mut allow = match Allowlist::parse(
            "# comment\n\nno-println crates/perf/ -- report printer owns stdout\n",
        ) {
            Ok(a) => a,
            Err(e) => panic!("parse failed: {e}"),
        };
        assert_eq!(allow.entries.len(), 1);
        let diag = Diagnostic {
            lint: LintId::NoPrintln,
            line: 3,
            message: String::new(),
        };
        assert!(allow.covers("crates/perf/src/lib.rs", &diag));
        assert!(!allow.covers("crates/core/src/engine.rs", &diag));
        let other = Diagnostic {
            lint: LintId::NoUnwrap,
            line: 3,
            message: String::new(),
        };
        assert!(!allow.covers("crates/perf/src/lib.rs", &other));
    }

    #[test]
    fn allowlist_rejects_malformed_lines() {
        assert!(Allowlist::parse("no-println crates/foo/").is_err());
        assert!(Allowlist::parse("no-println crates/foo/ -- ").is_err());
        assert!(Allowlist::parse("bogus-lint crates/foo/ -- why").is_err());
        assert!(Allowlist::parse("no-println -- why").is_err());
    }
}
