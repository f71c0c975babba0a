//! Source-invariant lint for the concurrency-critical core.
//!
//! A token-level scanner (comments, string/char literals, and raw
//! strings are blanked before matching — no false positives from docs)
//! that enforces the discipline the interleaving explorer depends on:
//!
//! 1. **Bare-sync ban** — the guarded modules (the four modeled
//!    protocols' homes) must not import `std::sync::{Mutex, Condvar,
//!    mpsc}` or `AtomicU64`; shared state there goes through the
//!    `interleave` primitives so the explorer sees every operation.
//! 2. **Unsafe headers** — every crate root carries
//!    `#![forbid(unsafe_code)]`. The one exception is `crates/stream`
//!    (`#![deny(unsafe_code)]`), whose single `#[allow(unsafe_code)]`
//!    lives in `shutdown.rs` next to a `Safety` comment for the
//!    `signal(2)` FFI.
//! 3. **Time ban** — no `Instant::now`/`SystemTime::now` in
//!    model-checked code paths: wall-clock reads make schedules
//!    irreproducible, so deadlines are injected as closures.
//! 4. **Rename ban** — no bare `fs::rename` outside `crates/core/src/fs.rs`:
//!    `core::fs::atomic_write` is the one tmp-write-fsync-rename, so a
//!    file is never published without its data synced first.
//!
//! The scan is deliberately dumb (no parser, no new dependencies): it
//! understands just enough Rust lexical structure to blank non-code
//! text, then does whole-word matching. That keeps it honest to audit
//! and fast enough for tier-1.

use std::path::{Path, PathBuf};

/// One broken invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Stable rule id: `bare-sync`, `unsafe-header`, `unsafe-use`,
    /// `wall-clock`, `bare-rename`.
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Modules whose shared state must go through `interleave` primitives.
const GUARDED_SYNC: &[&str] = &[
    "crates/stream/src/server.rs",
    "crates/stream/src/proto.rs",
    "crates/stream/src/policy.rs",
    "crates/stream/src/shutdown.rs",
    "crates/stream/src/metrics.rs",
    "crates/snapstore/src/log.rs",
];

/// `std::sync` names banned inside guarded modules.
const BANNED_SYNC: &[&str] = &["Mutex", "Condvar", "mpsc", "AtomicU64"];

/// Model-checked paths where wall-clock reads are banned. Directory
/// prefixes end with `/`.
const TIME_BANNED: &[&str] = &[
    "crates/stream/src/proto.rs",
    "crates/stream/src/policy.rs",
    "crates/snapstore/src/",
];

/// The crate allowed to keep `#![deny(unsafe_code)]` instead of forbid
/// (its `shutdown.rs` carries the workspace's one `allow`).
const DENY_EXCEPTION: &str = "crates/stream/src/lib.rs";

/// The one file allowed to call `fs::rename` (inside `atomic_write`).
const RENAME_EXCEPTION: &str = "crates/core/src/fs.rs";

/// The one file allowed to contain `unsafe` (with a Safety comment).
const UNSAFE_EXCEPTION: &str = "crates/stream/src/shutdown.rs";

/// Blank comments, string literals, char literals, and raw strings with
/// spaces, preserving newlines (so line numbers survive). Handles nested
/// block comments, escapes, and `r#"…"#` raw strings.
pub fn strip_tokens(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = vec![b' '; bytes.len()];
    let mut i = 0;
    // Copy newlines through unconditionally so line mapping holds.
    for (idx, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            out[idx] = b'\n';
        }
    }
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
            }
            b'r' if is_raw_string_start(bytes, i) => {
                // r"..." or r#"..."# (any hash count).
                let mut j = i + 1;
                let mut hashes = 0;
                while j < bytes.len() && bytes[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                // skip opening quote
                j += 1;
                // scan for closing quote followed by `hashes` hashes
                while j < bytes.len() {
                    if bytes[j] == b'"' {
                        let mut k = j + 1;
                        let mut seen = 0;
                        while k < bytes.len() && bytes[k] == b'#' && seen < hashes {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            j = k;
                            break;
                        }
                    }
                    j += 1;
                }
                i = j;
            }
            b'\'' if is_char_literal(bytes, i) => {
                i += 1;
                if i < bytes.len() && bytes[i] == b'\\' {
                    i += 2;
                } else {
                    i += 1;
                }
                // closing quote
                if i < bytes.len() && bytes[i] == b'\'' {
                    i += 1;
                }
            }
            _ => {
                out[i] = b;
                i += 1;
            }
        }
    }
    String::from_utf8(out).unwrap_or_default()
}

/// Is `bytes[i] == b'r'` the start of a raw string (`r"` / `r#`), and
/// not the tail of an identifier like `writer`?
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    if i > 0 {
        let prev = bytes[i - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' {
            return false;
        }
    }
    let mut j = i + 1;
    while j < bytes.len() && bytes[j] == b'#' {
        j += 1;
    }
    j < bytes.len() && bytes[j] == b'"'
}

/// Distinguish char literals from lifetimes (`'a`) and labels
/// (`'outer:`): a char literal closes with `'` after one (possibly
/// escaped) character.
fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    if i + 1 >= bytes.len() {
        return false;
    }
    if bytes[i + 1] == b'\\' {
        return true;
    }
    i + 2 < bytes.len() && bytes[i + 2] == b'\''
}

/// Does `text` contain `word` bounded by non-identifier characters?
fn contains_word(text: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = text[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0
            || !text.as_bytes()[at - 1].is_ascii_alphanumeric() && text.as_bytes()[at - 1] != b'_';
        let end = at + word.len();
        let after_ok = end >= text.len()
            || !text.as_bytes()[end].is_ascii_alphanumeric() && text.as_bytes()[end] != b'_';
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

fn is_guarded_sync(path: &str) -> bool {
    GUARDED_SYNC.contains(&path)
}

fn is_time_banned(path: &str) -> bool {
    TIME_BANNED.iter().any(|p| {
        if p.ends_with('/') {
            path.starts_with(p)
        } else {
            path == *p
        }
    })
}

/// Lint one file's contents under its repo-relative path. Pure — the
/// negative tests feed synthetic sources through this.
pub fn check_source(path: &str, source: &str) -> Vec<Violation> {
    let stripped = strip_tokens(source);
    let mut violations = Vec::new();

    if is_guarded_sync(path) {
        // A `use std::sync::…` statement can wrap across lines; buffer
        // from the line introducing `std::sync` to the terminating `;`.
        let mut pending: Option<(usize, String)> = None;
        for (idx, line) in stripped.lines().enumerate() {
            let lineno = idx + 1;
            if let Some((start, buf)) = &mut pending {
                buf.push(' ');
                buf.push_str(line);
                if line.contains(';') {
                    let (start, buf) = (*start, std::mem::take(buf));
                    pending = None;
                    flag_bare_sync(path, start, &buf, &mut violations);
                }
                continue;
            }
            if line.contains("std::sync") {
                if line.contains(';') || !line.trim_start().starts_with("use ") {
                    flag_bare_sync(path, lineno, line, &mut violations);
                } else {
                    pending = Some((lineno, line.to_string()));
                }
            }
        }
        if let Some((start, buf)) = pending {
            flag_bare_sync(path, start, &buf, &mut violations);
        }
    }

    if is_time_banned(path) {
        for (idx, line) in stripped.lines().enumerate() {
            for clock in ["Instant::now", "SystemTime::now"] {
                if line.contains(clock) {
                    violations.push(Violation {
                        file: path.to_string(),
                        line: idx + 1,
                        rule: "wall-clock",
                        message: format!(
                            "{clock} in a model-checked path; inject time (deadline \
                             closures / frame timestamps) so schedules replay"
                        ),
                    });
                }
            }
        }
    }

    if path != RENAME_EXCEPTION {
        for (idx, line) in stripped.lines().enumerate() {
            if contains_word(line, "fs::rename") {
                violations.push(Violation {
                    file: path.to_string(),
                    line: idx + 1,
                    rule: "bare-rename",
                    message: format!(
                        "bare fs::rename outside {RENAME_EXCEPTION}; publish files with \
                         core::fs::atomic_write so the data is synced before the rename"
                    ),
                });
            }
        }
    }

    // Unsafe usage: banned everywhere except the documented exception.
    if path != UNSAFE_EXCEPTION {
        for (idx, line) in stripped.lines().enumerate() {
            if contains_word(line, "unsafe") && !line.contains("unsafe_code") {
                violations.push(Violation {
                    file: path.to_string(),
                    line: idx + 1,
                    rule: "unsafe-use",
                    message: format!(
                        "`unsafe` outside {UNSAFE_EXCEPTION}; the workspace forbids \
                         unsafe code everywhere else"
                    ),
                });
            }
        }
    } else {
        // The exception must carry its licence: the allow attribute and a
        // Safety comment (checked in the raw source — it *is* a comment).
        if stripped.contains("unsafe") && !stripped.contains("#[allow(unsafe_code)]") {
            violations.push(Violation {
                file: path.to_string(),
                line: 1,
                rule: "unsafe-use",
                message: "unsafe in shutdown.rs without #[allow(unsafe_code)]".to_string(),
            });
        }
        if stripped.contains("unsafe") && !source.contains("Safety") {
            violations.push(Violation {
                file: path.to_string(),
                line: 1,
                rule: "unsafe-use",
                message: "unsafe in shutdown.rs without a Safety comment".to_string(),
            });
        }
    }

    // Crate roots must pin their unsafe stance.
    if path.ends_with("src/lib.rs") {
        let forbid = stripped.contains("#![forbid(unsafe_code)]");
        let deny = stripped.contains("#![deny(unsafe_code)]");
        let ok = if path == DENY_EXCEPTION {
            forbid || deny
        } else {
            forbid
        };
        if !ok {
            violations.push(Violation {
                file: path.to_string(),
                line: 1,
                rule: "unsafe-header",
                message: if path == DENY_EXCEPTION {
                    "crate root must carry #![deny(unsafe_code)] (or forbid)".to_string()
                } else {
                    "crate root must carry #![forbid(unsafe_code)]".to_string()
                },
            });
        }
    }

    violations
}

fn flag_bare_sync(path: &str, line: usize, text: &str, out: &mut Vec<Violation>) {
    for name in BANNED_SYNC {
        if contains_word(text, name) {
            out.push(Violation {
                file: path.to_string(),
                line,
                rule: "bare-sync",
                message: format!(
                    "bare std::sync::{name} in a guarded module; use the interleave \
                     primitive so the schedule explorer can see the operation"
                ),
            });
        }
    }
}

/// Walk the workspace at `root` and lint every `.rs` source file.
pub fn check_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    for top in ["src", "crates", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut violations = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source = std::fs::read_to_string(&file)?;
        violations.extend(check_source(&rel, &source));
    }
    Ok(violations)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_blanks_comments_strings_and_chars() {
        let src = r###"
// std::sync::Mutex in a line comment
/* std::sync::Mutex in /* a nested */ block */
let s = "std::sync::Mutex in a string";
let r = r#"std::sync::Mutex raw"#;
let c = '"';
let keep = std_sync_free();
"###;
        let stripped = strip_tokens(src);
        assert!(!stripped.contains("Mutex"));
        assert!(stripped.contains("keep = std_sync_free()"));
        assert_eq!(
            stripped.matches('\n').count(),
            src.matches('\n').count(),
            "newlines preserved for line numbering"
        );
    }

    #[test]
    fn bare_sync_flagged_only_in_guarded_modules() {
        let bad = "use std::sync::Mutex;\n";
        let hits = check_source("crates/stream/src/server.rs", bad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "bare-sync");
        assert_eq!(hits[0].line, 1);
        assert!(check_source("crates/analysis/src/suite.rs", bad).is_empty());
        // Arc is fine even in guarded modules.
        let ok = "use std::sync::Arc;\nuse std::sync::atomic::Ordering;\n";
        assert!(check_source("crates/stream/src/server.rs", ok).is_empty());
    }

    #[test]
    fn bare_rename_flagged_outside_atomic_write() {
        let bad = "let x = 1;\nstd::fs::rename(&tmp, &path)?;\n";
        let hits = check_source("crates/stream/src/snapshot.rs", bad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "bare-rename");
        assert_eq!(hits[0].line, 2);
        let short = "use std::fs;\nfs::rename(a, b).unwrap();\n";
        assert_eq!(check_source("tests/cli.rs", short).len(), 1);
        assert!(check_source("crates/core/src/fs.rs", bad).is_empty());
        // Docs and strings naming the call are not calls.
        let ok = "// fs::rename here would skip the fsync\nlet s = \"fs::rename\";\n";
        assert!(check_source("crates/stream/src/snapshot.rs", ok).is_empty());
    }

    #[test]
    fn bare_sync_catches_multiline_use_lists() {
        let bad = "use std::sync::{\n    Arc,\n    Mutex,\n};\n";
        let hits = check_source("crates/stream/src/policy.rs", bad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 1);
        let bad2 = "use std::sync::atomic::{AtomicU64, Ordering};\n";
        assert_eq!(check_source("crates/stream/src/metrics.rs", bad2).len(), 1);
    }

    #[test]
    fn bare_sync_in_comment_or_string_is_ignored() {
        let ok = "// std::sync::Mutex discussion\nlet s = \"std::sync::mpsc\";\n";
        assert!(check_source("crates/stream/src/server.rs", ok).is_empty());
    }

    #[test]
    fn wall_clock_banned_in_model_checked_paths() {
        let bad = "let t = Instant::now();\n";
        let hits = check_source("crates/stream/src/proto.rs", bad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "wall-clock");
        assert!(check_source("crates/stream/src/server.rs", bad).is_empty());
        let bad2 = "let t = SystemTime::now();\n";
        assert_eq!(check_source("crates/snapstore/src/log.rs", bad2).len(), 1);
    }

    #[test]
    fn unsafe_rules() {
        let bad = "unsafe { core::hint::unreachable_unchecked() }\n";
        let hits = check_source("crates/analysis/src/suite.rs", bad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "unsafe-use");
        // The exception file needs both the allow and a Safety comment.
        let licensed =
            "#[allow(unsafe_code)]\n// Safety: signal handler is a plain store\nunsafe { x() }\n";
        assert!(check_source("crates/stream/src/shutdown.rs", licensed).is_empty());
        let unlicensed = "unsafe { x() }\n";
        assert_eq!(
            check_source("crates/stream/src/shutdown.rs", unlicensed).len(),
            2
        );
    }

    #[test]
    fn crate_roots_need_forbid_header() {
        assert_eq!(
            check_source("crates/analysis/src/lib.rs", "pub mod suite;\n").len(),
            1
        );
        assert!(check_source(
            "crates/analysis/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod suite;\n"
        )
        .is_empty());
        // stream may deny instead of forbid (shutdown.rs FFI).
        assert!(check_source(
            "crates/stream/src/lib.rs",
            "#![deny(unsafe_code)]\npub mod server;\n"
        )
        .is_empty());
        assert_eq!(
            check_source("crates/stream/src/lib.rs", "pub mod server;\n").len(),
            1
        );
    }
}
