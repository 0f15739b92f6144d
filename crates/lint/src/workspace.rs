//! Workspace file discovery: every `.rs` file under the repository root,
//! excluding build output (`target/`), the vendored dependency stand-ins
//! (`vendor/` — external code held to its upstream's standards) and VCS
//! internals.

use crate::LintError;
use std::fs;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".claude"];

/// Collect `(absolute, workspace-relative)` paths of all lintable `.rs`
/// files under `root`, sorted by relative path for deterministic output.
pub fn discover(root: &Path) -> Result<Vec<(PathBuf, String)>, LintError> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort_by(|a, b| a.1.cmp(&b.1));
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(PathBuf, String)>) -> Result<(), LintError> {
    let entries = fs::read_dir(dir).map_err(|e| LintError::io(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError::io(dir, e))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push((path, rel));
        }
    }
    Ok(())
}

/// Locate the workspace root by walking up from `start` to the first
/// directory containing a `Cargo.toml` that declares `[workspace]`.
pub fn find_root(start: &Path) -> Result<PathBuf, LintError> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(LintError::NoWorkspaceRoot(start.to_path_buf()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovers_this_crate_and_skips_vendor() {
        let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
        let files = discover(&root).expect("discover");
        let rels: Vec<&str> = files.iter().map(|(_, r)| r.as_str()).collect();
        assert!(rels.contains(&"crates/lint/src/workspace.rs"));
        // Newly-added crates are picked up with no registration step.
        assert!(rels.contains(&"crates/serve/src/lib.rs"));
        assert!(!rels.iter().any(|r| r.starts_with("vendor/")));
        assert!(!rels.iter().any(|r| r.starts_with("target/")));
        // Sorted and unique.
        let mut sorted = rels.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(rels, sorted);
    }
}
