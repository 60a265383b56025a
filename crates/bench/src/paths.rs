//! Runtime output-path resolution.
//!
//! The bench emitters used to bake their default output path at *compile
//! time* via `env!("CARGO_MANIFEST_DIR")`, so a binary restored from a CI
//! cache — or any relocated checkout — silently wrote its baseline to the
//! stale absolute path of the machine that compiled it. The default is now
//! resolved at *run time*: walk up from the current working directory to
//! the enclosing Cargo workspace root, falling back to the working
//! directory itself. `--out` stays the explicit override.

use std::path::{Path, PathBuf};

/// The nearest ancestor of `start` (inclusive) whose `Cargo.toml` declares
/// a `[workspace]`.
pub fn workspace_root_from(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(contents) = std::fs::read_to_string(&manifest) {
                if contents.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// [`workspace_root_from`] anchored at the current working directory.
pub fn workspace_root() -> Option<PathBuf> {
    workspace_root_from(&std::env::current_dir().ok()?)
}

/// Default location for a repo-level output file (`BENCH_pipeline.json`,
/// `BENCH_lifetime.json`, the golden directory): the workspace root when
/// one encloses the working directory, else the working directory.
pub fn default_output_path(file_name: &str) -> PathBuf {
    match workspace_root() {
        Some(root) => root.join(file_name),
        None => PathBuf::from(file_name),
    }
}

/// Where a bench writes its document, resolved before the run so that a
/// bad `--out` fails in milliseconds, not after the whole measurement: no
/// override means [`default_output_path`]; an existing directory gets
/// `default_name` inside it; a file path needs an existing parent
/// directory, else the error names it.
pub fn bench_output_path(out: Option<&Path>, default_name: &str) -> Result<PathBuf, String> {
    let Some(out) = out else {
        return Ok(default_output_path(default_name));
    };
    if out.is_dir() {
        return Ok(out.join(default_name));
    }
    match out.parent() {
        Some(dir) if !dir.as_os_str().is_empty() && !dir.is_dir() => Err(format!(
            "--out {}: directory {} does not exist",
            out.display(),
            dir.display()
        )),
        _ => Ok(out.to_path_buf()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_output_path_resolves_before_the_run() {
        let dir = std::env::temp_dir().join(format!("wsn-bench-out-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let name = "BENCH_x.json";
        assert_eq!(bench_output_path(None, name), Ok(default_output_path(name)));
        // A directory gets the default name inside it.
        assert_eq!(bench_output_path(Some(&dir), name), Ok(dir.join(name)));
        // A file path in an existing directory, or a bare file name, as is.
        let file = dir.join("mine.json");
        assert_eq!(bench_output_path(Some(&file), name), Ok(file));
        let bare = Path::new("mine.json");
        assert_eq!(bench_output_path(Some(bare), name), Ok(bare.to_path_buf()));
        // A missing parent directory is an error that names it.
        let missing = dir.join("absent").join("mine.json");
        let err = bench_output_path(Some(&missing), name).unwrap_err();
        assert!(
            err.contains(&dir.join("absent").display().to_string()),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resolves_the_enclosing_workspace_at_runtime() {
        // Cargo runs tests with cwd = the crate directory, which declares
        // no workspace of its own — resolution must walk up to the root.
        let root = workspace_root().expect("tests run inside the workspace");
        let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
        assert!(manifest.contains("[workspace]"));
        let cwd = std::env::current_dir().unwrap();
        assert_ne!(root, cwd, "the crate directory is not the workspace root");
        assert_eq!(default_output_path("X.json"), root.join("X.json"));
    }

    #[test]
    fn walks_up_from_nested_directories() {
        // Both sides come from the runtime cwd, so a relocated checkout
        // reusing a `target/` built elsewhere still agrees with itself.
        let nested = std::env::current_dir().unwrap().join("src");
        assert_eq!(
            workspace_root_from(&nested),
            workspace_root(),
            "resolution must not depend on the starting depth"
        );
    }

    #[test]
    fn no_workspace_means_none() {
        // A directory tree with no Cargo.toml anywhere above it.
        let dir = std::env::temp_dir().join("wsn-paths-test-no-workspace");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(workspace_root_from(&dir), None);
    }
}
