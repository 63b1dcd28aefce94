//! A scratch directory under the system temp dir that removes itself when
//! dropped, so a failing assertion does not leave it behind.

use std::path::{Path, PathBuf};

/// `chaser-<name>-<pid>` under the system temp dir, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates the directory, emptying a leftover of the same name first.
    pub fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("chaser-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
