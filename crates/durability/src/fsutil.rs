//! Filesystem helpers with crash-safe semantics.

use std::fs::{self, File};
use std::io::Write;
use std::path::Path;

use crate::{DurabilityError, Result};

/// Writes `bytes` to `path` atomically: a temporary sibling file is
/// written and fsync'd, renamed over the target, and the directory entry
/// is fsync'd. A crash at any point leaves either the old file or the new
/// one — never a partial mix.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path.file_name().ok_or_else(|| {
        DurabilityError::corrupt(format!("invalid target path {}", path.display()))
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);

    let ctx = || format!("writing {}", path.display());
    let mut f = File::create(&tmp).map_err(|e| DurabilityError::io(ctx(), e))?;
    f.write_all(bytes)
        .map_err(|e| DurabilityError::io(ctx(), e))?;
    f.sync_all().map_err(|e| DurabilityError::io(ctx(), e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| DurabilityError::io(ctx(), e))?;
    if let Some(dir) = dir {
        sync_dir(dir)?;
    }
    Ok(())
}

/// fsyncs a directory so a just-renamed entry survives a crash. Best
/// effort on platforms where directories cannot be opened for sync.
pub fn sync_dir(dir: &Path) -> Result<()> {
    match File::open(dir) {
        Ok(f) => f
            .sync_all()
            .map_err(|e| DurabilityError::io(format!("syncing directory {}", dir.display()), e)),
        // Opening a directory read-only can fail on some platforms; the
        // rename itself is still atomic there.
        Err(_) => Ok(()),
    }
}

/// Reads a whole file, mapping failures to typed I/O errors.
pub fn read_file(path: &Path) -> Result<Vec<u8>> {
    fs::read(path).map_err(|e| DurabilityError::io(format!("reading {}", path.display()), e))
}

/// Creates a directory (and parents) if absent.
pub fn ensure_dir(path: &Path) -> Result<()> {
    fs::create_dir_all(path)
        .map_err(|e| DurabilityError::io(format!("creating directory {}", path.display()), e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_round_trips() {
        let dir = std::env::temp_dir().join("rdfviews_fsutil_test");
        ensure_dir(&dir).unwrap();
        let path = dir.join("blob.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(read_file(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(read_file(&path).unwrap(), b"second");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_missing_is_typed_io() {
        let err = read_file(Path::new("/nonexistent/rdfviews/nope.bin")).unwrap_err();
        assert!(matches!(err, DurabilityError::Io { .. }));
    }
}
