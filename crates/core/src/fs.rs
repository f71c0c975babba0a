//! Crash-safe file replacement.
//!
//! Every file `filterscope` rewrites in place — serve snapshots, the
//! compacted snap-log, compiled policy artifacts — goes through
//! [`atomic_write`], so a reader (or a restart after a crash) sees either
//! the old bytes or the new ones, never a torn or unflushed file.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// Replace `path` with `bytes` atomically: write a `<name>.tmp` sibling,
/// `sync_all` it, rename it over `path`, then sync the directory.
///
/// The data is durable *before* the rename publishes the name, so a crash
/// can never leave `path` pointing at unflushed blocks. The directory sync
/// (which makes the rename itself survive a crash) is best-effort: not
/// every platform or filesystem allows fsync on a directory handle, and a
/// write must not fail over that.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} names no file", path.display()),
        )
    })?;
    let mut tmp_name = name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overwrites_in_place_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("fs-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.bin");

        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer");
        atomic_write(&path, b"").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"");

        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["out.bin"], "only the target remains");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_path_without_a_file_name_is_an_error() {
        assert!(atomic_write(Path::new("/"), b"x").is_err());
        assert!(atomic_write(Path::new(".."), b"x").is_err());
    }
}
