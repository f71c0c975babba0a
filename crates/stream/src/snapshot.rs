//! Atomic checkpoint snapshots for the serve daemon.
//!
//! Each snapshot is three files in the snapshot directory:
//!
//! * `report.txt` — the rendered analysis report, byte-identical to what
//!   `filterscope analyze` prints to stdout for the same records;
//! * `summary.json` — the machine-readable summary, byte-identical to
//!   `analyze --json`;
//! * `status.json` — snapshot sequence number and ingest counters.
//!
//! Every file is replaced with [`filterscope_core::fs::atomic_write`]
//! (`.tmp` sibling, fsync, rename), so a reader never observes a torn
//! file and a crashed host never resurrects a pre-rename ghost: without
//! the fsync before the rename, a power loss can leave the *final* name
//! pointing at a file whose data blocks were never flushed. `status.json`
//! is renamed last:
//! once a reader sees sequence `n` in `status.json`, the matching report
//! and summary are already in place. Stale `.tmp` siblings from a
//! previous crashed run are removed at startup.

use std::path::{Path, PathBuf};

use filterscope_core::fs::atomic_write;
use filterscope_core::Result;

/// Snapshot-log observability recorded into `status.json` when the serve
/// daemon writes a snap log alongside its snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapLogStatus {
    /// Sequence of the last frame appended to the log.
    pub log_seq: u64,
    /// Frames recovered from the log at startup (0 on a fresh log).
    pub recovered_frames: u64,
}

/// Writes atomic snapshots into a directory.
#[derive(Debug)]
pub struct SnapshotWriter {
    dir: PathBuf,
    seq: u64,
}

impl SnapshotWriter {
    /// Create the snapshot directory (and parents) if needed, and clean
    /// up `.tmp` files a crashed predecessor may have left mid-write.
    pub fn new(dir: &Path) -> Result<SnapshotWriter> {
        std::fs::create_dir_all(dir)?;
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp") && path.is_file() {
                // Best-effort: a cleanup failure must not block startup.
                let _ = std::fs::remove_file(&path);
            }
        }
        Ok(SnapshotWriter {
            dir: dir.to_path_buf(),
            seq: 0,
        })
    }

    /// The snapshot directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number of the last snapshot written (0 = none yet).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Write one snapshot: `report` (already newline-terminated by the
    /// caller), `summary` JSON, and a `status.json` recording the new
    /// sequence number plus ingest counters — and, when a snap log is
    /// being written, the log's position so recovery is observable.
    /// Returns the new sequence.
    pub fn write(
        &mut self,
        report: &str,
        summary: &str,
        records: u64,
        parse_errors: u64,
        snap_log: Option<SnapLogStatus>,
    ) -> Result<u64> {
        let seq = self.seq + 1;
        self.replace("report.txt", report.as_bytes())?;
        self.replace("summary.json", summary.as_bytes())?;
        let log_fields = match snap_log {
            Some(s) => format!(
                ",\n  \"log_seq\": {},\n  \"recovered_frames\": {}",
                s.log_seq, s.recovered_frames
            ),
            None => String::new(),
        };
        let status = format!(
            "{{\n  \"snapshot\": {seq},\n  \"records\": {records},\n  \"parse_errors\": {parse_errors}{log_fields}\n}}\n"
        );
        self.replace("status.json", status.as_bytes())?;
        self.seq = seq;
        Ok(seq)
    }

    fn replace(&self, name: &str, bytes: &[u8]) -> Result<()> {
        Ok(atomic_write(&self.dir.join(name), bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fs-snapshot-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn snapshots_replace_in_place_and_bump_seq() {
        let dir = temp_dir("basic");
        let mut writer = SnapshotWriter::new(&dir).unwrap();
        assert_eq!(writer.seq(), 0);

        assert_eq!(writer.write("report one\n", "{}", 10, 0, None).unwrap(), 1);
        assert_eq!(
            writer
                .write("report two\n", "{\"a\":1}", 25, 2, None)
                .unwrap(),
            2
        );
        assert_eq!(writer.seq(), 2);

        let report = std::fs::read_to_string(dir.join("report.txt")).unwrap();
        assert_eq!(report, "report two\n");
        let summary = std::fs::read_to_string(dir.join("summary.json")).unwrap();
        assert_eq!(summary, "{\"a\":1}");
        let status = std::fs::read_to_string(dir.join("status.json")).unwrap();
        assert!(status.contains("\"snapshot\": 2"), "{status}");
        assert!(status.contains("\"records\": 25"), "{status}");
        assert!(status.contains("\"parse_errors\": 2"), "{status}");
        assert!(!status.contains("log_seq"), "no snap log, no log fields");

        writer
            .write(
                "report three\n",
                "{}",
                30,
                2,
                Some(SnapLogStatus {
                    log_seq: 7,
                    recovered_frames: 3,
                }),
            )
            .unwrap();
        let status = std::fs::read_to_string(dir.join("status.json")).unwrap();
        assert!(status.contains("\"log_seq\": 7"), "{status}");
        assert!(status.contains("\"recovered_frames\": 3"), "{status}");

        // No temp files linger.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                !name.to_string_lossy().ends_with(".tmp"),
                "leftover temp file {name:?}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmp_files_are_cleaned_at_startup() {
        let dir = temp_dir("stale");
        std::fs::create_dir_all(&dir).unwrap();
        // A crashed predecessor left a half-written temp file; a real
        // snapshot from that run must survive the cleanup.
        std::fs::write(dir.join("report.txt.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("summary.json.tmp"), b"{\"torn\"").unwrap();
        std::fs::write(dir.join("report.txt"), b"complete\n").unwrap();

        let mut writer = SnapshotWriter::new(&dir).unwrap();
        assert!(!dir.join("report.txt.tmp").exists());
        assert!(!dir.join("summary.json.tmp").exists());
        assert_eq!(
            std::fs::read_to_string(dir.join("report.txt")).unwrap(),
            "complete\n"
        );

        writer.write("fresh\n", "{}", 1, 0, None).unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("report.txt")).unwrap(),
            "fresh\n"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
