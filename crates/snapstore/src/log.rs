//! The append-only snapshot log: open-with-recovery, append, compaction.
//!
//! # Recovery
//!
//! [`SnapLog::open`] scans the file frame by frame. The first frame that
//! fails to decode — torn tail from a crash mid-append, or corruption —
//! ends the scan; everything after it is truncated away and the log
//! resumes from the clean prefix (fail closed: at most the last
//! un-CRC'd frame is lost, never a prefix re-interpreted). Sequence
//! numbers resume after the last good frame.
//!
//! # Compaction
//!
//! When the log grows past its size budget, [`SnapLog::compact`]
//! rewrites it as a single [`FrameKind::Checkpoint`] frame holding the
//! cumulative state, through [`filterscope_core::fs::atomic_write`]:
//! write a `<log>.tmp` sibling, fsync, rename over the log, then
//! best-effort fsync of the directory. Subsequent deltas append after
//! the checkpoint; a crash anywhere leaves either the old log or the
//! new one, never a mix.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use filterscope_core::fs::atomic_write;
use filterscope_core::{Error, Result};

use crate::frame::{Frame, FrameKind};

/// What [`SnapLog::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Frames that decoded cleanly.
    pub frames: u64,
    /// Bytes truncated from the torn tail (0 = the log was clean).
    pub truncated_bytes: u64,
}

/// An open snapshot log with an append handle.
#[derive(Debug)]
pub struct SnapLog {
    path: PathBuf,
    file: File,
    bytes: u64,
    frames: u64,
    next_seq: u64,
    last_compaction_seq: u64,
    max_bytes: u64,
    recovery: RecoveryReport,
}

/// Scan `data` for clean frames; returns the frames and the byte length
/// of the clean prefix.
fn scan(data: &[u8]) -> (Vec<Frame>, usize) {
    let mut frames = Vec::new();
    let mut offset = 0;
    while offset < data.len() {
        match Frame::decode(&data[offset..]) {
            Ok((frame, n)) => {
                frames.push(frame);
                offset += n;
            }
            Err(_) => break,
        }
    }
    (frames, offset)
}

/// Read every clean frame of a log file without taking an append handle
/// (the `history` read path). A missing file is an error; an empty file
/// is an empty frame list.
pub fn read_frames(path: &Path) -> Result<(Vec<Frame>, RecoveryReport)> {
    let data = std::fs::read(path)
        .map_err(|e| Error::Io(format!("cannot read snapshot log {}: {e}", path.display())))?;
    let (frames, clean) = scan(&data);
    let report = RecoveryReport {
        frames: frames.len() as u64,
        truncated_bytes: (data.len() - clean) as u64,
    };
    Ok((frames, report))
}

impl SnapLog {
    /// Open (or create) the log at `path`, recovering from a torn tail by
    /// truncating to the clean prefix. `max_bytes` is the compaction
    /// trigger ([`SnapLog::should_compact`]); 0 disables size-triggered
    /// compaction.
    pub fn open(path: &Path, max_bytes: u64) -> Result<SnapLog> {
        let data = match std::fs::read(path) {
            Ok(data) => data,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => {
                return Err(Error::Io(format!(
                    "cannot read snapshot log {}: {e}",
                    path.display()
                )))
            }
        };
        let (frames, clean) = scan(&data);
        let recovery = RecoveryReport {
            frames: frames.len() as u64,
            truncated_bytes: (data.len() - clean) as u64,
        };
        if recovery.truncated_bytes > 0 {
            // Fail-closed recovery: drop the torn tail on disk before
            // appending anything after it.
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(clean as u64)?;
            f.sync_all()?;
        }
        // Sequences are 1-based so that 0 can mean "no frame yet" in
        // `last_seq` and in the gauges built on it.
        let next_seq = frames.last().map_or(1, |f| f.seq + 1);
        let last_compaction_seq = frames
            .iter()
            .rev()
            .find(|f| f.kind == FrameKind::Checkpoint)
            .map_or(0, |f| f.seq);
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(SnapLog {
            path: path.to_path_buf(),
            file,
            bytes: clean as u64,
            frames: frames.len() as u64,
            next_seq,
            last_compaction_seq,
            max_bytes,
            recovery,
        })
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current log size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Frames currently in the log.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Sequence number of the last frame written (0 = none yet).
    pub fn last_seq(&self) -> u64 {
        self.next_seq.saturating_sub(1)
    }

    /// Sequence of the last compaction checkpoint (0 = never compacted).
    pub fn last_compaction_seq(&self) -> u64 {
        self.last_compaction_seq
    }

    /// What [`SnapLog::open`] found.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Append one frame (durable before return) and return its sequence.
    pub fn append(&mut self, kind: FrameKind, ts: u64, key: &str, value: Vec<u8>) -> Result<u64> {
        let seq = self.next_seq;
        let frame = Frame {
            kind,
            seq,
            ts,
            key: key.to_string(),
            value,
        };
        let bytes = frame.encode();
        self.file.write_all(&bytes)?;
        self.file.sync_data()?;
        self.bytes += bytes.len() as u64;
        self.frames += 1;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// Has the log outgrown its size budget?
    pub fn should_compact(&self) -> bool {
        self.max_bytes > 0 && self.bytes > self.max_bytes
    }

    /// Rewrite the log as one checkpoint frame holding `value` (the
    /// cumulative state through the last appended frame). Returns the
    /// checkpoint's sequence number.
    pub fn compact(&mut self, ts: u64, key: &str, value: Vec<u8>) -> Result<u64> {
        let seq = self.next_seq;
        let frame = Frame {
            kind: FrameKind::Checkpoint,
            seq,
            ts,
            key: key.to_string(),
            value,
        };
        let encoded = frame.encode();
        // A crash leaves the old log or the new one, never a name
        // pointing at unflushed blocks.
        atomic_write(&self.path, &encoded)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.bytes = encoded.len() as u64;
        self.frames = 1;
        self.next_seq = seq + 1;
        self.last_compaction_seq = seq;
        Ok(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fs-snaplog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("snap.log")
    }

    #[test]
    fn append_reopen_resumes_seq() {
        let path = temp_path("resume");
        let mut log = SnapLog::open(&path, 0).unwrap();
        assert_eq!(
            log.append(FrameKind::Delta, 10, "suite", vec![1]).unwrap(),
            1
        );
        assert_eq!(
            log.append(FrameKind::Delta, 20, "suite", vec![2]).unwrap(),
            2
        );
        drop(log);
        let mut log = SnapLog::open(&path, 0).unwrap();
        assert_eq!(log.frames(), 2);
        assert_eq!(log.recovery().truncated_bytes, 0);
        assert_eq!(
            log.append(FrameKind::Delta, 30, "suite", vec![3]).unwrap(),
            3
        );
        let (frames, _) = read_frames(&path).unwrap();
        assert_eq!(frames.iter().map(|f| f.seq).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(frames[2].ts, 30);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let path = temp_path("torn");
        let mut log = SnapLog::open(&path, 0).unwrap();
        log.append(FrameKind::Delta, 10, "suite", vec![1; 100])
            .unwrap();
        log.append(FrameKind::Delta, 20, "suite", vec![2; 100])
            .unwrap();
        drop(log);
        // Crash mid-append: half a frame's worth of garbage at the tail.
        let mut data = std::fs::read(&path).unwrap();
        let clean_len = data.len();
        data.extend_from_slice(&[0xAB; 37]);
        std::fs::write(&path, &data).unwrap();

        let log = SnapLog::open(&path, 0).unwrap();
        assert_eq!(log.frames(), 2);
        assert_eq!(log.recovery().truncated_bytes, 37);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len as u64);
        drop(log);

        // Corruption *inside* the last frame loses that frame only.
        let mut data = std::fs::read(&path).unwrap();
        let last = data.len() - 50;
        data[last] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let mut log = SnapLog::open(&path, 0).unwrap();
        assert_eq!(log.frames(), 1, "only the corrupted frame is lost");
        assert_eq!(
            log.append(FrameKind::Delta, 30, "suite", vec![3]).unwrap(),
            2
        );
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn compaction_rewrites_to_single_checkpoint() {
        let path = temp_path("compact");
        let mut log = SnapLog::open(&path, 64).unwrap();
        for i in 0..4 {
            log.append(FrameKind::Delta, i * 10, "suite", vec![i as u8; 40])
                .unwrap();
        }
        assert!(log.should_compact());
        let seq = log.compact(40, "suite", vec![9; 40]).unwrap();
        assert_eq!(seq, 5);
        assert_eq!(log.frames(), 1);
        assert_eq!(log.last_compaction_seq(), 5);
        // Deltas continue after the checkpoint; reopen sees both.
        log.append(FrameKind::Delta, 50, "suite", vec![5]).unwrap();
        drop(log);
        let (frames, report) = read_frames(&path).unwrap();
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].kind, FrameKind::Checkpoint);
        assert_eq!(frames[0].seq, 5);
        assert_eq!(frames[1].kind, FrameKind::Delta);
        assert_eq!(frames[1].seq, 6);
        let log = SnapLog::open(&path, 64).unwrap();
        assert_eq!(log.last_compaction_seq(), 5);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn missing_file_opens_empty() {
        let path = temp_path("fresh");
        let log = SnapLog::open(&path, 0).unwrap();
        assert_eq!(log.frames(), 0);
        assert_eq!(log.last_seq(), 0);
        assert!(!log.should_compact());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
