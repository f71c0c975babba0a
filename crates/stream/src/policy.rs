//! Hot-reloadable policy for the serve loop.
//!
//! When `filterscope serve` is started with `--policy-artifact FILE`, the
//! daemon evaluates every ingested record against a [`PolicyEngine`]
//! built from a policy artifact (`filterscope compile`), and the snapshot
//! thread re-reads the artifact once per cycle. The state machine is
//! deliberately small:
//!
//! ```text
//!            ┌───────────────┐   content unchanged    ┌──────────┐
//!  startup ─►│ serving  vN   │◄───────────────────────│ poll     │
//!            └──────┬────────┘                        └────┬─────┘
//!                   │ content changed                      │
//!                   ▼                                      │
//!            artifact::load: CRC checks, ── fail ──► reject, keep vN,
//!            parse CPL, build engine                   count it
//!                   │ ok
//!                   ▼
//!            atomically swap the shared Arc ──► serving vN+1
//! ```
//!
//! A rejected artifact — torn write, bit rot, wrong version, or a CPL
//! that does not parse — never touches the running engine: workers keep
//! deciding under the last good policy, and the failure is counted on
//! `/metrics`. A successful swap takes effect at each worker's next batch
//! (workers pin the engine `Arc` per batch, never per record), so
//! decisions change between batches without a restart and without a lock
//! on the per-record path.

use filterscope_core::{crc32, Error, Result};
use filterscope_proxy::{artifact, PolicyEngine};
use interleave::{IAtomicU64, IMutex, Ordering};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The shared, swappable engine: workers clone the `Arc` once per batch,
/// the snapshot thread swaps it on a successful reload.
///
/// Generic over the engine so the interleaving model tests can check the
/// swap protocol with a deterministic stamp engine; production uses the
/// default [`PolicyEngine`]. Built on [`IMutex`]/[`IAtomicU64`] so every
/// swap and every per-batch pin is a schedule point under the explorer.
pub struct PolicyCell<E = PolicyEngine> {
    engine: IMutex<Arc<E>>,
    /// Generation counter: 1 for the startup artifact, +1 per swap.
    version: IAtomicU64,
}

impl<E> PolicyCell<E> {
    /// Wrap a startup engine as generation 1.
    pub fn new(engine: E) -> PolicyCell<E> {
        PolicyCell {
            engine: IMutex::new(Arc::new(engine)),
            version: IAtomicU64::new(1),
        }
    }

    /// The engine to decide under right now.
    pub fn current(&self) -> Arc<E> {
        Arc::clone(&self.engine.lock())
    }

    /// Current policy generation (1 = startup artifact).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Install `engine` as the new generation and return its number.
    /// Production only calls this from [`PolicyWatcher::poll`] after the
    /// artifact has loaded; it is public for the model tests, which drive
    /// the swap directly.
    pub fn swap(&self, engine: E) -> u64 {
        *self.engine.lock() = Arc::new(engine);
        self.version.fetch_add(1, Ordering::SeqCst) + 1
    }
}

/// What one reload poll did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReloadOutcome {
    /// Artifact bytes unchanged since the last poll.
    Unchanged,
    /// Artifact loaded and swapped in; the new generation number.
    Swapped(u64),
    /// Artifact changed but failed to load; the running policy is
    /// untouched. Carries the reason.
    Rejected(String),
}

/// Watches one artifact path and drives the swap state machine.
pub struct PolicyWatcher {
    path: PathBuf,
    cell: Arc<PolicyCell>,
    /// CRC of the artifact bytes last acted on (accepted *or* rejected) —
    /// content-based, so rewrites within one mtime granule are still seen,
    /// and a bad artifact is reported once, not once per cycle.
    last_crc: u32,
}

impl PolicyWatcher {
    /// Read and load the artifact at `path`. Startup fails fast: a daemon
    /// must never begin serving under a policy it cannot load.
    pub fn open(path: &Path) -> Result<PolicyWatcher> {
        let bytes = std::fs::read(path)
            .map_err(|e| Error::Io(format!("cannot read {}: {e}", path.display())))?;
        let engine = artifact::load(&bytes, None)?.engine;
        Ok(PolicyWatcher {
            path: path.to_path_buf(),
            cell: Arc::new(PolicyCell::new(engine)),
            last_crc: crc32(&bytes),
        })
    }

    /// The shared cell, for ingest workers.
    pub fn cell(&self) -> Arc<PolicyCell> {
        Arc::clone(&self.cell)
    }

    /// Re-read the artifact; if its bytes changed, load and swap (or
    /// reject). Called from the snapshot loop — artifacts are small and
    /// cycles are ≥ tens of milliseconds apart, so a full read per poll
    /// is cheaper than being wrong about mtime granularity.
    pub fn poll(&mut self) -> ReloadOutcome {
        let bytes = match std::fs::read(&self.path) {
            Ok(b) => b,
            Err(e) => {
                return ReloadOutcome::Rejected(format!("cannot read {}: {e}", self.path.display()))
            }
        };
        let crc = crc32(&bytes);
        if crc == self.last_crc {
            return ReloadOutcome::Unchanged;
        }
        self.last_crc = crc;
        match artifact::load(&bytes, None) {
            Ok(compiled) => ReloadOutcome::Swapped(self.cell.swap(compiled.engine)),
            Err(e) => ReloadOutcome::Rejected(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterscope_core::ByteWriter;
    use filterscope_logformat::RequestUrl;
    use filterscope_proxy::{Decision, PolicyData, RuleFamily, Trigger};

    fn temp_file(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fs-policy-{tag}-{}.fscp", std::process::id()))
    }

    /// A well-formed artifact (every CRC valid) around arbitrary CPL text.
    fn artifact_with_cpl(cpl: &str) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str(cpl);
        let cpl = w.into_bytes();
        let seed = 1u64.to_le_bytes();
        let mut h = ByteWriter::new();
        h.put_raw(&artifact::MAGIC);
        h.put_u32(artifact::VERSION);
        h.put_u32(2);
        let sections = [
            (artifact::SEC_SOURCE_CPL, 0, &cpl[..]),
            (artifact::SEC_META, cpl.len(), &seed[..]),
        ];
        for (id, offset, body) in sections {
            h.put_u32(id);
            h.put_u64(offset as u64);
            h.put_u64(body.len() as u64);
            h.put_u32(crc32(body));
        }
        let header_crc = crc32(h.as_slice());
        h.put_u32(header_crc);
        let mut out = h.into_bytes();
        out.extend_from_slice(&cpl);
        out.extend_from_slice(&seed);
        out
    }

    #[test]
    fn open_poll_swap_and_reject_cycle() {
        let path = temp_file("cycle");
        let full = PolicyData::standard();
        std::fs::write(&path, artifact::compile(&full, 1)).unwrap();
        let mut watcher = PolicyWatcher::open(&path).unwrap();
        let cell = watcher.cell();
        assert_eq!(cell.version(), 1);
        let url = RequestUrl::http("google.com", "/tbproxy/af/query");
        assert_eq!(
            cell.current().decide_url(&url),
            Decision::Deny(Trigger::Keyword)
        );

        // Same bytes → no swap.
        assert_eq!(watcher.poll(), ReloadOutcome::Unchanged);

        // New artifact without keywords → swap, decision changes.
        let ablated = full.clone().without(RuleFamily::Keywords);
        std::fs::write(&path, artifact::compile(&ablated, 1)).unwrap();
        assert_eq!(watcher.poll(), ReloadOutcome::Swapped(2));
        assert_eq!(cell.version(), 2);
        assert_eq!(cell.current().decide_url(&url), Decision::Allow);

        // Corrupt artifact → rejected, running policy untouched, and the
        // same bad bytes are not re-reported on the next poll.
        let mut bad = artifact::compile(&full, 1);
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(watcher.poll(), ReloadOutcome::Rejected(_)));
        assert_eq!(cell.version(), 2);
        assert_eq!(cell.current().decide_url(&url), Decision::Allow);
        assert_eq!(watcher.poll(), ReloadOutcome::Unchanged);

        // A torn write and a CPL that does not parse are rejected the same
        // way.
        let good = artifact::compile(&full, 1);
        let unparseable = artifact_with_cpl("define condition blocked_domains\n");
        for bad in [&good[..good.len() - 1], &unparseable[..]] {
            std::fs::write(&path, bad).unwrap();
            assert!(matches!(watcher.poll(), ReloadOutcome::Rejected(_)));
            assert_eq!(cell.version(), 2);
            assert_eq!(cell.current().decide_url(&url), Decision::Allow);
        }

        // A good artifact recovers.
        std::fs::write(&path, artifact::compile(&full, 1)).unwrap();
        assert_eq!(watcher.poll(), ReloadOutcome::Swapped(3));
        assert_eq!(
            cell.current().decide_url(&url),
            Decision::Deny(Trigger::Keyword)
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn startup_fails_fast_on_garbage() {
        // The helper builds loadable artifacts from good CPL...
        let cpl = filterscope_proxy::cpl::to_cpl(&PolicyData::standard());
        assert!(artifact::load(&artifact_with_cpl(&cpl), None).is_ok());
        // ...so the unparseable one below fails on its CPL alone.
        let path = temp_file("garbage");
        std::fs::write(&path, b"not an artifact").unwrap();
        assert!(PolicyWatcher::open(&path).is_err());
        std::fs::write(&path, artifact_with_cpl("define nonsense\n")).unwrap();
        assert!(PolicyWatcher::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
        assert!(PolicyWatcher::open(&path).is_err());
    }
}
