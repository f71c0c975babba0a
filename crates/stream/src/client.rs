//! The `filterscope stream` client: replay a corpus or log files against
//! a running serve daemon over N framed connections.
//!
//! The dispatcher walks the records once, partitions each line onto a
//! connection (by proxy — at seven connections the replay is exactly the
//! paper's one-feed-per-proxy topology), batches lines into frames, and
//! hands full frames to per-connection sender threads over bounded
//! queues. A [`Pacer`] optionally compresses log time onto the wall
//! clock; the default replays as fast as the daemon accepts, which is
//! how the serve integration tests and the throughput bench run.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, SyncSender};

use filterscope_core::{Error, ProxyId, Result};
use filterscope_logformat::frame::MAX_PAYLOAD;
use filterscope_logformat::{Frame, LineSplitter, Schema};
use filterscope_synth::{stream_csv_lines, Corpus, Pacer};

/// Frames in flight per connection before the dispatcher blocks.
const SENDER_QUEUE: usize = 8;

/// Configuration for one replay run.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Daemon address to connect to (`host:port`).
    pub connect: String,
    /// Number of concurrent connections (7 = one per proxy).
    pub connections: usize,
    /// Data lines per `Batch` frame.
    pub batch_lines: usize,
    /// Log-seconds replayed per wall-second (0 = as fast as possible).
    pub compress: f64,
}

/// Counters from one replay run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSummary {
    /// Data lines sent.
    pub lines: u64,
    /// `Batch` frames sent.
    pub batches: u64,
    /// Payload bytes sent (excluding frame headers).
    pub bytes: u64,
    /// Lines sent per connection, in connection order.
    pub per_connection: Vec<u64>,
}

/// Replay a synthetic corpus against the daemon, in generation order.
pub fn stream_corpus(corpus: &Corpus, cfg: &StreamConfig) -> Result<StreamSummary> {
    run(cfg, |emit| {
        let mut pacer = Pacer::new(cfg.compress);
        let fanout = cfg.connections;
        stream_csv_lines(corpus, |proxy, ts, line| {
            pacer.pace(ts);
            let conn = proxy.map(|p| p.index() % fanout).unwrap_or(0);
            emit(conn, line.as_bytes());
        });
        Ok(())
    })
}

/// Replay existing log files against the daemon. `#` comment lines are
/// dropped (the wire format carries canonical-schema data lines only);
/// lines that do not parse are forwarded anyway, so the daemon's
/// parse-error accounting matches a batch `analyze` over the same files.
pub fn stream_files(paths: &[PathBuf], cfg: &StreamConfig) -> Result<StreamSummary> {
    run(cfg, |emit| {
        let schema = Schema::canonical();
        let mut splitter = LineSplitter::new();
        let mut pacer = Pacer::new(cfg.compress);
        let fanout = cfg.connections;
        let mut buf = Vec::new();
        for path in paths {
            let file =
                File::open(path).map_err(|e| Error::Io(format!("{}: {e}", path.display())))?;
            let mut reader = BufReader::new(file);
            let mut line_no = 0u64;
            loop {
                buf.clear();
                let n = reader
                    .read_until(b'\n', &mut buf)
                    .map_err(|e| Error::Io(format!("{}: {e}", path.display())))?;
                if n == 0 {
                    break;
                }
                line_no += 1;
                let mut line = &buf[..];
                while let Some(b'\n' | b'\r') = line.last() {
                    line = &line[..line.len() - 1];
                }
                if line.is_empty() {
                    continue;
                }
                let conn = match std::str::from_utf8(line) {
                    Ok(text) if text.starts_with('#') => continue,
                    Ok(text) => match schema.parse_view(&mut splitter, text, line_no) {
                        Ok(view) => {
                            pacer.pace(view.timestamp);
                            view.proxy().map(|p| p.index() % fanout).unwrap_or(0)
                        }
                        Err(_) => 0,
                    },
                    Err(_) => 0,
                };
                emit(conn, line);
            }
        }
        Ok(())
    })
}

/// The connection label sent in the `Hello` frame: at seven connections
/// the proxy names themselves, otherwise a generic ordinal.
fn label_for(conn: usize, connections: usize) -> String {
    if connections == 7 {
        if let Some(proxy) = ProxyId::from_index(conn) {
            return proxy.label().to_string();
        }
    }
    format!("conn-{conn}")
}

/// Dispatcher + sender scaffold shared by both replay sources: `feed`
/// pushes `(connection, line)` pairs through `emit`; full batches flow
/// to the per-connection sender threads over bounded queues.
fn run(
    cfg: &StreamConfig,
    feed: impl FnOnce(&mut dyn FnMut(usize, &[u8])) -> Result<()>,
) -> Result<StreamSummary> {
    if cfg.connections == 0 {
        return Err(Error::Io(
            "stream needs at least one connection".to_string(),
        ));
    }
    let batch_lines = cfg.batch_lines.max(1);
    let mut txs: Vec<Option<SyncSender<Vec<u8>>>> = Vec::with_capacity(cfg.connections);
    let mut rxs: Vec<Receiver<Vec<u8>>> = Vec::with_capacity(cfg.connections);
    for _ in 0..cfg.connections {
        let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(SENDER_QUEUE);
        txs.push(Some(tx));
        rxs.push(rx);
    }

    std::thread::scope(|scope| -> Result<StreamSummary> {
        let handles: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                let addr = cfg.connect.clone();
                let label = label_for(i, cfg.connections);
                scope.spawn(move || send_connection(&addr, &label, rx))
            })
            .collect();

        let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); cfg.connections];
        let mut buffered: Vec<usize> = vec![0; cfg.connections];
        let mut per_connection: Vec<u64> = vec![0; cfg.connections];
        let mut lines = 0u64;
        let mut batches = 0u64;
        let mut bytes = 0u64;
        {
            // A send error means the sender already failed; its
            // connect/write error surfaces at join below.
            let mut flush = |buf: &mut Vec<u8>, buffered: &mut usize, conn: usize| {
                if buf.is_empty() {
                    return;
                }
                let payload = std::mem::take(buf);
                bytes += payload.len() as u64;
                batches += 1;
                *buffered = 0;
                if let Some(tx) = &txs[conn] {
                    let _ = tx.send(payload);
                }
            };
            let mut emit = |conn: usize, line: &[u8]| {
                let conn = conn % cfg.connections;
                let buf = &mut bufs[conn];
                // A batch is bounded by line count *and* by the frame
                // payload ceiling — counting lines alone lets long lines
                // build a payload `Frame::batch` rejects, killing the
                // replay mid-stream.
                if buf.len() + line.len() + 1 > MAX_PAYLOAD {
                    flush(buf, &mut buffered[conn], conn);
                }
                buf.extend_from_slice(line);
                buf.push(b'\n');
                buffered[conn] += 1;
                lines += 1;
                per_connection[conn] += 1;
                if buffered[conn] >= batch_lines {
                    flush(buf, &mut buffered[conn], conn);
                }
            };
            feed(&mut emit)?;
        }
        for (conn, buf) in bufs.into_iter().enumerate() {
            if !buf.is_empty() {
                bytes += buf.len() as u64;
                batches += 1;
                if let Some(tx) = &txs[conn] {
                    let _ = tx.send(buf);
                }
            }
        }
        // Closing the queues lets every sender finish with `Bye`.
        for tx in &mut txs {
            tx.take();
        }
        for handle in handles {
            handle.join().expect("sender thread panicked")?;
        }
        Ok(StreamSummary {
            lines,
            batches,
            bytes,
            per_connection,
        })
    })
}

/// One sender: connect, `Hello`, stream queued batches, `Bye`, flush.
fn send_connection(addr: &str, label: &str, rx: Receiver<Vec<u8>>) -> Result<()> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| Error::Io(format!("cannot connect to {addr}: {e}")))?;
    let _ = stream.set_nodelay(true);
    let mut w = BufWriter::new(stream);
    Frame::hello(label).write_to(&mut w)?;
    while let Ok(payload) = rx.recv() {
        Frame::batch(payload).write_to(&mut w)?;
    }
    Frame::bye().write_to(&mut w)?;
    use std::io::Write as _;
    w.flush().map_err(Error::from)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterscope_logformat::frame::batch_lines;
    use filterscope_logformat::FrameKind;
    use std::io::Read as _;
    use std::net::TcpListener;

    #[test]
    fn labels_are_proxy_names_at_seven_connections() {
        assert_eq!(label_for(0, 7), "SG-42");
        assert_eq!(label_for(6, 7), "SG-48");
        assert_eq!(label_for(2, 3), "conn-2");
    }

    #[test]
    fn long_lines_never_build_an_oversize_frame() {
        // 5 lines of ~3 MiB with a 100-line batch cap: counting lines
        // alone would build a ~15 MiB payload the frame encoder rejects.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let line = vec![b'x'; 3 * 1024 * 1024];
        let lines: Vec<Vec<u8>> = (0..5).map(|_| line.clone()).collect();
        let (summary, payload_sizes) = std::thread::scope(|s| {
            let accept = s.spawn(move || {
                let (mut sock, _) = listener.accept().unwrap();
                let mut wire = Vec::new();
                sock.read_to_end(&mut wire).unwrap();
                let mut cursor = std::io::Cursor::new(&wire);
                let mut sizes = Vec::new();
                let mut got_lines = 0usize;
                while let Some(frame) = Frame::read_from(&mut cursor).unwrap() {
                    if frame.kind == FrameKind::Batch {
                        sizes.push(frame.payload.len());
                        got_lines += batch_lines(&frame.payload).count();
                    }
                }
                assert_eq!(got_lines, 5);
                sizes
            });
            let cfg = StreamConfig {
                connect: addr.to_string(),
                connections: 1,
                batch_lines: 100,
                compress: 0.0,
            };
            let summary = run(&cfg, |emit| {
                for l in &lines {
                    emit(0, l);
                }
                Ok(())
            })
            .unwrap();
            (summary, accept.join().unwrap())
        });
        assert_eq!(summary.lines, 5);
        assert!(summary.batches >= 2, "must split: {}", summary.batches);
        for size in payload_sizes {
            assert!(size <= MAX_PAYLOAD, "oversize payload of {size} bytes");
        }
    }

    #[test]
    fn corpus_replay_frames_every_line_exactly_once() {
        use filterscope_synth::SynthConfig;
        let corpus = Corpus::new(SynthConfig::new(1 << 20).unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let connections = 3usize;
        let (summary, mut received) = std::thread::scope(|s| {
            let accept = s.spawn(move || {
                let mut got: Vec<String> = Vec::new();
                for _ in 0..connections {
                    let (mut sock, _) = listener.accept().unwrap();
                    let mut wire = Vec::new();
                    sock.read_to_end(&mut wire).unwrap();
                    let mut cursor = std::io::Cursor::new(&wire);
                    let mut saw_bye = false;
                    while let Some(frame) = Frame::read_from(&mut cursor).unwrap() {
                        match frame.kind {
                            FrameKind::Hello => {
                                assert!(frame.payload_str().unwrap().starts_with("conn-"));
                            }
                            FrameKind::Batch => {
                                for line in batch_lines(&frame.payload) {
                                    got.push(String::from_utf8(line.to_vec()).unwrap());
                                }
                            }
                            FrameKind::Bye => saw_bye = true,
                        }
                    }
                    assert!(saw_bye, "stream must end with Bye");
                }
                got
            });
            let cfg = StreamConfig {
                connect: addr.to_string(),
                connections,
                batch_lines: 50,
                compress: 0.0,
            };
            let summary = stream_corpus(&corpus, &cfg).unwrap();
            (summary, accept.join().unwrap())
        });
        let mut expected = Vec::new();
        filterscope_synth::stream_csv_lines(&corpus, |_, _, line| {
            expected.push(line.to_string());
        });
        assert_eq!(summary.lines as usize, expected.len());
        assert_eq!(
            summary.per_connection.iter().sum::<u64>(),
            summary.lines,
            "partition must cover every line"
        );
        // Same multiset of lines (ordering interleaves across connections).
        received.sort();
        expected.sort();
        assert_eq!(received, expected);
    }
}
