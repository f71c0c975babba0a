//! The program under test runs as a separate process. This module starts
//! it, reads what it cost (wall time, CPU time, peak RSS) and talks to the
//! serve daemon's plaintext HTTP endpoint.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

/// Cost of one finished program run.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub wall_s: f64,
    /// User + system CPU seconds of the process and all its threads.
    pub cpu_s: f64,
    /// Peak resident set size (the kernel's high-water mark) in KiB.
    pub maxrss_kb: u64,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs of
/// which the first is `ru_maxrss` (KiB).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reap `child` with `wait4(2)`, which returns the exact CPU time and peak
/// RSS of the finished process (what `/proc` can no longer show once it
/// has exited). Fails when the program did not exit with status 0.
pub fn reap(child: Child, what: &str) -> Result<(f64, u64), String> {
    let pid = i32::try_from(child.id()).map_err(|_| format!("{what}: pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `pid` is our own unreaped child (std never waits on it:
        // `child` is consumed here and dropping a `Child` does not wait),
        // and both out-pointers refer to live, properly sized locals whose
        // `#[repr(C)]` layouts match the 64-bit Linux ABI.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("{what}: wait4 failed: {err}"));
        }
    }
    drop(child);
    if status != 0 {
        return Err(format!("{what}: exited with wait status {status:#x}"));
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    let maxrss = u64::try_from(usage.maxrss).unwrap_or(0);
    Ok((secs(&usage.utime) + secs(&usage.stime), maxrss))
}

/// Run `cmd` to completion and measure it.
pub fn run_measured(cmd: &mut Command, what: &str) -> Result<Usage, String> {
    let started = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| format!("{what}: cannot start: {e}"))?;
    let (cpu_s, maxrss_kb) = reap(child, what)?;
    Ok(Usage {
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s,
        maxrss_kb,
    })
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed
/// at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds a live process has used so far.
pub fn cpu_s(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|v| v as f64 / USER_HZ)
            .ok_or_else(|| "malformed /proc stat".to_string())
    };
    Ok(tick(11)? + tick(12)?)
}

/// Whether a child has exited (is a zombie awaiting `reap`) or is gone.
pub fn exited(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(stat) => stat
            .rsplit_once(')')
            .is_some_and(|(_, rest)| rest.trim_start().starts_with(['Z', 'X'])),
        Err(_) => true,
    }
}

/// The peak resident set size (`VmHWM`, KiB) of a live process.
pub fn hwm_kb(pid: u32) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM for process {pid}"))
}

/// `GET path` over HTTP/1.0; the body of a 200 answer.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut sock = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    sock.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(sock, "GET {path} HTTP/1.0\r\n\r\n")?;
    let mut page = String::new();
    sock.read_to_string(&mut page)?;
    match page.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.0 200") => Ok(body.to_string()),
        _ => Err(std::io::Error::other(format!("bad answer to GET {path}"))),
    }
}

/// The value of the first `/metrics` line starting with `name ` (labels
/// included in `name`).
pub fn gauge(page: &str, name: &str) -> Option<f64> {
    page.lines().find_map(|l| {
        l.strip_prefix(name)
            .and_then(|v| v.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reap_reports_cpu_and_rss_of_a_finished_child() {
        let usage = run_measured(
            Command::new("sh").args(["-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"]),
            "sh",
        )
        .unwrap();
        assert!(usage.cpu_s > 0.0 && usage.cpu_s <= usage.wall_s * 1.5);
        assert!(usage.maxrss_kb > 0);
        assert!(run_measured(&mut Command::new("false"), "false").is_err());
    }

    #[test]
    fn gauges_parse_by_full_name() {
        let page = "a_total 3\na_total{conn=\"x\"} 5\nb 1.5\n";
        assert_eq!(gauge(page, "a_total"), Some(3.0));
        assert_eq!(gauge(page, "a_total{conn=\"x\"}"), Some(5.0));
        assert_eq!(gauge(page, "b"), Some(1.5));
        assert_eq!(gauge(page, "c"), None);
    }
}
