//! Child-process accounting: every stdout/stderr line stamped on arrival by
//! one reader thread per stream, and the child's resource usage (peak RSS,
//! CPU time) from `wait4`. Std only: no libc crate is vendored, so the two
//! foreign calls are declared here.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Clone, Copy, Debug, Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default)]
pub struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

const _: () = assert!(std::mem::size_of::<Rusage>() == 144);

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const WNOHANG: i32 = 1;
const RUSAGE_SELF: i32 = 0;

impl Rusage {
    /// Peak resident set size, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.ru_maxrss as f64 / 1024.0
    }

    /// User + system CPU time, seconds.
    pub fn cpu_s(&self) -> f64 {
        let t = |v: Timeval| v.tv_sec as f64 + v.tv_usec as f64 * 1e-6;
        t(self.ru_utime) + t(self.ru_stime)
    }
}

/// Resource usage of this process so far.
pub fn self_usage() -> Rusage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the size the
    // kernel fills for RUSAGE_SELF (checked by the const assertion above).
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with valid args");
    ru
}

/// Which stream a line came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stream {
    /// Standard output.
    Out,
    /// Standard error.
    Err,
}

/// One output line with its arrival time since launch.
#[derive(Clone, Debug)]
pub struct Line {
    /// Arrival time, measured from just before the child was spawned.
    pub at: Duration,
    /// The line without its terminator.
    pub text: String,
}

/// A running child whose output is being stamped.
pub struct Spawned {
    child: Child,
    launched: Instant,
    rx: Receiver<(Stream, Line)>,
    readers: Vec<JoinHandle<()>>,
    lines: Vec<(Stream, Line)>,
}

/// A child that has ended.
#[derive(Debug)]
pub struct Finished {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// Its resource usage (peak RSS, CPU time).
    pub usage: Rusage,
    /// Wall time from launch to reaping.
    pub wall: Duration,
    /// Stamped stdout lines.
    pub out: Vec<Line>,
    /// Stamped stderr lines.
    pub err: Vec<Line>,
}

impl Finished {
    /// True when the child exited with status 0.
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }

    /// The last few stderr lines, for error messages.
    pub fn stderr_tail(&self) -> String {
        let n = self.err.len();
        self.err[n.saturating_sub(3)..]
            .iter()
            .map(|l| l.text.as_str())
            .collect::<Vec<_>>()
            .join(" | ")
    }
}

fn stamp_lines(
    stream: Stream,
    src: impl Read + Send + 'static,
    launched: Instant,
    tx: Sender<(Stream, Line)>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut reader = BufReader::new(src);
        let mut buf = Vec::new();
        loop {
            buf.clear();
            match reader.read_until(b'\n', &mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    let at = launched.elapsed();
                    while buf.last().is_some_and(|b| *b == b'\n' || *b == b'\r') {
                        buf.pop();
                    }
                    let text = String::from_utf8_lossy(&buf).into_owned();
                    if tx.send((stream, Line { at, text })).is_err() {
                        break;
                    }
                }
            }
        }
    })
}

impl Spawned {
    /// Spawn `cmd` with stdout and stderr piped and stamped.
    pub fn spawn(cmd: &mut Command) -> std::io::Result<Spawned> {
        let launched = Instant::now();
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        let (tx, rx) = channel();
        let out = child.stdout.take().expect("stdout is piped");
        let err = child.stderr.take().expect("stderr is piped");
        let readers = vec![
            stamp_lines(Stream::Out, out, launched, tx.clone()),
            stamp_lines(Stream::Err, err, launched, tx),
        ];
        Ok(Spawned {
            child,
            launched,
            rx,
            readers,
            lines: Vec::new(),
        })
    }

    /// Wait up to `timeout` for the first line on `stream` that satisfies
    /// `pred`; returns its stamp.
    pub fn wait_for(
        &mut self,
        stream: Stream,
        pred: impl Fn(&str) -> bool,
        timeout: Duration,
    ) -> Option<Duration> {
        if let Some((_, l)) = self
            .lines
            .iter()
            .find(|(s, l)| *s == stream && pred(&l.text))
        {
            return Some(l.at);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(left) {
                Ok((s, l)) => {
                    let hit = s == stream && pred(&l.text);
                    let at = l.at;
                    self.lines.push((s, l));
                    if hit {
                        return Some(at);
                    }
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    return None
                }
            }
        }
    }

    /// Send SIGKILL (a no-op if the child already exited).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
    }

    /// Reap the child, killing it first if it outlives `deadline`, and
    /// collect its stamped output and resource usage.
    pub fn finish(mut self, deadline: Instant) -> Finished {
        let pid = self.child.id() as i32;
        let mut status = 0i32;
        let mut usage = Rusage::default();
        let mut killed = false;
        loop {
            let options = if killed { 0 } else { WNOHANG };
            // SAFETY: `status` and `usage` are live, writable and of the
            // types wait4 fills; `pid` is our own unreaped child.
            let rc = unsafe { wait4(pid, &mut status, options, &mut usage) };
            if rc == pid {
                break;
            }
            if rc < 0 {
                let e = std::io::Error::last_os_error();
                if e.kind() == std::io::ErrorKind::Interrupted {
                    continue;
                }
                panic!("wait4({pid}) failed: {e}");
            }
            if Instant::now() >= deadline {
                self.kill();
                killed = true;
            } else {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let wall = self.launched.elapsed();
        for r in self.readers.drain(..) {
            r.join().expect("line reader thread never panics");
        }
        self.lines.extend(self.rx.try_iter());
        let (mut out, mut err) = (Vec::new(), Vec::new());
        for (s, l) in self.lines {
            match s {
                Stream::Out => out.push(l),
                Stream::Err => err.push(l),
            }
        }
        // WIFEXITED: low seven bits clear; the code sits in the next byte.
        let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
        Finished {
            code: if killed { None } else { code },
            usage,
            wall,
            out,
            err,
        }
    }
}

/// Run `cmd` to completion (killed at `deadline`).
pub fn run(cmd: &mut Command, deadline: Instant) -> std::io::Result<Finished> {
    Ok(Spawned::spawn(cmd)?.finish(deadline))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_lines_and_reaps_with_usage() {
        let mut cmd = Command::new("sh");
        cmd.args([
            "-c",
            "echo one; echo two >&2; sleep 0.05; echo three; exit 3",
        ]);
        let done = run(&mut cmd, Instant::now() + Duration::from_secs(10)).unwrap();
        assert_eq!(done.code, Some(3));
        let out: Vec<&str> = done.out.iter().map(|l| l.text.as_str()).collect();
        assert_eq!(out, ["one", "three"]);
        assert_eq!(done.err[0].text, "two");
        assert!(done.out[1].at >= done.out[0].at + Duration::from_millis(40));
        assert!(done.usage.peak_rss_mb() > 0.0);
    }

    #[test]
    fn wait_for_sees_a_line_then_kill_ends_the_child() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo ready >&2; exec sleep 30"]);
        let mut child = Spawned::spawn(&mut cmd).unwrap();
        let at = child.wait_for(Stream::Err, |l| l == "ready", Duration::from_secs(10));
        assert!(at.is_some());
        child.kill();
        let done = child.finish(Instant::now() + Duration::from_secs(10));
        assert_eq!(done.code, None, "a killed child has no exit code");
        assert!(done.wall < Duration::from_secs(10));
    }

    #[test]
    fn self_usage_reports_cpu_and_rss() {
        let ru = self_usage();
        assert!(ru.peak_rss_mb() > 0.0);
        assert!(ru.cpu_s() >= 0.0);
    }
}
