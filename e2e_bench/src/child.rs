//! Child processes with a deadline.
//!
//! Every workload run executes the program in a child process, so a
//! crash ends that child and not the benchmark. The child's stdout is
//! read line by line on a thread that stamps each line with its arrival
//! time; the parent tracks the child's peak resident memory from
//! `/proc/<pid>/status` while it runs.

use std::io::{BufRead, BufReader};
use std::os::unix::process::ExitStatusExt;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a child ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// Exited with this code.
    Code(i32),
    /// Killed by this signal (not sent by the benchmark).
    Signal(i32),
    /// Killed by the benchmark at its deadline.
    Deadline,
}

impl Exit {
    /// Did the child end on its own with status 0?
    pub fn ok(self) -> bool {
        self == Exit::Code(0)
    }

    /// A short label for reports: `exit N`, `signal N` or `deadline`.
    pub fn label(self) -> String {
        match self {
            Exit::Code(c) => format!("exit {c}"),
            Exit::Signal(s) => format!("signal {s}"),
            Exit::Deadline => "deadline".to_string(),
        }
    }
}

/// One stdout line and when it arrived, relative to the spawn.
#[derive(Debug, Clone)]
pub struct Line {
    pub at: Duration,
    pub text: String,
}

/// A running child.
pub struct ChildRun {
    child: Child,
    lines: Receiver<Line>,
    reader: Option<JoinHandle<()>>,
    spawned: Instant,
    deadline: Instant,
    peak_rss_kb: u64,
    exit: Option<Exit>,
}

/// Peak resident set (`VmHWM`) of a live process, in KiB.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

impl ChildRun {
    /// Spawn `cmd` with piped stdin/stdout (stderr passes through) and
    /// a deadline `limit` from now.
    pub fn spawn(mut cmd: Command, limit: Duration) -> std::io::Result<ChildRun> {
        cmd.stdin(Stdio::piped()).stdout(Stdio::piped());
        let spawned = Instant::now();
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = channel();
        let reader = std::thread::spawn(move || {
            for text in BufReader::new(stdout).lines() {
                let Ok(text) = text else { break };
                if tx
                    .send(Line {
                        at: spawned.elapsed(),
                        text,
                    })
                    .is_err()
                {
                    break;
                }
            }
        });
        Ok(ChildRun {
            child,
            lines: rx,
            reader: Some(reader),
            spawned,
            deadline: spawned + limit,
            peak_rss_kb: 0,
            exit: None,
        })
    }

    /// When the child was spawned.
    pub fn spawned(&self) -> Instant {
        self.spawned
    }

    /// The child's stdin, until it is taken (dropping it sends EOF).
    pub fn take_stdin(&mut self) -> Option<ChildStdin> {
        self.child.stdin.take()
    }

    fn sample_rss(&mut self) {
        if self.exit.is_none() {
            if let Some(kb) = peak_rss_kb(self.child.id()) {
                self.peak_rss_kb = self.peak_rss_kb.max(kb);
            }
        }
    }

    /// Record the exit if the child has ended, killing it at its
    /// deadline. Returns the exit once known.
    pub fn poll(&mut self) -> Option<Exit> {
        if self.exit.is_some() {
            return self.exit;
        }
        self.sample_rss();
        match self.child.try_wait() {
            Ok(Some(status)) => {
                self.exit = Some(match (status.code(), status.signal()) {
                    (Some(c), _) => Exit::Code(c),
                    (None, Some(s)) => Exit::Signal(s),
                    (None, None) => Exit::Code(-1),
                });
            }
            Ok(None) if Instant::now() >= self.deadline => {
                self.kill();
                self.exit = Some(Exit::Deadline);
            }
            Ok(None) => {}
            Err(_) => {
                self.kill();
                self.exit = Some(Exit::Code(-1));
            }
        }
        self.exit
    }

    /// The next stdout line, waiting at most until `until` (and never
    /// past the deadline). `None` when no line arrived in time or the
    /// child's stdout closed.
    pub fn next_line(&mut self, until: Instant) -> Option<Line> {
        let until = until.min(self.deadline);
        loop {
            let now = Instant::now();
            if now >= until {
                return self.lines.try_recv().ok();
            }
            let wait = (until - now).min(Duration::from_millis(50));
            match self.lines.recv_timeout(wait) {
                Ok(line) => return Some(line),
                Err(RecvTimeoutError::Timeout) => {
                    self.sample_rss();
                }
                Err(RecvTimeoutError::Disconnected) => {
                    std::thread::sleep(Duration::from_millis(2));
                    return None;
                }
            }
        }
    }

    /// Kill the child (SIGKILL) and reap it.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Wait for the child to end (killing it at its deadline), then
    /// return how it ended, every stdout line not yet read, and its
    /// peak resident memory in KiB as last sampled.
    pub fn finish(mut self) -> (Exit, Vec<Line>, u64) {
        let mut rest = Vec::new();
        let exit = loop {
            if let Some(exit) = self.poll() {
                break exit;
            }
            if let Ok(line) = self.lines.recv_timeout(Duration::from_millis(20)) {
                rest.push(line);
            }
        };
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
        rest.extend(self.lines.try_iter());
        (exit, rest, self.peak_rss_kb)
    }
}

impl Drop for ChildRun {
    fn drop(&mut self) {
        if self.exit.is_none() {
            self.kill();
        }
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Command {
        let mut c = Command::new("sh");
        c.arg("-c").arg(script);
        c
    }

    #[test]
    fn reports_a_signal_and_keeps_earlier_lines() {
        let run = ChildRun::spawn(sh("echo one; kill -SEGV $$"), Duration::from_secs(10)).unwrap();
        let (exit, lines, _) = run.finish();
        assert_eq!(exit, Exit::Signal(11));
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].text, "one");
    }

    #[test]
    fn kills_at_the_deadline() {
        let run = ChildRun::spawn(sh("exec sleep 30"), Duration::from_millis(200)).unwrap();
        let t = Instant::now();
        let (exit, _, _) = run.finish();
        assert_eq!(exit, Exit::Deadline);
        assert!(t.elapsed() < Duration::from_secs(10));
    }
}
