//! Server process lifecycle. A [`Server`] is one spawned release
//! `catd`/`catd_router`: its `listening on` line is scraped from stdout,
//! its resident memory is sampled while it serves, and its CPU time is read
//! from `/proc/<pid>/stat` once it has exited but before it is reaped.
//! Every other path — an error, a timeout, a panic unwinding through the
//! benchmark — kills and reaps it in `Drop`, so a failed run leaves no
//! orphan server burning a core during the next one.

use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::clock::Stamp;

/// How long a server may take from spawn to its `listening on` line
/// (a `--resume` recovery included).
const LISTEN_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a server may take to exit once its session is over.
const EXIT_TIMEOUT_S: f64 = 30.0;

/// What a finished server used.
#[derive(Clone, Debug)]
pub struct Usage {
    /// User + system CPU seconds over the process lifetime.
    pub cpu_s: f64,
    /// Peak resident set (`VmHWM`) last seen while it ran, in KiB.
    pub peak_kib: u64,
}

/// One spawned server process.
pub struct Server {
    tag: &'static str,
    child: Option<Child>,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
    log: Vec<String>,
    addr: String,
    peak_kib: u64,
}

impl Server {
    /// Spawns `bin args…` with stdout captured line by line. `tag` is the
    /// prefix of the server's scrape lines (`catd`, `catd_router`).
    pub fn spawn(bin: &Path, tag: &'static str, args: &[String]) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("spawn {}: {e}", bin.display())))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let reader = thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(Server {
            tag,
            child: Some(child),
            lines,
            reader: Some(reader),
            log: Vec::new(),
            addr: String::new(),
            peak_kib: 0,
        })
    }

    /// Blocks until the server prints `<tag>: listening on <addr>`.
    ///
    /// # Errors
    ///
    /// A timeout, or the server exiting first (its log is in the message).
    pub fn wait_listening(&mut self) -> io::Result<()> {
        let prefix = format!("{}: listening on ", self.tag);
        let start = Stamp::now();
        loop {
            let left = LISTEN_TIMEOUT.saturating_sub(Duration::from_secs_f64(start.elapsed_s()));
            match self.lines.recv_timeout(left) {
                Ok(line) => {
                    let addr = line.strip_prefix(&prefix).map(str::to_string);
                    self.log.push(line);
                    if let Some(addr) = addr {
                        self.addr = addr;
                        return Ok(());
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("{} did not report its address: {:?}", self.tag, self.log),
                    ))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(io::Error::other(format!(
                        "{} exited before listening: {:?}",
                        self.tag, self.log
                    )))
                }
            }
        }
    }

    /// The scraped listen address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Folds the server's current `VmHWM` into its peak. A no-op once the
    /// process has exited (a zombie has no memory map).
    pub fn sample_rss(&mut self) {
        if let Some(kib) = self.pid().and_then(read_vm_hwm_kib) {
            self.peak_kib = self.peak_kib.max(kib);
        }
    }

    /// Kills the server now (the session watchdog).
    pub fn kill(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
        }
    }

    /// Waits for the server to exit, reads its CPU time while it is a
    /// zombie, reaps it and checks its exit status.
    ///
    /// # Errors
    ///
    /// A server that does not exit in time (it is killed), a nonzero exit,
    /// or an unreadable `/proc/<pid>/stat`.
    pub fn finish(mut self) -> io::Result<Usage> {
        let pid = self.pid().expect("a server is reaped only once");
        let start = Stamp::now();
        let cpu_ticks = loop {
            match read_stat(pid) {
                Some(stat) if stat.state == 'Z' => break stat.cpu_ticks,
                Some(_) if start.elapsed_s() < EXIT_TIMEOUT_S => {
                    thread::sleep(Duration::from_millis(1));
                }
                Some(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("{} (pid {pid}) did not exit after its session", self.tag),
                    ))
                }
                None => {
                    return Err(io::Error::other(format!(
                        "{} (pid {pid}): /proc/{pid}/stat unreadable before reaping",
                        self.tag
                    )))
                }
            }
        };
        let status = self.child.take().expect("checked above").wait()?;
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        self.log.extend(self.lines.try_iter());
        if !status.success() {
            return Err(io::Error::other(format!(
                "{} exited with {status}: {:?}",
                self.tag, self.log
            )));
        }
        Ok(Usage {
            cpu_s: cpu_ticks as f64 / clock_ticks_per_second(),
            peak_kib: self.peak_kib,
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// The fields of `/proc/<pid>/stat` the benchmark reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcStat {
    /// Process state (`R`, `S`, `Z`, …).
    pub state: char,
    /// `utime + stime`, in clock ticks.
    pub cpu_ticks: u64,
}

/// Parses a `/proc/<pid>/stat` line. The command name may hold spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<ProcStat> {
    let rest = &line[line.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the command: state, ppid, pgrp, session, tty_nr, tpgid, flags,
    // minflt, cminflt, majflt, cmajflt, utime, stime, …
    let state = fields.first()?.chars().next()?;
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(ProcStat {
        state,
        cpu_ticks: utime + stime,
    })
}

fn read_stat(pid: u32) -> Option<ProcStat> {
    parse_stat(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Parses the `VmHWM` line of a `/proc/<pid>/status` file, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn read_vm_hwm_kib(pid: u32) -> Option<u64> {
    parse_vm_hwm_kib(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// `USER_HZ` from `getconf CLK_TCK`, or Linux's fixed 100 if that fails.
fn clock_ticks_per_second() -> f64 {
    static TICKS: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .stderr(Stdio::null())
            .output()
            .ok()
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .and_then(|s| s.trim().parse::<f64>().ok())
            .filter(|&hz| hz > 0.0)
            .unwrap_or(100.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_parenthesis() {
        let line = "4242 (catd (x) y) Z 1 4242 4242 0 -1 4194560 120 0 0 0 37 5 0 0 20 0 3 0";
        assert_eq!(
            parse_stat(line),
            Some(ProcStat {
                state: 'Z',
                cpu_ticks: 42
            })
        );
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tcatd\nVmPeak:\t  9000 kB\nVmHWM:\t  5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(5120));
        assert_eq!(parse_vm_hwm_kib("Name:\tcatd\nState:\tZ (zombie)\n"), None);
    }
}
