//! Child processes under test: spawn, read their CPU time and peak
//! RSS from `/proc`, and always kill and reap them.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// A spawned child that is killed and waited for on drop.
pub struct Proc {
    child: Child,
    pid: u32,
    stdout: BufReader<ChildStdout>,
    stdin: Option<ChildStdin>,
}

impl Proc {
    /// Spawns `program args…` with piped stdin/stdout and extra env.
    pub fn spawn(program: &Path, args: &[&str], env: &[(&str, &str)]) -> Result<Proc, String> {
        let mut cmd = Command::new(program);
        cmd.args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let stdin = child.stdin.take();
        Ok(Proc {
            pid: child.id(),
            child,
            stdout,
            stdin,
        })
    }

    /// Reads one stdout line (without the newline); an error at EOF.
    pub fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("child closed its stdout".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("reading child stdout: {e}")),
        }
    }

    /// Writes one line to the child's stdin.
    pub fn write_line(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("child stdin closed")?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing child stdin: {e}"))
    }

    /// A reader for the child's CPU clocks, usable from any thread.
    pub fn cpu_clock(&self) -> CpuClock {
        CpuClock { pid: self.pid }
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid)).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Kills the child and waits until it has ended.
    fn kill_and_reap(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill_and_reap();
    }
}

/// Reads a process's CPU clocks from `/proc`.
#[derive(Clone, Copy, Debug)]
pub struct CpuClock {
    pid: u32,
}

/// One reading of a process's two CPU clocks, in nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct CpuReading {
    /// utime + stime over all threads, exited ones included; 10 ms
    /// resolution.
    total_ns: u64,
    /// Sum of the live threads' scheduler clocks; nanosecond
    /// resolution, but blind to threads that exited.
    live_ns: u64,
}

impl CpuClock {
    pub fn read(self) -> CpuReading {
        let dir = format!("/proc/{}/task", self.pid);
        let live_ns = std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter_map(|e| std::fs::read_to_string(e.path().join("schedstat")).ok())
                    .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
                    .sum()
            })
            .unwrap_or(0);
        CpuReading {
            total_ns: proc_stat_cpu_ns(self.pid).unwrap_or(0),
            live_ns,
        }
    }
}

impl CpuReading {
    /// CPU time spent since `earlier`: the fine live-thread clocks when
    /// they agree with the coarse total (no thread that ran in between
    /// has exited), the coarse total otherwise.
    pub fn since(self, earlier: CpuReading) -> u64 {
        let total = self.total_ns.saturating_sub(earlier.total_ns);
        let live = self.live_ns.saturating_sub(earlier.live_ns);
        if live.abs_diff(total) <= 3 * TICK_NS {
            live
        } else {
            total
        }
    }
}

/// utime + stime from `/proc/<pid>/stat`, in nanoseconds.
fn proc_stat_cpu_ns(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of the full line are utime and stime; `rest`
    // starts at field 3.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * TICK_NS)
}

/// One clock tick (`USER_HZ` is 100 on every Linux architecture).
const TICK_NS: u64 = 10_000_000;
