//! The serving process: a real `lewis-serve` child, its address, and
//! its own CPU time and peak memory read from `/proc`.

use crate::http::Conn;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Linux reports `/proc/<pid>/stat` times in clock ticks of 1/100 s on
/// every mainstream architecture.
const CLOCK_TICKS_PER_S: f64 = 100.0;

pub struct ServerProc {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub started: Instant,
}

impl ServerProc {
    /// Start `bin` with `args` on an ephemeral port and wait for its
    /// address line.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<ServerProc, String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(n) if n > 0 => {
                    if let Some(addr) = line.strip_prefix("listening on http://") {
                        break addr.trim().parse::<SocketAddr>().ok();
                    }
                }
                _ => break None,
            }
        };
        let mut proc = ServerProc {
            child,
            _stdout: stdout,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
            started,
        };
        if addr.is_none() {
            proc.kill();
            return Err(format!("{} exited before listening", bin.display()));
        }
        Ok(proc)
    }

    /// User + system CPU seconds of the serving process so far,
    /// including threads that have already exited.
    pub fn cpu_seconds(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).unwrap_or_default();
        // fields after the parenthesised command name: state is field 3,
        // utime and stime are fields 14 and 15
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        (tick(11) + tick(12)) / CLOCK_TICKS_PER_S
    }

    /// Peak resident memory of the serving process in MiB (`VmHWM`).
    pub fn peak_rss_mib(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kib| kib / 1024.0)
    }

    /// Ask for a graceful stop and wait for the process to end; kill it
    /// if it has not ended within 20 s.
    pub fn shutdown(mut self) {
        if let Ok(mut conn) = Conn::connect(self.addr) {
            let _ = conn.send("POST", "/admin/shutdown", b"");
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}
