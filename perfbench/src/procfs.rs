//! `/proc` readers and the server-process guard.

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second (`USER_HZ`, 100 on every Linux ABI).
pub const TICKS_PER_SEC: f64 = 100.0;

/// utime + stime, in ticks, from the text of `/proc/<pid>/stat`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    // The command name may hold spaces and parentheses; fields resume after
    // the last `)`. utime and stime are fields 14 and 15 (1-based), i.e. the
    // 12th and 13th after the state field.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Steal ticks summed over all CPUs, from the text of `/proc/stat`.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// CPU seconds a process has used (`"self"` for the benchmark itself).
pub fn cpu_secs(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| parse_cpu_ticks(&s))
        .map_or(0.0, |t| t as f64 / TICKS_PER_SEC)
}

/// Peak resident set of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_ticks(&s))
        .unwrap_or(0)
}

/// A running `wlac-server`. Dropping the guard kills the process and waits
/// for it, so no exit path — an error return, a failed verdict check or a
/// panic unwinding through the owner — leaves a server behind.
pub struct ServerProcess {
    child: Child,
    stdout: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
    /// Spawn until the server printed its `listening on` line, which it does
    /// only after loading every snapshot and journal in its data directory.
    pub boot: Duration,
}

impl ServerProcess {
    /// Starts `wlac-server --workers 2` on an ephemeral loopback port with
    /// the default `journal` durability over `data_dir`.
    pub fn spawn(bin: &Path, data_dir: &Path, pid_file: &Path) -> Result<ServerProcess, String> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(data_dir.with_extension("log"))
            .map_err(|e| format!("server log: {e}"))?;
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--data-dir"])
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        // Recorded so the wrapper script can reap a server even if this
        // process is killed before its guards run.
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(pid_file)
        {
            writeln!(f, "{}", child.id()).ok();
        }
        let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = reader.read_line(&mut line);
        let boot = started.elapsed();
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        // Keep draining stdout so the server's goodbye line never hits a
        // closed pipe.
        let stdout = std::thread::spawn(move || {
            let mut sink = String::new();
            while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
                sink.clear();
            }
        });
        let mut server = ServerProcess {
            child,
            stdout: Some(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            boot,
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => Err(format!(
                "server did not come up (stdout: {:?}); see {}",
                line.trim(),
                data_dir.with_extension("log").display()
            )),
        }
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Waits for a process that was asked to `shutdown` to exit on its own.
    pub fn wait_exit(mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("server did not exit after shutdown".into()),
            }
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
        if let Some(stdout) = self.stdout.take() {
            stdout.join().ok();
        }
    }
}

/// A working directory that is removed when dropped.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn fresh(path: PathBuf) -> std::io::Result<TempDir> {
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        std::fs::remove_file(self.0.with_extension("log")).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_status_and_steal() {
        let stat = "4242 (wlac server) R 1 2 3 4 5 6 7 8 9 10 1234 567 0 0 20 0 9 0 99";
        assert_eq!(parse_cpu_ticks(stat), Some(1234 + 567));
        assert_eq!(parse_cpu_ticks("garbage"), None);
        let status = "Name:\tx\nVmPeak:\t 9000 kB\nVmHWM:\t   46080 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(46080));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        let proc_stat = "cpu  10 0 20 300 4 0 1 77 0 0\ncpu0 5 0 10 150 2 0 1 40 0 0\n";
        assert_eq!(parse_steal_ticks(proc_stat), Some(77));
    }

    /// A panic unwinding through the guard still kills and reaps the server.
    #[test]
    fn guard_kills_the_server_on_panic() {
        use std::os::unix::fs::PermissionsExt;
        let dir = TempDir::fresh(
            std::env::temp_dir().join(format!("wlac-perfbench-guard-{}", std::process::id())),
        )
        .unwrap();
        let fake = dir.0.join("fake-server");
        std::fs::write(
            &fake,
            "#!/bin/sh\necho 'listening on 127.0.0.1:9'\nexec sleep 60\n",
        )
        .unwrap();
        std::fs::set_permissions(&fake, std::fs::Permissions::from_mode(0o755)).unwrap();
        let data = dir.0.join("data");
        std::fs::create_dir_all(&data).unwrap();
        let pid = std::sync::Mutex::new(String::new());
        let outcome = std::panic::catch_unwind(|| {
            let server = ServerProcess::spawn(&fake, &data, &dir.0.join("pids")).unwrap();
            assert_eq!(server.addr.port(), 9);
            *pid.lock().unwrap() = server.pid();
            panic!("verdict check failed");
        });
        assert!(outcome.is_err());
        let pid = pid.into_inner().unwrap();
        assert!(!pid.is_empty());
        assert!(
            !Path::new(&format!("/proc/{pid}")).exists(),
            "server {pid} survived"
        );
        let listed = std::fs::read_to_string(dir.0.join("pids")).unwrap();
        assert_eq!(listed.trim(), pid);
    }

    #[test]
    fn reads_this_process() {
        let start = cpu_secs("self");
        let mut x = 1u64;
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(cpu_secs("self") > start);
        assert!(peak_rss_mb("self") > 0.5);
        assert!(std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| parse_steal_ticks(&s))
            .is_some());
    }
}
