//! Child-process isolation: each end-to-end run gets a fresh process
//! (fresh ports, threads and `VmHWM`) under a supervisor that kills it when
//! it outlives a wall-clock cap or outgrows a memory cap. An overloaded
//! committee does both: a prototype at 60 k tx/s reached 10 GB and wedged.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use crate::procfs;

#[derive(Clone, Copy, Debug)]
pub struct Limits {
    pub wall: Duration,
    pub rss_mb: f64,
}

impl Limits {
    /// A minute on top of the send window (90 s at a 30 s window) and
    /// 4 GB: a healthy run needs about a tenth of the first and a quarter
    /// of the second.
    pub fn for_window(window: Duration) -> Self {
        Limits {
            wall: Duration::from_secs(60) + window,
            rss_mb: 4_096.0,
        }
    }
}

#[derive(Debug, PartialEq)]
pub enum Outcome {
    /// The child ended by itself, with this success status.
    Exited { success: bool },
    /// The supervisor killed it, and why.
    Killed(String),
}

/// Runs `command` to completion or to a limit, whichever comes first. The
/// child is always reaped before this returns. It shares this process's
/// stdout and stderr; a result travels through a file (see `TempDir`), so
/// no pipe can outlive a killed child and stall the supervisor.
pub fn supervise(mut command: Command, limits: Limits) -> std::io::Result<Outcome> {
    let mut child = command.spawn()?;
    let started = Instant::now();
    let why = loop {
        if let Some(status) = child.try_wait()? {
            return Ok(Outcome::Exited {
                success: status.success(),
            });
        }
        if started.elapsed() > limits.wall {
            break format!("killed after {:?} (wall-clock cap)", limits.wall);
        }
        if let Some(rss) = procfs::rss_mb_of(child.id()).filter(|rss| *rss > limits.rss_mb) {
            break format!(
                "killed at {rss:.0} MB resident (cap {:.0} MB)",
                limits.rss_mb
            );
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let _ = child.kill();
    child.wait()?;
    Ok(Outcome::Killed(why))
}

/// A per-run scratch directory that is removed on every exit path of the
/// supervisor, including unwinding.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<base>/<label>-<pid>-<nanos>`; `base` is a directory the
    /// build already owns, so nothing lands outside the checkout.
    pub fn create(base: &Path, label: &str) -> std::io::Result<TempDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = base.join(format!("{label}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where scratch directories go: beside the running executable, which is
/// inside the cargo target directory and therefore inside the checkout and
/// ignored by git.
pub fn scratch_base() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .unwrap_or(Path::new("."))
        .join("nt-benchmark-tmp");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str) -> Command {
        let mut c = Command::new("sh");
        c.arg("-c").arg(script);
        c
    }

    const ROOMY: Limits = Limits {
        wall: Duration::from_secs(30),
        rss_mb: 4_096.0,
    };

    #[test]
    fn a_hung_child_is_killed_not_waited_for() {
        let limits = Limits {
            wall: Duration::from_millis(300),
            ..ROOMY
        };
        let started = Instant::now();
        let outcome = supervise(sh("exec sleep 600"), limits).expect("spawns");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the suite must not hang"
        );
        match outcome {
            Outcome::Killed(why) => assert!(why.contains("wall-clock"), "{why}"),
            other => panic!("expected a kill, got {other:?}"),
        }
    }

    #[test]
    fn a_bloated_child_is_killed() {
        let limits = Limits {
            rss_mb: 0.1,
            ..ROOMY
        };
        match supervise(sh("exec sleep 600"), limits).expect("spawns") {
            Outcome::Killed(why) => assert!(why.contains("resident"), "{why}"),
            other => panic!("expected a kill, got {other:?}"),
        }
    }

    #[test]
    fn a_child_that_ends_by_itself_reports_its_status() {
        let ok = supervise(sh("exit 0"), ROOMY).expect("spawns");
        assert_eq!(ok, Outcome::Exited { success: true });
        let failed = supervise(sh("exit 3"), ROOMY).expect("spawns");
        assert_eq!(failed, Outcome::Exited { success: false });
    }

    #[test]
    fn temp_dirs_vanish_on_drop() {
        let base = scratch_base().expect("scratch base");
        let dir = TempDir::create(&base, "test").expect("creates");
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("wal"), b"x").expect("writes");
        drop(dir);
        assert!(!path.exists());
    }
}
