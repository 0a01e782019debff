//! Child processes and scratch directories, each behind a guard so an
//! error path never leaves a stray `easypap serve` or a temp dir.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

/// Where the programs under test live.
#[derive(Clone, Debug)]
pub struct Bins {
    /// `target/release/easypap`
    pub easypap: PathBuf,
    /// `target/release/easyview`
    pub easyview: PathBuf,
}

impl Bins {
    /// Resolves both binaries in `dir`, which must already hold a
    /// release build (`run.sh` makes it).
    pub fn in_dir(dir: &Path) -> Result<Bins, String> {
        let dir = dir
            .canonicalize()
            .map_err(|e| format!("binary directory {}: {e}", dir.display()))?;
        let bins = Bins {
            easypap: dir.join("easypap"),
            easyview: dir.join("easyview"),
        };
        for b in [&bins.easypap, &bins.easyview] {
            if !b.is_file() {
                return Err(format!(
                    "{} is missing: build the root workspace first",
                    b.display()
                ));
            }
        }
        Ok(bins)
    }
}

/// A scratch directory removed on drop. Every workload runs in a fresh
/// one, so `easypap.csv`, `trace.ezv` and `*.ppm` never land in the
/// repository.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<base>/<tag>-<pid>-<n>`.
    pub fn new(base: &Path, tag: &str) -> std::io::Result<TempDir> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::SeqCst);
        let dir = base.join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir.canonicalize()?))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `program args...` in `cwd` to completion, output captured.
pub fn run_to_end(program: &Path, args: &[String], cwd: &Path) -> std::io::Result<Output> {
    Command::new(program)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .output()
}

/// Spawns `program args...` in `cwd` with its output sent to files in
/// `cwd`, for the polled peak-RSS operation (a pipe nobody drains would
/// block a chatty child).
pub fn spawn_detached_io(program: &Path, args: &[String], cwd: &Path) -> std::io::Result<Child> {
    let sink = std::fs::File::create(cwd.join("rss-op.out"))?;
    Command::new(program)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(sink.try_clone()?)
        .stderr(sink)
        .spawn()
}

/// A running `easypap serve`, killed and reaped on drop.
pub struct Daemon {
    child: Child,
    /// Kept open: a closed pipe would turn any later daemon diagnostic
    /// into an `EPIPE` panic inside the program under test.
    _stderr: BufReader<std::process::ChildStderr>,
    /// The `host:port` it listens on, parsed from its stderr banner.
    pub addr: String,
}

impl Daemon {
    /// Spawns `easypap serve --port 0 ...` and blocks until its
    /// `listening on <addr>` line arrives.
    pub fn spawn(
        easypap: &Path,
        cwd: &Path,
        workers: usize,
        slots: usize,
    ) -> Result<Daemon, String> {
        let mut child = Command::new(easypap)
            .args([
                "serve",
                "--port",
                "0",
                "--workers",
                &workers.to_string(),
                "--slots",
                &slots.to_string(),
            ])
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn easypap serve: {e}"))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let mut stderr = BufReader::new(stderr);
        let mut banner = String::new();
        let read = stderr.read_line(&mut banner);
        let addr = banner
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                _stderr: stderr,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "easypap serve printed no address (got `{}`)",
                    banner.trim()
                ))
            }
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the daemon to exit after a `shutdown` request and
    /// returns its stdout (the summary) if it exited cleanly.
    pub fn wait_summary(mut self) -> Result<String, String> {
        let mut out = String::new();
        if let Some(mut stdout) = self.child.stdout.take() {
            use std::io::Read;
            stdout
                .read_to_string(&mut out)
                .map_err(|e| format!("daemon stdout: {e}"))?;
        }
        let status = self.child.wait().map_err(|e| format!("daemon wait: {e}"))?;
        if status.success() {
            Ok(out)
        } else {
            Err(format!("easypap serve exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // no-ops when `wait_summary` already reaped it
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
