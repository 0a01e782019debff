//! Regression: `easypap ... | head -1` must exit cleanly.
//!
//! Rust disables `SIGPIPE`, so writes to a closed pipe surface as
//! `EPIPE` errors — and the old `print!("{out}")` in the bin wrappers
//! turned that into a panic. These tests run the real binary with its
//! stdout pipe closed early and pin the contract: exit code 0, no
//! panic trace on stderr.

use std::process::{Command, Stdio};

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ezp-pipe-{tag}-{}-{}",
        std::process::id(),
        ezp_core::time::now_ns()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Closed-pipe run: spawn with a piped stdout, drop the read end
/// before the child writes its (larger than the 64 KiB pipe buffer)
/// report, and collect (exit status, stderr).
fn run_with_closed_stdout(args: &[&str], tag: &str) -> (std::process::ExitStatus, String) {
    let dir = scratch_dir(tag);
    let mut child = Command::new(env!("CARGO_BIN_EXE_easypap"))
        .args(args)
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn easypap");
    // this is `head -1` in the limit: take nothing, close the pipe
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait easypap");
    std::fs::remove_dir_all(&dir).ok();
    (
        out.status,
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn closed_stdout_pipe_is_a_clean_exit() {
    // `--ansi` makes the output comfortably exceed the pipe buffer, so
    // the child reliably hits EPIPE mid-write
    let (status, stderr) = run_with_closed_stdout(
        &[
            "--kernel",
            "mandel",
            "--variant",
            "seq",
            "-s",
            "128",
            "-i",
            "1",
            "--ansi",
        ],
        "ansi",
    );
    assert!(
        status.success(),
        "broken pipe must exit 0, got {status:?}; stderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "no panic trace, got: {stderr}"
    );
}

#[test]
fn closed_stdout_pipe_is_clean_for_small_output_too() {
    // small output fits the pipe buffer: the write succeeds outright,
    // but the flush path must not trip over the closed pipe either
    let (status, stderr) = run_with_closed_stdout(
        &[
            "--kernel",
            "mandel",
            "--variant",
            "seq",
            "-s",
            "64",
            "-i",
            "1",
            "--no-display",
        ],
        "small",
    );
    assert!(status.success(), "got {status:?}; stderr: {stderr}");
    assert!(
        !stderr.contains("panicked"),
        "no panic trace, got: {stderr}"
    );
}
