//! CLI-surface regression tests for the `wattd` binary: flag parsing
//! outcomes that unit tests cannot see because `parse_args` lives in the
//! binary, and whole-process survival of hostile stdio input. The flag
//! cases drive the real executable (`CARGO_BIN_EXE_wattd`) with an
//! address that can never bind, so a successfully *parsed* command line
//! fails at bind time (exit 1, "cannot bind") instead of holding a port,
//! while a rejected one exits 2 before touching the network.

use std::io::Write;
use std::process::{Command, Stdio};

fn wattd(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_wattd"))
        .args(args)
        .output()
        .expect("spawn wattd")
}

/// `--snapshot-secs 0` is the explicit "periodic snapshots disabled"
/// spelling and must parse: the command line gets past argument
/// validation (exit 2 is the parse-error code) and dies at the
/// deliberately unbindable address instead.
#[test]
fn snapshot_secs_zero_parses_as_explicit_disable() {
    let out = wattd(&[
        "serve",
        "--gpus",
        "a100",
        "--addr",
        "256.256.256.256:0",
        "--snapshot-secs",
        "0",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "exit must be the bind failure, not a parse rejection: {stderr}"
    );
    assert!(stderr.contains("cannot bind"), "{stderr}");
    assert!(
        !stderr.contains("positive count"),
        "0 must not be rejected as non-positive: {stderr}"
    );
}

/// Garbage snapshot intervals are still parse errors (exit 2), with the
/// non-negative wording.
#[test]
fn snapshot_secs_rejects_non_numbers() {
    for bad in ["-1", "soon", ""] {
        let out = wattd(&[
            "serve",
            "--gpus",
            "a100",
            "--addr",
            "256.256.256.256:0",
            "--snapshot-secs",
            bad,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {stderr}");
        assert!(stderr.contains("non-negative"), "{bad:?}: {stderr}");
    }
}

/// A 400 KB line of 200k `[` then 200k `]` stays under the 1 MiB line
/// cap but nests far past the parser's depth limit. The stdio daemon
/// must answer it with a clean error line and keep serving, instead of
/// overflowing the stack and aborting the process.
#[test]
fn stdio_survives_a_deeply_nested_line() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_wattd"))
        .args(["--gpus", "a100"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn wattd");
    let deep = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
    {
        let mut stdin = child.stdin.take().expect("stdin");
        writeln!(stdin, "{deep}").expect("write deep line");
        writeln!(stdin, r#"{{"id": 2, "op": "ping"}}"#).expect("write ping");
    }
    let out = child.wait_with_output().expect("wattd exits");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "wattd died: {:?} {stderr}",
        out.status
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].contains(r#""ok":false"#), "{}", lines[0]);
    assert!(lines[0].contains("nesting"), "{}", lines[0]);
    assert!(lines[1].contains(r#""pong":true"#), "{}", lines[1]);
}
