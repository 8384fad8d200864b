//! Shared subprocess harness of the CLI test batteries.
//!
//! Every `tests/cli_*.rs` suite drives the real `hansim` binary; the
//! helpers that spawn it, talk to it over loopback, wait on it with a
//! deadline, and byte-compare its output used to be duplicated per
//! file. They live here once — `mod common;` pulls them in (Cargo does
//! not compile `tests/common/` as a test target of its own).
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// A command for the compiled `hansim` binary under test.
pub fn hansim_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hansim"))
}

/// Runs `hansim` with `args` to completion and returns its output.
pub fn hansim(args: &[&str]) -> Output {
    hansim_cmd()
        .args(args)
        .output()
        .expect("hansim binary runs")
}

/// Spawns `hansim` with `args`, stdout piped, stderr captured.
pub fn spawn_hansim(args: &[&str]) -> Child {
    hansim_cmd()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("hansim binary spawns")
}

/// Waits for `child` to exit within `deadline`, returning its output.
/// On overrun the child is killed and the test fails — a CLI that hangs
/// is itself the bug these suites exist to catch, so no battery may
/// block the whole test run on one.
pub fn wait_with_deadline(mut child: Child, deadline: Duration) -> Output {
    let started = Instant::now();
    loop {
        match child.try_wait().expect("poll child") {
            Some(_) => return child.wait_with_output().expect("collect child output"),
            None if started.elapsed() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("child still running after {}ms", deadline.as_millis());
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Asserts two stdout captures are byte-identical, diffing as text.
pub fn assert_bytes_eq(reference: &[u8], candidate: &[u8], what: &str) {
    assert_eq!(
        String::from_utf8_lossy(reference),
        String::from_utf8_lossy(candidate),
        "{what}: output must be byte-identical"
    );
    // Lossy equality can mask non-UTF8 differences; pin the raw bytes.
    assert_eq!(reference, candidate, "{what}: raw bytes differ");
}

/// Asserts that `hansim` rejects `--engine` in every invocation of
/// `cases`: the synchronous round loop is the only executor, so the flag
/// must fail through the typed unknown-flag path — non-zero exit, the
/// one-line `error:` diagnostic plus the usage text on stderr, and no
/// report on stdout.
pub fn assert_engine_flag_rejected(cases: &[&[&str]]) {
    for args in cases {
        let out = hansim(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            out.stdout.is_empty(),
            "{args:?} printed to stdout: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error: unknown flag '--engine'"),
            "expected the typed unknown-flag diagnostic for {args:?}, got: {stderr}"
        );
        assert!(
            stderr.contains("usage:"),
            "the usage text must follow the error for {args:?}, got: {stderr}"
        );
    }
}

/// Grabs a free loopback port (bind-then-drop; the daemon rebinds it).
pub fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .expect("loopback bind")
        .local_addr()
        .expect("local addr")
        .port()
}

/// Connects to a daemon on loopback, retrying while it boots.
pub fn connect(port: u16) -> TcpStream {
    let addr = format!("127.0.0.1:{port}");
    for _ in 0..100 {
        if let Ok(stream) = TcpStream::connect(&addr) {
            return stream;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("daemon never came up on {addr}");
}

/// One request/reply exchange on the line protocol.
pub fn roundtrip(reader: &mut BufReader<TcpStream>, line: &str) -> String {
    reader
        .get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .expect("send command");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    reply.trim_end().to_string()
}

/// Waits for a daemon child to exit successfully and returns its
/// stdout report.
pub fn wait_report(child: Child) -> String {
    let out = child.wait_with_output().expect("daemon exits");
    assert!(out.status.success(), "daemon failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 report")
}
