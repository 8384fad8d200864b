//! Golden tests of the observability surface, end to end through the
//! `hansim` binary: the `METRICS`/`DUMP` protocol commands over a real
//! loopback socket, the batch `--metrics-out`/`--trace`/`--flight`
//! artifacts, the `--feeder-trace` convergence CSV, and the contract
//! that observability flags never change what the CLI prints.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::time::Duration;

const SCENARIO: &[&str] = &["--minutes", "20", "--devices", "8", "--rate", "6"];

fn hansim_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hansim"))
}

fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .expect("loopback bind")
        .local_addr()
        .expect("local addr")
        .port()
}

fn connect(port: u16) -> TcpStream {
    let addr = format!("127.0.0.1:{port}");
    for _ in 0..100 {
        if let Ok(stream) = TcpStream::connect(&addr) {
            return stream;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("daemon never came up on {addr}");
}

/// Sends one command and reads the single-line reply.
fn roundtrip(reader: &mut BufReader<TcpStream>, line: &str) -> String {
    reader
        .get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .expect("send command");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    reply.trim_end().to_string()
}

/// Reads `n` further payload lines after a counted header.
fn read_body(reader: &mut BufReader<TcpStream>, n: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read payload line");
            line.trim_end().to_string()
        })
        .collect()
}

/// Asserts `text` is well-formed Prometheus text exposition and returns
/// the number of sample lines.
fn assert_prometheus_shape(lines: &[String]) -> usize {
    let mut samples = 0;
    for line in lines {
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            continue;
        }
        let (_, value) = line
            .split_once(' ')
            .unwrap_or_else(|| panic!("exposition line without a value: {line:?}"));
        let parsed: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric sample value in {line:?}"));
        assert!(parsed.is_finite(), "non-finite sample in {line:?}");
        samples += 1;
    }
    samples
}

/// Minimal structural JSON validator: strings with escapes, balanced
/// `{}`/`[]` nesting outside strings, non-empty, fully consumed. Enough
/// to catch a truncated or mis-quoted trace document without a JSON
/// dependency.
fn assert_valid_json(text: &str) {
    let mut depth: i64 = 0;
    let mut in_string = false;
    let mut escaped = false;
    let mut saw_structure = false;
    for c in text.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => {
                depth += 1;
                saw_structure = true;
            }
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced closer in JSON document");
            }
            _ => {}
        }
    }
    assert!(!in_string, "unterminated string in JSON document");
    assert_eq!(depth, 0, "unbalanced braces in JSON document");
    assert!(saw_structure, "JSON document carries no structure");
}

#[test]
fn metrics_and_dump_answer_over_the_socket() {
    let port = free_port();
    let mut daemon = hansim_cmd()
        .arg("serve")
        .args(SCENARIO)
        .args(["--listen", &format!("127.0.0.1:{port}"), "--manual"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");
    let mut client = BufReader::new(connect(port));

    // STATUS carries the appended registry fields (sink always attached
    // in serve mode) after the byte-stable base fields.
    let status = roundtrip(&mut client, "STATUS");
    assert!(status.starts_with("OK round=0/601 "), "status: {status}");
    for field in [
        " pool_live=",
        " pool_peak=",
        " cp_delivered=",
        " cp_dropped=",
    ] {
        assert!(status.contains(field), "status lacks {field}: {status}");
    }

    roundtrip(&mut client, "INJECT arrive:3@2; arrive:5@4");
    roundtrip(&mut client, "ADVANCE 200");

    // METRICS: counted header, then exactly that many exposition lines.
    let header = roundtrip(&mut client, "METRICS");
    let n: usize = header
        .strip_prefix("OK metrics lines=")
        .unwrap_or_else(|| panic!("metrics header: {header}"))
        .parse()
        .expect("line count");
    assert!(n > 0, "metrics reply must carry lines");
    let body = read_body(&mut client, n);
    let samples = assert_prometheus_shape(&body);
    assert!(samples > 0, "exposition carried no samples");
    assert!(
        body.iter().any(|l| l == "han_sim_rounds_total 200"),
        "round counter must reflect the 200 rounds advanced"
    );
    assert!(
        body.iter()
            .any(|l| l.starts_with("han_planner_invocations_total ")),
        "planner invocations must be exposed"
    );

    // DUMP: counted header, then one JSONL object per flight event.
    let header = roundtrip(&mut client, "DUMP");
    let events: usize = header
        .strip_prefix("OK flight events=")
        .unwrap_or_else(|| panic!("dump header: {header}"))
        .parse()
        .expect("event count");
    assert!(
        events > 0,
        "two absorbed arrivals must have left flight events"
    );
    for line in read_body(&mut client, events) {
        assert!(
            line.starts_with("{\"round\":") && line.ends_with('}'),
            "flight line is not a JSONL object: {line}"
        );
        assert_valid_json(&line);
    }

    // The protocol survives the detour: a normal command still answers.
    assert_eq!(roundtrip(&mut client, "SHUTDOWN"), "OK bye");
    let _ = daemon.wait();
}

#[test]
fn batch_artifacts_are_written_and_inert() {
    let dir = std::env::temp_dir().join("hansim-cli-obs-batch");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics = dir.join("metrics.txt");
    let trace = dir.join("trace.json");
    let flight = dir.join("flight.jsonl");

    let base_args: &[&str] = &[
        "--minutes",
        "20",
        "--devices",
        "8",
        "--strategy",
        "coordinated",
        "--faults",
        "down:2@4; up:2@9",
        "--seed",
        "7",
    ];
    let plain = hansim_cmd().args(base_args).output().expect("plain run");
    assert!(plain.status.success(), "plain run failed: {plain:?}");
    let observed = hansim_cmd()
        .args(base_args)
        .args(["--metrics-out", metrics.to_str().expect("utf-8 path")])
        .args(["--trace", trace.to_str().expect("utf-8 path")])
        .args(["--flight", flight.to_str().expect("utf-8 path")])
        .output()
        .expect("observed run");
    assert!(
        observed.status.success(),
        "observed run failed: {observed:?}"
    );
    assert_eq!(
        observed.stdout, plain.stdout,
        "observability flags must not change the printed report"
    );

    // --metrics-out: parsable exposition with the run's round count.
    let exposition = std::fs::read_to_string(&metrics).expect("metrics written");
    let lines: Vec<String> = exposition.lines().map(String::from).collect();
    assert!(assert_prometheus_shape(&lines) > 0);
    assert!(
        lines.iter().any(|l| l == "han_sim_rounds_total 601"),
        "20 minutes at 2 s rounds is 601 rounds"
    );

    // --trace: a structurally valid Chrome trace_event document with
    // complete-event spans.
    let trace_doc = std::fs::read_to_string(&trace).expect("trace written");
    assert!(
        trace_doc.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
        "trace document shape"
    );
    assert!(trace_doc.contains("\"ph\":\"X\""), "complete events");
    assert!(trace_doc.contains("\"name\":\"plan\""), "plan phase span");
    assert_valid_json(&trace_doc);

    // --flight: JSONL, and the scripted fault left its onset event.
    let flight_doc = std::fs::read_to_string(&flight).expect("flight written");
    assert!(
        flight_doc.lines().count() > 0,
        "flight ring must not be empty"
    );
    for line in flight_doc.lines() {
        assert_valid_json(line);
    }
    assert!(
        flight_doc.contains("\"kind\":\"fault-active\""),
        "fault onset must be recorded: {flight_doc}"
    );
}

#[test]
fn feeder_trace_writes_the_convergence_csv() {
    let dir = std::env::temp_dir().join("hansim-cli-obs-feeder");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = dir.join("feeder.csv");

    let out = hansim_cmd()
        .args(["--homes", "2", "--minutes", "20", "--devices", "6"])
        .args(["--feeder", "cap:4"])
        .args(["--feeder-trace", csv.to_str().expect("utf-8 path")])
        .output()
        .expect("feeder run");
    assert!(out.status.success(), "feeder run failed: {out:?}");

    let text = std::fs::read_to_string(&csv).expect("csv written");
    let mut lines = text.lines();
    assert_eq!(
        lines.next(),
        Some("iteration,feeder_peak_kw,change_norm_kw"),
        "csv header"
    );
    let mut rows = 0;
    for row in lines {
        let fields: Vec<&str> = row.split(',').collect();
        assert_eq!(fields.len(), 3, "csv row shape: {row}");
        let _: u64 = fields[0].parse().expect("iteration index");
        let _: f64 = fields[1].parse().expect("feeder peak");
        let _: f64 = fields[2].parse().expect("change norm");
        rows += 1;
    }
    assert!(rows >= 1, "the trace records at least the first iterate");
}

#[test]
fn obs_flag_misuse_fails_through_typed_errors() {
    // Observability artifacts cover one simulation: compare mode (the
    // default) is rejected with the flag named.
    let out = hansim_cmd()
        .args(["--minutes", "20", "--metrics-out", "/tmp/unused.txt"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--metrics-out") && err.contains("single strategy"),
        "names the offending flag: {err}"
    );

    // --feeder-trace without a feeder signal has nothing to record.
    let out = hansim_cmd()
        .args(["--minutes", "20", "--feeder-trace", "/tmp/unused.csv"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--feeder"), "points at --feeder: {err}");
}
