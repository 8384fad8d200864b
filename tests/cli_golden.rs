//! The golden corpus: each case of `tests/golden/cases.txt` runs the
//! real `hansim` binary in an empty working directory and must
//! reproduce its pinned exit code, stdout, stderr and written files,
//! byte for byte (compared by length and 64-bit FNV-1a hash).
//!
//! The other CLI batteries compare two runs of the same build (shard
//! counts, worker counts, kill and restore), so a change that moves
//! every run alike passes them. This one compares against committed
//! pins. On a mismatch it prints the invocation and the first pin that
//! differs; the manifest's header says when a pin may change.

mod common;

use std::fs;
use std::path::{Path, PathBuf};

use common::hansim_cmd;

/// One manifest case: its name, its command line and its pins, each a
/// `(what, value)` pair such as `("stdout", "408 fb03b6be9dc35271")`.
struct Case {
    name: String,
    args: String,
    pins: Vec<(String, String)>,
}

fn parse_manifest(text: &str) -> Vec<Case> {
    let mut cases: Vec<Case> = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with(char::is_whitespace) {
            let (what, value) = line.trim().split_once(' ').unwrap_or_else(|| {
                panic!("cases.txt:{}: a pin reads `WHAT VALUE`", n + 1);
            });
            let case = cases.last_mut().unwrap_or_else(|| {
                panic!("cases.txt:{}: a pin must follow a case", n + 1);
            });
            case.pins.push((what.to_string(), value.to_string()));
        } else {
            let (name, args) = line.split_once(": ").unwrap_or_else(|| {
                panic!("cases.txt:{}: a case reads `NAME: ARGS`", n + 1);
            });
            cases.push(Case {
                name: name.to_string(),
                args: args.to_string(),
                pins: Vec::new(),
            });
        }
    }
    cases
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pin_of(bytes: &[u8]) -> String {
    format!("{} {:016x}", bytes.len(), fnv1a(bytes))
}

/// Runs one case in a fresh working directory and returns what it
/// produced, in the manifest's pin order, plus its stdout and stderr.
fn run_case(case: &Case, golden: &Path, dir: &Path) -> (Vec<(String, String)>, Vec<u8>, Vec<u8>) {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).expect("create the case directory");
    let golden = golden.to_str().expect("a UTF-8 repository path");
    let args: Vec<String> = case
        .args
        .split_whitespace()
        .map(|a| a.replace("{golden}", golden))
        .collect();
    let out = hansim_cmd()
        .args(&args)
        .current_dir(dir)
        .output()
        .expect("hansim binary runs");
    let exit = out
        .status
        .code()
        .map_or_else(|| "killed".to_string(), |c| c.to_string());
    let mut actual = vec![
        ("exit".to_string(), exit),
        ("stdout".to_string(), pin_of(&out.stdout)),
        ("stderr".to_string(), pin_of(&out.stderr)),
    ];
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("list the case directory")
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    files.sort();
    for path in files {
        let name = path.file_name().expect("a file name").to_string_lossy();
        let bytes = fs::read(&path).expect("read a written file");
        actual.push((format!("file:{name}"), pin_of(&bytes)));
    }
    let _ = fs::remove_dir_all(dir);
    (actual, out.stdout, out.stderr)
}

#[test]
fn every_case_reproduces_its_pins() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let manifest = fs::read_to_string(golden.join("cases.txt")).expect("read cases.txt");
    let cases = parse_manifest(&manifest);
    assert!(!cases.is_empty(), "cases.txt holds no case");

    let mut failures = Vec::new();
    for case in &cases {
        let dir = std::env::temp_dir().join(format!(
            "hansim-golden-{}-{}",
            std::process::id(),
            case.name
        ));
        let (actual, stdout, stderr) = run_case(case, &golden, &dir);
        let differs =
            (0..case.pins.len().max(actual.len())).find(|&i| case.pins.get(i) != actual.get(i));
        let Some(i) = differs else { continue };
        let show = |pin: Option<&(String, String)>| {
            pin.map_or_else(|| "(none)".to_string(), |(w, v)| format!("{w} {v}"))
        };
        let mut report = format!(
            "{}: hansim {}\n  pinned: {}\n  actual: {}",
            case.name,
            case.args,
            show(case.pins.get(i)),
            show(actual.get(i)),
        );
        let text = match actual.get(i).map(|(w, _)| w.as_str()) {
            Some("stdout") => Some(stdout),
            Some("stderr") => Some(stderr),
            _ => None,
        };
        if let Some(text) = text.and_then(|t| String::from_utf8(t).ok()) {
            for line in text.lines().take(40) {
                report.push_str("\n    | ");
                report.push_str(line);
            }
        }
        failures.push(report);
    }
    assert!(
        failures.is_empty(),
        "{} of {} golden cases moved:\n\n{}",
        failures.len(),
        cases.len(),
        failures.join("\n\n")
    );
}
