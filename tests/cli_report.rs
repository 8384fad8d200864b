//! The batch report's summary lines: a reduction prints as `−X%` and an
//! increase as `+X%`, and only a strategy that ran the CP gets a `CP:`
//! line.

mod common;

use common::hansim;

/// The stdout of a run that must succeed.
fn report(args: &[&str]) -> String {
    let out = hansim(args);
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("the report is UTF-8")
}

#[test]
fn a_variation_that_rose_prints_a_plus_sign() {
    // Coordination cuts this run's peak but raises its load variation.
    let out = report(&["--minutes", "60", "--rate", "5", "--seed", "7"]);
    assert!(
        out.contains("\ncoordination: peak −25%, variation +9%\n"),
        "{out}"
    );
    assert!(!out.contains("−-"), "{out}");
}

#[test]
fn only_a_strategy_that_ran_the_cp_prints_a_cp_line() {
    let out = report(&["--strategy", "compare", "--cp", "packet", "--minutes", "4"]);
    let lines: Vec<&str> = out.lines().collect();
    let cp: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].trim_start().starts_with("CP:"))
        .collect();
    assert_eq!(cp.len(), 1, "{out}");
    let block = lines[..cp[0]].iter().rev().find(|l| l.starts_with('['));
    assert!(
        block.is_some_and(|b| b.starts_with("[coordinated]")),
        "{out}"
    );

    let out = report(&[
        "--strategy",
        "uncoordinated",
        "--cp",
        "packet",
        "--minutes",
        "4",
    ]);
    assert!(!out.contains("CP:"), "{out}");
}
