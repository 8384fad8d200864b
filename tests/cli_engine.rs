//! CLI face of the single-executor contract in batch and serve mode.
//!
//! The fixed-period synchronous round loop is the only executor, so
//! `--engine` is not a flag of `hansim`: any use of it — with a value,
//! known or not, or bare at the end of the command line — must fail
//! through the typed `CliError::UnknownFlag` path with a non-zero exit,
//! the usage text on stderr and nothing on stdout, never be silently
//! ignored. City mode is covered by `tests/cli_city.rs`.

mod common;

use common::assert_engine_flag_rejected;

#[test]
fn unknown_engine_is_a_typed_cli_error() {
    assert_engine_flag_rejected(&[
        &["--engine", "warp"],
        &["--engine", "round"],
        &["--engine", "event"],
        &["serve", "--engine", "warp"],
        &["serve", "--engine", "event"],
    ]);
}

#[test]
fn missing_engine_value_is_reported() {
    assert_engine_flag_rejected(&[
        &["--engine"],
        &["--minutes", "10", "--engine"],
        &["serve", "--minutes", "10", "--engine"],
    ]);
}
