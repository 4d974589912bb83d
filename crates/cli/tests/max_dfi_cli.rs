//! `--max-dfi` reads the same way on every subcommand, and the retired
//! replay-engine flag is rejected like any other unknown flag.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

/// Run `moard` with a whitespace-separated command line.
fn moard(line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_moard"))
        .args(line.split_whitespace())
        .output()
        .expect("the moard binary runs")
}

fn stderr(output: &Output) -> String {
    String::from_utf8(output.stderr.clone()).expect("stderr is UTF-8")
}

/// Assert a typed failure (exit 1) whose message contains `needle`.
fn assert_refused(line: &str, needle: &str) {
    let output = moard(line);
    assert_eq!(output.status.code(), Some(1), "{line}: {}", stderr(&output));
    assert!(
        stderr(&output).contains(needle),
        "{line}: {}",
        stderr(&output)
    );
}

#[test]
fn analyze_report_and_rank_accept_an_unbounded_cap() {
    for line in [
        "analyze mm C --no-dfi --max-dfi unbounded",
        "report mm --no-dfi --stride 32 --max-dfi unbounded",
        "rank mm --no-dfi --stride 32 --max-dfi unbounded",
    ] {
        let output = moard(line);
        assert!(output.status.success(), "{line}: {}", stderr(&output));
    }
    assert_refused("analyze mm C --max-dfi lots", "`unbounded`");
}

#[test]
fn a_zero_cap_is_a_typed_error_on_every_subcommand() {
    let zero = "--max-dfi 0";
    let refusal = "max_dfi_per_object must be >= 1";
    for command in [
        "analyze mm C",
        "report mm",
        "rank mm",
        "inject mm C",
        "sweep mm",
        "validate mm",
    ] {
        assert_refused(&format!("{command} {zero}"), refusal);
    }

    // A client job carrying the zero cap is refused by the daemon with the
    // same typed error.
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_moard"))
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("moard serve starts");
    let mut line = String::new();
    BufReader::new(daemon.stdout.as_mut().expect("stdout is piped"))
        .read_line(&mut line)
        .expect("the announcement line arrives");
    let addr = line.trim().trim_start_matches("moard serve listening on ");
    let output = moard(&format!("client analyze mm C --addr {addr} {zero}"));
    let shutdown = moard(&format!("client shutdown --addr {addr}"));
    assert!(shutdown.status.success(), "{}", stderr(&shutdown));
    daemon.wait().expect("the daemon exits after shutdown");
    assert_eq!(output.status.code(), Some(1), "{}", stderr(&output));
    assert!(stderr(&output).contains(refusal), "{}", stderr(&output));
}

#[test]
fn the_retired_engine_flag_is_an_unknown_flag() {
    let flag = "--replay-batch";
    for command in [
        "analyze mm C",
        "report mm",
        "sweep mm",
        "validate mm",
        "serve",
    ] {
        assert_refused(
            &format!("{command} {flag} 8"),
            &format!("unknown flag `{flag}`"),
        );
    }
}
