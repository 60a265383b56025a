//! `wsn-scenarios serve` rejects an unrunnable configuration with exit
//! code 2 and a message naming the field and the bad value, before any
//! work starts.

use std::process::Command;

/// Run `serve` on a tiny network with `flag value`; return the exit code
/// and stderr.
fn serve_with(flag: &str, value: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_wsn-scenarios"))
        .args(["serve", "--nodes", "200", "--epochs", "1", flag, value])
        .output()
        .expect("wsn-scenarios runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

fn assert_rejected(flag: &str, value: &str, message: &str) {
    let (code, stderr) = serve_with(flag, value);
    assert_eq!(code, Some(2), "{flag} {value}: stderr was {stderr}");
    assert!(
        stderr.contains(message),
        "{flag} {value}: expected `{message}` in {stderr}"
    );
}

#[test]
fn zero_readers_exits_2() {
    assert_rejected("--readers", "0", "readers must be at least 1, got 0");
}

#[test]
fn zero_clients_exits_2() {
    assert_rejected("--clients", "0", "clients must be at least 1, got 0");
}

#[test]
fn zero_epochs_exits_2() {
    assert_rejected("--epochs", "0", "epochs must be at least 1, got 0");
}

#[test]
fn churn_of_one_exits_2() {
    assert_rejected("--churn", "1.0", "p_fail must be in [0, 1), got 1");
}

#[test]
fn non_positive_or_nan_blast_exits_2() {
    for (value, shown) in [("0", "0"), ("-1", "-1"), ("nan", "NaN")] {
        let message = format!("blast radius must be finite and positive, got {shown}");
        assert_rejected("--blast", value, &message);
    }
}

#[test]
fn a_valid_configuration_still_serves() {
    let (code, stderr) = serve_with("--readers", "2");
    assert_eq!(code, Some(0), "stderr was {stderr}");
}
