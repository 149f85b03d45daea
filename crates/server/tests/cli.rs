//! Command-line contract of the `kvd-server` binary.

use std::process::Command;

#[test]
fn zero_shards_prints_usage_instead_of_panicking() {
    let out = Command::new(env!("CARGO_BIN_EXE_kvd-server"))
        .args(["--addr", "127.0.0.1:0", "--shards", "0"])
        .output()
        .expect("run kvd-server");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("usage: kvd-server"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
