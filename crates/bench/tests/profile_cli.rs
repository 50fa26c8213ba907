//! Usage errors of the `profile` binary: it exits 2 with a usage line
//! instead of panicking.

use std::process::Command;

const PROFILE_BIN: &str = env!("CARGO_BIN_EXE_profile");

#[test]
fn out_without_a_path_is_a_usage_error() {
    let out = Command::new(PROFILE_BIN).arg("--out").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--out needs a path"), "{stderr}");
    assert!(stderr.contains("usage: profile"), "{stderr}");
}
