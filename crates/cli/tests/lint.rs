//! End-to-end tests of `cpack lint`: exit codes and the JSON report, on
//! clean benchmarks and deliberately corrupted `.cpk` frames.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use codepack_obs::json::{self, Value};

fn cpack(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cpack"))
        .args(args)
        .output()
        .expect("cpack runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cpack-lint-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn clean_profile_exits_zero() {
    let out = cpack(&["lint", "pegwit"]);
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 error(s)"), "{stdout}");
    assert!(stdout.contains("ratio: static"), "{stdout}");
}

#[test]
fn clean_profile_json_is_well_formed() {
    let out = cpack(&["lint", "pegwit", "--json"]);
    assert!(out.status.success(), "{:?}", out);
    let doc = String::from_utf8_lossy(&out.stdout);
    let v = json::parse(&doc).expect("valid json");
    assert_eq!(v.get("tool").and_then(Value::as_str), Some("sr32lint"));
    assert_eq!(v.get("clean").and_then(Value::as_bool), Some(true));
    assert_eq!(v.get("errors").and_then(Value::as_u64), Some(0));
    let ratio = v.get("ratio").expect("ratio present");
    assert_eq!(
        ratio.get("static_ratio").and_then(Value::as_f64),
        ratio.get("codec_ratio").and_then(Value::as_f64),
        "static and codec ratios agree exactly"
    );
}

/// Packs pegwit into a `.cpk` frame at `path`.
fn pack_pegwit(path: &Path) {
    let out = cpack(&["pack", "pegwit", "-o", path.to_str().unwrap()]);
    assert!(out.status.success(), "{:?}", out);
}

fn lint_json(path: &Path) -> (Output, Value) {
    let out = cpack(&["lint", path.to_str().unwrap(), "--json"]);
    let doc = String::from_utf8_lossy(&out.stdout).into_owned();
    let v = json::parse(&doc).expect("valid json");
    (out, v)
}

#[test]
fn clean_frame_file_exits_zero() {
    let frame = scratch("clean.cpk");
    pack_pegwit(&frame);
    let out = cpack(&["lint", frame.to_str().unwrap()]);
    assert!(out.status.success(), "{:?}", out);
}

#[test]
fn corrupted_first_len_fails_with_json_diagnostic_naming_group_and_address() {
    let frame = scratch("corrupt-first-len.cpk");
    pack_pegwit(&frame);

    // Frame header: magic(4) version(2) flags(2) content_size(8)
    // high_len(2) low_len(2), dict entries (2 bytes each), header_crc(4);
    // group 0's chunk then opens with payload_len(4) and first_len(2).
    // Move first_len to another in-range value.
    let mut bytes = std::fs::read(&frame).unwrap();
    let hi = u16::from_le_bytes([bytes[16], bytes[17]]) as usize;
    let lo = u16::from_le_bytes([bytes[18], bytes[19]]) as usize;
    let chunk_at = 20 + 2 * (hi + lo) + 4;
    let payload_len = u32::from_le_bytes(bytes[chunk_at..chunk_at + 4].try_into().unwrap());
    let first_at = chunk_at + 4;
    let first_len = u16::from_le_bytes([bytes[first_at], bytes[first_at + 1]]);
    let moved = if first_len > 1 {
        first_len - 1
    } else {
        first_len + 1
    };
    assert!(u32::from(moved) <= payload_len);
    bytes[first_at..first_at + 2].copy_from_slice(&moved.to_le_bytes());
    std::fs::write(&frame, &bytes).unwrap();

    let (out, v) = lint_json(&frame);
    assert!(!out.status.success(), "corruption must fail the gate");
    assert_eq!(v.get("clean").and_then(Value::as_bool), Some(false));
    assert!(v.get("errors").and_then(Value::as_u64).unwrap() > 0);
    let diags = v.get("diagnostics").and_then(Value::as_array).unwrap();
    let names_group_and_address = diags.iter().any(|d| {
        d.get("severity").and_then(Value::as_str) == Some("error")
            && d.get("check").and_then(Value::as_str) == Some("frame-payload")
            && d.get("message")
                .and_then(Value::as_str)
                .is_some_and(|m| m.contains("group 0"))
            && d.get("addr")
                .and_then(Value::as_str)
                .is_some_and(|a| a.starts_with("0x"))
    });
    assert!(
        names_group_and_address,
        "a frame-payload error must name group 0 and its native address: {v:?}"
    );
}

#[test]
fn truncated_frame_fails_with_a_frame_error() {
    let frame = scratch("truncated.cpk");
    pack_pegwit(&frame);
    let bytes = std::fs::read(&frame).unwrap();
    std::fs::write(&frame, &bytes[..40]).unwrap();
    let (out, v) = lint_json(&frame);
    assert!(!out.status.success());
    let diags = v.get("diagnostics").and_then(Value::as_array).unwrap();
    assert!(diags.iter().any(|d| {
        d.get("severity").and_then(Value::as_str) == Some("error")
            && d.get("check")
                .and_then(Value::as_str)
                .is_some_and(|c| c.starts_with("frame-"))
    }));
}

#[test]
fn unknown_target_is_a_usage_error() {
    let out = cpack(&["lint", "no-such-profile-or-file"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("neither"), "{stderr}");
}

#[test]
fn unexpected_flag_is_rejected() {
    let out = cpack(&["lint", "pegwit", "--frobnicate"]);
    assert!(!out.status.success());
}
