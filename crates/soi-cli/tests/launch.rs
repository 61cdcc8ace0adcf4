//! Process-level tests of the out-of-process pipeline: `soi launch`
//! spawning real worker processes over localhost sockets, plus the trace
//! tooling downstream of a captured run.
//!
//! These exercise the actual binary (`CARGO_BIN_EXE_soi`), so everything
//! here — argument handling, rendezvous, mesh bootstrap, result
//! aggregation, exit codes — is tested exactly as a user would hit it.

use std::path::PathBuf;
use std::process::{Command, Output};

fn soi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_soi"))
        .args(args)
        .output()
        .expect("spawn soi binary")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("soi-launch-test-{}-{name}", std::process::id()))
}

#[test]
fn launch_runs_over_real_sockets_and_traces_validate() {
    let trace = tmp("ok.jsonl");
    let trace_s = trace.to_str().unwrap();
    let out = soi(&[
        "launch", "--ranks", "2", "--n", "16384", "--p", "4", "--digits", "10", "--trace", trace_s,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "launch failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("bitwise identical to simnet reference"),
        "missing bitwise check in:\n{stdout}"
    );
    assert!(stdout.contains("conservation OK"), "{stdout}");

    // The captured trace must satisfy the standalone checker…
    let out = soi(&["trace-check", "--file", trace_s]);
    assert!(
        out.status.success(),
        "trace-check failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("OK"), "{stdout}");

    // …and convert to Chrome trace-event JSON.
    let chrome = tmp("ok.json");
    let chrome_s = chrome.to_str().unwrap();
    let out = soi(&["trace-view", "--file", trace_s, "--out", chrome_s]);
    assert!(
        out.status.success(),
        "trace-view failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&chrome).expect("chrome trace written");
    assert!(doc.starts_with('{') && doc.contains("\"traceEvents\""));
    assert!(doc.contains("\"name\":\"exchange\""), "phase spans exported");

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&chrome);
}

#[test]
fn trace_view_streams_to_stdout_without_out() {
    // Build a tiny valid trace via the simulator, then view it.
    let trace = tmp("sim.jsonl");
    let trace_s = trace.to_str().unwrap();
    let out = soi(&[
        "simulate", "--nodes", "2", "--points", "2048", "--fabric", "ethernet", "--trace", trace_s,
    ]);
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = soi(&["trace-view", "--file", trace_s]);
    assert!(out.status.success());
    let doc = String::from_utf8_lossy(&out.stdout);
    assert!(doc.contains("\"traceEvents\""));
    assert!(doc.contains("\"ph\":\"B\""));
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn launch_arg_errors_are_uniform_and_fail_fast() {
    for (args, needle) in [
        (&["launch", "--ranks", "0"][..], "positive integer"),
        (&["launch", "--ranks", "3", "--p", "8"][..], "does not divide"),
        (&["launch", "--ranks", "2", "--n", "1000", "--p", "3"][..], "does not divide"),
        (&["worker", "--n", "4096"][..], "--rendezvous"),
        (&["trace-view"][..], "--file"),
        (&["transform", "--n", "4096", "--p", "8", "--band", "99999"][..], "out of range"),
    ] {
        let out = soi(args);
        assert_eq!(out.status.code(), Some(1), "{args:?} should fail with exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle) && !stderr.contains("panicked"),
            "{args:?}: expected `{needle}` and no panic in\n{stderr}"
        );
    }
}

#[test]
fn worker_against_dead_rendezvous_times_out_cleanly() {
    // Nothing listens here; the worker must give up within its connect
    // budget and exit nonzero rather than hang.
    let out = Command::new(env!("CARGO_BIN_EXE_soi"))
        .args(["worker", "--rendezvous", "127.0.0.1:9", "--n", "4096", "--p", "4"])
        .env("SOI_WIRE_CONNECT_TIMEOUT_MS", "500")
        .env("SOI_WIRE_TIMEOUT_MS", "500")
        .output()
        .expect("spawn soi binary");
    assert!(!out.status.success());
}
