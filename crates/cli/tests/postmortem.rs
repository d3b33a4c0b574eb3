//! Subprocess tests of the flight recorder's post-mortem contract: a
//! process that dies mid-reduction (or survives a fault-plane incident)
//! must leave a schema-valid `postmortem.jsonl` behind, with the run's
//! manifest embedded — and a clean run must leave nothing.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro-reduce"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-postmortem-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The string value of `field` in the first JSONL line whose `kind` is
/// `kind` — a minimal extractor for the post-mortem header events.
fn field_of(dump: &str, kind: &str, field: &str) -> Option<String> {
    let needle = format!("\"kind\":\"{kind}\"");
    let line = dump.lines().find(|l| l.contains(&needle))?;
    let parsed = repro_core::obs::Json::parse(line).ok()?;
    parsed.get(field)?.as_str().map(|s| s.to_string())
}

#[test]
fn panic_mid_reduction_leaves_a_schema_valid_postmortem_with_manifest() {
    let dir = temp_dir("panic");
    let status = bin()
        .args(["trace", "reduce", "--n", "128", "--dr", "6", "--seed", "7"])
        .env("REPRO_POSTMORTEM", &dir)
        .env("REPRO_FLIGHT_TEST_PANIC", "reduce")
        .output()
        .expect("spawn repro-reduce");
    assert!(
        !status.status.success(),
        "injected panic must fail the process"
    );

    let dump = std::fs::read_to_string(dir.join("postmortem.jsonl"))
        .expect("panic hook writes postmortem.jsonl");
    // The whole dump obeys the trace schema: ring evictions show up as
    // declared drops, never as contiguity violations.
    let summary = repro_core::obs::validate_trace(&dump).expect("postmortem validates");
    assert!(summary.subsystems.iter().any(|s| s == "flight"), "{dump}");
    assert!(
        summary.subsystems.iter().any(|s| s == "select"),
        "the selector decided before the panic: {dump}"
    );
    assert!(dump.contains("\"kind\":\"postmortem\""), "{dump}");
    assert!(dump.contains("\"kind\":\"panic\""), "{dump}");
    assert!(
        dump.contains("REPRO_FLIGHT_TEST_PANIC"),
        "panic message recorded: {dump}"
    );
    assert!(dump.contains("obs.overhead.events"), "{dump}");

    // The parked manifest is embedded and parses back to this very run.
    let manifest_json =
        field_of(&dump, "manifest", "manifest").expect("postmortem embeds the run manifest");
    let manifest =
        repro_core::obs::RunManifest::parse(&manifest_json).expect("embedded manifest parses");
    assert_eq!(manifest.cmd, "reduce");
    assert_eq!(manifest.n, 128);
    assert_eq!(manifest.seed, 7);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_reader_that_closes_early_ends_the_run_cleanly() {
    use std::io::{BufRead, BufReader};
    let dir = temp_dir("pipe");
    // About 5 MB of values: far more than a pipe buffers, so the write
    // meets the closed pipe.
    let mut child = bin()
        .args(["gen", "--n", "200000", "--seed", "3"])
        .env("REPRO_POSTMORTEM", &dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro-reduce");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read the first line");
    assert!(!first.is_empty());
    // The reader is dropped here: `repro-reduce gen … | head -1`.
    let out = child.wait_with_output().expect("wait for repro-reduce");
    assert!(out.status.success(), "{out:?}");
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !dir.join("postmortem.jsonl").exists(),
        "a closed pipe is not a crash"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_run_writes_no_postmortem() {
    let dir = temp_dir("clean");
    let out = bin()
        .args(["trace", "reduce", "--n", "64", "--seed", "3"])
        .env("REPRO_POSTMORTEM", &dir)
        .output()
        .expect("spawn repro-reduce");
    assert!(out.status.success(), "{:?}", out);
    assert!(
        !dir.join("postmortem.jsonl").exists(),
        "a clean run must not dump"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_plane_kill_dumps_an_incident_postmortem() {
    let dir = temp_dir("kill");
    let out = bin()
        .args([
            "trace", "chaos", "--ranks", "4", "--n", "128", "--seed", "9", "--kill", "1",
        ])
        .env("REPRO_POSTMORTEM", &dir)
        .output()
        .expect("spawn repro-reduce");
    // The run itself heals and succeeds; the kill still dumps an incident.
    assert!(out.status.success(), "{:?}", out);
    let dump = std::fs::read_to_string(dir.join("postmortem.jsonl"))
        .expect("kill incident writes postmortem.jsonl");
    repro_core::obs::validate_trace(&dump).expect("postmortem validates");
    assert!(dump.contains("\"kind\":\"kill\""), "{dump}");
    let manifest_json =
        field_of(&dump, "manifest", "manifest").expect("incident dump embeds the manifest");
    let manifest = repro_core::obs::RunManifest::parse(&manifest_json).expect("manifest parses");
    assert_eq!(manifest.cmd, "chaos");
    assert_eq!(manifest.fault.expect("fault spec").kill, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disabled_recorder_keeps_output_byte_identical_and_never_dumps() {
    let dir = temp_dir("disabled");
    let args = ["trace", "reduce", "--n", "128", "--dr", "4", "--seed", "5"];
    let on = bin().args(args).output().expect("spawn");
    let off = bin()
        .args(args)
        .env("REPRO_FLIGHT", "off")
        .env("REPRO_POSTMORTEM", &dir)
        .output()
        .expect("spawn");
    assert!(on.status.success() && off.status.success());
    // The recorder is pure observation: turning it off changes nothing in
    // the deterministic JSONL event stream. (`#` summary lines differ
    // legitimately — wall-time metric histograms, and the manifest's env
    // capture records REPRO_FLIGHT itself.)
    let events = |bytes: &[u8]| {
        String::from_utf8_lossy(bytes)
            .lines()
            .filter(|l| !l.starts_with('#'))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(events(&on.stdout), events(&off.stdout));
    assert!(!dir.join("postmortem.jsonl").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exit_codes_surface_through_the_binary() {
    let dir = temp_dir("codes");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad-manifest.json");
    std::fs::write(&bad, "definitely not a manifest\n").unwrap();
    let schema = bin()
        .args(["replay", bad.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(
        schema.status.code(),
        Some(2),
        "schema errors exit 2: {schema:?}"
    );
    let usage = bin().args(["bogus-command"]).output().expect("spawn");
    assert_eq!(usage.status.code(), Some(1), "ordinary failures exit 1");
    let _ = std::fs::remove_dir_all(&dir);
}
