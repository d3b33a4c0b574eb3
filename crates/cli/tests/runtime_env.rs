//! Real-process checks of the `REPRO_RUNTIME_WORKERS` startup validation:
//! a value that names no worker count in 1..=1024 stops `repro-reduce`
//! with exit 2 before any command can start the shared pool.

use std::process::Command;

#[test]
fn invalid_worker_count_exits_2_at_startup() {
    for bad in ["abc", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro-reduce"))
            .env("REPRO_RUNTIME_WORKERS", bad)
            .args(["sum", "1", "2"])
            .output()
            .expect("spawn repro-reduce");
        assert_eq!(out.status.code(), Some(2), "REPRO_RUNTIME_WORKERS={bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("{bad:?}")), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}
