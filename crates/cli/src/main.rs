//! The `repro-reduce` binary: thin I/O shell over [`repro_cli::run`].

use std::io::{ErrorKind, Read, Write};

fn read_file(path: &str) -> Result<String, repro_cli::CliError> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| repro_cli::CliError::new(format!("reading stdin: {e}")))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path)
            .map_err(|e| repro_cli::CliError::new(format!("reading {path}: {e}")))
    }
}

fn main() {
    // Arm the always-on flight recorder and its panic hook before anything
    // else: a crash anywhere below leaves a post-mortem (when
    // REPRO_POSTMORTEM is set) instead of a bare backtrace.
    repro_cli::init_flight_from_env();
    // Validate the SIMD dispatch environment before any kernel can consult
    // it: an invalid REPRO_SIMD is a clean diagnostic + nonzero exit here,
    // never a library panic (and never a silent fallback mid-benchmark).
    // The same for the shared pool's size, before any command can start it.
    let env = repro_cli::check_dispatch_env().and_then(|()| repro_cli::check_runtime_env());
    if let Err(e) = env {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match repro_cli::run(&args, &read_file) {
        Ok(out) => {
            // A reader that closes early (`| head`) is not an error: stop
            // quietly. `println!` would panic, and the panic hook would
            // write a crash dump.
            let mut stdout = std::io::stdout().lock();
            if let Err(e) = writeln!(stdout, "{out}").and_then(|()| stdout.flush()) {
                if e.kind() != ErrorKind::BrokenPipe {
                    eprintln!("error: writing stdout: {e}");
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.code);
        }
    }
}
