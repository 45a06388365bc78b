//! CI gate for `BENCH_*.json` reports.
//!
//! ```bash
//! report_check BENCH_sched.json                  # schema validation
//! report_check BENCH_sched.json second.json      # + deterministic diff
//! ```
//!
//! With two files, both must validate and their deterministic views
//! (every section except the wall-clock `quantiles`/`spans`) must be
//! byte-identical — the double-run reproducibility contract, and, with
//! the committed `BENCH_*.json` as the second file, the gate that a
//! change which moves a tick, an accuracy or an event has to regenerate
//! the report on purpose. Exits non-zero on any failure, so CI needs no
//! jq.

use std::path::Path;

use rc_obs::report::{deterministic_view, read_report, validate};
use serde::Value;

fn fail(msg: &str) -> ! {
    eprintln!("report_check: {msg}");
    std::process::exit(1)
}

fn load(path: &str) -> Value {
    let value = read_report(Path::new(path)).unwrap_or_else(|e| fail(&e));
    if let Err(e) = validate(&value) {
        fail(&format!("{path}: {e}"));
    }
    println!("{path}: schema-valid");
    value
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.len() > 2 {
        eprintln!("usage: report_check <report.json> [second.json]");
        std::process::exit(2);
    }
    let first = load(&args[0]);
    if let Some(second_path) = args.get(1) {
        let second = load(second_path);
        let a = serde_json::to_vec(&deterministic_view(&first)).expect("finite");
        let b = serde_json::to_vec(&deterministic_view(&second)).expect("finite");
        if a != b {
            fail(&format!(
                "deterministic views differ: {} vs {} ({} vs {} bytes)",
                args[0],
                second_path,
                a.len(),
                b.len()
            ));
        }
        println!("deterministic views identical ({} bytes)", a.len());
    }
}
