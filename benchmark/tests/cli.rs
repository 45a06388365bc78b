//! Drives the built binary the way `run.sh` does, for one second a run.

use std::process::Command;

struct Run {
    det: Vec<String>,
    result: String,
}

fn run(workload: &str, seed: u64, trace: bool, out: &str) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_rc-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--out", out])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} seed {seed} exited with {}:\n{stdout}",
        output.status
    );
    assert!(!stdout.contains("check FAILED"), "{workload} seed {seed}:\n{stdout}");
    let det = stdout.lines().filter(|l| l.starts_with("det: ")).map(str::to_string).collect();
    Run { det, result: stdout.lines().last().expect("a result line").to_string() }
}

fn assert_passed(r: &Run, what: &str) {
    assert!(r.result.starts_with("{\"correct\": true, \"attempted\": "), "{what}: {}", r.result);
    assert!(r.result.contains("\"failed\": 0, "), "{what}: {}", r.result);
}

/// Two runs of one seed print the same `det:` lines; two more seeds change
/// them and still pass every check.
fn seeds_reach(workload: &str) {
    let out = env!("CARGO_TARGET_TMPDIR");
    let first = run(workload, 1, false, out);
    assert_passed(&first, workload);
    assert!(!first.det.is_empty(), "{workload} prints det: lines");
    assert_eq!(
        first.det,
        run(workload, 1, false, out).det,
        "{workload}: same seed, same det: lines"
    );
    for seed in [2, 3] {
        let other = run(workload, seed, false, out);
        assert_passed(&other, workload);
        assert_ne!(first.det, other.det, "{workload}: seed {seed} must change the det: lines");
    }
    for metric in ["setup_s", "ops_per_s", "op_p50_us", "peak_rss_mb"] {
        assert!(first.result.contains(&format!("\"{metric}\": {{\"value\": ")), "{metric}");
    }
}

#[test]
fn seed_reaches_serve_hit() {
    seeds_reach("serve_hit");
}

#[test]
fn seed_reaches_serve_miss() {
    seeds_reach("serve_miss");
}

#[test]
fn seed_reaches_place() {
    seeds_reach("place");
}

#[test]
fn seed_reaches_refresh() {
    seeds_reach("refresh");
}

#[test]
fn seed_reaches_loop() {
    seeds_reach("loop");
}

/// A traced run reports every per-layer metric (the binary panics on one
/// it did not measure) and writes its spans, none dropped.
#[test]
fn traced_run_writes_spans() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let r = run("serve_miss", 1, true, env!("CARGO_TARGET_TMPDIR"));
    assert_passed(&r, "traced serve_miss");
    assert!(r.result.contains("\"trace_overhead_pct\": {\"value\": "));
    let spans = std::fs::read_to_string(out.join("serve_miss.spans.json")).expect("spans file");
    assert!(spans.starts_with("{\"workload\":\"serve_miss\",\"seed\":1,"));
    assert!(spans.contains("\"dropped\":0,"));
    assert!(spans.contains("\"name\":\"client.predict_single.miss\""));
}

#[test]
fn no_workload_is_a_usage_error() {
    let status = Command::new(env!("CARGO_BIN_EXE_rc-benchmark"))
        .args(["--workload", "nope", "--seed", "1"])
        .status()
        .expect("run the benchmark binary");
    assert_eq!(status.code(), Some(2));
}
