//! Scaled-down runs of every workload in both modes: each must exit 0,
//! pass its correctness gates, and emit every metric `BENCHMARK.json`
//! declares for the mode, with the declared unit.

use std::path::Path;
use std::process::Command;
use std::sync::Mutex;

use serde_json::Value;

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a Vec<Value> {
    v.as_object()
        .and_then(|o| o.get(key))
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} list"))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.get(key))
        .unwrap_or_else(|| panic!("field {key}"))
}

/// Runs are timed: one at a time, so parallel tests cannot starve a
/// window of the samples its p99 needs.
static SERIAL: Mutex<()> = Mutex::new(());

/// Run one smoke-scale workload; returns the parsed result line.
fn run(workload: &str, trace: bool) -> Value {
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("smoke run dir");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "4",
            "--scale",
            "smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(&dir)
        .output()
        .expect("spawn perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let v: Value = serde_json::from_str(last).expect("result line is JSON");
    if trace {
        let spans = dir
            .join(".perfbench_out")
            .join(format!("{workload}.spans.jsonl"));
        assert!(
            std::fs::metadata(&spans)
                .map(|m| m.len() > 0)
                .unwrap_or(false),
            "no spans written"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    v
}

fn check(workload: &str) {
    let m = manifest();
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let r = run(workload, trace);
        assert_eq!(
            field(&r, "correct").as_bool(),
            Some(true),
            "{workload}: {r:?}"
        );
        assert!(field(&r, "attempted").as_f64().is_some_and(|a| a >= 1.0));
        assert_eq!(field(&r, "failed").as_f64(), Some(0.0));
        let metrics = field(&r, "metrics").as_object().expect("metrics object");
        let declared = list(&m, key);
        assert_eq!(
            metrics.len(),
            declared.len(),
            "{workload} {key}: exactly the declared metrics"
        );
        for d in declared {
            let name = field(d, "name").as_str().expect("name");
            let got = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload}: {name} missing"));
            assert_eq!(
                field(got, "unit").as_str(),
                field(d, "unit").as_str(),
                "{workload}: unit of {name}"
            );
            let value = field(got, "value")
                .as_f64()
                .unwrap_or_else(|| panic!("{name} value"));
            assert!(
                value.is_finite() && value >= 0.0,
                "{workload}: {name} = {value}"
            );
            if !trace {
                assert!(value > 0.0, "{workload}: end-to-end {name} is 0");
            }
        }
    }
}

#[test]
fn kv_mixed_xproc_emits_every_metric() {
    check("kv-mixed-xproc");
}

#[test]
fn kv_read_inproc_emits_every_metric() {
    check("kv-read-inproc");
}

#[test]
fn fanout_inproc_emits_every_metric() {
    check("fanout-inproc");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("spawn perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
