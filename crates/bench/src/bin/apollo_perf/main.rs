//! `apollo_perf`: absolute end-to-end and per-layer performance of the
//! APOLLO introspection stack on four workloads. See README.md.
//!
//! ```text
//! apollo_perf [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! apollo_perf compare A.json[,A2.json...] B.json[,B2.json...] [--benchmark BENCHMARK.json]
//! ```
//!
//! One workload prints its metrics and, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; it exits
//! nonzero when any correctness gate fails. `all` (the default) runs each
//! workload in its own child process, so peak memory and telemetry
//! globals do not leak between workloads.

mod compare;
mod fleet;
mod flow;
mod harness;
mod inputs;
mod meter;
mod monitor;
mod serve;
mod stats;
mod trace;

use harness::{Args, Report};
use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const WORKLOADS: [&str; 4] = ["monitor_n1", "fleet_dark", "fleet_serve", "model_flow"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: apollo_perf [--workload <{}|all>] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       \
         apollo_perf compare A.json[,A2.json...] B.json[,B2.json...] [--benchmark BENCHMARK.json]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("target/apollo_perf"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad("unknown workload"));
                }
                a.workload.clone_from(value);
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && (0.0..=3600.0).contains(s))
                    .ok_or_else(|| bad("expected seconds in 0..=3600"))?;
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--out" => a.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn run_workload(a: &Args) -> Result<Report, String> {
    match a.workload.as_str() {
        "monitor_n1" => monitor::run(a),
        "fleet_dark" => fleet::run(a, fleet::Mode::Dark),
        "fleet_serve" => fleet::run(a, fleet::Mode::Serve),
        "model_flow" => flow::run(a),
        w => Err(format!("unknown workload {w}")),
    }
}

fn metric_json(r: &Report, full: bool) -> Value {
    Value::Object(
        r.metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_owned(), Value::Float(m.value)),
                    ("unit".to_owned(), Value::Str(m.unit.clone())),
                ];
                if full {
                    fields.push(("q1".to_owned(), Value::Float(m.q1)));
                    fields.push(("q3".to_owned(), Value::Float(m.q3)));
                    fields.push(("n".to_owned(), Value::UInt(m.n as u64)));
                }
                (m.name.clone(), Value::Object(fields))
            })
            .collect(),
    )
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    let doc = Value::Object(vec![
        ("correct".to_owned(), Value::Bool(correct)),
        ("attempted".to_owned(), Value::UInt(attempted)),
        ("failed".to_owned(), Value::UInt(failed)),
        ("metrics".to_owned(), metrics),
    ]);
    serde_json::to_string(&doc).expect("result serializes")
}

fn write_result(a: &Args, r: &Report, correct: bool) -> Result<PathBuf, String> {
    std::fs::create_dir_all(&a.out).map_err(|e| format!("create {}: {e}", a.out.display()))?;
    let suffix = if a.trace { "-trace" } else { "" };
    let path = a
        .out
        .join(format!("{}-seed{}{suffix}.json", a.workload, a.seed));
    let doc = Value::Object(vec![
        ("workload".to_owned(), Value::Str(a.workload.clone())),
        ("seed".to_owned(), Value::UInt(a.seed)),
        ("trace".to_owned(), Value::Bool(a.trace)),
        ("correct".to_owned(), Value::Bool(correct)),
        ("attempted".to_owned(), Value::UInt(r.attempted)),
        ("failed".to_owned(), Value::UInt(r.failed)),
        (
            "digest".to_owned(),
            Value::Str(format!("{:016x}", r.digest)),
        ),
        ("metrics".to_owned(), metric_json(r, true)),
        (
            "notes".to_owned(),
            Value::Array(r.notes.iter().cloned().map(Value::Str).collect()),
        ),
    ]);
    let text = serde_json::to_string_pretty(&doc).expect("result serializes");
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

fn run_one(a: &Args) -> ExitCode {
    let mut report = match run_workload(a) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("apollo_perf {}: {e}", a.workload);
            return ExitCode::FAILURE;
        }
    };
    for m in report.metrics.iter().filter(|m| !m.value.is_finite()) {
        report.notes.push(format!("{} is not a number", m.name));
        report.failed += 1;
    }
    report.failed = report.failed.min(report.attempted.max(1));
    let correct = report.failed == 0;
    println!(
        "apollo_perf {} seed {}{}: {} ops, {} failed, digest {:016x}",
        a.workload,
        a.seed,
        if a.trace { " (traced)" } else { "" },
        report.attempted,
        report.failed,
        report.digest
    );
    for m in &report.metrics {
        println!(
            "  {:<38} {:>16.6} {:<14} [{:.6}, {:.6}] n={}",
            m.name, m.value, m.unit, m.q1, m.q3, m.n
        );
    }
    for n in &report.notes {
        println!("  note: {n}");
    }
    match write_result(a, &report, correct) {
        Ok(p) => println!("  result: {}", p.display()),
        Err(e) => {
            eprintln!("apollo_perf: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{}",
        result_line(
            correct,
            report.attempted,
            report.failed,
            metric_json(&report, false)
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own child process and merges the results
/// (metric names prefixed with the workload).
fn run_all(a: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("apollo_perf: cannot locate own executable");
        return ExitCode::FAILURE;
    };
    let (mut attempted, mut failed, mut ok) = (0u64, 0u64, true);
    let mut merged = Vec::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &a.seed.to_string()])
            .args([
                "--seconds",
                &a.seconds.to_string(),
                "--trace",
                if a.trace { "1" } else { "0" },
            ])
            .arg("--out")
            .arg(&a.out)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let Ok(out) = out else {
            eprintln!("apollo_perf: cannot start the {w} child");
            return ExitCode::FAILURE;
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in lines {
            println!("{l}");
        }
        let parsed: Option<Value> = serde_json::from_str(last).ok();
        let num = |k| match parsed.as_ref().and_then(|v| v.get(k)) {
            Some(Value::UInt(n)) => *n,
            Some(Value::Int(n)) => *n as u64,
            _ => 0,
        };
        attempted += num("attempted");
        failed += num("failed");
        ok &= out.status.success() && parsed.is_some();
        if let Some(Value::Object(ms)) = parsed.as_ref().and_then(|v| v.get("metrics")) {
            merged.extend(ms.iter().map(|(k, v)| (format!("{w}.{k}"), v.clone())));
        }
    }
    ok &= failed == 0;
    println!(
        "{}",
        result_line(ok, attempted.max(1), failed, Value::Object(merged))
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return usage();
    }
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("apollo_perf: {e}");
            return usage();
        }
    };
    // Telemetry stays at its defaults (sink off): the benchmark measures
    // the program as a user runs it, not the instruments.
    if a.workload == "all" {
        run_all(&a)
    } else {
        run_one(&a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_args(workload: &str, trace: bool) -> Args {
        let out = std::env::temp_dir().join(format!(
            "apollo_perf_smoke_{}_{workload}",
            std::process::id()
        ));
        Args {
            workload: workload.into(),
            // Unpinned: `digests.txt` holds full-size reps' digests.
            seed: 1 << 40,
            seconds: 0.0,
            trace,
            out,
        }
    }

    fn check(r: &Report, spec: &[(&str, &str)]) {
        assert_eq!(r.failed, 0, "{:?}", r.notes);
        assert!(r.attempted > 0);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = spec.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
        assert!(
            r.metrics.iter().all(|m| m.value.is_finite()),
            "{:?}",
            r.metrics
        );
    }

    #[test]
    fn arguments_are_validated() {
        let s = |v: &[&str]| v.iter().map(|x| (*x).to_owned()).collect::<Vec<_>>();
        let a = parse(&s(&[
            "--workload",
            "fleet_dark",
            "--seed",
            "9",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace),
            ("fleet_dark", 9, true)
        );
        assert!(parse(&s(&["--workload", "nope"])).is_err());
        assert!(parse(&s(&["--trace", "2"])).is_err());
        assert!(parse(&s(&["--seconds", "-1"])).is_err());
        assert!(parse(&s(&["--seed"])).is_err());
        assert!(parse(&s(&["--bogus", "1"])).is_err());
    }

    #[test]
    fn monitor_driver_smoke() {
        let a = smoke_args("monitor_n1", true);
        let r = monitor::run_sized(&a, 2, 256, 1).unwrap();
        check(&r, harness::PER_LAYER);
        let a = smoke_args("monitor_n1", false);
        check(
            &monitor::run_sized(&a, 2, 256, 1).unwrap(),
            harness::END_TO_END,
        );
    }

    #[test]
    fn fleet_drivers_smoke() {
        for (w, mode) in [
            ("fleet_dark", fleet::Mode::Dark),
            ("fleet_serve", fleet::Mode::Serve),
        ] {
            let r = fleet::run_sized(&smoke_args(w, true), mode, 6, 1).unwrap();
            check(&r, harness::PER_LAYER);
            let r = fleet::run_sized(&smoke_args(w, false), mode, 6, 1).unwrap();
            check(&r, harness::END_TO_END);
        }
    }

    #[test]
    fn flow_driver_smoke() {
        let r = flow::run_sized(&smoke_args("model_flow", true), 1 << 20, 1).unwrap();
        check(&r, harness::PER_LAYER);
    }
}
