//! `apollo_perf compare A.json[,…] B.json[,…]`: parent runs (`A`) against
//! change runs (`B`), per workload and end-to-end metric, under the
//! bounds in `BENCHMARK.json`.

use crate::stats::{self, Better, Verdict};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One end-to-end metric's rule from `BENCHMARK.json`.
pub struct Rule {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: f64,
}

fn str_of<'v>(v: &'v Value, key: &str) -> Option<&'v str> {
    match v.get(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

fn num_of(v: &Value, key: &str) -> Option<f64> {
    match v.get(key)? {
        Value::Float(x) => Some(*x),
        Value::Int(x) => Some(*x as f64),
        Value::UInt(x) => Some(*x as f64),
        _ => None,
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The end-to-end rules of a `BENCHMARK.json`.
pub fn rules(path: &Path) -> Result<Vec<Rule>, String> {
    let doc = read_json(path)?;
    let Some(Value::Array(list)) = doc.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    list.iter()
        .map(|m| {
            let field =
                |k| str_of(m, k).ok_or_else(|| format!("{}: metric without {k}", path.display()));
            let better = match field("better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("{}: better = {other}", path.display())),
            };
            Ok(Rule {
                name: field("name")?.to_owned(),
                unit: field("unit")?.to_owned(),
                better,
                bound: num_of(m, "bound")
                    .ok_or_else(|| format!("{}: metric without bound", path.display()))?,
            })
        })
        .collect()
}

/// workload → metric → one value per run file.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_runs(list: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for path in list.split(',').filter(|p| !p.is_empty()) {
        let doc = read_json(Path::new(path))?;
        let workload = str_of(&doc, "workload").ok_or_else(|| format!("{path}: no workload"))?;
        let Some(Value::Object(metrics)) = doc.get("metrics") else {
            return Err(format!("{path}: no metrics"));
        };
        let per = runs.entry(workload.to_owned()).or_default();
        for (name, m) in metrics {
            if let Some(v) = num_of(m, "value") {
                per.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

fn find_benchmark_json() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let p = dir.join("BENCHMARK.json");
        if p.is_file() {
            return Some(p);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: apollo_perf compare A.json[,A2.json...] B.json[,B2.json...] [--benchmark BENCHMARK.json]");
    ExitCode::from(2)
}

pub fn main(args: &[String]) -> ExitCode {
    let mut lists = Vec::new();
    let mut bench = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark" {
            let Some(p) = it.next() else { return usage() };
            bench = Some(PathBuf::from(p));
        } else {
            lists.push(a.clone());
        }
    }
    let [a_list, b_list] = lists.as_slice() else {
        return usage();
    };
    let Some(bench) = bench.or_else(find_benchmark_json) else {
        eprintln!("compare: BENCHMARK.json not found (pass --benchmark)");
        return ExitCode::from(2);
    };
    let loaded = rules(&bench).and_then(|r| Ok((r, load_runs(a_list)?, load_runs(b_list)?)));
    let (rules, a, b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut regressed = 0;
    let mut unresolved = 0;
    println!(
        "{:<12} {:<18} {:>38} {:>38} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "delta"
    );
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            println!("{workload:<12} (no B runs)");
            unresolved += 1;
            continue;
        };
        for rule in &rules {
            let (Some(av), Some(bv)) = (a_metrics.get(&rule.name), b_metrics.get(&rule.name))
            else {
                println!("{workload:<12} {:<18} missing on one side", rule.name);
                unresolved += 1;
                continue;
            };
            let v = stats::verdict(av, bv, rule.better, rule.bound);
            match v {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                _ => {}
            }
            let side = |x: &[f64]| {
                let (q1, m, q3) = stats::quartiles(x);
                format!("{m:.6e} [{q1:.4e}, {q3:.4e}] {}", x.len())
            };
            let delta = 100.0 * (stats::median(bv) / stats::median(av) - 1.0);
            println!(
                "{workload:<12} {:<18} {:>38} {:>38} {delta:>+7.2}%  {} ({} {}, bound {:.0}%)",
                rule.name,
                side(av),
                side(bv),
                format!("{v:?}").to_lowercase(),
                rule.unit,
                if rule.better == Better::Lower {
                    "lower is better"
                } else {
                    "higher is better"
                },
                100.0 * rule.bound
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    if regressed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let rules = rules(&path).unwrap();
        let names: Vec<(&str, &str)> = rules
            .iter()
            .map(|r| (r.name.as_str(), r.unit.as_str()))
            .collect();
        assert_eq!(names, crate::harness::END_TO_END);
        let doc = read_json(&path).unwrap();
        let Some(Value::Array(per)) = doc.get("per_layer") else {
            panic!("no per_layer list");
        };
        let per: Vec<(&str, &str)> = per
            .iter()
            .map(|m| (str_of(m, "name").unwrap(), str_of(m, "unit").unwrap()))
            .collect();
        assert_eq!(per, crate::harness::PER_LAYER);
    }
}
