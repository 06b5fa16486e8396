//! What every workload shares: set-up timing, the rep loop, metric
//! records, the digest gate and peak memory.

use crate::stats::{self, Fnv};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("op_p50_ms", "ms"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// that a workload never calls reads 0 there. `op_tail_ms` (taken from
/// the traced run's untraced half) sits here because it moved 9–34%
/// between invocations on a shared 2-core host.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("op_tail_ms", "ms"),
    ("rss_final_mb", "MB"),
    ("sim.step_ns", "ns/cycle"),
    ("opm.taps_ns", "ns/cycle"),
    ("opm.accumulate_ns", "ns/cycle"),
    ("opm.window_close_ns", "ns/window"),
    ("introspect.publish_ns", "ns/window"),
    ("introspect.ring_ns", "ns/window"),
    ("monitor.setup_ns", "ns/call"),
    ("fleet.step_window_ns", "ns/core-window"),
    ("fleet.batch_build_ns", "ns/round"),
    ("fleet.aggregate_ingest_ns", "ns/round"),
    ("fleet.aggregate_lock_wait_ns", "ns/round"),
    ("fleet.hub_publish_ns", "ns/round"),
    ("fleet.shard_imbalance", "ratio"),
    ("fleet.windows_per_s", "1/s"),
    ("fleet.hub.dropped", "count"),
    ("serve.connect_ms_p50", "ms"),
    ("serve.first_byte_ms_p50", "ms"),
    ("serve.first_byte_ms_p99", "ms"),
    ("serve.route.fleet_metrics_p50_ms", "ms"),
    ("serve.route.core_metrics_p50_ms", "ms"),
    ("serve.route.status_p50_ms", "ms"),
    ("serve.route.healthz_p50_ms", "ms"),
    ("serve.snapshot_ns", "ns"),
    ("serve.shed_503", "count"),
    ("serve.generator_late_ms_max", "ms"),
    ("serve.scrape_fail_frac", "ratio"),
    ("serve.batch_serialize_ns", "ns/batch"),
    ("serve.event_lag_p50_ms", "ms"),
    ("serve.event_lag_p99_ms", "ms"),
    ("serve.seq_gaps", "count"),
    ("serve.event_drop_frac", "ratio"),
    ("core.ga_s", "s"),
    ("core.capture_suite_s", "s"),
    ("core.feature_space_s", "s"),
    ("mlkit.train_s", "s"),
    ("flow.model_build_s", "s"),
    ("core.capture_proxy_ns_per_lane_cycle", "ns/lane-cycle"),
    ("flow.lane_occupancy", "ratio"),
    ("opm.infer_ns_per_cycle", "ns/cycle"),
    ("trace.closure_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.traced_ns_per_cycle", "ns/cycle"),
    ("trace.untraced_ns_per_cycle", "ns/cycle"),
];

/// One workload invocation's arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

/// One reported metric: its median with quartiles over `n` samples.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Metric {
    /// Median and quartiles of `values`.
    pub fn of(name: &str, unit: &str, values: &[f64]) -> Metric {
        let (q1, value, q3) = stats::quartiles(values);
        Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value,
            q1,
            q3,
            n: values.len(),
        }
    }
}

/// A workload's result.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub notes: Vec<String>,
}

impl Report {
    /// A report with exactly the named metrics, in order, from `values`
    /// (a name without a value reads 0: that layer was never called).
    pub fn from_values(
        spec: &[(&str, &str)],
        mut values: BTreeMap<&'static str, Metric>,
        gate: Gate,
        attempted: u64,
        notes: Vec<String>,
    ) -> Report {
        let metrics = spec
            .iter()
            .map(|(name, unit)| {
                let mut m = values
                    .remove(*name)
                    .unwrap_or_else(|| Metric::of(name, unit, &[0.0]));
                m.unit = (*unit).to_owned();
                m
            })
            .collect();
        debug_assert!(values.is_empty(), "unlisted metrics: {:?}", values.keys());
        let mut notes = notes;
        notes.extend(gate.notes);
        Report {
            metrics,
            attempted,
            failed: gate.failed,
            digest: gate.reference.unwrap_or(0),
            notes,
        }
    }
}

/// Runs the set-up `times` times (it must be repeatable) and returns the
/// last result with the set-up times in seconds; the metric is their
/// median.
pub fn timed_setup<T>(times: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), secs)
}

/// Runs `rep` until `seconds` have passed and at least `min_reps` reps
/// are done. Reps are work-bounded; the time bound only decides how many.
pub fn measure<R>(seconds: f64, min_reps: usize, mut rep: impl FnMut() -> R) -> Vec<R> {
    let t = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || t.elapsed().as_secs_f64() < seconds {
        out.push(rep());
    }
    out
}

/// The process's peak resident set (`VmHWM`), in MB. Workloads read it
/// after set-up and the warm-up rep: one full run at the rep's size.
/// Later reps restart the program's threads, and the allocator may then
/// leave a previous rep's freed per-thread heap resident beside the new
/// one, which made the peak jump by a whole working set at random.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A note with `VmHWM` once every measured rep is done, beside the
/// reported after-warm-up figure, so that growth over the reps shows.
pub fn rss_growth_note(after_warm_up_mb: f64) -> String {
    format!(
        "VmHWM {:.1} MB after the last measured rep ({after_warm_up_mb:.1} MB after the warm-up)",
        rss_peak_mb()
    )
}

/// `rss_final_mb`: `VmHWM` once every rep, traced ones included, is done.
pub fn rss_final(values: &mut BTreeMap<&'static str, Metric>) {
    values.insert(
        "rss_final_mb",
        Metric::of("rss_final_mb", "MB", &[rss_peak_mb()]),
    );
}

/// `op_p50_ms`: the median per-operation latency, with the 25th and
/// 75th percentiles as its quartiles.
pub fn op_p50(mut samples_ms: Vec<f64>) -> Metric {
    samples_ms.sort_by(f64::total_cmp);
    let p = |q| stats::nearest_rank(&samples_ms, q);
    Metric {
        name: "op_p50_ms".into(),
        unit: "ms".into(),
        value: p(0.5),
        q1: p(0.25),
        q3: p(0.75),
        n: samples_ms.len(),
    }
}

/// `op_tail_ms`: the highest percentile (up to p99) with ten operations
/// beyond it, plus a note naming the percentile.
pub fn op_tail(mut samples_ms: Vec<f64>) -> (Metric, String) {
    samples_ms.sort_by(f64::total_cmp);
    let n = samples_ms.len();
    let (q, tail) = stats::tail(&samples_ms);
    let m = Metric {
        name: "op_tail_ms".into(),
        unit: "ms".into(),
        value: tail,
        q1: tail,
        q3: tail,
        n,
    };
    (
        m,
        format!("op_tail_ms is p{:.1} of {n} untraced operations", 100.0 * q),
    )
}

/// `trace.overhead_pct` with both absolute figures it compares: the
/// traced and untraced reps' host ns per simulated cycle.
pub fn trace_overhead(
    untraced_ns: &[f64],
    traced_ns: &[f64],
    values: &mut BTreeMap<&'static str, Metric>,
) {
    let pct = 100.0 * (stats::median(traced_ns) / stats::median(untraced_ns) - 1.0);
    for (name, unit, v) in [
        ("trace.overhead_pct", "%", &[pct][..]),
        ("trace.traced_ns_per_cycle", "ns/cycle", traced_ns),
        ("trace.untraced_ns_per_cycle", "ns/cycle", untraced_ns),
    ] {
        values.insert(name, Metric::of(name, unit, v));
    }
}

const PINNED: &str = include_str!("digests.txt");

/// The pinned digest of `family` (a workload, or `fleet` for both fleet
/// workloads) at `seed`, if one is recorded.
pub fn pinned(family: &str, seed: u64) -> Option<u64> {
    PINNED.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some(fam), Some(s), Some(hex)) if fam == family && s.parse() == Ok(seed) => {
                u64::from_str_radix(hex, 16).ok()
            }
            _ => None,
        }
    })
}

/// The correctness gate: every rep's output digest must equal the first
/// rep's and, when one is recorded, the pinned digest for the seed.
/// Each mismatch fails the rep's operations.
pub struct Gate {
    pinned: Option<u64>,
    pub reference: Option<u64>,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Gate {
    pub fn new(family: &str, seed: u64) -> Gate {
        let pinned = pinned(family, seed);
        let notes = if pinned.is_none() {
            vec![format!(
                "no pinned {family} digest for seed {seed}: checked across reps only"
            )]
        } else {
            Vec::new()
        };
        Gate {
            pinned,
            reference: None,
            failed: 0,
            notes,
        }
    }

    /// Checks one rep's digest; `ops` operations fail on a mismatch.
    pub fn check(&mut self, what: &str, digest: u64, ops: u64) -> bool {
        let expect = *self.reference.get_or_insert(self.pinned.unwrap_or(digest));
        if digest == expect {
            return true;
        }
        self.failed += ops;
        self.notes.push(format!(
            "{what}: digest {digest:016x} != expected {expect:016x}"
        ));
        false
    }

    /// Counts `ops` failed operations found by a direct check.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.notes.len() < 20 {
            self.notes.push(why);
        }
    }
}

/// Digest of a sequence of strings.
pub fn digest_strs<'a>(items: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = Fnv::default();
    for s in items {
        h.str(s);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_mismatch_fails_the_gate() {
        let mut g = Gate::new("nonexistent-family", 1);
        assert!(g.check("rep 0", 42, 10));
        assert!(g.check("rep 1", 42, 10));
        assert!(!g.check("rep 2", 43, 10), "a changed output must fail");
        assert_eq!(g.failed, 10);
        assert!(g.notes.iter().any(|n| n.contains("rep 2")));
    }

    #[test]
    fn pinned_digest_overrides_the_first_rep() {
        let Some((fam, seed)) = PINNED.lines().find_map(|l| {
            let mut f = l.split_whitespace();
            Some((f.next()?.to_owned(), f.next()?.parse::<u64>().ok()?))
        }) else {
            return;
        };
        let mut g = Gate::new(&fam, seed);
        assert!(
            !g.check("rep 0", 0, 1),
            "a digest that differs from the pin fails"
        );
    }

    #[test]
    fn report_lists_exactly_the_spec() {
        let mut v = BTreeMap::new();
        v.insert("setup_s", Metric::of("setup_s", "s", &[1.0, 2.0, 3.0]));
        let r = Report::from_values(&END_TO_END[..2], v, Gate::new("x", 0), 1, Vec::new());
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["setup_s", "sim_cycles_per_s"]);
        assert_eq!(r.metrics[0].value, 2.0);
        assert_eq!(r.metrics[1].value, 0.0);
    }
}
