//! In-memory span recording for the traced run, written out as Chrome
//! trace-event JSON when the run ends.
//!
//! Spans are recorded from the benchmark's own drivers around calls into
//! each layer. Per-cycle layers (simulator step, proxy taps, OPM
//! accumulate) are far too fine-grained for one span per call, so the
//! drivers sum them per window and record the sums as layer time (and as
//! arguments on the enclosing window span) at the window boundary.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One finished span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub args: Vec<(&'static str, u64)>,
}

/// Span and layer-time recorder for one thread.
pub struct Tracer {
    epoch: Instant,
    pub tid: u32,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    /// Summed time per named layer, in ns.
    pub layers: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Tracer {
            epoch,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    /// Nanoseconds since the run's shared epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a container span (its own time is not layer time).
    pub fn open(&mut self, name: &'static str) -> usize {
        let start_ns = self.now();
        self.push(name, start_ns, start_ns)
    }

    pub fn close(&mut self, id: usize) {
        let end = self.now();
        self.spans[id].end_ns = end;
        if self.stack.last() == Some(&id) {
            self.stack.pop();
        }
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
            args: Vec::new(),
        });
        self.stack.push(id);
        id
    }

    /// Records a finished leaf span of layer `name` and counts its
    /// duration as that layer's time.
    pub fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let id = self.push(name, start_ns, end_ns);
        self.stack.pop();
        debug_assert_eq!(self.stack.last().copied(), self.spans[id].parent);
        *self.layers.entry(name).or_default() += end_ns.saturating_sub(start_ns);
    }

    /// Adds summed per-cycle layer time, and attaches it to the innermost
    /// open span as an argument.
    pub fn add(&mut self, layer: &'static str, ns: u64) {
        *self.layers.entry(layer).or_default() += ns;
        if let Some(&id) = self.stack.last() {
            self.spans[id].args.push((layer, ns));
        }
    }

    /// Wall time covered by this thread's root spans.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .sum()
    }
}

/// Layer totals and closure over a set of per-thread tracers.
pub struct TraceSummary {
    pub layers: BTreeMap<&'static str, u64>,
    pub wall_ns: u64,
}

impl TraceSummary {
    pub fn of(tracers: &[Tracer]) -> Self {
        let mut layers = BTreeMap::new();
        for t in tracers {
            for (k, v) in &t.layers {
                *layers.entry(*k).or_default() += v;
            }
        }
        TraceSummary {
            layers,
            wall_ns: tracers.iter().map(Tracer::root_ns).sum(),
        }
    }

    pub fn layer(&self, name: &str) -> u64 {
        self.layers.get(name).copied().unwrap_or(0)
    }

    /// Σ layer time as a percentage of the traced wall time it explains.
    pub fn closure_pct(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        100.0 * self.layers.values().sum::<u64>() as f64 / self.wall_ns as f64
    }
}

/// Renders the tracers' spans as Chrome trace-event JSON.
pub fn chrome_json(tracers: &[Tracer]) -> String {
    let mut events = Vec::new();
    for t in tracers {
        for (i, s) in t.spans.iter().enumerate() {
            let mut args = vec![("span".to_owned(), Value::UInt(i as u64))];
            if let Some(p) = s.parent {
                args.push(("parent".to_owned(), Value::UInt(p as u64)));
            }
            for (k, v) in &s.args {
                args.push(((*k).to_owned(), Value::UInt(*v)));
            }
            events.push(Value::Object(vec![
                ("name".to_owned(), Value::Str(s.name.to_owned())),
                ("cat".to_owned(), Value::Str("apollo_perf".to_owned())),
                ("ph".to_owned(), Value::Str("X".to_owned())),
                ("ts".to_owned(), Value::Float(s.start_ns as f64 / 1e3)),
                (
                    "dur".to_owned(),
                    Value::Float(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                ),
                ("pid".to_owned(), Value::UInt(1)),
                ("tid".to_owned(), Value::UInt(u64::from(t.tid))),
                ("args".to_owned(), Value::Object(args)),
            ]));
        }
    }
    let doc = Value::Object(vec![
        ("traceEvents".to_owned(), Value::Array(events)),
        ("displayTimeUnit".to_owned(), Value::Str("ns".to_owned())),
    ]);
    serde_json::to_string(&doc).expect("trace serializes")
}

/// Checks that `text` parses as Chrome trace-event JSON made of complete
/// (`"ph": "X"`) events; returns the event count.
pub fn check_chrome(text: &str) -> Result<usize, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let Some(Value::Array(events)) = doc.get("traceEvents") else {
        return Err("no traceEvents array".into());
    };
    for (i, e) in events.iter().enumerate() {
        let num = |k: &str| match e.get(k) {
            Some(Value::Float(x)) => *x >= 0.0,
            Some(Value::UInt(_)) => true,
            Some(Value::Int(x)) => *x >= 0,
            _ => false,
        };
        let named = matches!(e.get("name"), Some(Value::Str(_)));
        let complete = e.get("ph") == Some(&Value::Str("X".to_owned()));
        if !(named && complete && num("ts") && num("dur") && num("pid") && num("tid")) {
            return Err(format!("event {i} is not a complete trace event"));
        }
    }
    Ok(events.len())
}

/// Writes and re-checks `<dir>/<workload>.trace.json`.
pub fn write(dir: &Path, workload: &str, tracers: &[Tracer]) -> Result<usize, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.trace.json"));
    let text = chrome_json(tracers);
    std::fs::write(&path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
    check_chrome(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_close_and_export_as_chrome_json() {
        let mut t = Tracer::new(Instant::now(), 3);
        let root = t.open("round");
        t.leaf("sim.step", 10, 40);
        t.add("opm.taps", 5);
        t.close(root);
        assert_eq!(t.spans[1].parent, Some(root));
        assert_eq!(t.spans[root].args, vec![("opm.taps", 5)]);
        let s = TraceSummary::of(std::slice::from_ref(&t));
        assert_eq!(s.layer("sim.step"), 30);
        assert_eq!(s.layer("opm.taps"), 5);
        let text = chrome_json(&[t]);
        assert_eq!(check_chrome(&text), Ok(2));
        assert!(check_chrome("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err());
        assert!(check_chrome("not json").is_err());
    }
}
