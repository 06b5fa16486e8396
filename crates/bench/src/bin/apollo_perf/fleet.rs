//! `fleet_dark` and `fleet_serve`: 64 `tiny` cores with a seeded mix of
//! Table-4 benchmarks, `T` ∈ {16, 32} and `B` ∈ {8, 10}, free-running
//! (`pace_ms = 0`) for a fixed number of window rounds per rep.
//!
//! `fleet_dark` runs two shards and no endpoint: each core's working set
//! is small and its windows short, so the per-window layers (window
//! close, batch build, aggregator ingest, hub publish) show, and the two
//! shards contend on the shared aggregator lock. `fleet_serve` runs the
//! same cores in one shard, leaving the second core to the endpoint and
//! the load: the scrape handlers take the aggregator lock the shard
//! writes. Both must publish the same per-core window rows.

use crate::harness::{self, Args, Gate, Metric, Report, END_TO_END, PER_LAYER};
use crate::inputs;
use crate::meter::{LayerNs, Meter};
use crate::serve::{batch_digest, Load, LoadLog, Scrape};
use crate::stats::{self, Fnv};
use crate::trace::{self, TraceSummary, Tracer};
use apollo_core::{ApolloModel, DesignContext};
use apollo_cpu::benchmarks::Benchmark;
use apollo_cpu::{CpuConfig, CpuSim};
use apollo_fleet::{
    run_fleet, shard_cores, BatchPoll, CoreSpec, CoreWindow, FleetAggregate, FleetConfig,
    ShardRuntime, WindowBatch,
};
use apollo_introspect::sync::plock;
use apollo_opm::DriftDetector;
use apollo_telemetry::framing::Framed;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const CORES: usize = 64;
/// Window rounds per rep (the same for both fleet workloads, so their
/// outputs compare).
pub const ROUNDS: u64 = 150;
/// Open-loop scrape period: 47.6 requests/s. The endpoint accepts one
/// waiting connection per 20 ms poll of its listener, so one-at-a-time
/// requests every 20 ms (50/s) outrun it and the backlog grows; 21 ms
/// stays below that rate, and being incommensurate with the poll it
/// spreads arrivals evenly over the poll's phase.
pub const SCRAPE_PERIOD: Duration = Duration::from_millis(21);
const SETUPS: usize = 5;

/// Which fleet workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Dark,
    Serve,
}

impl Mode {
    fn shards(self) -> usize {
        match self {
            Mode::Dark => 2,
            Mode::Serve => 1,
        }
    }
}

struct Env {
    ctx: Arc<DesignContext>,
    model: Arc<ApolloModel>,
    specs: Vec<CoreSpec>,
}

/// What one rep leaves behind once its outputs are checked.
struct Rep {
    digest: u64,
    core_windows: u64,
    core_cycles: u64,
    /// Batches published (one per shard per round).
    batches: u64,
    wall_s: f64,
    round_ms: Vec<f64>,
    failures: Vec<String>,
    tracers: Vec<Tracer>,
    dropped: u64,
    /// `WindowBatch::to_jsonl` times (traced reps only).
    serialize_ns: Vec<f64>,
    serve: Option<Served>,
}

/// The load's view of one rep.
struct Served {
    scrapes: Vec<Scrape>,
    snapshot_ns: Vec<f64>,
    lag_ms: Vec<f64>,
    received: u64,
    gaps: u64,
}

/// Canonical per-core rows (independent of how cores were sharded:
/// attribution cells a core does not have are zero and left out) plus
/// the comparable final aggregate, hashed in core-id, window order.
pub fn fleet_digest<'b>(
    batches: impl IntoIterator<Item = &'b WindowBatch>,
    agg: &FleetAggregate,
) -> u64 {
    let mut rows: BTreeMap<(String, u64), String> = BTreeMap::new();
    for b in batches {
        let l = b.unit_labels.len();
        for (i, core) in b.cores.iter().enumerate() {
            let mut s = format!(
                "{} {:x} {:x} {} {} {} {:x}",
                b.window,
                b.est_power[i].to_bits(),
                b.true_power[i].to_bits(),
                b.raw[i],
                b.out[i],
                b.alarms[i],
                b.energy[i].to_bits()
            );
            for (j, label) in b.unit_labels.iter().enumerate() {
                let v = b.unit_raw[i * l + j];
                if v != 0 {
                    let _ = write!(s, " {label}={v}");
                }
            }
            rows.insert((core.clone(), b.window), s);
        }
    }
    let mut h = Fnv::default();
    for ((core, _), row) in &rows {
        h.str(core);
        h.str(row);
    }
    h.str(&agg.comparable().to_jsonl());
    h.0
}

/// `CoreMonitor` re-driven from its public parts, timed per layer.
struct TracedCore<'a> {
    ctx: &'a DesignContext,
    bench: Benchmark,
    sim: CpuSim<'a>,
    meter: Meter<'a>,
    quant_drift: DriftDetector,
    truth_drift: DriftDetector,
    labels: Vec<String>,
    window_t: usize,
    energy: f64,
    alarms: u64,
}

impl<'a> TracedCore<'a> {
    fn new(ctx: &'a DesignContext, model: &'a ApolloModel, spec: &CoreSpec) -> Self {
        let meter = Meter::new(ctx, model, spec.bits, spec.window_t).expect("valid core spec");
        TracedCore {
            ctx,
            bench: spec.bench.clone(),
            sim: ctx.simulate(&spec.bench.program, &spec.bench.data),
            labels: meter.map.classes.iter().map(|c| c.label.clone()).collect(),
            meter,
            quant_drift: DriftDetector::new("quant", spec.drift.clone()),
            truth_drift: DriftDetector::new("truth", spec.drift.clone()),
            window_t: spec.window_t,
            energy: 0.0,
            alarms: 0,
        }
    }

    fn step_window(&mut self, tr: &Tracer, ns: &mut LayerNs, close_ns: &mut u64) -> CoreWindow {
        loop {
            if self.sim.halted() {
                let r0 = tr.now();
                self.sim = self.ctx.simulate(&self.bench.program, &self.bench.data);
                ns.sim += tr.now() - r0;
            }
            let Some(w) = self.meter.cycle(&mut self.sim, tr, ns) else {
                continue;
            };
            let c0 = tr.now();
            let est = self.meter.acc.est_power(&w.attr);
            self.energy += est * self.window_t as f64;
            let qs = self.quant_drift.observe(est - w.float_power);
            let ts = self.truth_drift.observe(est - w.truth);
            self.alarms += u64::from(qs.alarm) + u64::from(ts.alarm);
            let out = CoreWindow {
                window: w.attr.window,
                est_power: est,
                true_power: w.truth,
                raw: w.attr.total,
                out: w.attr.output,
                alarms: self.alarms,
                energy: self.energy,
                unit_raw: w.attr.raw,
            };
            *close_ns += tr.now() - c0;
            return out;
        }
    }
}

fn now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// The shard loop of `run_fleet` (no kills, so no restarts) re-driven
/// with spans, publishing into the real runtime.
fn traced_shard(
    env: &Env,
    k: usize,
    specs: &[CoreSpec],
    rounds: u64,
    runtime: &ShardRuntime,
    epoch: Instant,
) -> Tracer {
    let mut tr = Tracer::new(epoch, k as u32 + 1);
    let shard_id = format!("shard{k}");
    let root = tr.open("fleet.shard");
    let s0 = tr.now();
    runtime.health.report_state(&shard_id, "starting", 0, 0);
    let mut cores: Vec<TracedCore<'_>> = specs
        .iter()
        .map(|s| TracedCore::new(&env.ctx, &env.model, s))
        .collect();
    tr.leaf("fleet.setup", s0, tr.now());
    let hub = &runtime.hubs[k];
    for round in 0..rounds {
        let r = tr.open("fleet.round");
        let sw = tr.open("fleet.step_window");
        let (mut ns, mut close_ns, mut row_ns) = (LayerNs::default(), 0u64, 0u64);
        let mut rows: Vec<(String, Vec<String>, CoreWindow)> = Vec::with_capacity(cores.len());
        for (spec, core) in specs.iter().zip(cores.iter_mut()) {
            let a = tr.now();
            let (id, labels) = (spec.id.clone(), core.labels.clone());
            row_ns += tr.now() - a;
            let w = core.step_window(&tr, &mut ns, &mut close_ns);
            rows.push((id, labels, w));
        }
        ns.flush(&mut tr);
        tr.add("opm.window_close", close_ns);
        tr.add("fleet.row_build", row_ns);
        tr.close(sw);
        let a = tr.now();
        let alarms: u64 = rows.iter().map(|(_, _, w)| w.alarms).sum();
        let mut batch = WindowBatch::from_rows(k as u64, round, round, &rows);
        batch.ts_ns = now_ns();
        let b = tr.now();
        tr.leaf("fleet.batch_build", a, b);
        let mut agg = plock(&runtime.aggregator);
        let c = tr.now();
        tr.leaf("fleet.aggregate_lock_wait", b, c);
        agg.ingest(&batch);
        drop(agg);
        let d = tr.now();
        tr.leaf("fleet.aggregate_ingest", c, d);
        hub.publish(batch);
        let e = tr.now();
        tr.leaf("fleet.hub_publish", d, e);
        apollo_telemetry::counter("fleet.windows").inc();
        runtime
            .health
            .report_window(&shard_id, round + 1, 0, alarms, false, 0);
        tr.leaf("fleet.health", e, tr.now());
        tr.close(r);
    }
    runtime.health.report_state(&shard_id, "completed", 0, 0);
    tr.close(root);
    tr
}

fn rep(
    env: &Env,
    mode: Mode,
    rounds: u64,
    traced: Option<Instant>,
    routes: Option<Vec<String>>,
) -> Result<Rep, String> {
    let shards = shard_cores(env.specs.clone(), mode.shards());
    // Each hub queue holds a whole rep, so the in-process transcript
    // subscriber below never drops.
    let cfg = FleetConfig {
        windows: rounds,
        hub_cap: rounds as usize + 1,
        ..FleetConfig::default()
    };
    let runtime = ShardRuntime::new(&shards, &cfg);
    let subs: Vec<_> = runtime.hubs.iter().map(|h| h.subscribe()).collect();
    let load = match routes {
        Some(routes) => Some(Load::start(
            &runtime,
            routes,
            SCRAPE_PERIOD,
            traced.is_some(),
        )?),
        None => None,
    };
    let mut failures = Vec::new();
    let t = Instant::now();
    let tracers = match traced {
        None => {
            let stop = Arc::new(AtomicBool::new(false));
            let report = run_fleet(&env.ctx, &env.model, &shards, &cfg, &runtime, &stop);
            if report.degraded() > 0 {
                failures.push(format!("{} shard(s) degraded", report.degraded()));
            }
            Vec::new()
        }
        Some(epoch) => std::thread::scope(|s| {
            let handles: Vec<_> = shards
                .iter()
                .enumerate()
                .map(|(k, specs)| {
                    let runtime = &runtime;
                    s.spawn(move || traced_shard(env, k, specs, rounds, runtime, epoch))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("traced shard thread"))
                .collect()
        }),
    };
    let wall_s = t.elapsed().as_secs_f64();
    let load = load.map(|l| l.finish(&runtime));
    runtime.close();
    let mut batches = Vec::new();
    let mut round_ms = Vec::new();
    for (k, sub) in subs.iter().enumerate() {
        let mut prev_ts: Option<u64> = None;
        let mut seq = 0u64;
        while let BatchPoll::Batch(b) = sub.poll(Duration::ZERO) {
            if b.seq != seq || b.shard != k as u64 {
                failures.push(format!(
                    "shard {k}: batch seq {} where {seq} was due",
                    b.seq
                ));
            }
            if let Err(e) = b.check_payload() {
                failures.push(format!("shard {k} seq {}: {e}", b.seq));
            }
            if let Some(p) = prev_ts {
                round_ms.push(b.ts_ns.saturating_sub(p) as f64 / 1e6);
            }
            prev_ts = Some(b.ts_ns);
            seq += 1;
            batches.push(b);
        }
        if seq != rounds {
            failures.push(format!("shard {k}: {seq} of {rounds} batches"));
        }
    }
    let aggregate = runtime.snapshot(0);
    if aggregate.cores_reporting != CORES as u64 || aggregate.cores_total != CORES as u64 {
        failures.push(format!(
            "coverage {}/{} of {CORES}",
            aggregate.cores_reporting, aggregate.cores_total
        ));
    }
    let digest = fleet_digest(batches.iter().map(|b| &**b), &aggregate);
    let serialize_ns = if traced.is_some() {
        batches
            .iter()
            .map(|b| {
                let t = Instant::now();
                std::hint::black_box(b.to_jsonl());
                t.elapsed().as_nanos() as f64
            })
            .collect()
    } else {
        Vec::new()
    };
    let serve = load.map(|log| {
        let published: BTreeMap<(u64, u64), u64> = batches
            .iter()
            .map(|b| ((b.shard, b.seq), batch_digest(b)))
            .collect();
        check_stream(log, &published, &mut failures)
    });
    let cycles_per_round: u64 = env.specs.iter().map(|s| s.window_t as u64).sum();
    Ok(Rep {
        digest,
        core_windows: rounds * CORES as u64,
        core_cycles: rounds * cycles_per_round,
        batches: batches.len() as u64,
        wall_s,
        round_ms,
        failures,
        tracers,
        dropped: runtime.hubs.iter().map(|h| h.dropped()).sum(),
        serialize_ns,
        serve,
    })
}

/// The served event stream must carry every published batch, in dense
/// per-shard order and unchanged; scrapes must answer 200.
fn check_stream(
    log: LoadLog,
    published: &BTreeMap<(u64, u64), u64>,
    failures: &mut Vec<String>,
) -> Served {
    let bad_scrapes = log.scrapes.iter().filter(|s| !s.ok).count();
    if bad_scrapes > 0 {
        failures.push(format!("{bad_scrapes} failed scrapes"));
    }
    if let Some(e) = &log.events_error {
        failures.push(e.clone());
    }
    let mut next: BTreeMap<u64, u64> = BTreeMap::new();
    let (mut gaps, mut changed) = (0, 0);
    for b in &log.stream.batches {
        let n = next.entry(b.shard).or_default();
        gaps += b.seq.saturating_sub(*n);
        *n = b.seq + 1;
        if published.get(&(b.shard, b.seq)) != Some(&b.digest) {
            changed += 1;
        }
    }
    let received = log.stream.batches.len() as u64;
    let missing = published.len() as u64 - received.min(published.len() as u64);
    for (count, what) in [
        (missing, "missing"),
        (log.stream.malformed, "malformed"),
        (changed, "changed"),
    ] {
        if count > 0 {
            failures.push(format!("{count} batches {what} on /fleet/events"));
        }
    }
    Served {
        scrapes: log.scrapes,
        snapshot_ns: log.snapshot_ns,
        lag_ms: log.stream.batches.iter().map(|b| b.lag_ms).collect(),
        received: received + log.stream.malformed,
        gaps,
    }
}

/// Gates one rep; any failed check fails all the rep's operations.
fn gate_rep(gate: &mut Gate, what: &str, r: &Rep) -> u64 {
    let ops = match &r.serve {
        Some(s) => s.scrapes.len() as u64 + s.received,
        None => r.core_windows,
    };
    if gate.check(what, r.digest, ops) && !r.failures.is_empty() {
        gate.fail(ops, format!("{what}: {}", r.failures.join("; ")));
    }
    ops
}

/// Runs a fleet workload.
///
/// # Errors
/// Returns an error when the endpoint cannot be bound or subscribed.
pub fn run(args: &Args, mode: Mode) -> Result<Report, String> {
    run_sized(args, mode, ROUNDS, 2)
}

pub(crate) fn run_sized(
    args: &Args,
    mode: Mode,
    rounds: u64,
    min_reps: usize,
) -> Result<Report, String> {
    let (env, setup_s) = harness::timed_setup(SETUPS, || {
        let ctx = DesignContext::new(&CpuConfig::tiny());
        let model = inputs::train_model(&ctx);
        Env {
            specs: inputs::fleet_mix(&ctx.handles.config, args.seed, CORES),
            ctx: Arc::new(ctx),
            model: Arc::new(model),
        }
    });
    let ids: Vec<String> = env.specs.iter().map(|s| s.id.clone()).collect();
    let all_routes = inputs::scrape_routes(args.seed, &ids, 4096);
    let mut cursor = 0usize;
    let mut gate = Gate::new("fleet", args.seed);
    let mut next_rep = |traced: Option<Instant>| -> Result<Rep, String> {
        let routes = (mode == Mode::Serve).then(|| {
            let mut r = all_routes[cursor % all_routes.len()..].to_vec();
            r.extend_from_slice(&all_routes[..cursor % all_routes.len()]);
            r
        });
        let r = rep(&env, mode, rounds, traced, routes)?;
        cursor += r.serve.as_ref().map_or(0, |s| s.scrapes.len());
        Ok(r)
    };

    let warm = next_rep(None)?;
    let rss_mb = harness::rss_peak_mb();
    let mut attempted = gate_rep(&mut gate, "warm-up", &warm);
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain: Vec<Rep> = harness::measure(seconds, min_reps, || next_rep(None))
        .into_iter()
        .collect::<Result<_, _>>()?;
    for (i, r) in plain.iter().enumerate() {
        attempted += gate_rep(&mut gate, &format!("rep {i}"), r);
    }
    let ops = |reps: &[Rep]| -> Vec<f64> {
        match mode {
            Mode::Dark => reps
                .iter()
                .flat_map(|r| r.round_ms.iter().copied())
                .collect(),
            Mode::Serve => reps
                .iter()
                .flat_map(|r| {
                    r.serve
                        .iter()
                        .flat_map(|s| s.scrapes.iter().map(|x| x.latency_ms))
                })
                .collect(),
        }
    };
    let mut values = BTreeMap::new();
    let mut notes = Vec::new();
    if !args.trace {
        values.insert("setup_s", Metric::of("setup_s", "s", &setup_s));
        let cps: Vec<f64> = plain
            .iter()
            .map(|r| r.core_cycles as f64 / r.wall_s)
            .collect();
        values.insert(
            "sim_cycles_per_s",
            Metric::of("sim_cycles_per_s", "cycles/s", &cps),
        );
        values.insert("op_p50_ms", harness::op_p50(ops(&plain)));
        values.insert("rss_peak_mb", Metric::of("rss_peak_mb", "MB", &[rss_mb]));
        notes.push(harness::rss_growth_note(rss_mb));
        return Ok(Report::from_values(
            END_TO_END, values, gate, attempted, notes,
        ));
    }

    let (tail, note) = harness::op_tail(ops(&plain));
    values.insert("op_tail_ms", tail);
    notes.push(note);
    let epoch = Instant::now();
    let traced: Vec<Rep> = harness::measure(seconds, min_reps, || next_rep(Some(epoch)))
        .into_iter()
        .collect::<Result<_, _>>()?;
    for (i, r) in traced.iter().enumerate() {
        attempted += gate_rep(&mut gate, &format!("traced rep {i}"), r);
    }
    harness::rss_final(&mut values);
    layer_metrics(&plain, &traced, &mut values);
    if mode == Mode::Serve {
        serve_metrics(&traced, &mut values);
    }
    let tracers: Vec<Tracer> = traced.into_iter().flat_map(|r| r.tracers).collect();
    let events = trace::write(&args.out.join("trace"), &args.workload, &tracers)?;
    notes.push(format!("{events} trace events written"));
    Ok(Report::from_values(
        PER_LAYER, values, gate, attempted, notes,
    ))
}

fn span_ns(tracers: &[Tracer], name: &str) -> u64 {
    tracers
        .iter()
        .flat_map(|t| t.spans.iter())
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

fn layer_metrics(plain: &[Rep], traced: &[Rep], values: &mut BTreeMap<&'static str, Metric>) {
    let mut per = |name: &'static str, unit: &str, f: &dyn Fn(&Rep, &TraceSummary) -> f64| {
        let v: Vec<f64> = traced
            .iter()
            .map(|r| f(r, &TraceSummary::of(&r.tracers)))
            .collect();
        values.insert(name, Metric::of(name, unit, &v));
    };
    for (metric, layer) in [
        ("sim.step_ns", "sim.step"),
        ("opm.taps_ns", "opm.taps"),
        ("opm.accumulate_ns", "opm.accumulate"),
    ] {
        per(metric, "ns/cycle", &|r, s| {
            s.layer(layer) as f64 / r.core_cycles as f64
        });
    }
    per("opm.window_close_ns", "ns/window", &|r, s| {
        s.layer("opm.window_close") as f64 / r.core_windows as f64
    });
    per("fleet.step_window_ns", "ns/core-window", &|r, _| {
        span_ns(&r.tracers, "fleet.step_window") as f64 / r.core_windows as f64
    });
    let shard_rounds = |r: &Rep| r.batches as f64;
    per("fleet.batch_build_ns", "ns/round", &|r, s| {
        s.layer("fleet.batch_build") as f64 / shard_rounds(r)
    });
    for (metric, layer) in [
        ("fleet.aggregate_ingest_ns", "fleet.aggregate_ingest"),
        ("fleet.aggregate_lock_wait_ns", "fleet.aggregate_lock_wait"),
        ("fleet.hub_publish_ns", "fleet.hub_publish"),
    ] {
        per(metric, "ns/round", &|r, s| {
            s.layer(layer) as f64 / shard_rounds(r)
        });
    }
    per("fleet.shard_imbalance", "ratio", &|r, _| {
        let busy: Vec<f64> = r.tracers.iter().map(|t| t.root_ns() as f64).collect();
        busy.iter().copied().fold(0.0, f64::max) / (busy.iter().sum::<f64>() / busy.len() as f64)
    });
    per("fleet.windows_per_s", "1/s", &|r, _| {
        r.core_windows as f64 / r.wall_s
    });
    per("fleet.hub.dropped", "count", &|r, _| r.dropped as f64);
    per("trace.closure_pct", "%", &|_, s| s.closure_pct());
    let ns = |r: &Rep| r.wall_s * 1e9 / r.core_cycles as f64;
    let untraced: Vec<f64> = plain.iter().map(ns).collect();
    let traced_ns: Vec<f64> = traced.iter().map(ns).collect();
    harness::trace_overhead(&untraced, &traced_ns, values);
}

fn serve_metrics(traced: &[Rep], values: &mut BTreeMap<&'static str, Metric>) {
    let served: Vec<&Served> = traced.iter().filter_map(|r| r.serve.as_ref()).collect();
    let scrapes: Vec<&Scrape> = served.iter().flat_map(|s| s.scrapes.iter()).collect();
    let sorted = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v
    };
    let mut put = |name: &'static str, unit: &str, value: f64, n: usize| {
        let mut m = Metric::of(name, unit, &[value]);
        m.n = n;
        values.insert(name, m);
    };
    let n = scrapes.len();
    let connect = sorted(scrapes.iter().map(|s| s.connect_ms).collect());
    let first = sorted(scrapes.iter().map(|s| s.first_byte_ms).collect());
    put(
        "serve.connect_ms_p50",
        "ms",
        stats::nearest_rank(&connect, 0.5),
        n,
    );
    put(
        "serve.first_byte_ms_p50",
        "ms",
        stats::nearest_rank(&first, 0.5),
        n,
    );
    put("serve.first_byte_ms_p99", "ms", stats::tail(&first).1, n);
    for (name, prefix) in [
        ("serve.route.fleet_metrics_p50_ms", "/fleet/metrics"),
        ("serve.route.core_metrics_p50_ms", "/cores/"),
        ("serve.route.status_p50_ms", "/status"),
        ("serve.route.healthz_p50_ms", "/healthz"),
    ] {
        let v = sorted(
            scrapes
                .iter()
                .filter(|s| s.path.starts_with(prefix))
                .map(|s| s.latency_ms)
                .collect(),
        );
        put(name, "ms", stats::nearest_rank(&v, 0.5), v.len());
    }
    let snaps = sorted(
        served
            .iter()
            .flat_map(|s| s.snapshot_ns.iter().copied())
            .collect(),
    );
    put(
        "serve.snapshot_ns",
        "ns",
        stats::nearest_rank(&snaps, 0.5),
        snaps.len(),
    );
    let shed = scrapes.iter().filter(|s| s.status == 503).count();
    put("serve.shed_503", "count", shed as f64, n);
    let late = scrapes.iter().map(|s| s.late_ms).fold(0.0, f64::max);
    put("serve.generator_late_ms_max", "ms", late, n);
    let failed = scrapes.iter().filter(|s| !s.ok).count();
    put(
        "serve.scrape_fail_frac",
        "ratio",
        failed as f64 / n.max(1) as f64,
        n,
    );
    let ser = sorted(
        traced
            .iter()
            .flat_map(|r| r.serialize_ns.iter().copied())
            .collect(),
    );
    put(
        "serve.batch_serialize_ns",
        "ns/batch",
        stats::nearest_rank(&ser, 0.5),
        ser.len(),
    );
    let lags = sorted(
        served
            .iter()
            .flat_map(|s| s.lag_ms.iter().copied())
            .collect(),
    );
    put(
        "serve.event_lag_p50_ms",
        "ms",
        stats::nearest_rank(&lags, 0.5),
        lags.len(),
    );
    put(
        "serve.event_lag_p99_ms",
        "ms",
        stats::tail(&lags).1,
        lags.len(),
    );
    let gaps: u64 = served.iter().map(|s| s.gaps).sum();
    let published: u64 = traced.iter().map(|r| r.batches).sum();
    put("serve.seq_gaps", "count", gaps as f64, lags.len());
    put(
        "serve.event_drop_frac",
        "ratio",
        gaps as f64 / published.max(1) as f64,
        published as usize,
    );
}
