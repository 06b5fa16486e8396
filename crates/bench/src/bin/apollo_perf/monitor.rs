//! `monitor_n1`: offline `run_monitor` calls on the paper-scale `n1`
//! netlist. The per-cycle layers (simulator step, proxy taps, OPM
//! accumulate) do nearly all the work over 48,503 signal bits and
//! 4.3 Mbit of SRAM; the serving layers sit idle, so a serving change
//! must not move this workload.

use crate::harness::{self, Args, Gate, Metric, Report, END_TO_END, PER_LAYER};
use crate::inputs;
use crate::meter::{LayerNs, Meter};
use crate::trace::{self, TraceSummary, Tracer};
use apollo_core::{ApolloError, ApolloModel, DesignContext};
use apollo_cpu::benchmarks::Benchmark;
use apollo_cpu::CpuConfig;
use apollo_introspect::{History, MonitorConfig, MonitorReport, WindowRecord};
use apollo_opm::DriftDetector;
use apollo_telemetry::FieldValue;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

/// Cycles per `run_monitor` call: two `T` = 256 windows, short enough
/// that a 10 s run times over a thousand calls.
pub const CYCLES_PER_CALL: u64 = 512;
/// Calls per rep: eight passes over the seeded Table-4 order.
pub const CALLS_PER_REP: usize = 96;
const SETUPS: usize = 5;

fn config(cycles: u64) -> MonitorConfig {
    MonitorConfig {
        window_t: 256,
        bits: 10,
        cycles,
        ..MonitorConfig::default()
    }
}

struct Rep {
    /// Digest of the calls' `MonitorReport` JSON, in call order.
    digest: u64,
    cycles: u64,
    windows: u64,
    wall_s: f64,
    lat_ms: Vec<f64>,
    sum_failures: u64,
    tracer: Option<Tracer>,
}

fn rep(
    ctx: &DesignContext,
    model: &ApolloModel,
    benches: &[Benchmark],
    cfg: &MonitorConfig,
    calls: usize,
    traced: Option<Instant>,
) -> Result<Rep, ApolloError> {
    let stop = AtomicBool::new(false);
    let mut tracer = traced.map(|epoch| Tracer::new(epoch, 1));
    let mut reports = Vec::with_capacity(calls);
    let mut out = Rep {
        digest: 0,
        cycles: 0,
        windows: 0,
        wall_s: 0.0,
        lat_ms: Vec::with_capacity(calls),
        sum_failures: 0,
        tracer: None,
    };
    let t = Instant::now();
    for i in 0..calls {
        let bench = &benches[i % benches.len()];
        let c0 = Instant::now();
        let report = match tracer.as_mut() {
            None => apollo_introspect::run_monitor(ctx, model, bench, cfg, None, &stop)?,
            Some(tr) => traced_monitor(ctx, model, bench, cfg, tr, &mut out.sum_failures)?,
        };
        out.lat_ms.push(c0.elapsed().as_secs_f64() * 1e3);
        out.cycles += report.cycles;
        out.windows += report.windows;
        reports.push(report);
    }
    out.wall_s = t.elapsed().as_secs_f64();
    let json: Vec<String> = reports
        .iter()
        .map(|r| serde_json::to_string(r).expect("report serializes"))
        .collect();
    out.digest = harness::digest_strs(json.iter().map(String::as_str));
    out.tracer = tracer;
    Ok(out)
}

/// `run_monitor` (no hub, no checkpoint, no arm) re-driven from its
/// public parts with a span at each layer boundary. Its report must be
/// byte-identical to `run_monitor`'s.
fn traced_monitor(
    ctx: &DesignContext,
    model: &ApolloModel,
    bench: &Benchmark,
    cfg: &MonitorConfig,
    tr: &mut Tracer,
    sum_failures: &mut u64,
) -> Result<MonitorReport, ApolloError> {
    let call = tr.open("monitor.call");
    let t0 = tr.now();
    let _root_ctx = if apollo_telemetry::current().is_active() {
        None
    } else {
        Some(apollo_telemetry::enter(apollo_telemetry::TraceCtx::root(
            apollo_telemetry::intern("monitor"),
            0,
        )))
    };
    let _pipeline_span = apollo_telemetry::span("introspect.pipeline");
    let mut meter = Meter::new(ctx, model, cfg.bits, cfg.window_t)?;
    let mut quant_drift = DriftDetector::new("quant", cfg.drift.clone());
    let mut truth_drift = DriftDetector::new("truth", cfg.drift.clone());
    let mut history = History::new(cfg.history);
    let classes = &meter.map.classes;
    let unit_fields: Vec<String> = classes
        .iter()
        .map(|c| format!("unit.{}", c.label))
        .collect();
    let unit_gauges: Vec<String> = classes
        .iter()
        .map(|c| format!("introspect.unit.{}", c.label))
        .collect();
    let unit_labels: Vec<String> = classes.iter().map(|c| c.label.clone()).collect();
    let mut unit_energy = vec![0.0f64; meter.map.n_classes()];
    let t = cfg.window_t;
    apollo_telemetry::emit_event(
        "introspect.start",
        &[
            ("design", FieldValue::from(model.design_name.as_str())),
            ("bench", FieldValue::from(bench.name.as_str())),
            ("q", FieldValue::from(model.q())),
            ("window_t", FieldValue::from(t)),
        ],
    );
    let (mut cycle, mut runs, mut energy) = (0u64, 1u64, 0.0f64);
    let throttle = 0u8;
    let mut sim = ctx.simulate(&bench.program, &bench.data);
    tr.leaf("monitor.setup", t0, tr.now());

    let mut ns = LayerNs::default();
    let mut win: Option<(apollo_telemetry::SpanGuard, usize)> = None;
    while cfg.cycles == 0 || cycle < cfg.cycles {
        if sim.halted() {
            let r0 = tr.now();
            runs += 1;
            apollo_telemetry::emit_event(
                "introspect.restart",
                &[
                    ("cycle", FieldValue::from(cycle)),
                    ("runs", FieldValue::from(runs)),
                ],
            );
            apollo_telemetry::counter("introspect.restarts").inc();
            sim = ctx.simulate(&bench.program, &bench.data);
            tr.leaf("monitor.restart", r0, tr.now());
        }
        if win.is_none() {
            win = Some((
                apollo_telemetry::span("introspect.window"),
                tr.open("introspect.window"),
            ));
        }
        let closed = meter.cycle(&mut sim, tr, &mut ns);
        cycle += 1;
        let Some(w) = closed else {
            continue;
        };
        let c0 = tr.now();
        let attr = w.attr;
        if attr.raw.iter().sum::<u64>() != attr.total {
            *sum_failures += 1;
        }
        let est = meter.acc.est_power(&attr);
        energy += est * t as f64;
        for (i, e) in unit_energy.iter_mut().enumerate() {
            *e += meter.acc.unit_power(&attr, i) * t as f64;
        }
        let qs = quant_drift.observe(est - w.float_power);
        let ts = truth_drift.observe(est - w.truth);
        let c1 = tr.now();
        tr.leaf("opm.window_close", c0, c1);

        apollo_telemetry::counter("introspect.windows").inc();
        apollo_telemetry::gauge("introspect.est_power").set(est);
        apollo_telemetry::gauge("introspect.float_power").set(w.float_power);
        apollo_telemetry::gauge("introspect.true_power").set(w.truth);
        apollo_telemetry::gauge("introspect.energy").set(energy);
        apollo_telemetry::gauge("introspect.throttle").set(f64::from(throttle));
        apollo_telemetry::gauge("introspect.drift.quant.ewma").set(qs.ewma);
        apollo_telemetry::gauge("introspect.drift.truth.ewma").set(ts.ewma);
        apollo_telemetry::histogram("introspect.window_power_milli")
            .observe((est.max(0.0) * 1000.0) as u64);
        for (i, g) in unit_gauges.iter().enumerate() {
            apollo_telemetry::gauge(g).set(meter.acc.unit_power(&attr, i));
        }
        let mut fields: Vec<(String, FieldValue)> = vec![
            ("window".to_owned(), FieldValue::from(attr.window)),
            ("cycle".to_owned(), FieldValue::from(cycle)),
            ("raw".to_owned(), FieldValue::from(attr.total)),
            ("out".to_owned(), FieldValue::from(attr.output)),
            ("est_power".to_owned(), FieldValue::from(est)),
            ("float_power".to_owned(), FieldValue::from(w.float_power)),
            ("true_power".to_owned(), FieldValue::from(w.truth)),
            ("energy".to_owned(), FieldValue::from(energy)),
            ("throttle".to_owned(), FieldValue::from(throttle)),
        ];
        for (i, name) in unit_fields.iter().enumerate() {
            fields.push((name.clone(), FieldValue::from(attr.raw[i])));
        }
        if apollo_telemetry::events_enabled() {
            let refs: Vec<(&str, FieldValue)> = fields
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .collect();
            apollo_telemetry::emit_event("introspect.window", &refs);
        }
        let c2 = tr.now();
        tr.leaf("introspect.publish", c1, c2);

        history.push(WindowRecord {
            window: attr.window,
            cycle,
            raw: attr.total,
            out: attr.output,
            est_power: est,
            float_power: w.float_power,
            true_power: w.truth,
            energy,
            throttle,
            unit_raw: attr.raw,
        });
        tr.leaf("introspect.ring", c2, tr.now());
        ns.flush(tr);
        if let Some((guard, id)) = win.take() {
            drop(guard);
            tr.close(id);
        }
    }
    if let Some((guard, id)) = win.take() {
        drop(guard);
        ns.flush(tr);
        tr.close(id);
    }
    let r0 = tr.now();
    let windows = history.total_windows();
    apollo_telemetry::emit_event(
        "introspect.shutdown",
        &[
            ("windows", FieldValue::from(windows)),
            ("cycles", FieldValue::from(cycle)),
        ],
    );
    let report = MonitorReport {
        windows,
        cycles: cycle,
        runs,
        mean_est: history.mean_est(),
        peak_est: history.peak_est(),
        mean_true: history.mean_true(),
        energy,
        tail: history.tail_stats(64),
        unit_labels,
        unit_energy,
        quant_alarms: quant_drift.alarms(),
        truth_alarms: truth_drift.alarms(),
        armed_windows: 0,
        final_throttle: throttle,
        history_dropped: history.dropped(),
        resumed_from: None,
        checkpoints: 0,
    };
    tr.leaf("monitor.report", r0, tr.now());
    tr.close(call);
    Ok(report)
}

fn gate_rep(gate: &mut Gate, what: &str, r: &Rep) {
    gate.check(what, r.digest, r.windows);
    if r.sum_failures > 0 {
        gate.fail(
            r.sum_failures,
            format!("{what}: {} windows with Σ unit raw != raw", r.sum_failures),
        );
    }
}

fn ns_per_cycle(r: &Rep) -> f64 {
    r.wall_s * 1e9 / r.cycles as f64
}

/// Runs the workload.
///
/// # Errors
/// Returns the first error a monitor call reports.
pub fn run(args: &Args) -> Result<Report, String> {
    run_sized(args, CALLS_PER_REP, CYCLES_PER_CALL, 2)
}

pub(crate) fn run_sized(
    args: &Args,
    calls: usize,
    cycles: u64,
    min_reps: usize,
) -> Result<Report, String> {
    let ((ctx, model), setup_s) = harness::timed_setup(SETUPS, || {
        let ctx = DesignContext::new(&CpuConfig::neoverse_like());
        let model = inputs::train_model(&ctx);
        (ctx, model)
    });
    let benches = inputs::table4_order(&ctx.handles.config, args.seed);
    let cfg = config(cycles);
    let mut gate = Gate::new("monitor_n1", args.seed);
    let run_rep = |traced: Option<Instant>| rep(&ctx, &model, &benches, &cfg, calls, traced);
    let err = |e: ApolloError| e.to_string();

    let warm = run_rep(None).map_err(err)?;
    let rss_mb = harness::rss_peak_mb();
    gate_rep(&mut gate, "warm-up", &warm);
    let mut attempted = warm.windows;
    let mut values = BTreeMap::new();
    let mut notes = Vec::new();
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = harness::measure(seconds, min_reps, || run_rep(None));
    let plain: Vec<Rep> = plain.into_iter().collect::<Result<_, _>>().map_err(err)?;
    for (i, r) in plain.iter().enumerate() {
        gate_rep(&mut gate, &format!("rep {i}"), r);
        attempted += r.windows;
    }
    if !args.trace {
        values.insert("setup_s", Metric::of("setup_s", "s", &setup_s));
        let cps: Vec<f64> = plain.iter().map(|r| r.cycles as f64 / r.wall_s).collect();
        values.insert(
            "sim_cycles_per_s",
            Metric::of("sim_cycles_per_s", "cycles/s", &cps),
        );
        let lat: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.lat_ms.iter().copied())
            .collect();
        values.insert("op_p50_ms", harness::op_p50(lat));
        values.insert("rss_peak_mb", Metric::of("rss_peak_mb", "MB", &[rss_mb]));
        notes.push(harness::rss_growth_note(rss_mb));
        return Ok(Report::from_values(
            END_TO_END, values, gate, attempted, notes,
        ));
    }

    let (tail, note) = harness::op_tail(
        plain
            .iter()
            .flat_map(|r| r.lat_ms.iter().copied())
            .collect(),
    );
    values.insert("op_tail_ms", tail);
    notes.push(note);
    let epoch = Instant::now();
    let traced = harness::measure(seconds, min_reps, || run_rep(Some(epoch)));
    let traced: Vec<Rep> = traced.into_iter().collect::<Result<_, _>>().map_err(err)?;
    let mut per = |name: &'static str, unit: &str, f: &dyn Fn(&Rep, &TraceSummary) -> f64| {
        let v: Vec<f64> = traced
            .iter()
            .map(|r| {
                f(
                    r,
                    &TraceSummary::of(std::slice::from_ref(r.tracer.as_ref().expect("traced"))),
                )
            })
            .collect();
        values.insert(name, Metric::of(name, unit, &v));
    };
    for (metric, layer) in [
        ("sim.step_ns", "sim.step"),
        ("opm.taps_ns", "opm.taps"),
        ("opm.accumulate_ns", "opm.accumulate"),
    ] {
        per(metric, "ns/cycle", &|r, s| {
            s.layer(layer) as f64 / r.cycles as f64
        });
    }
    for (metric, layer) in [
        ("opm.window_close_ns", "opm.window_close"),
        ("introspect.publish_ns", "introspect.publish"),
        ("introspect.ring_ns", "introspect.ring"),
    ] {
        per(metric, "ns/window", &|r, s| {
            s.layer(layer) as f64 / r.windows as f64
        });
    }
    per("monitor.setup_ns", "ns/call", &|r, s| {
        s.layer("monitor.setup") as f64 / r.lat_ms.len() as f64
    });
    per("trace.closure_pct", "%", &|_, s| s.closure_pct());
    let untraced: Vec<f64> = plain.iter().map(ns_per_cycle).collect();
    let traced_ns: Vec<f64> = traced.iter().map(ns_per_cycle).collect();
    harness::trace_overhead(&untraced, &traced_ns, &mut values);
    for (i, r) in traced.iter().enumerate() {
        gate_rep(&mut gate, &format!("traced rep {i}"), r);
        attempted += r.windows;
    }
    harness::rss_final(&mut values);
    let tracers: Vec<Tracer> = traced.into_iter().filter_map(|r| r.tracer).collect();
    let events = trace::write(&args.out.join("trace"), &args.workload, &tracers)?;
    notes.push(format!("{events} trace events written"));
    Ok(Report::from_values(
        PER_LAYER, values, gate, attempted, notes,
    ))
}
