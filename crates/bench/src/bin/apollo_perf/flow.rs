//! `model_flow`: the paper's offline flow on `tiny`, then inference at
//! the paper's §8.1 scale. It exercises `core`, `mlkit` and the bitslice
//! simulator, and nothing from the serving stack.

use crate::harness::{self, Args, Gate, Metric, Report, END_TO_END, PER_LAYER};
use crate::inputs;
use crate::stats::Fnv;
use crate::trace::{self, TraceSummary, Tracer};
use apollo_core::{
    run_ga, train_per_cycle, DesignContext, FeatureSpace, GaConfig, SimPool, TrainOptions,
};
use apollo_cpu::CpuConfig;
use apollo_opm::QuantizedOpm;
use apollo_sim::EngineKind;
use std::collections::BTreeMap;
use std::time::Instant;

/// One simulation thread. With two, the kernel's per-level barrier waits
/// on whichever core a neighbouring process holds on a 2-core host: reps
/// split into 330k and 505k lane-cycles/s and run medians spread 9.6%;
/// one thread runs 8% slower and spreads 1%.
const THREADS: usize = 1;
const POPULATION: usize = 24;
const GENERATIONS: usize = 4;
const TRAIN_BENCHES: usize = 64;
const TRAIN_CYCLES: usize = 100;
const TRAIN_WARMUP: usize = 200;
const Q: usize = 32;
/// One full bitslice chunk of proxy-capture workloads.
const LANES: usize = 64;
const LANE_CYCLES: usize = 4096;
const LANE_WARMUP: usize = 100;
const WINDOW_T: usize = 256;
/// Fixed, so that every benchmark seed trains the same model (see
/// `inputs`).
const GA_SEED: u64 = 0xA9011;
const BITS: u8 = 10;
/// Cycles inferred per rep: the paper's "a billion cycles".
pub const INFER_CYCLES: u64 = 1_000_000_000;
const SETUPS: usize = 21;

struct Rep {
    digest: u64,
    /// Simulated lane-cycles of the model-building flow.
    lane_cycles: u64,
    /// Lane slots stepped (64 per bitslice pass-cycle).
    lane_slots: u64,
    build_s: f64,
    wall_s: f64,
    pass_ms: Vec<f64>,
    windows: u64,
    inferred: u64,
    mismatched_windows: u64,
    tracer: Tracer,
}

fn rep(ctx: &DesignContext, seed: u64, infer_cycles: u64, epoch: Instant) -> Result<Rep, String> {
    let mut tr = Tracer::new(epoch, 1);
    let root = tr.open("flow.rep");
    let t = Instant::now();
    let ga_cfg = GaConfig {
        population: POPULATION,
        generations: GENERATIONS,
        threads: THREADS,
        seed: GA_SEED,
        ..GaConfig::default()
    };
    let a = tr.now();
    let ga = run_ga(ctx, &ga_cfg);
    let b = tr.now();
    tr.leaf("core.ga", a, b);
    let suite = ga.training_suite(TRAIN_BENCHES, TRAIN_CYCLES, ctx.handles.config.dram_words);
    let trace = ctx.capture_suite(&suite, TRAIN_WARMUP);
    let c = tr.now();
    tr.leaf("core.capture_suite", b, c);
    let fs = FeatureSpace::build(&trace.toggles);
    let d = tr.now();
    tr.leaf("core.feature_space", c, d);
    let opts = TrainOptions {
        q_target: Q,
        ..TrainOptions::default()
    };
    let model = train_per_cycle(&trace, ctx.netlist(), &fs, &opts).model;
    let e = tr.now();
    tr.leaf("mlkit.train", d, e);
    let work = inputs::lane_workloads(&ctx.handles.config, seed, LANES, LANE_CYCLES);
    let mats = SimPool::new(THREADS).capture_proxy_suite(ctx, &work, &model.bits(), LANE_WARMUP);
    let f = tr.now();
    tr.leaf("core.capture_proxy", e, f);
    let build_s = t.elapsed().as_secs_f64();

    let opm = QuantizedOpm::from_model(&model, BITS, WINDOW_T).map_err(|e| e.to_string())?;
    let per_pass: u64 = mats.iter().map(|m| m.n_cycles() as u64).sum();
    let passes = infer_cycles.div_ceil(per_pass);
    let windows_per_pass: u64 = mats.iter().map(|m| (m.n_cycles() / WINDOW_T) as u64).sum();
    let mut pass_ms = Vec::with_capacity(passes as usize);
    let mut first = Vec::new();
    let mut reference = 0u64;
    let mut mismatched_windows = 0;
    for p in 0..passes {
        let t0 = tr.now();
        let mut sum = 0u64;
        for m in &mats {
            let w = opm.window_outputs_proxy(m);
            let c = opm.predict_cycles_proxy(m);
            sum = w.iter().fold(sum, |s, &x| s.wrapping_add(x));
            if p == 0 {
                first.push((w, c));
            } else {
                std::hint::black_box(c);
            }
        }
        let t1 = tr.now();
        tr.leaf("opm.infer", t0, t1);
        pass_ms.push((t1 - t0) as f64 / 1e6);
        if p == 0 {
            reference = sum;
        } else if sum != reference {
            mismatched_windows += windows_per_pass;
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    tr.close(root);

    let mut h = Fnv::default();
    h.str(&serde_json::to_string(&model).map_err(|e| e.to_string())?);
    for (w, c) in &first {
        w.iter().for_each(|&x| h.u64(x));
        c.iter().for_each(|x| h.u64(x.to_bits()));
    }
    let ga_lanes = (POPULATION * GENERATIONS) as u64 * (ga_cfg.warmup + ga_cfg.fitness_cycles);
    let ga_slots = (GENERATIONS * POPULATION.div_ceil(64) * 64) as u64
        * (ga_cfg.warmup + ga_cfg.fitness_cycles);
    let capture = (suite.len() * (TRAIN_WARMUP + TRAIN_CYCLES)) as u64;
    let proxy = (LANES * (LANE_WARMUP + LANE_CYCLES)) as u64;
    let slots = |n: usize, cycles: usize| (n.div_ceil(64) * 64 * cycles) as u64;
    Ok(Rep {
        digest: h.0,
        lane_cycles: ga_lanes + capture + proxy,
        lane_slots: ga_slots
            + slots(suite.len(), TRAIN_WARMUP + TRAIN_CYCLES)
            + slots(LANES, LANE_WARMUP + LANE_CYCLES),
        build_s,
        wall_s,
        pass_ms,
        windows: passes * windows_per_pass,
        inferred: passes * per_pass,
        mismatched_windows,
        tracer: tr,
    })
}

fn gate_rep(gate: &mut Gate, what: &str, r: &Rep) -> u64 {
    gate.check(what, r.digest, r.windows);
    if r.mismatched_windows > 0 {
        gate.fail(
            r.mismatched_windows,
            format!("{what}: inference outputs changed between passes"),
        );
    }
    r.windows
}

/// Runs the workload.
///
/// # Errors
/// Returns the quantizer's error for the trained model.
pub fn run(args: &Args) -> Result<Report, String> {
    run_sized(args, INFER_CYCLES, 2)
}

pub(crate) fn run_sized(args: &Args, infer_cycles: u64, min_reps: usize) -> Result<Report, String> {
    let (ctx, setup_s) = harness::timed_setup(SETUPS, || {
        DesignContext::with_engine(&CpuConfig::tiny(), THREADS, EngineKind::Bitslice)
    });
    let mut gate = Gate::new("model_flow", args.seed);
    let epoch = Instant::now();
    let warm = rep(&ctx, args.seed, infer_cycles, epoch)?;
    let rss_mb = harness::rss_peak_mb();
    let mut attempted = gate_rep(&mut gate, "warm-up", &warm);
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let run_reps =
        |label: &str, gate: &mut Gate, attempted: &mut u64| -> Result<Vec<Rep>, String> {
            let reps: Vec<Rep> = harness::measure(seconds, min_reps, || {
                rep(&ctx, args.seed, infer_cycles, epoch)
            })
            .into_iter()
            .collect::<Result<_, _>>()?;
            for (i, r) in reps.iter().enumerate() {
                *attempted += gate_rep(gate, &format!("{label} {i}"), r);
            }
            Ok(reps)
        };
    let plain = run_reps("rep", &mut gate, &mut attempted)?;
    let mut values = BTreeMap::new();
    let mut notes = Vec::new();
    if !args.trace {
        values.insert("setup_s", Metric::of("setup_s", "s", &setup_s));
        let cps: Vec<f64> = plain
            .iter()
            .map(|r| r.lane_cycles as f64 / r.build_s)
            .collect();
        values.insert(
            "sim_cycles_per_s",
            Metric::of("sim_cycles_per_s", "cycles/s", &cps),
        );
        let passes: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.pass_ms.iter().copied())
            .collect();
        values.insert("op_p50_ms", harness::op_p50(passes));
        values.insert("rss_peak_mb", Metric::of("rss_peak_mb", "MB", &[rss_mb]));
        notes.push(harness::rss_growth_note(rss_mb));
        return Ok(Report::from_values(
            END_TO_END, values, gate, attempted, notes,
        ));
    }

    // The flow's layers are coarse, so the plain reps carry the same
    // spans; the "traced" reps differ only in that their spans are kept.
    let (tail, note) = harness::op_tail(
        plain
            .iter()
            .flat_map(|r| r.pass_ms.iter().copied())
            .collect(),
    );
    values.insert("op_tail_ms", tail);
    notes.push(note);
    let traced = run_reps("traced rep", &mut gate, &mut attempted)?;
    harness::rss_final(&mut values);
    let mut per = |name: &'static str, unit: &str, f: &dyn Fn(&Rep, &TraceSummary) -> f64| {
        let v: Vec<f64> = traced
            .iter()
            .map(|r| f(r, &TraceSummary::of(std::slice::from_ref(&r.tracer))))
            .collect();
        values.insert(name, Metric::of(name, unit, &v));
    };
    for (metric, layer) in [
        ("core.ga_s", "core.ga"),
        ("core.capture_suite_s", "core.capture_suite"),
        ("core.feature_space_s", "core.feature_space"),
        ("mlkit.train_s", "mlkit.train"),
    ] {
        per(metric, "s", &|_, s| s.layer(layer) as f64 / 1e9);
    }
    per("flow.model_build_s", "s", &|_, s| {
        [
            "core.ga",
            "core.capture_suite",
            "core.feature_space",
            "mlkit.train",
        ]
        .iter()
        .map(|l| s.layer(l))
        .sum::<u64>() as f64
            / 1e9
    });
    per(
        "core.capture_proxy_ns_per_lane_cycle",
        "ns/lane-cycle",
        &|_, s| s.layer("core.capture_proxy") as f64 / (LANES * (LANE_WARMUP + LANE_CYCLES)) as f64,
    );
    per("flow.lane_occupancy", "ratio", &|r, _| {
        r.lane_cycles as f64 / r.lane_slots as f64
    });
    per("opm.infer_ns_per_cycle", "ns/cycle", &|r, s| {
        s.layer("opm.infer") as f64 / r.inferred as f64
    });
    per("trace.closure_pct", "%", &|_, s| s.closure_pct());
    let ns = |r: &Rep| r.wall_s * 1e9 / r.lane_cycles as f64;
    let untraced: Vec<f64> = plain.iter().map(ns).collect();
    let traced_ns: Vec<f64> = traced.iter().map(ns).collect();
    harness::trace_overhead(&untraced, &traced_ns, &mut values);
    let tracers: Vec<Tracer> = traced.into_iter().map(|r| r.tracer).collect();
    let events = trace::write(&args.out.join("trace"), &args.workload, &tracers)?;
    notes.push(format!("{events} trace events written"));
    Ok(Report::from_values(
        PER_LAYER, values, gate, attempted, notes,
    ))
}
