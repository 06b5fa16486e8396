//! The per-cycle metering loop body shared by the traced monitor and
//! fleet drivers: the same public calls, in the same order, as
//! `run_monitor` and `CoreMonitor::step_window`, with a clock read at
//! each layer boundary.

use crate::trace::Tracer;
use apollo_core::{ApolloError, ApolloModel, DesignContext};
use apollo_cpu::CpuSim;
use apollo_opm::{
    AttributionAccumulator, AttributionMap, ProxyTaps, QuantizedOpm, WindowAttribution,
};
use apollo_sim::WindowTap;

/// Per-cycle layer time summed since the last flush, in ns.
#[derive(Default)]
pub struct LayerNs {
    pub sim: u64,
    pub taps: u64,
    pub acc: u64,
}

impl LayerNs {
    /// Moves the sums into the tracer (and onto its innermost span).
    pub fn flush(&mut self, tr: &mut Tracer) {
        tr.add("sim.step", self.sim);
        tr.add("opm.taps", self.taps);
        tr.add("opm.accumulate", self.acc);
        *self = LayerNs::default();
    }
}

/// A closed OPM window.
pub struct Closed {
    pub attr: WindowAttribution,
    pub truth: f64,
    pub float_power: f64,
}

/// Proxy taps, attribution accumulator and ground-truth window tap of one
/// metered core.
pub struct Meter<'m> {
    model: &'m ApolloModel,
    pub map: AttributionMap,
    pub acc: AttributionAccumulator,
    taps: ProxyTaps,
    wtap: WindowTap,
    toggled: Vec<bool>,
    float_acc: f64,
    t: usize,
}

impl<'m> Meter<'m> {
    /// # Errors
    /// Returns the quantizer's error for an invalid window or width.
    pub fn new(
        ctx: &DesignContext,
        model: &'m ApolloModel,
        bits: u8,
        t: usize,
    ) -> Result<Self, ApolloError> {
        let opm = QuantizedOpm::from_model(model, bits, t)?;
        let map = AttributionMap::from_model(model);
        let taps = ProxyTaps::new(ctx.netlist(), &opm.bits);
        let acc = AttributionAccumulator::new(&opm, &map);
        Ok(Meter {
            model,
            map,
            acc,
            taps,
            wtap: WindowTap::new(t),
            toggled: vec![false; opm.bits.len()],
            float_acc: 0.0,
            t,
        })
    }

    /// Steps `sim` one cycle and meters it, summing layer time into `ns`.
    pub fn cycle(&mut self, sim: &mut CpuSim<'_>, tr: &Tracer, ns: &mut LayerNs) -> Option<Closed> {
        let a = tr.now();
        sim.step();
        let power = sim.sim().power();
        let b = tr.now();
        {
            let s = sim.sim();
            for (k, slot) in self.toggled.iter_mut().enumerate() {
                *slot = self.taps.toggled(s, k);
            }
        }
        let c = tr.now();
        // The float proxy model in `ApolloModel::predict_full`'s order.
        let mut pred = self.model.intercept;
        for (k, p) in self.model.proxies.iter().enumerate() {
            if self.toggled[k] {
                pred += p.weight;
            }
        }
        self.float_acc += pred;
        let toggled = &self.toggled;
        let attr = self.acc.cycle(|k| toggled[k]);
        let truth = self.wtap.push(&power);
        let d = tr.now();
        ns.sim += b - a;
        ns.taps += c - b;
        ns.acc += d - c;
        let attr = attr?;
        let truth = truth.expect("attribution and power windows share T");
        let float_power = self.float_acc / self.t as f64;
        self.float_acc = 0.0;
        Some(Closed {
            attr,
            truth: truth.mean.total,
            float_power,
        })
    }
}
