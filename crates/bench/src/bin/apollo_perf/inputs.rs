//! Seeded input generation and the per-workload set-up.
//!
//! The seed generates the inputs the program under test receives: the
//! Table-4 benchmark order, the fleet core mix, the proxy-lane packing
//! and the scrape route order. Each is a seeded arrangement of a fixed,
//! balanced pool, so every seed does the same amount of work and a
//! metric compares across seeds.
//!
//! The models are not seeded. The monitor and fleet workloads serve a
//! model from one fixed recipe, and `model_flow` runs its GA with a fixed
//! seed: a seeded GA trains a model with another proxy count and toggle
//! density, which moved inference cost by ±20% from seed to seed.

use apollo_core::{train_per_cycle, ApolloModel, DesignContext, FeatureSpace, TrainOptions};
use apollo_cpu::benchmarks::{self, Benchmark};
use apollo_cpu::CpuConfig;
use apollo_fleet::CoreSpec;
use apollo_opm::DriftConfig;

/// splitmix64: a tiny, fully specified generator, so inputs depend on
/// the seed alone.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from the other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

const SALT_ORDER: u64 = 1;
const SALT_MIX: u64 = 2;
const SALT_LANES: u64 = 3;
const SALT_ROUTES: u64 = 4;

/// The twelve Table-4 benchmarks in seeded order.
pub fn table4_order(cfg: &CpuConfig, seed: u64) -> Vec<Benchmark> {
    let mut suite = benchmarks::table4_suite(cfg);
    Rng::new(seed, SALT_ORDER).shuffle(&mut suite);
    suite
}

/// `n` fleet cores with Table-4 benchmarks, `T` ∈ {16, 32} and
/// `B` ∈ {8, 10}. The seed deals benchmarks and widths to cores from
/// fixed, balanced pools. Cores come in fours running one benchmark at
/// `T` = 16, 16, 32, 32, so every seed simulates the same work and each
/// of two round-robin shards runs every benchmark at both window lengths.
pub fn fleet_mix(cfg: &CpuConfig, seed: u64, n: usize) -> Vec<CoreSpec> {
    let suite = benchmarks::table4_suite(cfg);
    let mut rng = Rng::new(seed, SALT_MIX);
    let mut benches: Vec<usize> = (0..n.div_ceil(4)).map(|j| j % suite.len()).collect();
    let mut bits: Vec<u8> = (0..n).map(|i| [8, 10][i % 2]).collect();
    rng.shuffle(&mut benches);
    rng.shuffle(&mut bits);
    (0..n)
        .map(|i| {
            let bench = suite[benches[i / 4]].clone();
            let window_t = [16, 16, 32, 32][i % 4];
            let bits = bits[i];
            CoreSpec {
                id: format!("c{i}-{}", bench.name),
                bench,
                window_t,
                bits,
                drift: DriftConfig::default(),
            }
        })
        .collect()
}

/// `lanes` proxy-capture workloads of `cycles` cycles: Table 4 repeated
/// to fill the lanes, packed in seeded lane order.
pub fn lane_workloads(
    cfg: &CpuConfig,
    seed: u64,
    lanes: usize,
    cycles: usize,
) -> Vec<(Benchmark, usize)> {
    let suite = benchmarks::table4_suite(cfg);
    let mut order: Vec<usize> = (0..lanes).map(|i| i % suite.len()).collect();
    Rng::new(seed, SALT_LANES).shuffle(&mut order);
    order
        .into_iter()
        .map(|i| (suite[i].clone(), cycles))
        .collect()
}

/// `n` scrape paths: the four routes cycle in a seeded order (reshuffled
/// every four requests), and each core scrape names a seeded core.
pub fn scrape_routes(seed: u64, core_ids: &[String], n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, SALT_ROUTES);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut kinds = [0usize, 1, 2, 3];
        rng.shuffle(&mut kinds);
        for k in kinds {
            out.push(match k {
                0 => "/fleet/metrics".to_owned(),
                1 => format!("/cores/{}/metrics", core_ids[rng.below(core_ids.len())]),
                2 => "/status".to_owned(),
                _ => "/healthz".to_owned(),
            });
        }
    }
    out.truncate(n);
    out
}

/// The fixed meter recipe: half the Table-4 suite, 200 recorded cycles
/// each, `Q` ≈ 32 proxies.
pub fn train_model(ctx: &DesignContext) -> ApolloModel {
    let suite: Vec<(Benchmark, usize)> = benchmarks::table4_suite(&ctx.handles.config)
        .into_iter()
        .take(6)
        .map(|b| (b, 200))
        .collect();
    let trace = ctx.capture_suite(&suite, 100);
    let fs = FeatureSpace::build(&trace.toggles);
    train_per_cycle(
        &trace,
        ctx.netlist(),
        &fs,
        &TrainOptions {
            q_target: 32,
            ..TrainOptions::default()
        },
    )
    .model
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_on_the_seed_alone() {
        let cfg = CpuConfig::tiny();
        let names =
            |s| -> Vec<String> { table4_order(&cfg, s).into_iter().map(|b| b.name).collect() };
        assert_eq!(names(1), names(1));
        assert_ne!(names(1), names(2));
        let mut sorted = names(3);
        sorted.sort();
        let mut all: Vec<String> = benchmarks::table4_suite(&cfg)
            .into_iter()
            .map(|b| b.name)
            .collect();
        all.sort();
        assert_eq!(sorted, all, "a permutation of Table 4");
        let mix = fleet_mix(&cfg, 7, 64);
        assert!(mix
            .iter()
            .all(|c| [16, 32].contains(&c.window_t) && [8, 10].contains(&c.bits)));
        let ids: Vec<String> = mix.iter().map(|c| c.id.clone()).collect();
        let routes = scrape_routes(7, &ids, 8);
        assert_eq!(routes, scrape_routes(7, &ids, 8));
        assert_eq!(routes.iter().filter(|r| *r == "/healthz").count(), 2);
    }
}
