//! Order statistics, the compare verdict rules, and the FNV-1a digest
//! every correctness gate hashes outputs with.

/// Nearest-rank quantile of an ascending-sorted sample (`q` in 0..=1);
/// 0 for an empty sample (nothing of that kind happened).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The highest percentile (capped at p99) that leaves at least ten
/// samples beyond it, as `(q, value)`. Fewer than 11 samples fall back
/// to the median.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n <= 10 {
        return (0.5, nearest_rank(sorted, 0.5));
    }
    // Integer ranks, so that exactly n - rank >= 10 samples lie beyond.
    let rank = (n - 10).min((99 * n).div_ceil(100));
    (rank as f64 / n as f64, sorted[rank - 1])
}

/// Quartiles `(q1, median, q3)` with Python's
/// `statistics.quantiles(data, n=4)` default (exclusive) method, so
/// spreads printed here match the ones the acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d: Vec<f64> = values.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (d[0], d[0], d[0]),
        ld => {
            let m = ld + 1;
            let at = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
            };
            (at(1), at(2), at(3))
        }
    }
}

/// Median (the middle quartile).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// FNV-1a, 64-bit: the digest of every checked output stream.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(b"\n");
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Outcome of comparing a parent's runs (`a`) with a change's (`b`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Applies the gain / no-regression rules: a gain needs the change to
/// win at least nine tenths of the index-paired runs and the medians to
/// differ by more than the parent's interquartile range; a run-to-run
/// spread wider than `bound` is unresolved unless every change run beats
/// every parent run; otherwise the change regresses when its median is
/// worse than the parent's by more than `bound` (a share of the
/// parent's median).
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let (q1, med_a, q3) = quartiles(a);
    let med_b = median(b);
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| beats(b[i], a[i])).count();
    if beats(med_b, med_a) && wins * 10 >= pairs * 9 && (med_b - med_a).abs() > q3 - q1 {
        return Verdict::Improved;
    }
    let all_b_better = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    if spread(a) > bound && !all_b_better {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (med_b - med_a) / med_a.abs(),
        Better::Higher => (med_a - med_b) / med_a.abs(),
    };
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_and_tail_fallback() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 500.0);
        // 1000 samples: p99 leaves exactly ten beyond it.
        assert_eq!(tail(&v), (0.99, 990.0));
        // 500 samples: p99 would leave five, so fall back to p98.
        let w: Vec<f64> = (1..=500).map(f64::from).collect();
        let (q, x) = tail(&w);
        assert!((q - 0.98).abs() < 1e-12, "{q}");
        assert_eq!(x, 490.0);
        assert_eq!(w.iter().filter(|&&s| s > x).count(), 10);
        // Too few samples for any tail: the median.
        assert_eq!(tail(&[1.0, 2.0, 3.0]), (0.5, 2.0));
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99];
        // Same distribution: unchanged.
        assert_eq!(verdict(&a, &a, Better::Lower, 0.1), Verdict::Unchanged);
        // 20% slower everywhere: regressed.
        let slow: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &slow, Better::Lower, 0.1), Verdict::Regressed);
        // 5% slower: within the bound.
        let bit: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(&a, &bit, Better::Lower, 0.1), Verdict::Unchanged);
        // 20% faster in every pair: improved; for a higher-is-better
        // metric the same numbers are a regression.
        let fast: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&a, &fast, Better::Lower, 0.1), Verdict::Improved);
        assert_eq!(verdict(&a, &fast, Better::Higher, 0.1), Verdict::Regressed);
        // A parent spread wider than the bound cannot show "unchanged".
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(
            verdict(&noisy, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // ... unless every change run beats every parent run.
        let better: Vec<f64> = vec![4.0; 10];
        assert_ne!(
            verdict(&noisy, &better, Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"");
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }
}
