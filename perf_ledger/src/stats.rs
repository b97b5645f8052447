//! Order statistics and the seeded input generators.
//!
//! Everything here is pure: the same seed gives the same inputs, and the
//! summary functions are the ones the driver applies to the benchmark's own
//! outputs (Python's `statistics.quantiles(values, n=4)`), so `compare`
//! reaches the verdict the driver will reach.

/// Median of an unsorted sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an unsorted sample, `q` in `[0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median the benchmark reports for its own samples: nearest rank, so
/// for an even count the lower of the two middle values. Four reps of which
/// two stalled for 30 s then still report a normal rep, where the mean of
/// the middle two would report half a stall; stalls are counted separately.
pub fn p50(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The tail percentile a sample of `n` timings supports: the highest of
/// p95 / p90 / p75 that leaves at least ten samples beyond it, else the
/// median. A p95 over 40 samples is the second-largest value — noise, not a
/// tail — so small samples report a lower percentile and say so.
pub fn tail_quantile(n: usize) -> f64 {
    [95, 90, 75]
        .into_iter()
        .find(|percent| n * (100 - percent) >= 10 * 100)
        .map_or(0.50, |percent| percent as f64 / 100.0)
}

/// The tail of a sample of timings at [`tail_quantile`]; the median proper
/// when the sample supports nothing higher.
pub fn tail(values: &[f64]) -> f64 {
    match tail_quantile(values.len()) {
        q if q > 0.5 => percentile(values, q),
        _ => p50(values),
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method). `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the driver's measure of
/// run-to-run spread. `None` below two samples or for a zero median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// SplitMix64: small, seedable, and good enough to shuffle a deck.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Virtual run time of the tasks of one stage, in seconds: one of
/// 1.0, 1.5, … 4.5, drawn from the seed. All tasks of a stage share it and
/// it stays under the simulator's 5 s idle jump, so the seed changes the
/// inputs without changing how many clock steps the simulator takes.
pub fn stage_secs(rng: &mut Rng) -> f64 {
    1.0 + rng.below(8) as f64 * 0.5
}

/// The two workflow sizes of the service workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// 1 pipeline × 1 stage × 8 tasks: all fixed per-workflow cost.
    Small,
    /// 2 pipelines × 2 stages × 64 tasks: adds per-task cost.
    Large,
}

impl Class {
    /// (pipelines, stages, tasks per stage).
    pub fn shape(self) -> (usize, usize, usize) {
        match self {
            Class::Small => (1, 1, 8),
            Class::Large => (2, 2, 64),
        }
    }

    pub fn tasks(self) -> u64 {
        let (p, s, t) = self.shape();
        (p * s * t) as u64
    }
}

/// An endless 80 % small / 20 % large sequence: every block of ten holds
/// exactly two large workflows at seeded positions. An independent draw per
/// request would let the large share — and with it tasks per second — drift
/// by several percent between seeds; a shuffled deck keeps the share exact.
#[derive(Debug, Clone)]
pub struct Mix {
    rng: Rng,
    block: Vec<Class>,
}

impl Mix {
    pub fn new(seed: u64, stream: u64) -> Self {
        Mix {
            rng: Rng::new(seed, stream),
            block: Vec::new(),
        }
    }
}

impl Iterator for Mix {
    type Item = Class;

    fn next(&mut self) -> Option<Class> {
        if self.block.is_empty() {
            self.block = vec![Class::Small; 8];
            self.block.extend([Class::Large; 2]);
            self.rng.shuffle(&mut self.block);
        }
        self.block.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(5), 0.50);
        assert_eq!(tail_quantile(39), 0.50);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(100), 0.90);
        assert_eq!(tail_quantile(199), 0.90);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(650), 0.95);
    }

    #[test]
    fn p50_takes_the_lower_middle() {
        assert_eq!(p50(&[5.0, 35.0, 4.0, 34.0]), 5.0);
        assert_eq!(p50(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(p50(&[]), 0.0);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_median() {
        assert_eq!(tail(&[1.0, 2.0, 3.0, 10.0]), 2.0);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), 190.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_spread(&v), Some(1.0));
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn mix_repeats_for_a_seed_and_differs_between_seeds() {
        let a: Vec<Class> = Mix::new(7, 0).take(200).collect();
        let b: Vec<Class> = Mix::new(7, 0).take(200).collect();
        let c: Vec<Class> = Mix::new(8, 0).take(200).collect();
        let other_client: Vec<Class> = Mix::new(7, 1).take(200).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, other_client);
    }

    #[test]
    fn mix_share_is_exact_per_block() {
        for block in Mix::new(3, 0).take(500).collect::<Vec<_>>().chunks(10) {
            assert_eq!(block.iter().filter(|c| **c == Class::Large).count(), 2);
        }
    }

    #[test]
    fn stage_secs_stays_under_the_idle_jump() {
        let mut rng = Rng::new(1, 0);
        for _ in 0..1000 {
            let s = stage_secs(&mut rng);
            assert!((1.0..5.0).contains(&s));
        }
    }
}
