//! The benchmark's own arithmetic: medians, quartiles, the tail
//! percentile rule, self time, and the process counters read from
//! `/proc`.

/// Median of `values` (the mean of the two middle values for an even
/// count), as Python's `statistics.median` computes it. `None` if empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile of `values` by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`. `None` for fewer than
/// two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let len = sorted.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The steadiness spread: interquartile distance as a share of the
/// median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// The tail latency: the value at the highest nearest-rank percentile
/// that still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at that rank.
    pub value: f64,
    /// The percentile the rank corresponds to (`100 * rank / n`).
    pub percentile: f64,
    /// Samples ranked beyond it (10, or fewer when `n <= 10`).
    pub beyond: usize,
    /// Total sample count.
    pub samples: usize,
}

/// Number of samples the tail percentile must leave beyond itself.
const TAIL_BEYOND: usize = 10;

/// Applies the tail rule. With eleven or more samples the tail is the
/// 11th largest sample, so exactly ten samples rank beyond it; with
/// fewer it is the smallest sample and every other sample ranks beyond.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = n.saturating_sub(TAIL_BEYOND).max(1);
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        beyond: n - rank,
        samples: n,
    })
}

/// Self time of a span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Children may
/// overlap each other; parts of a child outside the parent are ignored.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    (end - start) - covered
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// User plus system CPU time this process has used so far, in
/// milliseconds (from `/proc/self/stat`, which counts in 1/100 s).
pub fn process_cpu_ms() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // Fields after the parenthesized command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "malformed /proc/self/stat".to_owned())
    };
    Ok((ticks(11)? + ticks(12)?) * 10.0)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// FNV-1a over a byte stream, for the run digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feeds one number.
    pub fn update_u64(&mut self, value: u64) {
        self.update(&value.to_le_bytes());
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]: the
        // exclusive method extrapolates past the ends of tiny samples.
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 7.5)));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2, 8, 32]
        let seven = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
        assert_eq!(quartiles(&seven), Some((2.0, 32.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[2.0; 10]), Some(0.0));
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);
        // 1000 samples: the p99 rank.
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&thousand).unwrap();
        assert_eq!((t.value, t.percentile, t.beyond), (990.0, 99.0, 10));
        // Exactly eleven samples: the smallest has ten beyond it.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }

    #[test]
    fn tail_with_few_samples_reports_fewer_beyond() {
        let t = tail(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((t.value, t.beyond, t.samples), (1.0, 2, 3));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent [0, 100); children overlap at [20, 30) and [25, 40),
        // plus a disjoint [60, 70): covered 20 + 10 = 30.
        assert_eq!(self_time((0, 100), &[(20, 30), (60, 70), (25, 40)]), 70);
        // Nested children are not double counted.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        // Touching intervals merge.
        assert_eq!(self_time((0, 10), &[(0, 5), (5, 10)]), 0);
        assert_eq!(self_time((0, 10), &[]), 10);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.update_u64(1);
        a.update_u64(2);
        let mut b = Digest::default();
        b.update_u64(2);
        b.update_u64(1);
        assert_ne!(a.value(), b.value());
    }
}
