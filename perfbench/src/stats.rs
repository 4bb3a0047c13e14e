//! The benchmark's own statistics: percentiles that are never guessed,
//! open-loop latency measured from the due time, generator lateness, and
//! the metric-name rule.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the metric is missing rather than extrapolated.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `sorted` (ascending), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of arbitrary (unsorted) values; `None` when empty.  Used for
/// per-layer repeats, where the ≥10-beyond rule does not apply.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// At most this many consecutive slices a latency population is cut into.
pub const MAX_SLICES: usize = 6;

/// Fewest samples per slice, so each slice's p90 has ten samples beyond it
/// with room to spare.
pub const MIN_SLICE: usize = 200;

/// p50 and p90 of one latency population, with its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub p50: Option<f64>,
    pub p90: Option<f64>,
    pub samples: usize,
}

impl Latency {
    /// `values` in the order the operations were due.  A population of at
    /// least `2 × MIN_SLICE` samples is cut into up to [`MAX_SLICES`]
    /// consecutive slices, and each percentile is the median of the
    /// slices' percentiles: a host stall of a few seconds then moves one
    /// slice, not the run's value.  A smaller population gives its plain
    /// percentiles.
    pub fn of(values: &[f64]) -> Self {
        let slices = (values.len() / MIN_SLICE).clamp(1, MAX_SLICES);
        let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
        for chunk in values.chunks(values.len().div_ceil(slices).max(1)) {
            let mut v = chunk.to_vec();
            v.sort_by(f64::total_cmp);
            p50s.push(percentile(&v, 0.5));
            p90s.push(percentile(&v, 0.9));
        }
        let combine = |v: Vec<Option<f64>>| {
            v.into_iter()
                .collect::<Option<Vec<f64>>>()
                .and_then(|v| median(&v))
        };
        Self {
            p50: combine(p50s),
            p90: combine(p90s),
            samples: values.len(),
        }
    }
}

/// Which kind of operation a log entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

/// One operation of a timed window.  Times are nanoseconds from the
/// window start.  In a closed loop `due_ns == submit_ns`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpLog {
    pub kind: Kind,
    pub due_ns: u64,
    pub submit_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
}

impl OpLog {
    /// Latency in ms, measured from when the operation was due, so a
    /// stalled generator charges the stall to every request it delayed.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// How late the generator sent this operation, in ms.
    pub fn lateness_ms(&self) -> f64 {
        self.submit_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// The end-to-end summary of a window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    pub read: Latency,
    pub write: Latency,
    pub reads_done: usize,
    pub attempted: usize,
    pub failed: usize,
    /// Generator lateness (p50, max) in ms; open-loop windows only.
    pub lateness: Option<(f64, f64)>,
}

/// Summarises a window's log.  A failed operation, or one that arrived
/// after `limit_ms`, counts as failed and is left out of the latency
/// populations (a refused request has no latency to report).
pub fn summarize(log: &[OpLog], limit_ms: f64, open_loop: bool) -> WindowSummary {
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    let mut failed = 0;
    for op in log {
        let lat = op.latency_ms();
        if !op.ok || lat > limit_ms {
            failed += 1;
            continue;
        }
        match op.kind {
            Kind::Read => reads.push(lat),
            Kind::Write => writes.push(lat),
        }
    }
    let lateness = open_loop.then(|| {
        let late: Vec<f64> = log.iter().map(OpLog::lateness_ms).collect();
        (
            median(&late).unwrap_or(0.0),
            late.iter().copied().fold(0.0, f64::max),
        )
    });
    WindowSummary {
        reads_done: reads.len(),
        read: Latency::of(&reads),
        write: Latency::of(&writes),
        attempted: log.len(),
        failed,
        lateness,
    }
}

/// The open-loop schedule of a window, as `(due_ns, kind)` in send order.
/// The more frequent kind is evenly spaced at its rate; each operation of
/// the rarer kind is due together with one of them and sent right behind
/// it, spread evenly through the stream.  So every rarer operation waits
/// behind exactly one operation of the other kind, and every latency
/// population stays unimodal: a percentile never hinges on whether two
/// independent streams happened to collide.
pub fn fixed_rate(reads_per_s: f64, writes_per_s: f64, horizon_ns: u64) -> Vec<(u64, Kind)> {
    let (lead, lead_rate, rider, rider_rate) = if reads_per_s >= writes_per_s {
        (Kind::Read, reads_per_s, Kind::Write, writes_per_s)
    } else {
        (Kind::Write, writes_per_s, Kind::Read, reads_per_s)
    };
    let count = (lead_rate * horizon_ns as f64 / 1e9).round() as u64;
    let riders_before = |m: u64| (m as f64 * rider_rate / lead_rate).floor() as u64;
    let mut out = Vec::with_capacity((count + riders_before(count)) as usize);
    for m in 0..count {
        let due = (m as f64 * 1e9 / lead_rate) as u64;
        out.push((due, lead));
        if riders_before(m + 1) > riders_before(m) {
            out.push((due, rider));
        }
    }
    out
}

/// Metric names are limited to `[A-Za-z0-9_.-]`, start with a letter or a
/// digit, and are at most 64 characters long.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 samples: rank 90, ten beyond.
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        // 99 samples: rank 90, only nine beyond -> missing, never guessed.
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&[], 0.9), None);
        let l = Latency::of(&ramp(50));
        assert_eq!((l.p50, l.p90, l.samples), (Some(25.0), None, 50));
    }

    #[test]
    fn large_populations_report_the_median_of_slice_percentiles() {
        // 1200 samples in six slices of 200: every slice reads 1.0 at p50
        // and 2.0 at p90, except one slice hit by a stall.
        let mut v: Vec<f64> = (0..1200)
            .map(|i| if i % 5 == 4 { 2.0 } else { 1.0 })
            .collect();
        for x in &mut v[400..600] {
            *x += 5.0;
        }
        let l = Latency::of(&v);
        assert_eq!((l.p50, l.p90, l.samples), (Some(1.0), Some(2.0), 1200));
        // Below 2 × MIN_SLICE samples the population is one slice.
        let small: Vec<f64> = ramp(399);
        assert_eq!(Latency::of(&small).p90, percentile(&small, 0.9));
    }

    #[test]
    fn p50_follows_the_same_rule() {
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Due at 1 ms, sent 5 ms late, answered 2 ms after sending.
        let op = OpLog {
            kind: Kind::Read,
            due_ns: 1_000_000,
            submit_ns: 6_000_000,
            done_ns: 8_000_000,
            ok: true,
        };
        assert_eq!(op.latency_ms(), 7.0);
        assert_eq!(op.lateness_ms(), 5.0);
    }

    #[test]
    fn open_loop_summary_reports_generator_lateness() {
        let log: Vec<OpLog> = (0..30u64)
            .map(|i| OpLog {
                kind: if i % 3 == 0 { Kind::Write } else { Kind::Read },
                due_ns: i * 1_000_000,
                submit_ns: i * 1_000_000 + if i == 29 { 4_000_000 } else { 100_000 },
                done_ns: i * 1_000_000 + 5_000_000,
                ok: i != 7,
            })
            .collect();
        let s = summarize(&log, 8.5, true);
        assert_eq!(s.attempted, 30);
        // Op 7 was refused; every answered op took 5 ms from its due time,
        // inside the 8.5 ms limit.  A 4 ms limit fails them all.
        assert_eq!(s.failed, 1);
        assert_eq!(s.read.samples + s.write.samples, 29);
        let (p50, max) = s.lateness.expect("open-loop runs report lateness");
        assert!((p50 - 0.1).abs() < 1e-9 && (max - 4.0).abs() < 1e-9);
        assert_eq!(summarize(&log, 4.0, true).failed, 30);
        assert_eq!(summarize(&log, 8.5, false).lateness, None);
    }

    #[test]
    fn fixed_rate_schedule_sends_the_rarer_kind_behind_the_other() {
        // 200 reads/s and 50 writes/s for 1 s: a read every 5 ms, and every
        // fourth read followed at the same due time by a write.
        let s = fixed_rate(200.0, 50.0, 1_000_000_000);
        assert_eq!(s.len(), 250);
        let reads: Vec<u64> = s
            .iter()
            .filter(|o| o.1 == Kind::Read)
            .map(|o| o.0)
            .collect();
        assert_eq!(reads.len(), 200);
        assert!(reads.windows(2).all(|w| w[1] - w[0] == 5_000_000));
        for (m, op) in s.iter().enumerate().filter(|(_, o)| o.1 == Kind::Write) {
            assert_eq!(
                s[m - 1],
                (op.0, Kind::Read),
                "a write rides right behind a read"
            );
        }
        let writes: Vec<u64> = s
            .iter()
            .filter(|o| o.1 == Kind::Write)
            .map(|o| o.0)
            .collect();
        assert!(writes.windows(2).all(|w| w[1] - w[0] == 20_000_000));
        // More writes than reads: the reads ride behind writes instead.
        let s = fixed_rate(20.0, 200.0, 1_000_000_000);
        assert_eq!(s.iter().filter(|o| o.1 == Kind::Read).count(), 20);
        assert!(s
            .windows(2)
            .all(|w| w[1].1 == Kind::Write || w[0].1 == Kind::Write));
    }

    #[test]
    fn metric_names_are_restricted() {
        for ok in [
            "read_p50_ms",
            "alg2.peel_rounds",
            "server.queue_len_p90",
            "9a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "a b",
            "a/b",
            "ms(p50)",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
