//! The repository benchmark: three workloads over the DAG-SFC solvers
//! and serving daemon, end-to-end metrics from untraced runs and a
//! per-layer table from a separate traced run. See `README.md` beside
//! this crate for the workloads, metrics and how to run them.

pub mod fig6;
pub mod host;
pub mod inputs;
pub mod report;
pub mod serving;
pub mod spans;

use host::{cpu_times, peak_rss_mb, reset_peak_rss};
use report::median;
use std::time::Instant;

/// Set-ups timed per run at least; `setup_s` is the median of all.
pub const MIN_SETUPS: usize = 9;

/// Cheap set-ups repeat until they add up to this many seconds, so that
/// a set-up of a millisecond still has a steady median.
pub const SETUP_SECONDS: f64 = 1.0;

/// Set-ups timed per run at most.
pub const MAX_SETUPS: usize = 401;

/// Whether a run that has timed `setups` should time another.
pub fn more_setups(setups: &[f64]) -> bool {
    let n = setups.len();
    n < MIN_SETUPS || (n < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_SECONDS)
}

/// Calls `setup`, which times one set-up and tears it down, until
/// [`more_setups`] is satisfied. Returns the median in seconds and the
/// number of set-ups. A run times its set-ups before its measured pass,
/// in a process every seed finds in the same state.
pub fn setup_median(
    mut setup: impl FnMut() -> Result<f64, String>,
) -> Result<(f64, usize), String> {
    let mut setups = Vec::new();
    while more_setups(&setups) {
        setups.push(setup()?);
    }
    Ok((median(&setups), setups.len()))
}

/// Share of segments whose RSS high-water mark `peak_rss_mb` stays at
/// or under.
pub const RSS_QUANTILE: f64 = 0.9;

/// One segment of a measured loop.
#[derive(Debug, Clone, Copy)]
struct Segment {
    ops: u64,
    wall_s: f64,
    cpu_s: f64,
    rss_mb: f64,
}

/// A measured loop cut into segments of a few operations each.
/// Throughput and CPU per operation are reported as medians over
/// segments, so that a host stall or one slow request moves one
/// segment, not the run's figure. Each segment also has its own RSS
/// high-water mark. Work between segments (output checks) is not
/// measured.
#[derive(Debug, Default)]
pub struct Segments {
    done: Vec<Segment>,
    open: Option<(Instant, f64)>,
}

impl Segments {
    /// Starts a segment: resets the RSS high-water mark, then notes the
    /// wall and CPU clocks.
    pub fn begin(&mut self) -> Result<(), String> {
        reset_peak_rss()?;
        self.open = Some((Instant::now(), cpu_times()?.total_s()));
        Ok(())
    }

    /// Closes the open segment after `ops` operations: reads the clocks,
    /// then the RSS high-water mark.
    pub fn end(&mut self, ops: u64) -> Result<(), String> {
        let (t, cpu0) = self.open.take().ok_or("no open segment")?;
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = cpu_times()?.total_s() - cpu0;
        let rss_mb = peak_rss_mb()?;
        if ops > 0 {
            self.done.push(Segment {
                ops,
                wall_s,
                cpu_s,
                rss_mb,
            });
        }
        Ok(())
    }

    /// Closed segments.
    pub fn count(&self) -> usize {
        self.done.len()
    }

    /// Measured seconds: the sum of the segments' wall times.
    pub fn wall_s(&self) -> f64 {
        self.done.iter().map(|s| s.wall_s).sum()
    }

    /// Median over segments of operations per second.
    pub fn throughput(&self) -> f64 {
        median(&self.per(|s| s.ops as f64 / s.wall_s))
    }

    /// Median over segments of CPU µs per operation.
    pub fn cpu_us_per_op(&self) -> f64 {
        median(&self.per(|s| s.cpu_s * 1e6 / s.ops as f64))
    }

    /// The RSS high-water mark that [`RSS_QUANTILE`] of the segments
    /// stay at or under (nearest rank), in MB. One request whose search
    /// allocates far more than the rest moves one segment, not this.
    pub fn peak_rss_mb(&self) -> f64 {
        let mut rss = self.per(|s| s.rss_mb);
        rss.sort_by(f64::total_cmp);
        let rank = (RSS_QUANTILE * rss.len() as f64).ceil() as usize;
        rss.get(rank.clamp(1, rss.len().max(1)) - 1)
            .copied()
            .unwrap_or(0.0)
    }

    /// The highest RSS high-water mark of any segment, in MB.
    pub fn max_rss_mb(&self) -> f64 {
        self.per(|s| s.rss_mb).into_iter().fold(0.0, f64::max)
    }

    fn per(&self, f: impl Fn(&Segment) -> f64) -> Vec<f64> {
        self.done.iter().map(f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_ups_repeat_until_both_count_and_time_suffice() {
        assert!(more_setups(&[0.2; MIN_SETUPS - 1]), "too few set-ups");
        assert!(!more_setups(&[0.2; MIN_SETUPS]), "nine of 0.2 s are enough");
        assert!(more_setups(&[0.001; 100]), "cheap set-ups need a second");
        assert!(!more_setups(&[0.001; MAX_SETUPS]), "capped");
        let mut n = 0;
        let (m, count) = setup_median(|| {
            n += 1;
            Ok(f64::from(n))
        })
        .expect("setups");
        assert_eq!(count, MIN_SETUPS);
        assert_eq!(m, 5.0, "median of 1..=9");
    }

    #[test]
    fn segments_report_medians_and_skip_empty_ones() {
        let mut s = Segments::default();
        assert!(s.end(1).is_err(), "nothing open");
        for ops in [0, 4, 4, 4] {
            s.begin().expect("clock");
            s.end(ops).expect("clock");
        }
        assert_eq!(s.count(), 3, "the empty segment is dropped");
        assert!(s.throughput() > 0.0);
        assert!(s.wall_s() >= 0.0);
        assert!(s.peak_rss_mb() > 0.0 && s.peak_rss_mb() <= s.max_rss_mb());
    }

    #[test]
    fn peak_rss_is_the_ninetieth_percentile_of_segment_peaks() {
        let mut s = Segments::default();
        for rss_mb in (1..=20).map(f64::from) {
            s.done.push(Segment {
                ops: 1,
                wall_s: 1.0,
                cpu_s: 1.0,
                rss_mb,
            });
        }
        assert_eq!(s.peak_rss_mb(), 18.0, "two of twenty segments lie above");
        assert_eq!(s.max_rss_mb(), 20.0);
    }
}
