//! Sample statistics, the metric record every subcommand prints, and
//! the process facts (peak RSS) the records carry.

use std::fmt::Write as _;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between closest
/// ranks; 0 for an empty slice.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Interquartile range as a share of the median: the spread reported
/// beside every interleaved A/B ratio.
pub fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

/// Mean of `xs`; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a byte stream: the transcript digest compared between
/// the timed and the traced pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` plus a line terminator into the digest.
    pub fn line(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hex rendering.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// What one subcommand measured: named metrics with units, op tallies,
/// and free-form facts (sizes, digests, sample counts).
#[derive(Default)]
pub struct Record {
    metrics: Vec<(String, f64, &'static str)>,
    facts: Vec<(String, String)>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output failed its check.
    pub failed: u64,
}

impl Record {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds a fact, rendered as a JSON string.
    pub fn fact(&mut self, name: &str, value: impl ToString) {
        self.facts.push((name.to_string(), value.to_string()));
    }

    /// Counts one op and whether its output passed its check.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// One-line JSON: `{"attempted", "failed", "metrics", "facts"}`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            );
        }
        out.push_str("},\"facts\":{");
        for (i, (name, value)) in self.facts.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let value = value.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = write!(out, "{sep}\"{name}\":\"{value}\"");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[]), 0.0);
        assert!((spread(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn record_renders_metrics_units_and_tallies() {
        let mut r = Record::default();
        r.metric("a.b_ms", 1.5, "ms");
        r.fact("note", "x\"y");
        r.op(true);
        r.op(false);
        assert_eq!(
            r.to_json(),
            "{\"attempted\":2,\"failed\":1,\"metrics\":{\"a.b_ms\":{\"value\":1.5,\"unit\":\"ms\"}},\
             \"facts\":{\"note\":\"x\\\"y\"}}"
        );
    }

    #[test]
    fn digest_depends_on_line_order() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.line(b"x");
        a.line(b"y");
        b.line(b"y");
        b.line(b"x");
        assert_ne!(a, b);
    }
}
