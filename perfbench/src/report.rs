//! Metrics, summaries and the result line.

/// Where a number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Timed or counted by the benchmark around calls into the program.
    Timed,
    /// Returned by the program itself (`PhaseTimes`, `compute_ns`,
    /// `StatsSnapshot`, `WireStats`, planner counters).
    Reported,
    /// Derived by the benchmark from other numbers (ratios, computed
    /// flops, checked errors).
    Derived,
}

impl Source {
    fn label(self) -> &'static str {
        match self {
            Source::Timed => "timed from outside",
            Source::Reported => "reported by program",
            Source::Derived => "derived",
        }
    }
}

/// One named metric of a run.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub source: Source,
    /// Samples the value summarizes (`1` for a single figure).
    pub samples: usize,
}

/// Collects a run's metrics in output order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        source: Source,
        samples: usize,
    ) {
        self.0.push(Metric {
            name,
            unit,
            value,
            source,
            samples,
        });
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// Keep only the named metrics, in the order given; a metric missing
    /// from the run, or measured in another unit, is reported back.
    pub fn select(self, wanted: &[(&str, &str)]) -> Result<Metrics, String> {
        let mut out = Metrics::default();
        for &(name, unit) in wanted {
            let m = self
                .0
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if m.unit != unit {
                return Err(format!(
                    "metric {name} measured in {}, declared in {unit}",
                    m.unit
                ));
            }
            out.0.push(m.clone());
        }
        Ok(out)
    }

    /// Human-readable lines: name, value, unit, sample count, source.
    pub fn print(&self) {
        for m in &self.0 {
            println!(
                "  {:<34} {:>16.6} {:<8} n={:<6} [{}]",
                m.name,
                m.value,
                m.unit,
                m.samples,
                m.source.label()
            );
        }
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
/// Non-finite values have no JSON form; the caller rejects them first.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// Order statistics of a sample.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p95: f64,
}

/// Nearest-rank percentile `q ∈ (0, 1]` of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    summarize(xs).p50
}

/// p50 and p95 of an unsorted sample.
pub fn summarize(xs: &[f64]) -> Summary {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        n: v.len(),
        p50: percentile(&v, 0.50),
        p95: percentile(&v, 0.95),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        let s = summarize(&xs);
        assert_eq!((s.n, s.p50, s.p95), (200, 100.0, 190.0));
        assert_eq!(percentile(&[3.0], 0.95), 3.0);
    }

    #[test]
    fn json_keeps_every_digit() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(2.0), "2.0");
    }
}
