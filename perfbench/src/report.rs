//! Exact-sample summaries and the result line.

/// Sorted samples with exact order statistics.
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut samples: Vec<f64>) -> Dist {
        samples.sort_unstable_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    pub fn from_ns(samples: impl IntoIterator<Item = u64>) -> Dist {
        Dist::new(samples.into_iter().map(|v| v as f64).collect())
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The `q` quantile (nearest rank), lowered where needed so that at
    /// least ten samples lie above it.
    pub fn q(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let q = q.min(if n > 10 { 1.0 - 10.0 / n as f64 } else { 0.5 });
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }

    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len().max(1) as f64
    }
}

/// Median of a small set of measurements.
pub fn median(values: &[f64]) -> f64 {
    Dist::new(values.to_vec()).q(0.5)
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics {
    items: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.items.push((name, value, unit));
    }

    pub fn items(&self) -> &[(&'static str, f64, &'static str)] {
        &self.items
    }

    /// The metrics as a JSON object body.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .items
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite number in JSON; non-finite values (which no metric should
/// produce) become `-1` so the line stays parseable.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}
