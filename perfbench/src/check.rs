//! Output checks and quality scoring, outside the timed window: every
//! stream's engine output against a plain single-threaded
//! `ClassSegmenter` loop, and the change points against the planted ones.

use class_core::{ClassConfig, ClassSegmenter, StreamingSegmenter};
use datasets::AnnotatedSeries;
use eval::{covering, delay_stats, TimedReport};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One stream's reference run: change points as `(emitted at, cp)` and
/// the loop's wall time.
#[derive(Debug, Clone)]
pub struct Reference {
    pub outputs: Vec<(u64, u64)>,
    pub wall_ns: u64,
}

/// The reference loop over one stream. Flush-time reports carry
/// `u64::MAX` as their emission position, as `SegmenterOperator` does.
pub fn reference(config: &ClassConfig, xs: &[f64]) -> Reference {
    let t0 = Instant::now();
    let mut seg = ClassSegmenter::new(config.clone());
    let mut cps = Vec::new();
    let mut outputs = Vec::new();
    for (t, &x) in xs.iter().enumerate() {
        cps.clear();
        seg.step(x, &mut cps);
        outputs.extend(cps.iter().map(|&cp| (t as u64, cp)));
    }
    cps.clear();
    seg.finalize(&mut cps);
    outputs.extend(cps.iter().map(|&cp| (u64::MAX, cp)));
    Reference {
        outputs,
        wall_ns: t0.elapsed().as_nanos() as u64,
    }
}

/// Reference runs of every stream on `threads` threads (each loop is
/// single-threaded; the threads only share out the streams).
pub fn references(
    config: &ClassConfig,
    series: &[AnnotatedSeries],
    threads: usize,
) -> Vec<Reference> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Reference>>> = Mutex::new(vec![None; series.len()]);
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(s) = series.get(k) else { break };
                let r = reference(config, &s.values);
                slots.lock().expect("reference slots: no holder panics")[k] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .expect("reference slots: no holder panics")
        .into_iter()
        .map(|r| r.expect("every stream gets a reference run"))
        .collect()
}

/// Segmentation quality summed over streams.
#[derive(Debug, Default, Clone)]
pub struct Quality {
    pub covering_sum: f64,
    pub streams: usize,
    pub true_pos: usize,
    pub false_pos: usize,
    pub false_neg: usize,
    pub delays: Vec<f64>,
    /// Signed location error (reported minus planted) per detection.
    pub loc_errors: Vec<f64>,
}

impl Quality {
    /// Scores one stream's reports against its planted change points.
    /// A report localises the closest planted change within `tolerance`
    /// (the rule of `eval::delay_stats`, which supplies the delays); the
    /// first report to localise a change fixes its location error.
    pub fn add(&mut self, series: &AnnotatedSeries, outputs: &[(u64, u64)], tolerance: u64) {
        let n = series.values.len() as u64;
        let gt = &series.change_points;
        let mut pred: Vec<u64> = outputs.iter().map(|&(_, cp)| cp).collect();
        pred.sort_unstable();
        self.covering_sum += covering(gt, &pred, n);
        self.streams += 1;
        let reports: Vec<TimedReport> = outputs
            .iter()
            .map(|&(at, cp)| TimedReport {
                emitted_at: at.min(n),
                cp,
            })
            .collect();
        let stats = delay_stats(gt, &reports, tolerance);
        let mut located = vec![false; gt.len()];
        for rep in &reports {
            let best = gt
                .iter()
                .enumerate()
                .map(|(i, &g)| (i, rep.cp.abs_diff(g)))
                .filter(|&(_, d)| d <= tolerance)
                .min_by_key(|&(_, d)| d);
            if let Some((i, _)) = best {
                if !located[i] {
                    located[i] = true;
                    self.loc_errors.push(rep.cp as f64 - gt[i] as f64);
                }
            }
        }
        let detected = stats.delays.iter().flatten().count();
        self.delays
            .extend(stats.delays.iter().flatten().map(|&d| d as f64));
        self.true_pos += detected;
        self.false_neg += gt.len() - detected;
        self.false_pos += stats.false_alarms;
    }

    pub fn covering(&self) -> f64 {
        self.covering_sum / self.streams.max(1) as f64
    }

    /// Change point F1 (micro-averaged over streams).
    pub fn f1(&self) -> f64 {
        let tp = self.true_pos as f64;
        2.0 * tp / (2.0 * tp + self.false_pos as f64 + self.false_neg as f64).max(1.0)
    }

    /// Mean absolute location error in points.
    pub fn loc_err_mean(&self) -> f64 {
        let n = self.loc_errors.len().max(1) as f64;
        self.loc_errors.iter().map(|e| e.abs()).sum::<f64>() / n
    }

    /// Mean signed location error in points (negative = early).
    pub fn loc_bias(&self) -> f64 {
        self.loc_errors.iter().sum::<f64>() / self.loc_errors.len().max(1) as f64
    }
}
