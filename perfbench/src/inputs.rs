//! Seeded workload inputs: multi-regime series with planted change points,
//! built with `datasets::build_series`. The same seed gives the same
//! series; the seed varies periods, segment lengths and noise, but not
//! the regime order of a stream nor the shape of the work (stream count,
//! length, window).

use class_core::stats::SplitMix64;
use class_core::{ClassConfig, WidthSelection};
use datasets::{build_series, AnnotatedSeries, NoiseSpec, Regime};

/// The per-stream shape of a workload.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Concurrent streams.
    pub streams: usize,
    /// Points per stream.
    pub points: usize,
    /// Mean planted segment length.
    pub segment: usize,
    /// Base regime period in samples.
    pub period: f64,
    /// Segmenter configuration every stream runs.
    pub config: ClassConfig,
    /// A report localises a planted change point when it lies within
    /// this many points of it.
    pub tolerance: u64,
}

impl Shape {
    /// `ClassConfig::default()`: d = 10k, learned SuSS width, jump 5,
    /// alpha 1e-50, 1000-label resample. At 30k points per stream the
    /// post-warm-up phase is two thirds of each stream.
    pub fn paper(streams: usize, points: usize) -> Shape {
        Shape {
            streams,
            points,
            segment: 5_000,
            period: 30.0,
            config: ClassConfig::default(),
            tolerance: 1_000,
        }
    }

    /// The quick-preset stream: d = 500, fixed width 25, jump 5.
    pub fn small(streams: usize, points: usize) -> Shape {
        let mut config = ClassConfig::with_window_size(500);
        config.width = WidthSelection::Fixed(25);
        Shape {
            streams,
            points,
            segment: 1_000,
            period: 20.0,
            config,
            tolerance: 250,
        }
    }
}

/// One regime of family `family` (five families, cycled), its period
/// jittered by +-3% around a family-specific multiple of `period`.
fn regime(family: usize, period: f64, rng: &mut SplitMix64) -> Regime {
    let p = |m: f64, rng: &mut SplitMix64| m * period * (0.97 + 0.06 * rng.next_f64());
    match family % 5 {
        0 => Regime::Sine {
            period: p(1.0, rng),
            amp: 1.0,
            phase: 0.0,
        },
        1 => Regime::Sawtooth {
            period: p(1.6, rng),
            amp: 1.2,
        },
        2 => Regime::Square {
            period: p(1.3, rng),
            amp: 0.9,
        },
        3 => Regime::Harmonics {
            period: p(1.2, rng),
            amps: [1.0, 0.5, 0.25],
        },
        _ => Regime::EcgLike {
            period: p(2.0, rng),
            amp: 1.5,
            jitter: 0.05,
        },
    }
}

/// Builds stream `k` of round `round` of a workload: consecutive segments of distinct
/// regime families (every second family, starting at family `k`),
/// lengths within +-5% of `shape.segment`, the last segment absorbing
/// the remainder.
pub fn stream(shape: &Shape, seed: u64, round: u64, k: usize) -> AnnotatedSeries {
    let mut rng = SplitMix64::new(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ round.wrapping_mul(0xBF58_476D_1CE4_E5B9)
            ^ k as u64,
    );
    // The family order depends on the stream index only, so every seed
    // runs the same mix of regimes (and so about the same work).
    let mut family = k;
    let mut segments = Vec::new();
    let mut used = 0usize;
    while used < shape.points {
        let jitter = 0.95 + 0.1 * rng.next_f64();
        let mut len = (shape.segment as f64 * jitter) as usize;
        if shape.points - used < len + shape.segment / 2 {
            len = shape.points - used;
        }
        segments.push((regime(family, shape.period, &mut rng), len));
        used += len;
        family += 2;
    }
    build_series(
        format!("round {round} stream {k}"),
        "perfbench",
        &segments,
        NoiseSpec::benchmark(),
        rng.next_u64(),
    )
}

/// All streams of one round of a workload.
pub fn streams(shape: &Shape, seed: u64, round: u64) -> Vec<AnnotatedSeries> {
    (0..shape.streams)
        .map(|k| stream(shape, seed, round, k))
        .collect()
}
