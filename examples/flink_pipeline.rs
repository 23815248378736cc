//! ClaSS as a stream-processing window operator (paper §4.4).
//!
//! Run with `cargo run --example flink_pipeline --release`.
//!
//! Deploys the Flink-style topology the paper uses: every sensor stream
//! gets its own ClaSS window operator, whose output is a stream of change
//! point records. Eight streams run on the sharded serving engine (a
//! bounded worker pool fed through backpressured ring buffers); the
//! example prints each stream's change points and operator throughput
//! plus a live `ServingStats` snapshot.

use class_core::{ClassConfig, ClassSegmenter};
use datasets::{Archive, GenConfig};
use stream_engine::{feed_all, serve, Backpressure, EngineConfig, RingConfig, SegmenterOperator};

fn main() {
    let series: Vec<_> = Archive::Wesad
        .generate(&GenConfig::default())
        .into_iter()
        .take(8)
        .collect();
    let config = EngineConfig {
        shards: 2,
        ring: RingConfig::new(128, Backpressure::Block),
    };
    let (served, snapshot) = serve(config, |engine| {
        let handles: Vec<_> = (0..series.len())
            .map(|_| {
                engine.register(|| {
                    let mut c = ClassConfig::with_window_size(2_000);
                    c.warmup = Some(1_500);
                    c.log10_alpha = -15.0;
                    SegmenterOperator::new(ClassSegmenter::new(c))
                })
            })
            .collect();
        let snapshot = engine.stats(); // all streams live, none finished
        let slices: Vec<&[f64]> = series.iter().map(|s| s.values.as_slice()).collect();
        feed_all(handles, &slices).expect("feed completes: rings block, never error");
        snapshot
    });
    println!(
        "serving engine: {} streams registered on {} shards ({} active at snapshot)",
        served.len(),
        config.shards,
        snapshot.active_streams()
    );
    for (r, s) in served.iter().zip(&series) {
        let cps: Vec<u64> = r.output.iter().map(|rec| rec.value).collect();
        println!(
            "  stream {} (shard {}): {} points at {:.0} points/s, p99 {:?}, {} drops",
            r.stream,
            r.shard,
            r.records_in,
            r.throughput(),
            r.latency.quantile(0.99),
            r.drops
        );
        println!(
            "    change points {cps:?}, ground truth {:?}",
            s.change_points
        );
    }
}
