//! Regenerates the **§4.4 Apache Flink throughput experiment** on the
//! stream-engine substitute: every series is an independent data stream,
//! ClaSS runs as a window operator, and the reported quantity is data
//! points per second through the operator (mean, std, peak).

use bench::{all_series, tuning_split, Args};
use class_core::{ClassConfig, ClassSegmenter};
use stream_engine::{
    feed_all, serve, Backpressure, EngineConfig, LatencyHistogram, RingConfig, SegmenterOperator,
    StreamOptions,
};

fn main() {
    let args = Args::parse();
    let series = {
        let s = all_series(&args);
        if args.quick {
            tuning_split(&s)
        } else {
            s
        }
    };
    eprintln!(
        "running {} streams ({} total points) through the ClaSS window operator on {} slots...",
        series.len(),
        series.iter().map(|s| s.len()).sum::<usize>(),
        args.threads
    );
    // One operator instance per stream (Flink operator instantiation per
    // task), pinned round-robin onto the task slots: i % shards is
    // balanced by construction, where hashing a handful of ids can leave
    // a slot idle. Lossless 1024-record rings keep every record in order.
    let window = args.window;
    let shards = args.threads.max(1).min(series.len().max(1));
    let ring = RingConfig::new(1024, Backpressure::Block);
    let (results, ()) = serve(EngineConfig { shards, ring }, |engine| {
        let handles: Vec<_> = series
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut c = ClassConfig::with_window_size(window);
                c.warmup = Some(window.min(s.len()));
                let options = StreamOptions {
                    ring,
                    shard: Some(i % shards),
                    ..StreamOptions::default()
                };
                engine.register_with(options, move || {
                    SegmenterOperator::new(ClassSegmenter::new(c))
                })
            })
            .collect();
        let slices: Vec<&[f64]> = series.iter().map(|s| s.values.as_slice()).collect();
        feed_all(handles, &slices)
            .expect("block-policy rings with live shards accept every record");
    });
    let mut latency = LatencyHistogram::new();
    for r in &results {
        latency.merge(&r.latency);
    }
    let throughputs: Vec<f64> = results.iter().map(|r| r.throughput()).collect();
    let n = throughputs.len() as f64;
    let mean = throughputs.iter().sum::<f64>() / n;
    let var = throughputs
        .iter()
        .map(|t| (t - mean) * (t - mean))
        .sum::<f64>()
        / n;
    let peak = throughputs.iter().cloned().fold(f64::MIN, f64::max);
    let total_cps: usize = results.iter().map(|r| r.output.len()).sum();

    println!("# §4.4 — stream-engine (Flink substitute) window operator throughput");
    println!("streams processed:        {}", results.len());
    println!("total change points out:  {total_cps}");
    println!("mean throughput:          {mean:.0} points/s");
    println!("std of throughput:        {:.0} points/s", var.sqrt());
    println!("peak throughput:          {peak:.0} points/s");
    println!(
        "operator latency:         mean {:?}, p50 {:?}, p99 {:?}, max {:?}",
        latency.mean(),
        latency.quantile(0.5),
        latency.quantile(0.99),
        latency.max()
    );
    println!(
        "\npaper reference (Python/Flink, d=10k, unscaled): mean 1004, std 310, peak 2063 pts/s"
    );
    println!("(absolute numbers differ by implementation language and scale; the");
    println!("reproduction target is engine overhead ~= standalone throughput, §4.4)");
}
