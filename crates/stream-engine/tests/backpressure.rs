//! Backpressure-policy semantics of the serving engine, per policy:
//!
//! * `block` is lossless — every record is delivered in order, so a
//!   ClaSS stream served through the engine scores *exactly* like a
//!   plain operator loop and the standalone segmenter;
//! * `drop-oldest` accounts for every record — processed + dropped
//!   equals pushed, and what survives is the freshest suffix-window of
//!   the feed in order;
//! * `error` surfaces a typed overflow to the producer and never
//!   delivers the rejected record;
//!
//! plus a property test interleaving many streams of arbitrary lengths
//! through tiny rings on varying shard counts.

use class_core::stats::SplitMix64;
use class_core::{ClassConfig, ClassSegmenter, StreamingSegmenter, WidthSelection};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use stream_engine::{
    feed_all, serve, Backpressure, EngineConfig, Operator, OverflowError, PushError, Record,
    RingConfig, SegmenterOperator, TumblingWindowMean,
};

/// The single-threaded oracle: a fresh operator stepped over the stream
/// by a plain loop (timestamps are stream positions), then flushed.
fn plain_loop<Op: Operator<In = f64>>(mut op: Op, xs: &[f64]) -> Vec<Record<Op::Out>> {
    let mut out = Vec::new();
    for (t, &x) in xs.iter().enumerate() {
        op.process(Record::new(t as u64, x), &mut out);
    }
    op.flush(&mut out);
    out
}

/// Two-regime stream: sine whose frequency doubles at `cp`.
fn freq_shift(n: usize, cp: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let f = if i < cp { 0.18 } else { 0.42 };
            (i as f64 * f).sin() + 0.05 * (rng.next_f64() - 0.5)
        })
        .collect()
}

fn class_cfg() -> ClassConfig {
    let mut cfg = ClassConfig::with_window_size(1_200);
    cfg.width = WidthSelection::Fixed(30);
    cfg.warmup = Some(800);
    cfg.log10_alpha = -12.0;
    cfg.seed = 7;
    cfg
}

#[test]
fn block_preserves_every_record_and_scores_equal_the_single_stream_path() {
    let xs = freq_shift(4_000, 2_000, 11);

    // Standalone segmenter — the ground truth for the streaming scores.
    let mut standalone = ClassSegmenter::new(class_cfg());
    let mut direct_cps = Vec::new();
    for &x in &xs {
        standalone.step(x, &mut direct_cps);
    }

    // The same operator stepped by a plain loop.
    let loop_records = plain_loop(
        SegmenterOperator::new(ClassSegmenter::new(class_cfg())),
        &xs,
    );

    // The serving engine with a deliberately tiny blocking ring: the
    // producer stalls repeatedly, but no record may be lost or reordered.
    let config = EngineConfig {
        shards: 2,
        ring: RingConfig::new(8, Backpressure::Block),
    };
    let (results, ()) = serve(config, |engine| {
        let xs = &xs;
        let handle = engine.register(|| SegmenterOperator::new(ClassSegmenter::new(class_cfg())));
        feed_all(vec![handle], &[xs.as_slice()]).expect("feed completes");
    });
    let r = &results[0];

    assert_eq!(r.records_in as usize, xs.len(), "lossless: every record");
    assert_eq!(r.drops, 0);
    // Full record-level equality with the plain loop: values, emission
    // timestamps, and flush-emitted records all survive the ring transit.
    assert_eq!(r.output, loop_records, "engine == plain loop, exactly");
    let engine_cps: Vec<u64> = r
        .output
        .iter()
        .filter(|rec| rec.timestamp != u64::MAX) // streamed, not flush-emitted
        .map(|rec| rec.value)
        .collect();
    assert_eq!(engine_cps, direct_cps, "engine == standalone, exactly");
    assert!(!engine_cps.is_empty(), "the change point was detected");
}

/// An operator that parks on a shared gate before its first record —
/// letting tests hold a shard deliberately busy while producers run on.
struct Gated {
    gate: Arc<Mutex<()>>,
}

impl Operator for Gated {
    type In = f64;
    type Out = f64;

    fn process(&mut self, rec: Record<f64>, out: &mut Vec<Record<f64>>) {
        drop(self.gate.lock().expect("gate"));
        out.push(rec);
    }

    fn name(&self) -> &'static str {
        "gated"
    }
}

#[test]
fn drop_oldest_accounts_for_every_record_and_keeps_the_freshest_in_order() {
    let gate = Arc::new(Mutex::new(()));
    let total = 5_000u64;
    let config = EngineConfig {
        shards: 1,
        ring: RingConfig::new(16, Backpressure::DropOldest),
    };
    let (results, ()) = serve(config, |engine| {
        let gate_for_op = Arc::clone(&gate);
        let mut handle = engine.register(move || Gated { gate: gate_for_op });
        // Stall the shard so the tiny ring must overflow, then let the
        // producer outrun the consumer for the whole feed.
        let held = gate.lock().expect("gate");
        for v in 0..total {
            handle.push(v as f64).expect("drop-oldest always accepts");
        }
        drop(held);
    });
    let r = &results[0];
    assert_eq!(
        r.records_in + r.drops,
        total,
        "every pushed record is either processed or counted as dropped"
    );
    assert!(r.drops > 0, "the stalled consumer must have overflowed");
    // Survivors keep source order and source positions, and the tail of
    // the feed (the freshest records at close time) always survives.
    let stamps: Vec<u64> = r.output.iter().map(|rec| rec.timestamp).collect();
    assert!(stamps.windows(2).all(|w| w[0] < w[1]), "order preserved");
    assert_eq!(*stamps.last().unwrap(), total - 1, "freshest record kept");
}

#[test]
fn error_policy_surfaces_a_typed_overflow_and_loses_only_rejected_records() {
    let gate = Arc::new(Mutex::new(()));
    let capacity = 4usize;
    let config = EngineConfig {
        shards: 1,
        ring: RingConfig::new(capacity, Backpressure::Error),
    };
    let (results, (accepted, overflow)) = serve(config, |engine| {
        let gate_for_op = Arc::clone(&gate);
        let mut handle = engine.register(move || Gated { gate: gate_for_op });
        let held = gate.lock().expect("gate");
        let mut accepted = 0u64;
        let mut overflow: Option<OverflowError> = None;
        // With the shard stalled, a bounded number of pushes must hit
        // the typed overflow (the ring plus one in-flight batch).
        for v in 0..10_000 {
            match handle.push(v as f64) {
                Ok(()) => accepted += 1,
                Err(PushError::Overflow(e)) => {
                    overflow = Some(e);
                    break;
                }
                Err(e) => panic!("unexpected push error: {e}"),
            }
        }
        drop(held);
        (accepted, overflow)
    });
    let overflow = overflow.expect("the full ring must reject a record");
    assert_eq!(overflow.capacity, capacity, "typed error names the ring");
    let r = &results[0];
    // Everything accepted before the overflow is delivered; the
    // rejected record never reaches the operator.
    assert_eq!(r.records_in, accepted);
    assert_eq!(r.drops, 0, "error policy drops nothing silently");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 16 } else { 64 }))]

    /// Arbitrary interleavings: many streams of arbitrary lengths and
    /// values, fed through tiny blocking rings onto 1..4 shards, must
    /// each reproduce a plain operator loop's output exactly.
    #[test]
    fn interleaved_streams_match_a_plain_loop_per_stream(
        streams in prop::collection::vec(
            prop::collection::vec(-1000.0f64..1000.0, 0..120),
            2..7,
        ),
        shards in 1usize..4,
        ring in 1usize..9,
        width in 1usize..6,
    ) {
        let config = EngineConfig {
            shards,
            ring: RingConfig::new(ring, Backpressure::Block),
        };
        let (results, ()) = serve(config, |engine| {
            let handles: Vec<_> = (0..streams.len())
                .map(|_| engine.register(move || TumblingWindowMean::new(width)))
                .collect();
            let slices: Vec<&[f64]> = streams.iter().map(|s| s.as_slice()).collect();
            feed_all(handles, &slices).expect("feed completes");
        });
        prop_assert_eq!(results.len(), streams.len());
        for (k, r) in results.iter().enumerate() {
            let want = plain_loop(TumblingWindowMean::new(width), &streams[k]);
            prop_assert_eq!(r.records_in as usize, streams[k].len());
            prop_assert_eq!(r.drops, 0u64);
            prop_assert_eq!(&r.output, &want);
        }
    }
}
