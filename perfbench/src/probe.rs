//! Benchmark-owned latency samples: a wrapper [`Operator`] around
//! `SegmenterOperator<ClassSegmenter>` that times every operator call and
//! every record from its hand-off (closed loop) or due time (open loop).
//! Samples are exact nanoseconds, not the engine's power-of-two buckets.

use class_core::{ClassConfig, ClassSegmenter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use stream_engine::{Operator, Record, SegmenterOperator};

/// A shared time base plus, per stream and source position, the instant
/// (ns since the base) a record was handed to the system or was due,
/// and per stream the count of records its operator has processed.
pub struct Clock {
    base: Instant,
    handoff: Vec<Vec<AtomicU64>>,
    processed: Vec<AtomicU64>,
}

impl Clock {
    /// A clock with one hand-off slot per record of each stream.
    pub fn new(lengths: &[usize]) -> Clock {
        Clock {
            base: Instant::now(),
            handoff: lengths
                .iter()
                .map(|&n| (0..n).map(|_| AtomicU64::new(0)).collect())
                .collect(),
            processed: lengths.iter().map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records of `stream` its operator has processed so far.
    pub fn processed(&self, stream: usize) -> u64 {
        self.processed[stream].load(Ordering::Acquire)
    }

    /// Nanoseconds since the base.
    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Marks records `from..from + n` of `stream` as handed off at `ns`.
    /// Called before the records enter the ring, whose lock orders these
    /// stores before the shard's loads.
    pub fn stamp(&self, stream: usize, from: usize, n: usize, ns: u64) {
        for slot in &self.handoff[stream][from..from + n] {
            slot.store(ns, Ordering::Relaxed);
        }
    }

    fn handoff(&self, stream: usize, pos: u64) -> u64 {
        self.handoff[stream][pos as usize].load(Ordering::Relaxed)
    }
}

/// What one stream's probe saw: per-record step and latency (ns, in
/// processing order) and the engine's output change points as
/// `(emitted at record, change point)`.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    pub steps: Vec<u32>,
    pub latencies: Vec<u32>,
    pub outputs: Vec<(u64, u64)>,
}

/// Per-stream sample slots, filled when each stream flushes.
pub type Sink = Arc<Mutex<Vec<Option<Samples>>>>;

pub fn sink(streams: usize) -> Sink {
    Arc::new(Mutex::new(vec![None; streams]))
}

/// Takes every stream's samples out of the sink; `None` for a stream
/// whose operator never flushed (it was quarantined or lost).
pub fn drain(sink: &Sink) -> Vec<Option<Samples>> {
    std::mem::take(
        &mut *sink
            .lock()
            .expect("sink lock: probes never panic holding it"),
    )
}

/// The wrapper operator the benchmark registers for every stream.
pub struct Probe {
    inner: SegmenterOperator<ClassSegmenter>,
    stream: usize,
    clock: Arc<Clock>,
    sink: Sink,
    samples: Samples,
}

impl Probe {
    pub fn new(config: ClassConfig, stream: usize, clock: Arc<Clock>, sink: Sink) -> Probe {
        let expected = clock.handoff[stream].len();
        Probe {
            inner: SegmenterOperator::new(ClassSegmenter::new(config)),
            stream,
            clock,
            sink,
            samples: Samples {
                steps: Vec::with_capacity(expected),
                latencies: Vec::with_capacity(expected),
                outputs: Vec::new(),
            },
        }
    }

    fn note_outputs(&mut self, emitted: &[Record<u64>]) {
        self.samples
            .outputs
            .extend(emitted.iter().map(|r| (r.timestamp, r.value)));
    }
}

fn clamp_u32(ns: u64) -> u32 {
    ns.min(u64::from(u32::MAX)) as u32
}

impl Operator for Probe {
    type In = f64;
    type Out = u64;

    fn process(&mut self, rec: Record<f64>, out: &mut Vec<Record<u64>>) {
        let pos = rec.timestamp;
        let before = out.len();
        let t0 = Instant::now();
        self.inner.process(rec, out);
        let t1 = Instant::now();
        self.note_outputs(&out[before..]);
        let done = t1.duration_since(self.clock.base).as_nanos() as u64;
        self.samples
            .steps
            .push(clamp_u32(t1.duration_since(t0).as_nanos() as u64));
        let due = self.clock.handoff(self.stream, pos);
        self.samples
            .latencies
            .push(clamp_u32(done.saturating_sub(due)));
        self.clock.processed[self.stream].fetch_add(1, Ordering::Release);
    }

    fn flush(&mut self, out: &mut Vec<Record<u64>>) {
        let before = out.len();
        self.inner.flush(out);
        self.note_outputs(&out[before..]);
        let samples = std::mem::take(&mut self.samples);
        self.sink
            .lock()
            .expect("sink lock: probes never panic holding it")[self.stream] = Some(samples);
    }

    fn name(&self) -> &'static str {
        "perfbench-probe"
    }
}
