//! Stream operators: the unit of computation of the engine.

use crate::Record;
use class_core::{MultivariateClass, StreamingSegmenter};

/// A one-at-a-time stream operator transforming `In` records into zero or
/// more `Out` records. Mirrors Flink's `OneInputStreamOperator`.
pub trait Operator {
    /// Input payload type.
    type In;
    /// Output payload type.
    type Out;

    /// Processes one record, pushing any outputs into `out`.
    fn process(&mut self, rec: Record<Self::In>, out: &mut Vec<Record<Self::Out>>);

    /// Called once at end-of-stream; operators with buffered state may
    /// emit remaining output.
    fn flush(&mut self, _out: &mut Vec<Record<Self::Out>>) {}

    /// Operator name for logs and reports.
    fn name(&self) -> &'static str {
        "operator"
    }
}

/// Stateless 1:1 mapping operator.
pub struct MapOperator<I, O, F: FnMut(I) -> O> {
    f: F,
    _marker: core::marker::PhantomData<fn(I) -> O>,
}

impl<I, O, F: FnMut(I) -> O> MapOperator<I, O, F> {
    /// Wraps a mapping function.
    pub fn new(f: F) -> Self {
        Self {
            f,
            _marker: core::marker::PhantomData,
        }
    }
}

impl<I, O, F: FnMut(I) -> O> Operator for MapOperator<I, O, F> {
    type In = I;
    type Out = O;

    fn process(&mut self, rec: Record<I>, out: &mut Vec<Record<O>>) {
        out.push(Record::new(rec.timestamp, (self.f)(rec.value)));
    }

    fn name(&self) -> &'static str {
        "map"
    }
}

/// Tumbling-window mean aggregation (a classic pre-processing operator in
/// the IoT pipelines of §5; also used by tests as a non-trivial stateful
/// operator).
pub struct TumblingWindowMean {
    width: usize,
    sum: f64,
    count: usize,
    window_start: u64,
}

impl TumblingWindowMean {
    /// Creates an aggregator over windows of `width` records.
    pub fn new(width: usize) -> Self {
        assert!(width > 0);
        Self {
            width,
            sum: 0.0,
            count: 0,
            window_start: 0,
        }
    }
}

impl Operator for TumblingWindowMean {
    type In = f64;
    type Out = f64;

    fn process(&mut self, rec: Record<f64>, out: &mut Vec<Record<f64>>) {
        if self.count == 0 {
            self.window_start = rec.timestamp;
        }
        self.sum += rec.value;
        self.count += 1;
        if self.count == self.width {
            out.push(Record::new(self.window_start, self.sum / self.width as f64));
            self.sum = 0.0;
            self.count = 0;
        }
    }

    fn flush(&mut self, out: &mut Vec<Record<f64>>) {
        if self.count > 0 {
            out.push(Record::new(self.window_start, self.sum / self.count as f64));
            self.sum = 0.0;
            self.count = 0;
        }
    }

    fn name(&self) -> &'static str {
        "tumbling-window-mean"
    }
}

/// The paper's ClaSS window operator (§4.4): wraps any
/// [`StreamingSegmenter`] and emits one record per detected change point,
/// whose payload is the change point position.
pub struct SegmenterOperator<S: StreamingSegmenter> {
    seg: S,
    scratch: Vec<u64>,
}

impl<S: StreamingSegmenter> SegmenterOperator<S> {
    /// Wraps a segmenter.
    pub fn new(seg: S) -> Self {
        Self {
            seg,
            scratch: Vec::new(),
        }
    }

    /// Access to the wrapped segmenter.
    pub fn segmenter(&self) -> &S {
        &self.seg
    }
}

impl<S: StreamingSegmenter> Operator for SegmenterOperator<S> {
    type In = f64;
    type Out = u64;

    fn process(&mut self, rec: Record<f64>, out: &mut Vec<Record<u64>>) {
        self.scratch.clear();
        self.seg.step(rec.value, &mut self.scratch);
        for &cp in &self.scratch {
            out.push(Record::new(rec.timestamp, cp));
        }
    }

    fn flush(&mut self, out: &mut Vec<Record<u64>>) {
        self.scratch.clear();
        self.seg.finalize(&mut self.scratch);
        for &cp in &self.scratch {
            out.push(Record::new(u64::MAX, cp));
        }
    }

    fn name(&self) -> &'static str {
        "segmenter"
    }
}

/// The multivariate ClaSS window operator (paper §6 sensor fusion): one
/// multi-channel stream registers as **one** serving-engine stream. The
/// ring carries the channels interleaved frame-major (the layout
/// [`crate::MultiChannelReplaySource::interleaved`] produces); this
/// operator reassembles each frame and steps the fused segmenter once
/// per complete frame. Emitted records carry the change point position
/// (in frames) as payload and the frame index as timestamp, matching
/// [`SegmenterOperator`]'s convention (`u64::MAX` for flush-time
/// reports).
///
/// The interleaving contract requires **lossless transport**: register
/// the stream with the `Block` backpressure policy. A lossy ring
/// (`DropOldest`) evicts individual scalar records, which permanently
/// desynchronizes frame reassembly from the first drop on.
pub struct MultivariateSegmenterOperator {
    seg: MultivariateClass,
    row: Vec<f64>,
    scratch: Vec<u64>,
}

impl MultivariateSegmenterOperator {
    /// Wraps a fused multivariate segmenter.
    pub fn new(seg: MultivariateClass) -> Self {
        Self {
            row: Vec::with_capacity(seg.n_channels()),
            seg,
            scratch: Vec::new(),
        }
    }

    /// Access to the wrapped segmenter.
    pub fn segmenter(&self) -> &MultivariateClass {
        &self.seg
    }
}

impl Operator for MultivariateSegmenterOperator {
    type In = f64;
    type Out = u64;

    fn process(&mut self, rec: Record<f64>, out: &mut Vec<Record<u64>>) {
        self.row.push(rec.value);
        if self.row.len() == self.seg.n_channels() {
            // `rec` is the frame's last interleaved record, so the frame
            // index is its position divided by the channel count.
            let frame = rec.timestamp / self.seg.n_channels() as u64;
            self.scratch.clear();
            self.seg.step(&self.row, &mut self.scratch);
            self.row.clear();
            for &cp in &self.scratch {
                out.push(Record::new(frame, cp));
            }
        }
    }

    fn flush(&mut self, out: &mut Vec<Record<u64>>) {
        // A trailing partial frame (producer closed mid-frame) carries no
        // complete observation vector and is dropped.
        self.row.clear();
        self.scratch.clear();
        self.seg.finalize(&mut self.scratch);
        for &cp in &self.scratch {
            out.push(Record::new(u64::MAX, cp));
        }
    }

    fn name(&self) -> &'static str {
        "multivariate-segmenter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_transforms_values() {
        let mut op = MapOperator::new(|x: f64| x * 2.0);
        let mut out = Vec::new();
        op.process(Record::new(7, 1.5), &mut out);
        assert_eq!(out, vec![Record::new(7, 3.0)]);
        assert_eq!(op.name(), "map");
    }

    #[test]
    fn tumbling_mean_emits_per_window_and_flushes_remainder() {
        let mut op = TumblingWindowMean::new(3);
        let mut out = Vec::new();
        for (t, v) in [(0u64, 3.0), (1, 6.0), (2, 9.0), (3, 1.0)] {
            op.process(Record::new(t, v), &mut out);
        }
        assert_eq!(out, vec![Record::new(0, 6.0)]);
        op.flush(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1], Record::new(3, 1.0));
    }

    #[test]
    fn segmenter_operator_forwards_cps() {
        struct Fake(u64);
        impl StreamingSegmenter for Fake {
            fn step(&mut self, _x: f64, cps: &mut Vec<u64>) {
                self.0 += 1;
                if self.0 % 5 == 0 {
                    cps.push(self.0 - 1);
                }
            }
            fn name(&self) -> &'static str {
                "fake"
            }
        }
        let mut op = SegmenterOperator::new(Fake(0));
        let mut out = Vec::new();
        for t in 0..10u64 {
            op.process(Record::new(t, 0.0), &mut out);
        }
        assert_eq!(out, vec![Record::new(4, 4), Record::new(9, 9)]);
    }
}
