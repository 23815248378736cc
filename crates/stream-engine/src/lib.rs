//! # stream-engine — a multi-stream serving runtime for streaming
//! # segmentation operators
//!
//! Stands in for Apache Flink in the paper's throughput experiment (§4.4):
//! the paper wraps ClaSS as a Flink *window operator*, runs each of the 592
//! series as an independent data stream loaded from RAM, and measures data
//! points per second through the operator. This crate reproduces that
//! execution model at serving scale:
//!
//! * [`Record`]s flow one at a time through [`Operator`]s
//!   (event-at-a-time processing, Flink's model, as opposed to
//!   micro-batching — see the Karimov et al. comparison cited in §5),
//! * [`serve`] opens a **sharded serving engine**: `shards` worker
//!   threads step any number of registered streams as state machines fed
//!   through fixed-capacity SPSC [`ring`] buffers with per-stream
//!   [`Backpressure`] policies (block / drop-oldest / error) — Flink
//!   task slots and bounded network buffers, with no thread per stream;
//!   [`feed_all`] drives a batch of in-memory streams through it to
//!   completion (the §4.4 experiment shape),
//! * [`ServingStats`] snapshots per-stream and per-shard accounting
//!   (p50/p99 operator latency, queue depth, backpressure drops) live,
//!   and [`metrics`] exports those snapshots as Prometheus text
//!   exposition / JSON over a std-only HTTP listener
//!   ([`ServingEngine::serve_metrics`]) or periodic file snapshots,
//! * [`net`] is the network ingestion tier: an [`IngestServer`] accepts
//!   many TCP producers speaking a small length-prefixed binary protocol
//!   ([`Frame`]), registering/detaching streams on the *live* engine at
//!   runtime ([`ServingEngine::registrar`]) and surfacing each ring's
//!   backpressure policy as protocol responses (THROTTLE / ACK drop
//!   counts / typed ERROR),
//! * [`SegmenterOperator`] adapts any [`class_core::StreamingSegmenter`]
//!   into a window operator emitting change point records,
//! * [`MultivariateSegmenterOperator`] registers a fused multi-channel
//!   [`class_core::MultivariateClass`] (paper §6 sensor fusion) as **one**
//!   stream, its channels travelling interleaved through one ring, and
//! * [`ReplaySource`] / [`MultiChannelReplaySource`] replay a loaded
//!   (file-backed) series, unpaced like the paper's RAM-resident streams
//!   or throttled to a configurable record rate like a live sensor feed.

#![warn(missing_docs)]

pub mod engine;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod guard;
pub mod latency;
pub mod metrics;
pub mod net;
pub mod operator;
pub mod ring;
pub mod source;

pub use engine::{
    feed_all, serve, DetachReport, EngineConfig, FeedReport, IngestError, QuarantineCause,
    RegisterError, Registrar, RetryPolicy, ServingEngine, StatsHandle, StreamHandle, StreamOptions,
    StreamResult, StreamState, Timing,
};
#[cfg(feature = "fault-inject")]
pub use fault::{
    drive, silence_injected_panics, DriveOutcome, FaultKind, FaultPlan, FaultingOperator,
    StreamFault, INJECTED_PANIC_PREFIX,
};
pub use guard::{GuardAction, GuardConfig, GuardTrip, GuardVerdict, InputGuard};
pub use latency::{LatencyHistogram, ServingStats, ShardStats, StreamStats};
pub use metrics::{
    render_prometheus, render_prometheus_with_net, render_stats_json, render_stats_json_with_net,
    vm_hwm_kb, MetricsServer, SnapshotWriter,
};
pub use net::{
    AckInfo, ConnStats, ErrorCode, Frame, FrameError, IngestServer, NetClient, NetError, NetStats,
    NetStatsHandle, RegisterRequest,
};
pub use operator::{
    MapOperator, MultivariateSegmenterOperator, Operator, SegmenterOperator, TumblingWindowMean,
};
pub use ring::{Backpressure, OverflowError, PushError, RingConfig};
pub use source::{
    interleave_channels, MultiChannelReplayIter, MultiChannelReplaySource, ReplayIter, ReplaySource,
};

/// A timestamped stream record. `timestamp` is the position in the source
/// stream (processing time in the paper's setup).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record<T> {
    /// Source position / processing timestamp.
    pub timestamp: u64,
    /// Payload.
    pub value: T,
}

impl<T> Record<T> {
    /// Creates a record.
    pub fn new(timestamp: u64, value: T) -> Self {
        Self { timestamp, value }
    }
}
