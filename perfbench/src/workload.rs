//! The three workloads. Each round generates its inputs from the seed,
//! starts the engine, registers its streams (set-up, timed up to the
//! first record), then drives them and returns what it measured. A
//! monitoring scrape (`stats()` + Prometheus rendering) runs every
//! [`SCRAPE_EVERY`] throughout, as it would in a deployment.

use crate::inputs::{self, Shape};
use crate::probe::{self, Clock, Probe, Samples, Sink};
use class_core::stats::SplitMix64;
use datasets::AnnotatedSeries;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use stream_engine::{
    render_prometheus_with_net, serve, vm_hwm_kb, EngineConfig, IngestServer, NetClient,
    NetStatsHandle, RegisterRequest, RingConfig, ServingEngine, StatsHandle, StreamHandle,
    StreamOptions, StreamResult,
};

/// Interval of the monitoring scrape.
const SCRAPE_EVERY: Duration = Duration::from_millis(100);
/// Records the closed-loop feeder offers a ring per visit.
pub const FEED_CHUNK: usize = 64;
/// Records of a stream the closed-loop feeder keeps handed off but not
/// yet processed. Far below the ring capacity, so a record waits behind
/// at most this many of its own stream and the rings never fill.
const FEED_WINDOW: usize = 2 * FEED_CHUNK;
/// How long a closed-loop generator sleeps after a round in which it
/// could hand nothing off.
const FEED_PARK: Duration = Duration::from_micros(200);
/// A closed-loop generator stops waiting for a stream whose operator has
/// processed nothing for this long and feeds it as fast as its ring
/// accepts: a quarantined stream's ring drains without the operator, and
/// the checks report it. Far above the longest step (the warm-up replay).
const STALL_LIMIT: Duration = Duration::from_secs(10);

/// Per stream, the operator's processed count when it last changed.
struct Progress(Vec<(u64, Instant)>);

impl Progress {
    fn new(streams: usize) -> Progress {
        Progress(vec![(0, Instant::now()); streams])
    }

    /// Whether `stream`'s operator, now at `done` records, has stalled.
    fn stalled(&mut self, stream: usize, done: u64) -> bool {
        let seen = &mut self.0[stream];
        if seen.0 != done {
            *seen = (done, Instant::now());
        }
        seen.1.elapsed() > STALL_LIMIT
    }
}

/// Feeder-side ring counters (around `StreamHandle::try_feed`).
#[derive(Debug, Default, Clone, Copy)]
pub struct Feed {
    pub calls: u64,
    pub full_rounds: u64,
    pub offered: u64,
    pub accepted: u64,
}

/// Wire-side counters of `wire-fleet`.
#[derive(Debug, Default, Clone)]
pub struct Wire {
    pub frames: u64,
    pub records_frames: u64,
    pub throttle_events: u64,
    pub protocol_errors: u64,
    pub send_to_ack_ns: Vec<u64>,
}

/// Everything one run measured.
pub struct Run {
    pub series: Vec<AnnotatedSeries>,
    pub setup_ns: u64,
    /// First record handed off to the last stream retired.
    pub wall_ns: u64,
    pub samples: Vec<Option<Samples>>,
    pub results: Vec<StreamResult<u64>>,
    pub feed: Feed,
    /// Open loop: how late the generator ran. Closed loop: the longest
    /// stretch in which the generator could hand off nothing.
    pub lag_max_ns: u64,
    pub scrape_ns: Vec<u64>,
    pub wire: Option<Wire>,
    pub peak_rss_kb: u64,
    /// Records the generator meant to deliver.
    pub attempted: u64,
    /// Records sent but never acknowledged (wire only).
    pub unacked: u64,
    pub errors: Vec<String>,
}

impl Run {
    fn new(series: Vec<AnnotatedSeries>, setup_ns: u64) -> Run {
        let attempted = series.iter().map(|s| s.len() as u64).sum();
        Run {
            series,
            setup_ns,
            wall_ns: 0,
            samples: Vec::new(),
            results: Vec::new(),
            feed: Feed::default(),
            lag_max_ns: 0,
            scrape_ns: Vec::new(),
            wire: None,
            peak_rss_kb: 0,
            attempted,
            unacked: 0,
            errors: Vec::new(),
        }
    }
}

/// The periodic monitoring scrape, on its own thread.
struct Scraper {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<u64>>,
}

impl Scraper {
    fn start(stats: StatsHandle, net: Option<NetStatsHandle>) -> Scraper {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut took = Vec::new();
            while !flag.load(Ordering::Acquire) {
                std::thread::sleep(SCRAPE_EVERY);
                let t0 = Instant::now();
                let net_stats = net.as_ref().map(NetStatsHandle::stats);
                let text = render_prometheus_with_net(&stats.stats(), net_stats.as_ref());
                std::hint::black_box(text.len());
                took.push(t0.elapsed().as_nanos() as u64);
            }
            took
        });
        Scraper { stop, thread }
    }

    fn finish(self) -> Vec<u64> {
        self.stop.store(true, Ordering::Release);
        self.thread.join().expect("scrape thread does not panic")
    }
}

fn engine_config(shards: usize) -> EngineConfig {
    EngineConfig {
        shards,
        ring: RingConfig::default(),
    }
}

/// Registers every stream in process, pinned evenly across shards.
fn register_all<'env>(
    engine: &mut ServingEngine<'_, 'env, Probe>,
    shape: &Shape,
    clock: &Arc<Clock>,
    sink: &Sink,
) -> Vec<StreamHandle> {
    let shards = engine.shards();
    (0..shape.streams)
        .map(|k| {
            let (config, clock, sink) = (shape.config.clone(), Arc::clone(clock), Arc::clone(sink));
            engine.register_with(
                StreamOptions {
                    shard: Some(k % shards),
                    name: Some(format!("perfbench-{k}")),
                    ..StreamOptions::default()
                },
                move || Probe::new(config, k, clock, sink),
            )
        })
        .collect()
}

fn lengths(series: &[AnnotatedSeries]) -> Vec<usize> {
    series.iter().map(AnnotatedSeries::len).collect()
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// How an in-process workload offers its records.
#[derive(Debug, Clone, Copy)]
pub enum Loop {
    /// `paper-default`: the feeder visits the streams round-robin and
    /// offers a ring [`FEED_CHUNK`] records whenever that keeps the
    /// stream's unprocessed records within [`FEED_WINDOW`]; it closes
    /// each stream when its data is exhausted.
    Closed,
    /// `paced-latency`: records are due at a fixed aggregate `rate` on a
    /// schedule drawn from the seed (each turn visits every stream once,
    /// in a fresh random order); the generator sleeps until each due time
    /// and never slows down when the system does.
    Open { rate: f64 },
}

/// An in-process workload round. With `drive == false` it stops after
/// set-up.
pub fn in_process(
    shape: &Shape,
    seed: u64,
    round: u64,
    shards: usize,
    lp: Loop,
    drive: bool,
) -> Run {
    let t_setup = Instant::now();
    let series = inputs::streams(shape, seed, round);
    let clock = Arc::new(Clock::new(&lengths(&series)));
    let sink = probe::sink(series.len());
    let (results, (setup_ns, driven)) = serve(engine_config(shards), |engine| {
        let handles = register_all(engine, shape, &clock, &sink);
        let setup_ns = elapsed_ns(t_setup);
        if !drive {
            return (setup_ns, None);
        }
        let scraper = Scraper::start(engine.stats_handle(), None);
        let fed = match lp {
            Loop::Closed => {
                let t_run = Instant::now();
                let (feed, lag) = feed_closed(handles, &series, &clock);
                (t_run, feed, lag)
            }
            Loop::Open { rate } => feed_open(handles, &series, &clock, seed ^ round, rate),
        };
        (setup_ns, Some((scraper, fed)))
    });
    let mut run = Run::new(series, setup_ns);
    if let Some((scraper, (t_run, feed, lag))) = driven {
        run.wall_ns = elapsed_ns(t_run);
        run.peak_rss_kb = vm_hwm_kb().unwrap_or(0);
        run.scrape_ns = scraper.finish();
        run.feed = feed;
        run.lag_max_ns = lag;
        run.samples = probe::drain(&sink);
        run.results = results;
    }
    run
}

fn feed_closed(
    handles: Vec<StreamHandle>,
    series: &[AnnotatedSeries],
    clock: &Clock,
) -> (Feed, u64) {
    let mut slots: Vec<Option<StreamHandle>> = handles.into_iter().map(Some).collect();
    let mut cursor = vec![0usize; slots.len()];
    let mut remaining = slots.len();
    let mut feed = Feed::default();
    let mut progress = Progress::new(slots.len());
    let mut stalled_since: Option<Instant> = None;
    let mut lag_max = 0u64;
    while remaining > 0 {
        let mut progressed = false;
        for (k, slot) in slots.iter_mut().enumerate() {
            let Some(handle) = slot.as_mut() else {
                continue;
            };
            let xs = &series[k].values;
            if cursor[k] == xs.len() {
                *slot = None; // close: the shard drains, flushes, retires
                remaining -= 1;
                progressed = true;
                continue;
            }
            let done = clock.processed(k);
            if cursor[k] as u64 - done + FEED_CHUNK as u64 > FEED_WINDOW as u64
                && !progress.stalled(k, done)
            {
                continue;
            }
            let end = (cursor[k] + FEED_CHUNK).min(xs.len());
            clock.stamp(k, cursor[k], end - cursor[k], clock.now_ns());
            feed.calls += 1;
            feed.offered += (end - cursor[k]) as u64;
            // A shard that is gone shows up in the accounting as fewer
            // records in than attempted.
            let n = handle.try_feed(&xs[cursor[k]..end]).unwrap_or(0);
            cursor[k] += n;
            feed.accepted += n as u64;
            progressed |= n > 0;
        }
        if progressed {
            if let Some(t) = stalled_since.take() {
                lag_max = lag_max.max(elapsed_ns(t));
            }
        } else {
            feed.full_rounds += 1;
            stalled_since.get_or_insert_with(Instant::now);
            std::thread::sleep(FEED_PARK);
        }
    }
    (feed, lag_max)
}

/// The open-loop visiting order: turn after turn over all streams, each
/// turn in a seeded random order (streams have equal length).
fn schedule(series: &[AnnotatedSeries], seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ 0x0A11_0C47_E5C4_ED01);
    let turns = series.iter().map(AnnotatedSeries::len).max().unwrap_or(0);
    let mut perm: Vec<usize> = (0..series.len()).collect();
    let mut order = Vec::with_capacity(turns * perm.len());
    for t in 0..turns {
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        order.extend(perm.iter().copied().filter(|&k| t < series[k].len()));
    }
    order
}

fn feed_open(
    handles: Vec<StreamHandle>,
    series: &[AnnotatedSeries],
    clock: &Clock,
    seed: u64,
    rate: f64,
) -> (Instant, Feed, u64) {
    let order = schedule(series, seed);
    let period_ns = 1e9 / rate;
    // Every due time is fixed before the first record: 20 ms of lead.
    let start = clock.now_ns() + 20_000_000;
    let mut pos = vec![0usize; series.len()];
    for (i, &k) in order.iter().enumerate() {
        clock.stamp(k, pos[k], 1, start + (i as f64 * period_ns) as u64);
        pos[k] += 1;
    }
    let t_run = Instant::now() + Duration::from_nanos(start.saturating_sub(clock.now_ns()));
    let mut handles: Vec<Option<StreamHandle>> = handles.into_iter().map(Some).collect();
    pos.fill(0);
    let mut feed = Feed::default();
    let mut lag_max = 0u64;
    for (i, &k) in order.iter().enumerate() {
        let due = start + (i as f64 * period_ns) as u64;
        let mut now = clock.now_ns();
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
            now = clock.now_ns();
        }
        lag_max = lag_max.max(now.saturating_sub(due));
        let handle = handles[k]
            .as_mut()
            .expect("a stream stays open until its last record");
        let value = series[k].values[pos[k]];
        loop {
            feed.calls += 1;
            feed.offered += 1;
            match handle.try_feed(&[value]) {
                Ok(1) => break,
                Ok(_) => {
                    feed.full_rounds += 1;
                    std::thread::sleep(FEED_PARK);
                }
                Err(_) => break, // shard gone: shows as a missing record
            }
        }
        feed.accepted += 1;
        pos[k] += 1;
        if pos[k] == series[k].len() {
            handles[k] = None;
        }
    }
    (t_run, feed, lag_max)
}

/// `wire-fleet`: every stream registered over loopback TCP from
/// `conns` producer connections, fed in `batch`-record RECORDS frames
/// with one frame in flight per stream until it is processed (closed
/// loop), then detached.
pub fn closed_wire(
    shape: &Shape,
    seed: u64,
    round: u64,
    shards: usize,
    conns: usize,
    batch: usize,
    drive: bool,
) -> Run {
    let t_setup = Instant::now();
    let series = inputs::streams(shape, seed, round);
    let clock = Arc::new(Clock::new(&lengths(&series)));
    let sink = probe::sink(series.len());
    let config = shape.config.clone();
    let (factory_clock, factory_sink) = (Arc::clone(&clock), Arc::clone(&sink));
    let factory = move |req: &RegisterRequest| {
        let k = req
            .name
            .strip_prefix("perfbench-")
            .and_then(|s| s.parse().ok())
            .expect("streams register as perfbench-<index>");
        Probe::new(
            config.clone(),
            k,
            Arc::clone(&factory_clock),
            Arc::clone(&factory_sink),
        )
    };
    let mut t_run = None;
    let (results, outcome) = serve(engine_config(shards), |engine| {
        let server = IngestServer::bind("127.0.0.1:0", engine.registrar(), factory)
            .map_err(|e| format!("bind loopback ingest server: {e}"))?;
        let mut producers = Vec::with_capacity(conns);
        for c in 0..conns {
            let mut client = NetClient::connect(server.addr(), &format!("perfbench-{c}"))
                .map_err(|e| format!("connect producer {c}: {e}"))?;
            let mut owned = Vec::new();
            for k in (c..series.len()).step_by(conns) {
                let id = client
                    .register(&format!("perfbench-{k}"), None)
                    .map_err(|e| format!("register stream {k}: {e}"))?;
                owned.push((k, id));
            }
            producers.push((client, owned));
        }
        let setup_ns = elapsed_ns(t_setup);
        if !drive {
            return Ok((setup_ns, None));
        }
        let net = server.net_stats();
        let scraper = Scraper::start(engine.stats_handle(), Some(net.clone()));
        t_run = Some(Instant::now());
        let reports: Vec<Producer> = std::thread::scope(|scope| {
            let threads: Vec<_> = producers
                .into_iter()
                .map(|(client, owned)| {
                    let (series, clock) = (&series, &clock);
                    scope.spawn(move || produce(client, &owned, series, clock, batch))
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("producer threads do not panic"))
                .collect()
        });
        drop(server); // joins the connection threads; must precede the body's end
        Ok((setup_ns, Some((scraper, reports, net.stats()))))
    });
    let (setup_ns, driven) = match outcome {
        Ok(v) => v,
        Err(e) => {
            let mut run = Run::new(series, 0);
            run.errors.push(e);
            return run;
        }
    };
    let mut run = Run::new(series, setup_ns);
    if let (Some(t_run), Some((scraper, reports, net))) = (t_run, driven) {
        run.wall_ns = elapsed_ns(t_run);
        run.peak_rss_kb = vm_hwm_kb().unwrap_or(0);
        run.scrape_ns = scraper.finish();
        let mut wire = Wire {
            frames: net.frames(),
            throttle_events: net.throttle_events(),
            protocol_errors: net.protocol_errors(),
            ..Wire::default()
        };
        for p in reports {
            wire.records_frames += p.records_frames;
            wire.send_to_ack_ns.extend(p.send_to_ack_ns);
            run.unacked += p.unacked;
            run.lag_max_ns = run.lag_max_ns.max(p.wait_max_ns);
            run.errors.extend(p.errors);
        }
        // The server's try_feed is not visible from here: each RECORDS
        // frame is one feed, each THROTTLE one attempt on a full ring.
        run.feed = Feed {
            calls: wire.records_frames,
            full_rounds: wire.throttle_events,
            offered: wire.records_frames + wire.throttle_events,
            accepted: wire.records_frames,
        };
        run.wire = Some(wire);
        run.samples = probe::drain(&sink);
        run.results = results;
    }
    run
}

/// One producer connection's report.
#[derive(Default)]
struct Producer {
    records_frames: u64,
    send_to_ack_ns: Vec<u64>,
    /// Longest stretch in which none of its frames finished processing.
    wait_max_ns: u64,
    unacked: u64,
    errors: Vec<String>,
}

/// Pumps every owned stream in `batch`-record RECORDS frames with one
/// frame in flight per stream: a stream's next frame goes out once its
/// operator has processed the previous one (`Clock::processed`) or has
/// stalled, so the rings never fill and a record waits only behind other
/// streams' frames. Checks every ack against the records sent, then detaches
/// the streams one by one.
fn produce(
    mut client: NetClient,
    owned: &[(usize, u32)],
    series: &[AnnotatedSeries],
    clock: &Clock,
    batch: usize,
) -> Producer {
    let mut p = Producer::default();
    let mut cursor = vec![0usize; owned.len()];
    let mut acked = vec![0u64; owned.len()];
    let result = (|| {
        let mut ready: Vec<usize> = (0..owned.len()).collect();
        let mut inflight: Vec<usize> = Vec::new();
        let mut sent_at = Vec::with_capacity(owned.len());
        let mut progress = Progress::new(owned.len());
        let mut last_done = Instant::now();
        while !ready.is_empty() {
            sent_at.clear();
            for &i in &ready {
                let (k, id) = owned[i];
                let xs = &series[k].values;
                let end = (cursor[i] + batch).min(xs.len());
                let now = clock.now_ns();
                clock.stamp(k, cursor[i], end - cursor[i], now);
                client.send_records_nowait(id, &xs[cursor[i]..end])?;
                p.records_frames += 1;
                cursor[i] = end;
                sent_at.push(now);
            }
            for (&i, &sent) in ready.iter().zip(&sent_at) {
                let ack = client.recv_ack()?;
                p.send_to_ack_ns.push(clock.now_ns() - sent);
                let (k, id) = owned[i];
                if ack.stream != id || ack.received != cursor[i] as u64 {
                    p.errors.push(format!(
                        "stream {k}: ack for stream {} received {} after {} sent",
                        ack.stream, ack.received, cursor[i]
                    ));
                }
                acked[i] = ack.received.min(cursor[i] as u64);
            }
            inflight.append(&mut ready);
            while ready.is_empty() && !inflight.is_empty() {
                inflight.retain(|&i| {
                    let k = owned[i].0;
                    let done = clock.processed(k);
                    if done < cursor[i] as u64 && !progress.stalled(i, done) {
                        return true;
                    }
                    if cursor[i] < series[k].len() {
                        ready.push(i);
                    }
                    false
                });
                if ready.is_empty() && !inflight.is_empty() {
                    std::thread::sleep(FEED_PARK);
                    continue;
                }
                let waited = last_done.elapsed().as_nanos() as u64;
                p.wait_max_ns = p.wait_max_ns.max(waited);
                last_done = Instant::now();
            }
        }
        for (i, &(k, id)) in owned.iter().enumerate() {
            let ack = client.detach(id)?;
            if ack.received != series[k].len() as u64 {
                p.errors.push(format!(
                    "stream {k}: detach ack received {} of {}",
                    ack.received,
                    series[k].len()
                ));
            }
            acked[i] = ack.received.min(series[k].len() as u64);
        }
        Ok::<(), stream_engine::NetError>(())
    })();
    if let Err(e) = result {
        p.errors.push(format!("producer: {e}"));
    }
    p.unacked = owned
        .iter()
        .zip(&acked)
        .map(|(&(k, _), &a)| series[k].len() as u64 - a)
        .sum();
    p
}
