//! `serve_throughput` — load generator for the multi-stream serving
//! engine, the serving-scale counterpart of `flink_throughput`.
//!
//! The paper's §4.4 experiment feeds each benchmark series through a
//! Flink-deployed ClaSS operator one stream at a time and reports data
//! points per second. A serving deployment instead multiplexes *many*
//! concurrent streams onto a fixed worker pool. This binary drives
//! hundreds of concurrently registered synthetic sensor streams through
//! the sharded engine (`stream_engine::serve`) and reports aggregate
//! records/sec plus tail latency, appending the numbers to
//! `BENCH_serve.json` so every PR's serving throughput is comparable to
//! its predecessors:
//!
//! ```sh
//! cargo run --release -p bench --bin serve_throughput -- --preset quick
//! cargo run --release -p bench --bin serve_throughput -- --preset quick --check BENCH_serve.json
//! ```
//!
//! `--preset quick` (the CI gate) serves 128 concurrent streams; `full`
//! serves 512. `--check BASELINE.json` exits non-zero if records/sec
//! regressed more than `--tolerance` (default 0.25) against the
//! baseline document (read before `--out` overwrites it).
//!
//! `--jump N` overrides the segmenter's jump-ahead evaluation cadence
//! (default: the [`ClassConfig`] default, the reference implementation's
//! `jump=5`; `--jump 1` restores exact per-point evaluation). The value
//! is recorded in the JSON and gated — throughput at different cadences
//! measures different operators.
//!
//! `--mv-channels C` switches every stream to a C-channel multivariate
//! sensor (paper §6 sensor fusion): channels travel interleaved through
//! one ring per stream and the shard steps a quorum-fusion
//! `MultivariateClass` per frame. The mode is recorded in the JSON and
//! never gated against a univariate baseline — records/sec measures a
//! different operator.
//!
//! `--bundle-out PATH` additionally emits a provenance-stamped
//! `class-run-bundle/v1` (seed, SIMD backend, git describe, config,
//! headline metrics) for cross-run diffing with `compare_bundles`.
//!
//! `--socket` measures the *wire path* instead of the in-process feed:
//! the engine opens a loopback [`stream_engine::IngestServer`] and
//! `--producers` concurrent TCP clients register the same streams over
//! the ingestion protocol, pump them in `--batch`-record RECORDS
//! frames (one in flight per stream), and detach. The numbers go to
//! `BENCH_net.json` (`class-net-throughput/v1`) by default and gate
//! two ways: `--check` against a committed socket baseline, and
//! `--floor-of BENCH_serve.json --floor-ratio 0.5` against the
//! in-process figure — the wire must deliver at least that fraction of
//! the direct feed's records/sec.

use bench::perf::{json_number, json_string, regressions};
use class_core::{
    ClassConfig, ClassSegmenter, MultivariateClass, MultivariateConfig, WidthSelection,
};
use datasets::{build_series, NoiseSpec, Regime};
use eval::bundle::RunBundle;
use eval::read_args;
use stream_engine::{
    feed_all, serve, Backpressure, EngineConfig, IngestServer, LatencyHistogram,
    MultiChannelReplaySource, MultivariateSegmenterOperator, NetClient, NetStats, RingConfig,
    SegmenterOperator, StreamResult,
};

struct Preset {
    name: &'static str,
    streams: usize,
    points: usize,
    window: usize,
    width: usize,
}

const QUICK: Preset = Preset {
    name: "quick",
    streams: 128,
    points: 2_000,
    window: 500,
    width: 25,
};

const FULL: Preset = Preset {
    name: "full",
    streams: 512,
    points: 5_000,
    window: 1_000,
    width: 40,
};

/// A two-regime sensor stream (sine → sawtooth, benchmark noise) with a
/// per-stream seed so no two streams are identical.
fn stream_values(preset: &Preset, k: usize, seed: u64) -> Vec<f64> {
    let half = preset.points / 2;
    build_series(
        format!("serve/{k}"),
        "serve",
        &[
            (
                Regime::Sine {
                    period: 25.0 + (k % 7) as f64,
                    amp: 1.0,
                    phase: 0.0,
                },
                half,
            ),
            (
                Regime::Sawtooth {
                    period: 40.0 + (k % 5) as f64,
                    amp: 1.2,
                },
                preset.points - half,
            ),
        ],
        NoiseSpec::benchmark(),
        seed ^ k as u64,
    )
    .values
}

#[allow(clippy::too_many_arguments)]
fn render_serve_json(
    preset: &str,
    shards: usize,
    policy: &str,
    simd_backend: &str,
    mv_channels: usize,
    jump: usize,
    elapsed_s: f64,
    results: &[StreamResult<u64>],
    latency: &LatencyHistogram,
) -> String {
    let records: u64 = results.iter().map(|r| r.records_in).sum();
    let drops: u64 = results.iter().map(|r| r.drops).sum();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"class-serve-throughput/v1\",\n");
    out.push_str(&format!("  \"preset\": \"{preset}\",\n"));
    out.push_str(&format!("  \"shards\": {shards},\n"));
    out.push_str(&format!("  \"mv_channels\": {mv_channels},\n"));
    out.push_str(&format!("  \"jump\": {jump},\n"));
    out.push_str(&format!("  \"policy\": \"{policy}\",\n"));
    out.push_str(&format!("  \"simd_backend\": \"{simd_backend}\",\n"));
    out.push_str(&format!("  \"streams\": {},\n", results.len()));
    out.push_str(&format!("  \"records\": {records},\n"));
    out.push_str(&format!("  \"drops\": {drops},\n"));
    out.push_str(&format!("  \"elapsed_s\": {elapsed_s:.3},\n"));
    out.push_str(&format!(
        "  \"records_per_sec\": {:.1},\n",
        records as f64 / elapsed_s.max(1e-9)
    ));
    out.push_str(&format!(
        "  \"latency_p50_ns\": {},\n",
        latency.quantile(0.5).as_nanos()
    ));
    out.push_str(&format!(
        "  \"latency_p99_ns\": {},\n",
        latency.quantile(0.99).as_nanos()
    ));
    out.push_str(&format!(
        "  \"latency_max_ns\": {},\n",
        latency.max().as_nanos()
    ));
    out.push_str("  \"per_shard\": [\n");
    for shard in 0..shards {
        let shard_results: Vec<&StreamResult<u64>> =
            results.iter().filter(|r| r.shard == shard).collect();
        let records: u64 = shard_results.iter().map(|r| r.records_in).sum();
        let mut hist = LatencyHistogram::new();
        for r in &shard_results {
            hist.merge(&r.latency);
        }
        out.push_str(&format!(
            "    {{\"shard\": {shard}, \"streams\": {}, \"records\": {records}, \
             \"p99_ns\": {}}}{}\n",
            shard_results.len(),
            hist.quantile(0.99).as_nanos(),
            if shard + 1 < shards { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[allow(clippy::too_many_arguments)]
fn render_net_json(
    preset: &str,
    shards: usize,
    producers: usize,
    batch: usize,
    policy: &str,
    simd_backend: &str,
    jump: usize,
    elapsed_s: f64,
    results: &[StreamResult<u64>],
    latency: &LatencyHistogram,
    net: &NetStats,
) -> String {
    let records: u64 = results.iter().map(|r| r.records_in).sum();
    let drops: u64 = results.iter().map(|r| r.drops).sum();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"class-net-throughput/v1\",\n");
    out.push_str(&format!("  \"preset\": \"{preset}\",\n"));
    out.push_str(&format!("  \"shards\": {shards},\n"));
    out.push_str(&format!("  \"producers\": {producers},\n"));
    out.push_str(&format!("  \"batch\": {batch},\n"));
    out.push_str("  \"mv_channels\": 0,\n");
    out.push_str(&format!("  \"jump\": {jump},\n"));
    out.push_str(&format!("  \"policy\": \"{policy}\",\n"));
    out.push_str(&format!("  \"simd_backend\": \"{simd_backend}\",\n"));
    out.push_str(&format!("  \"streams\": {},\n", results.len()));
    out.push_str(&format!("  \"records\": {records},\n"));
    out.push_str(&format!("  \"drops\": {drops},\n"));
    out.push_str(&format!("  \"connections\": {},\n", net.accepted));
    out.push_str(&format!("  \"frames\": {},\n", net.frames()));
    out.push_str(&format!(
        "  \"throttle_events\": {},\n",
        net.throttle_events()
    ));
    out.push_str(&format!(
        "  \"protocol_errors\": {},\n",
        net.protocol_errors()
    ));
    out.push_str(&format!("  \"elapsed_s\": {elapsed_s:.3},\n"));
    out.push_str(&format!(
        "  \"records_per_sec\": {:.1},\n",
        records as f64 / elapsed_s.max(1e-9)
    ));
    out.push_str(&format!(
        "  \"latency_p50_ns\": {},\n",
        latency.quantile(0.5).as_nanos()
    ));
    out.push_str(&format!(
        "  \"latency_p99_ns\": {},\n",
        latency.quantile(0.99).as_nanos()
    ));
    out.push_str(&format!(
        "  \"latency_max_ns\": {}\n",
        latency.max().as_nanos()
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let mut preset = &QUICK;
    let mut out_override: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut tolerance = 0.25;
    let mut socket = false;
    let mut producers = 8usize;
    let mut batch = 256usize;
    let mut floor_of: Option<String> = None;
    let mut floor_ratio = 0.5;
    let mut shards = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    let mut streams_override: Option<usize> = None;
    let mut ring = 256usize;
    let mut policy = Backpressure::Block;
    let mut seed = 0xC1A55u64;
    let mut mv_channels = 0usize;
    let mut jump: Option<usize> = None;
    let mut bundle_out: Option<String> = None;
    read_args(|flags| {
        while let Some(arg) = flags.next() {
            match arg.as_str() {
                "--preset" => preset = flags.one_of(&[("quick", &QUICK), ("full", &FULL)])?,
                "--shards" => shards = flags.parse()?,
                "--streams" => streams_override = Some(flags.parse()?),
                "--ring" => ring = flags.parse()?,
                "--policy" => {
                    policy = flags.one_of(&[
                        ("block", Backpressure::Block),
                        ("drop-oldest", Backpressure::DropOldest),
                    ])?
                }
                "--seed" => seed = flags.parse()?,
                "--jump" => jump = Some(flags.parse()?),
                "--mv-channels" => mv_channels = flags.parse()?,
                "--socket" => socket = true,
                "--producers" => producers = flags.parse()?,
                "--batch" => batch = flags.parse()?,
                "--floor-of" => floor_of = Some(flags.value()?),
                "--floor-ratio" => floor_ratio = flags.parse()?,
                "--out" => out_override = Some(flags.value()?),
                "--bundle-out" => bundle_out = Some(flags.value()?),
                "--check" => check_path = Some(flags.value()?),
                "--tolerance" => tolerance = flags.parse()?,
                "--help" | "-h" => {
                    eprintln!(
                        "options: --preset quick|full --shards N --streams N --ring N \
                         --policy block|drop-oldest --mv-channels C --jump N --seed N \
                         --out PATH --bundle-out PATH --check BASELINE.json --tolerance F \
                         --socket --producers N --batch N --floor-of BENCH_serve.json --floor-ratio F"
                    );
                    std::process::exit(0);
                }
                _ => return Err(flags.unknown()),
            }
        }
        // The interleaved multi-channel transport requires the lossless
        // policy: evicting individual scalar records would desynchronize
        // frame reassembly and the run would measure a scrambled workload.
        // The wire protocol carries scalar f64 streams; the interleaved
        // multivariate transport is an in-process concern.
        let conflict = if mv_channels > 0 && policy != Backpressure::Block {
            "--mv-channels requires --policy block (drop-oldest would evict \
             individual channel records and desynchronize frames)"
        } else if socket && mv_channels > 0 {
            "--socket does not support --mv-channels (the ingestion protocol \
             carries scalar streams)"
        } else if socket && producers == 0 {
            "--producers must be at least 1 in --socket mode"
        } else if floor_of.is_some() && !socket {
            "--floor-of only applies to --socket mode (it floors the wire \
             path against the in-process figure)"
        } else {
            return Ok(());
        };
        Err(conflict.into())
    });
    let out_path = out_override.unwrap_or_else(|| {
        if socket {
            "BENCH_net.json".to_string()
        } else {
            "BENCH_serve.json".to_string()
        }
    });
    let baseline = check_path.as_ref().map(|p| {
        std::fs::read_to_string(p).unwrap_or_else(|e| panic!("reading baseline {p}: {e}"))
    });
    let floor_doc = floor_of.as_ref().map(|p| {
        std::fs::read_to_string(p).unwrap_or_else(|e| panic!("reading floor document {p}: {e}"))
    });

    let n_streams = streams_override.unwrap_or(preset.streams);
    let backend = class_core::simd::active_backend().name();
    let policy_name = match policy {
        Backpressure::Block => "block",
        Backpressure::DropOldest => "drop-oldest",
        Backpressure::Error => unreachable!(),
    };
    let window = preset.window;
    let width = preset.width;
    let base_cfg = move || {
        let mut cfg = ClassConfig::with_window_size(window);
        cfg.width = WidthSelection::Fixed(width);
        cfg.warmup = Some(window);
        cfg.log10_alpha = -15.0;
        if let Some(j) = jump {
            cfg.jump = j;
        }
        cfg
    };
    let jump_eff = base_cfg().jump;
    eprintln!(
        "serve_throughput: preset={} streams={n_streams} points/stream={} shards={shards} \
         ring={ring} policy={policy_name} mv_channels={mv_channels} jump={jump_eff} \
         simd_backend={backend}{}",
        preset.name,
        preset.points,
        if socket {
            format!(" socket(producers={producers} batch={batch})")
        } else {
            String::new()
        }
    );

    // Per-stream record sequences: the plain series for the univariate
    // workload, or `mv_channels` decorrelated channels interleaved
    // frame-major (the serving engine's multi-channel transport) for the
    // sensor-fusion workload.
    let data: Vec<Vec<f64>> = if mv_channels == 0 {
        (0..n_streams)
            .map(|k| stream_values(preset, k, seed))
            .collect()
    } else {
        (0..n_streams)
            .map(|k| {
                let channels: Vec<Vec<f64>> = (0..mv_channels)
                    .map(|c| stream_values(preset, k, seed ^ ((c as u64 + 1) << 32)))
                    .collect();
                MultiChannelReplaySource::new(channels).interleaved()
            })
            .collect()
    };
    let config = EngineConfig {
        shards,
        ring: RingConfig::new(ring, policy),
    };
    let started = std::time::Instant::now();
    let (results, live, net) = if socket {
        let ring_cfg = RingConfig::new(ring, policy);
        let (results, (acked, net)) = serve(config, |engine| {
            let server = IngestServer::bind("127.0.0.1:0", engine.registrar(), move |_req| {
                SegmenterOperator::new(ClassSegmenter::new(base_cfg()))
            })
            .expect("binding a loopback ingest listener");
            let addr = server.addr();
            let mut threads = Vec::new();
            for p in 0..producers {
                let chunk: Vec<(usize, Vec<f64>)> = data
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| k % producers == p)
                    .map(|(k, v)| (k, v.clone()))
                    .collect();
                threads.push(std::thread::spawn(move || {
                    let mut client = NetClient::connect(addr, &format!("bench-producer-{p}"))
                        .expect("producer connects");
                    let streams: Vec<(u32, Vec<f64>)> = chunk
                        .into_iter()
                        .map(|(k, values)| {
                            let id = client
                                .register(&format!("net-{k}"), Some(ring_cfg))
                                .expect("producer registers");
                            (id, values)
                        })
                        .collect();
                    // One RECORDS frame in flight per stream per round:
                    // sends pipeline across this producer's streams, then
                    // the round's acks are collected together.
                    let mut cursors = vec![0usize; streams.len()];
                    loop {
                        let mut inflight = 0usize;
                        for (i, (id, values)) in streams.iter().enumerate() {
                            if cursors[i] >= values.len() {
                                continue;
                            }
                            let end = (cursors[i] + batch).min(values.len());
                            client
                                .send_records_nowait(*id, &values[cursors[i]..end])
                                .expect("producer sends");
                            cursors[i] = end;
                            inflight += 1;
                        }
                        if inflight == 0 {
                            break;
                        }
                        for _ in 0..inflight {
                            client.recv_ack().expect("producer collects acks");
                        }
                    }
                    let mut acked = 0u64;
                    for (id, _) in &streams {
                        acked += client.detach(*id).expect("producer detaches").received;
                    }
                    acked
                }));
            }
            let acked: u64 = threads
                .into_iter()
                .map(|t| t.join().expect("producer thread completes"))
                .sum();
            let net = server.net_stats().stats();
            drop(server); // releases the registrar before the body returns
            (acked, net)
        });
        if matches!(policy, Backpressure::Block) {
            let total: u64 = data.iter().map(|v| v.len() as u64).sum();
            assert_eq!(
                acked, total,
                "block policy delivers every record over the wire"
            );
        }
        let live = results.len();
        (results, live, Some(net))
    } else if mv_channels == 0 {
        let (results, live) = serve(config, |engine| {
            let handles: Vec<_> = (0..n_streams)
                .map(|_| {
                    engine.register(move || SegmenterOperator::new(ClassSegmenter::new(base_cfg())))
                })
                .collect();
            // All streams are registered and live before the first record
            // is fed: the engine is serving `n_streams` concurrent
            // streams on `shards` worker threads from here on.
            let live = engine.stats().active_streams();
            let slices: Vec<&[f64]> = data.iter().map(|v| v.as_slice()).collect();
            feed_all(handles, &slices).expect("load generator feed completes");
            live
        });
        (results, live, None)
    } else {
        let (results, live) = serve(config, |engine| {
            let handles: Vec<_> = (0..n_streams)
                .map(|_| {
                    engine.register(move || {
                        MultivariateSegmenterOperator::new(MultivariateClass::new(
                            MultivariateConfig::new(base_cfg(), mv_channels),
                            mv_channels,
                        ))
                    })
                })
                .collect();
            let live = engine.stats().active_streams();
            let slices: Vec<&[f64]> = data.iter().map(|v| v.as_slice()).collect();
            feed_all(handles, &slices).expect("load generator feed completes");
            live
        });
        (results, live, None)
    };
    let elapsed = started.elapsed().as_secs_f64();
    assert_eq!(live, n_streams, "every stream live before feeding");

    let mut latency = LatencyHistogram::new();
    let mut cps = 0usize;
    for r in &results {
        latency.merge(&r.latency);
        cps += r.output.len();
    }
    let records: u64 = results.iter().map(|r| r.records_in).sum();
    let drops: u64 = results.iter().map(|r| r.drops).sum();
    let rps = records as f64 / elapsed.max(1e-9);

    let json = match &net {
        Some(net) => render_net_json(
            preset.name,
            shards,
            producers,
            batch,
            policy_name,
            backend,
            jump_eff,
            elapsed,
            &results,
            &latency,
            net,
        ),
        None => render_serve_json(
            preset.name,
            shards,
            policy_name,
            backend,
            mv_channels,
            jump_eff,
            elapsed,
            &results,
            &latency,
        ),
    };
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));

    if let Some(path) = &bundle_out {
        let mut bundle = RunBundle::new(if socket {
            "net-throughput"
        } else {
            "serve-throughput"
        })
        .with_seed(seed);
        if socket {
            bundle.config("producers", producers);
            bundle.config("batch", batch);
        }
        bundle.config("preset", preset.name);
        bundle.config("shards", shards);
        bundle.config("streams", n_streams);
        bundle.config("points_per_stream", preset.points);
        bundle.config("ring", ring);
        bundle.config("policy", policy_name);
        bundle.config("mv_channels", mv_channels);
        bundle.config("jump", jump_eff);
        bundle.metric("records", records as f64);
        bundle.metric("drops", drops as f64);
        bundle.metric("change_points", cps as f64);
        bundle.metric("elapsed_s", elapsed);
        bundle.metric("records_per_sec", rps);
        bundle.metric("latency_p50_ns", latency.quantile(0.5).as_nanos() as f64);
        bundle.metric("latency_p99_ns", latency.quantile(0.99).as_nanos() as f64);
        bundle
            .write(path)
            .unwrap_or_else(|e| panic!("writing bundle {path}: {e}"));
        eprintln!("serve_throughput: bundle at {path}");
    }

    println!(
        "# serving engine throughput ({} preset{})",
        preset.name,
        if socket { ", wire path" } else { "" }
    );
    println!("concurrent streams:  {live} (on {shards} shard workers)");
    println!("records served:      {records} ({drops} dropped)");
    if let Some(net) = &net {
        println!(
            "wire path:           {} producers, {} frames, {} throttle events, {} protocol errors",
            net.accepted,
            net.frames(),
            net.throttle_events(),
            net.protocol_errors()
        );
    }
    println!("change points out:   {cps}");
    println!("wall time:           {elapsed:.3} s");
    println!("aggregate rate:      {rps:.0} records/s");
    println!(
        "operator latency:    p50 {:?}, p99 {:?}, max {:?}",
        latency.quantile(0.5),
        latency.quantile(0.99),
        latency.max()
    );
    eprintln!("wrote {out_path}");

    // Wire-path floor: the socket tier must deliver at least
    // `--floor-ratio` of the in-process feed's records/sec. Measured
    // against a fresh in-process document from the same machine, so it
    // gates the ingestion tier's overhead, not the hardware.
    if let Some(floor) = floor_doc {
        let floor_path = floor_of.as_deref().unwrap_or("");
        let floor_backend = json_string(&floor, "simd_backend").unwrap_or_default();
        if floor_backend != backend {
            eprintln!(
                "floor check SKIPPED: floor document backend {floor_backend:?} != fresh backend \
                 {backend:?}; records/sec are not comparable across kernel backends"
            );
        } else {
            let floor_preset = json_string(&floor, "preset").unwrap_or_default();
            assert_eq!(
                floor_preset, preset.name,
                "floor preset mismatch: cannot floor {} against {floor_preset}",
                preset.name
            );
            let floor_policy = json_string(&floor, "policy").unwrap_or_default();
            assert_eq!(
                floor_policy, policy_name,
                "floor backpressure policy mismatch: cannot floor {policy_name} vs {floor_policy}",
            );
            let floor_shards = json_number(&floor, "shards").unwrap_or(0.0) as usize;
            assert_eq!(
                floor_shards, shards,
                "floor shard-count mismatch: cannot floor {shards} vs {floor_shards}",
            );
            let floor_jump = json_number(&floor, "jump").unwrap_or(1.0) as usize;
            assert_eq!(
                floor_jump, jump_eff,
                "floor jump-cadence mismatch: cannot floor jump={jump_eff} vs jump={floor_jump}",
            );
            let floor_rps =
                json_number(&floor, "records_per_sec").expect("floor document records_per_sec");
            let need = floor_ratio * floor_rps;
            let ok = rps >= need;
            eprintln!(
                "floor check vs {floor_path}: in-process {floor_rps:.0} rec/s x {floor_ratio} = \
                 {need:.0} rec/s required, wire {rps:.0} rec/s  {}",
                if ok { "ok" } else { "BELOW FLOOR" }
            );
            if !ok {
                eprintln!(
                    "wire-path throughput fell below {:.0}% of the in-process feed",
                    floor_ratio * 100.0
                );
                std::process::exit(1);
            }
        }
    }

    if let Some(baseline) = baseline {
        // Operator cost (and therefore records/sec) depends on the
        // kernel backend; a scalar-vs-AVX2 comparison measures the
        // hardware, not the PR. Skip loudly rather than fail, matching
        // perf_trajectory's gate. (Pre-backend baselines skip too.)
        let base_backend = json_string(&baseline, "simd_backend").unwrap_or_default();
        if base_backend != backend {
            eprintln!(
                "regression check SKIPPED: baseline backend {base_backend:?} != fresh backend \
                 {backend:?}; records/sec are not comparable across kernel backends \
                 (re-commit {} from matching hardware to re-arm the gate)",
                check_path.as_deref().unwrap_or("")
            );
            return;
        }
        // A socket baseline measures the wire path, an in-process one
        // the direct feed; never gate one mode against the other.
        let want_schema = if socket {
            "class-net-throughput/v1"
        } else {
            "class-serve-throughput/v1"
        };
        let base_schema = json_string(&baseline, "schema").unwrap_or_default();
        assert_eq!(
            base_schema, want_schema,
            "baseline schema mismatch: cannot gate {want_schema} against {base_schema}",
        );
        if socket {
            let base_producers = json_number(&baseline, "producers").unwrap_or(0.0) as usize;
            assert_eq!(
                base_producers, producers,
                "baseline producer-count mismatch: cannot compare {base_producers} vs {producers}",
            );
            let base_batch = json_number(&baseline, "batch").unwrap_or(0.0) as usize;
            assert_eq!(
                base_batch, batch,
                "baseline batch-size mismatch: cannot compare {base_batch} vs {batch}",
            );
        }
        let base_preset = json_string(&baseline, "preset").unwrap_or_default();
        assert_eq!(
            base_preset, preset.name,
            "baseline preset mismatch: cannot compare {base_preset} vs {}",
            preset.name
        );
        // A lossy-policy baseline inflates records/sec; refuse to gate
        // one configuration against a document measuring another.
        let base_policy = json_string(&baseline, "policy").unwrap_or_default();
        assert_eq!(
            base_policy, policy_name,
            "baseline backpressure policy mismatch: cannot compare {base_policy} vs {policy_name}",
        );
        // Records/sec scales with the worker count, so a baseline from a
        // different --shards is not comparable either (CI pins --shards).
        let base_shards = json_number(&baseline, "shards").unwrap_or(0.0) as usize;
        assert_eq!(
            base_shards, shards,
            "baseline shard-count mismatch: cannot compare {base_shards} vs {shards} \
             (pass --shards {base_shards} to match the baseline)",
        );
        // The multivariate operator costs ~channels x a univariate step;
        // the two workloads are different experiments. (Pre-multivariate
        // baselines carry no `mv_channels` key and count as 0.)
        let base_mv = json_number(&baseline, "mv_channels").unwrap_or(0.0) as usize;
        assert_eq!(
            base_mv, mv_channels,
            "baseline mv-channel mismatch: cannot compare {base_mv} vs {mv_channels}",
        );
        // Evaluation cadence changes the per-record operator cost. A
        // pre-jump baseline carries no `jump` key: it measured the old
        // per-point behaviour, i.e. jump = 1.
        let base_jump = json_number(&baseline, "jump").unwrap_or(1.0) as usize;
        assert_eq!(
            base_jump, jump_eff,
            "baseline jump-cadence mismatch: cannot compare jump={base_jump} vs jump={jump_eff} \
             (pass --jump {base_jump} to match the baseline)",
        );
        let base_rps = json_number(&baseline, "records_per_sec").expect("baseline records_per_sec");
        let pairs = vec![("records_per_sec".to_string(), base_rps, rps)];
        let verdicts = regressions(&pairs, false, tolerance);
        let (_, base, fresh, regressed) = &verdicts[0];
        eprintln!(
            "regression check vs {}: baseline {base:.0} rec/s, fresh {fresh:.0} rec/s  {}",
            check_path.as_deref().unwrap_or(""),
            if *regressed { "REGRESSED" } else { "ok" }
        );
        if *regressed {
            eprintln!(
                "serving throughput regression beyond {:.0}%",
                tolerance * 100.0
            );
            std::process::exit(1);
        }
    }
}
