//! perfbench — the repository's benchmark: end-to-end metrics of three
//! workloads on the ClaSS serving stack and, in a traced run, per-layer
//! unit costs and counts with a ledger that reconciles them against the
//! segmenter's wall time. See `perfbench/README.md`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-default --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     compare perfbench/out/A.json perfbench/out/B.json
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! give provenance and every metric with its unit. The exit code is 1
//! when an output check fails, 2 on bad arguments, 3 when an open-loop
//! run is invalid because its generator fell behind in too many rounds.

mod check;
mod inputs;
mod layers;
mod probe;
mod report;
mod shadow;
mod workload;

use inputs::Shape;
use report::{median, Dist, Metrics};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Loop, Run};

/// Worker shards of every workload (sized for a 2-core machine).
const SHARDS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// `wire-fleet`: producer connections and records per RECORDS frame.
const WIRE_CONNS: usize = 2;
const WIRE_BATCH: usize = 256;
/// `paced-latency`: streams and aggregate offered rate (records/s).
const PACED_STREAMS: usize = 16;
const PACED_RATE: f64 = 20_000.0;
/// An open-loop round whose generator ran later than this is invalid
/// and repeated; a run with more than MAX_INVALID_ROUNDS of them fails.
const LAG_LIMIT_MS: f64 = 50.0;
const MAX_INVALID_ROUNDS: u32 = 3;
/// Frames of the loopback round-trip probe for in-process workloads.
const WIRE_PROBE_FRAMES: usize = 2_000;
/// Each variant of the ledger's stream-0 runs repeats until about this
/// much time (ns) has been measured.
const LEDGER_MIN_NS: u64 = 300_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperDefault,
    WireFleet,
    PacedLatency,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "paper-default" => Some(Workload::PaperDefault),
            "wire-fleet" => Some(Workload::WireFleet),
            "paced-latency" => Some(Workload::PacedLatency),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PaperDefault => "paper-default",
            Workload::WireFleet => "wire-fleet",
            Workload::PacedLatency => "paced-latency",
        }
    }

    /// The workload's shape for a run of `seconds`: the amount of work
    /// is a fixed function of `seconds`, never of measured speed. A
    /// closed-loop round is about 4 s of work on a 2-core machine; longer
    /// runs add rounds rather than lengthen them.
    fn shape(self, seconds: u64) -> Shape {
        let s = seconds.max(1) as usize;
        match self {
            // 2 streams pinned per shard, 30k points each.
            Workload::PaperDefault => Shape::paper(2 * SHARDS, 30_000),
            Workload::WireFleet => Shape::small(128, 8_000),
            Workload::PacedLatency => Shape::small(
                PACED_STREAMS,
                PACED_RATE as usize * s / PACED_STREAMS / self.rounds(seconds) as usize,
            ),
        }
    }

    /// Rounds per run: at least 3, and one per 4 s of a closed-loop run.
    /// Each round runs fresh inputs on a fresh engine. Gated timing
    /// metrics pool the rounds (means over rounds): a shared host that
    /// switches between a fast and a slow phase every few seconds moves a
    /// mean smoothly with the share of each phase, where a median of a
    /// few rounds jumps between the two.
    fn rounds(self, seconds: u64) -> u64 {
        match self {
            Workload::PaperDefault | Workload::WireFleet => (seconds / 4).max(3),
            Workload::PacedLatency => 5,
        }
    }

    fn run(self, shape: &Shape, seed: u64, round: u64, drive: bool) -> Run {
        match self {
            Workload::PaperDefault => {
                workload::in_process(shape, seed, round, SHARDS, Loop::Closed, drive)
            }
            Workload::WireFleet => {
                workload::closed_wire(shape, seed, round, SHARDS, WIRE_CONNS, WIRE_BATCH, drive)
            }
            Workload::PacedLatency => {
                let lp = Loop::Open { rate: PACED_RATE };
                workload::in_process(shape, seed, round, SHARDS, lp, drive)
            }
        }
    }

    /// Records per hand-off from the generator (frame or feed chunk).
    fn batch(self) -> usize {
        match self {
            Workload::WireFleet => WIRE_BATCH,
            Workload::PaperDefault => workload::FEED_CHUNK,
            Workload::PacedLatency => 1,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Where results and spans are written: `perfbench/out/`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `git describe` of the checkout, without looking above it; "unknown"
/// outside a git work tree.
fn git_describe() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let ceiling = root.join("..");
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(&root)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Provenance that decides whether two results are comparable.
fn provenance(args: &Args) -> Vec<(&'static str, String)> {
    vec![
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc().to_string()),
        ("shards", SHARDS.to_string()),
        (
            "simd_backend",
            class_core::simd::active_backend().name().to_string(),
        ),
        ("git_describe", git_describe()),
    ]
}

/// The outcome of the output checks.
struct Verdict {
    failed: u64,
    notes: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, count: u64, note: String) {
        self.failed += count.max(1);
        self.notes.push(note);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper-default|wire-fleet|paced-latency \
                 --seed N --seconds S --trace 0|1\n       perfbench compare A.json B.json"
            );
            return ExitCode::from(2);
        }
    };
    let shape = args.workload.shape(args.seconds);
    let mut verdict = Verdict {
        failed: 0,
        notes: Vec::new(),
    };
    let mut quality = check::Quality::default();
    let (mut rounds, mut setups, mut attempted) = (Vec::new(), Vec::new(), 0u64);
    let (mut ref_records, mut ref_ns) = (0u64, 0u64);
    let mut ledger_stream = None;
    let (mut r, mut invalid_rounds) = (0, 0);
    while r < args.workload.rounds(args.seconds) {
        let run = args.workload.run(&shape, args.seed, r, true);
        setups.push(run.setup_ns as f64 / 1e9);
        attempted += run.attempted;
        // Checks, outside the timed window.
        let refs = check::references(&shape.config, &run.series, SHARDS);
        let lag_ms = run.lag_max_ns as f64 / 1e6;
        if args.workload == Workload::PacedLatency && lag_ms > LAG_LIMIT_MS {
            // Not an open loop any more: check the outputs, discard the
            // timings, repeat the round on the same inputs.
            check_round(
                &run,
                &refs,
                shape.tolerance,
                &mut verdict,
                &mut check::Quality::default(),
            );
            invalid_rounds += 1;
            eprintln!("perfbench: round {r} invalid: the generator ran {lag_ms:.3} ms late");
            if invalid_rounds > MAX_INVALID_ROUNDS {
                eprintln!(
                    "perfbench: invalid run: {invalid_rounds} rounds ran more than \
                     {LAG_LIMIT_MS} ms behind schedule"
                );
                return ExitCode::from(3);
            }
            continue;
        }
        check_round(&run, &refs, shape.tolerance, &mut verdict, &mut quality);
        ref_records += run.attempted;
        ref_ns += refs.iter().map(|x| x.wall_ns).sum::<u64>();
        rounds.push(Round::measure(&run));
        if ledger_stream.is_none() {
            ledger_stream = Some((run.series[0].values.clone(), refs[0].clone()));
        }
        r += 1;
    }
    while setups.len() < SETUP_REPS {
        let r = setups.len() as u64;
        setups.push(args.workload.run(&shape, args.seed, r, false).setup_ns as f64 / 1e9);
    }
    let med = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let mean = |f: fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>() / rounds.len() as f64;
    let mut info = vec![
        format!(
            "{} rounds; per round {} streams x {} points; gated timing metrics are \
             means over rounds (throughput: all records over all wall time), the rest medians",
            rounds.len(),
            shape.streams,
            shape.points
        ),
        format!(
            "per-round throughput (1/s): {:?}; generator lag max (ms): {:?}",
            rounds
                .iter()
                .map(|r| r.throughput.round())
                .collect::<Vec<_>>(),
            rounds
                .iter()
                .map(|r| (r.lag_max_ns / 1e4).round() / 100.0)
                .collect::<Vec<_>>()
        ),
        format!(
            "samples per round: {} latencies and steps; single worst latency {:.3} ms, \
             single worst step {:.3} ms (over all rounds)",
            rounds[0].samples,
            rounds
                .iter()
                .map(|r| r.single_worst_latency)
                .fold(0.0, f64::max)
                / 1e6,
            rounds
                .iter()
                .map(|r| r.single_worst_step)
                .fold(0.0, f64::max)
                / 1e6
        ),
        format!(
            "quality: {} planted change points, {} detected, {} false alarms, mean signed \
             location error {:.1} points",
            quality.true_pos + quality.false_neg,
            quality.true_pos,
            quality.false_pos,
            quality.loc_bias()
        ),
        format!(
            "error_rate: {} failed of {attempted} attempted = {}",
            verdict.failed,
            verdict.failed as f64 / attempted.max(1) as f64
        ),
    ];

    // Printed, but with no bound: on a shared VM the latency tail beyond
    // p95 and the worst steps swing by 20-80% between identical runs
    // (timer and scheduler delays), and the step median of the d=10k
    // operator jumps between the machine's fast and slow phases.
    let mut ungated = Metrics::default();
    ungated.put("ungated.latency_p99_us", med(|r| r.latency_p99) / 1e3, "us");
    ungated.put(
        "ungated.latency_max_ms",
        med(|r| r.latency_worst) / 1e6,
        "ms",
    );
    ungated.put("ungated.step_p50_us", med(|r| r.step_p50) / 1e3, "us");
    ungated.put("ungated.step_max_ms", med(|r| r.step_worst) / 1e6, "ms");
    let mut m = Metrics::default();
    if !args.trace {
        m.put(
            "throughput_rps",
            mean(|r| r.processed) / mean(|r| r.wall_s),
            "1/s",
        );
        m.put("latency_p50_us", mean(|r| r.latency_p50) / 1e3, "us");
        m.put("latency_p95_us", mean(|r| r.latency_p95) / 1e3, "us");
        m.put("step_mean_us", mean(|r| r.step_mean) / 1e3, "us");
        m.put("step_p99_us", mean(|r| r.step_p99) / 1e3, "us");
        m.put("covering", quality.covering(), "ratio");
        m.put("cp_f1", quality.f1(), "ratio");
        m.put(
            "detect_delay_p50",
            Dist::new(quality.delays.clone()).q(0.5),
            "points",
        );
        m.put("cp_loc_err_mean", quality.loc_err_mean(), "points");
        m.put("setup_s", median(&setups), "s");
        m.put("peak_rss_mb", med(|r| r.peak_rss_kb) / 1024.0, "MB");
        for (name, value, unit) in ungated.items() {
            info.push(format!("not gated: {name} = {value} {unit}"));
        }
    } else {
        let (xs, reference) = ledger_stream.expect("at least one round");
        ledger(
            &args,
            &shape.config,
            &xs,
            &reference,
            &mut m,
            &mut verdict,
            &mut info,
        );
        layer_metrics(&args, &xs, &rounds, &mut m, &mut verdict);
        for &(name, value, unit) in ungated.items() {
            m.put(name, value, unit);
        }
        m.put(
            "class.single_thread_rps",
            ref_records as f64 / (ref_ns as f64 / 1e9),
            "1/s",
        );
    }

    for (name, value, _) in m.items() {
        if !value.is_finite() {
            verdict.fail(1, format!("metric {name} is not finite"));
        }
    }
    let correct = verdict.failed == 0;
    let prov = provenance(&args);
    for (k, v) in &prov {
        println!("# {k} = {v}");
    }
    for line in &info {
        println!("# {line}");
    }
    for note in &verdict.notes {
        println!("# FAILED: {note}");
    }
    for (name, value, unit) in m.items() {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    write_result(&args, &prov, &m, correct);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        verdict.failed,
        m.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Checks one round's outputs and accounting and scores its quality.
fn check_round(
    run: &Run,
    refs: &[check::Reference],
    tolerance: u64,
    verdict: &mut Verdict,
    quality: &mut check::Quality,
) {
    for e in &run.errors {
        verdict.fail(1, e.clone());
    }
    let processed: u64 = run.results.iter().map(|r| r.records_in).sum();
    if processed < run.attempted {
        let lost = run.attempted - processed;
        verdict.fail(
            lost,
            format!("{lost} of {} records never processed", run.attempted),
        );
    }
    for r in run
        .results
        .iter()
        .filter(|r| r.is_quarantined() || r.drops > 0)
    {
        verdict.fail(
            r.drops + r.quarantined_after,
            format!(
                "engine stream {} ended {:?} with {} drops",
                r.stream, r.state, r.drops
            ),
        );
    }
    if let Some(w) = run.wire.as_ref().filter(|w| w.protocol_errors > 0) {
        verdict.fail(
            w.protocol_errors,
            format!("{} protocol errors", w.protocol_errors),
        );
    }
    if run.unacked > 0 {
        verdict.fail(
            run.unacked,
            format!("{} records sent but not acked", run.unacked),
        );
    }
    for (k, s) in run.series.iter().enumerate() {
        match run.samples.get(k).and_then(Option::as_ref) {
            Some(samples) if samples.outputs == refs[k].outputs => {
                quality.add(s, &samples.outputs, tolerance)
            }
            Some(samples) => verdict.fail(
                s.len() as u64,
                format!(
                    "{}: engine change points {:?} != reference {:?}",
                    s.name, samples.outputs, refs[k].outputs
                ),
            ),
            None => verdict.fail(
                s.len() as u64,
                format!("{}: operator never flushed", s.name),
            ),
        }
    }
}

/// One round reduced to numbers (times in ns); its samples are dropped.
struct Round {
    throughput: f64,
    processed: f64,
    wall_s: f64,
    samples: usize,
    latency_p50: f64,
    latency_p95: f64,
    latency_p99: f64,
    /// The worst a typical stream sees: the median over streams of each
    /// stream's maximum, so one preempted call does not set it.
    latency_worst: f64,
    step_p50: f64,
    step_p99: f64,
    step_worst: f64,
    step_mean: f64,
    single_worst_latency: f64,
    single_worst_step: f64,
    wait_p50: f64,
    wait_p99: f64,
    busy_share: f64,
    scrape_p50: f64,
    to_ack: Option<(f64, f64)>,
    lag_max_ns: f64,
    peak_rss_kb: f64,
    feed: workload::Feed,
    wire: workload::Wire,
}

impl Round {
    fn measure(run: &Run) -> Round {
        let streams: Vec<&probe::Samples> = run.samples.iter().flatten().collect();
        let all = |f: fn(&probe::Samples) -> &Vec<u32>| {
            Dist::new(
                streams
                    .iter()
                    .flat_map(|s| f(s).iter().map(|&v| v as f64))
                    .collect(),
            )
        };
        let worst = |f: fn(&probe::Samples) -> &Vec<u32>| {
            median(
                &streams
                    .iter()
                    .map(|s| f(s).iter().copied().max().unwrap_or(0) as f64)
                    .collect::<Vec<_>>(),
            )
        };
        let latency = all(|s| &s.latencies);
        let steps = all(|s| &s.steps);
        let waits = Dist::new(
            streams
                .iter()
                .flat_map(|s| {
                    s.latencies
                        .iter()
                        .zip(&s.steps)
                        .map(|(&l, &st)| l.saturating_sub(st) as f64)
                })
                .collect(),
        );
        let wall_s = run.wall_ns as f64 / 1e9;
        let processed: u64 = run.results.iter().map(|r| r.records_in).sum();
        let busy: f64 = run.results.iter().map(|r| r.busy.as_secs_f64()).sum();
        let wire = run.wire.clone().unwrap_or_default();
        Round {
            throughput: processed as f64 / wall_s,
            processed: processed as f64,
            wall_s,
            samples: latency.len(),
            latency_p50: latency.q(0.5),
            latency_p95: latency.q(0.95),
            latency_p99: latency.q(0.99),
            latency_worst: worst(|s| &s.latencies),
            step_p50: steps.q(0.5),
            step_p99: steps.q(0.99),
            step_worst: worst(|s| &s.steps),
            step_mean: steps.mean(),
            single_worst_latency: latency.max(),
            single_worst_step: steps.max(),
            wait_p50: waits.q(0.5),
            wait_p99: waits.q(0.99),
            busy_share: busy / (SHARDS as f64 * wall_s),
            scrape_p50: Dist::from_ns(run.scrape_ns.iter().copied()).q(0.5),
            to_ack: run.wire.as_ref().map(|w| {
                let d = Dist::from_ns(w.send_to_ack_ns.iter().copied());
                (d.q(0.5), d.q(0.99))
            }),
            lag_max_ns: run.lag_max_ns as f64,
            peak_rss_kb: run.peak_rss_kb as f64,
            feed: run.feed,
            wire,
        }
    }
}

/// The ledger of the traced run: the segmenter alone on one stream (the
/// base), and the untraced and traced re-drives of the same stream,
/// interleaved and repeated until each has run for about LEDGER_MIN_NS.
fn ledger(
    args: &Args,
    cfg: &class_core::ClassConfig,
    xs: &[f64],
    reference: &check::Reference,
    m: &mut Metrics,
    verdict: &mut Verdict,
    info: &mut Vec<String>,
) {
    let want: Vec<u64> = reference.outputs.iter().map(|&(_, cp)| cp).collect();
    let reps = (LEDGER_MIN_NS / reference.wall_ns.max(1)).clamp(1, 50) as usize;
    let (mut bases, mut plains, mut traceds, mut explained) = (vec![], vec![], vec![], vec![]);
    let mut traced = None;
    for _ in 0..reps {
        bases.push(check::reference(cfg, xs).wall_ns as f64);
        let plain = shadow::redrive(cfg, xs, false);
        let t = shadow::redrive(cfg, xs, true);
        for (label, r) in [("untraced", &plain), ("traced", &t)] {
            if r.cps != want {
                verdict.fail(
                    1,
                    format!(
                        "{label} re-drive change points {:?} != segmenter {want:?}",
                        r.cps
                    ),
                );
            }
        }
        plains.push(plain.wall_ns as f64);
        traceds.push(t.wall_ns as f64);
        explained.push(t.tracer.explained_ns() as f64);
        traced = Some(t);
    }
    let traced = traced.expect("at least one re-drive");
    let totals = traced.tracer.totals();
    let unit = |layer: shadow::Layer, scale: f64| {
        let i = shadow::LAYERS
            .iter()
            .position(|&l| l == layer)
            .expect("known layer");
        totals[i].1 as f64 / totals[i].0.max(1) as f64 / scale
    };
    let c = traced.counts;
    let (wss_ms, replay_ms) = if c.wss_calls > 0 {
        (
            unit(shadow::Layer::Wss, 1e6),
            unit(shadow::Layer::Replay, 1e6),
        )
    } else {
        let (w, r) = shadow::learn_unit_costs(cfg, xs);
        (w as f64 / 1e6, r as f64 / 1e6)
    };
    let (explained, base_ns) = (median(&explained), median(&bases));
    info.push(format!(
        "ledger: {:.3} ms explained by {} spans against {:.3} ms segmenter wall on one \
         stream (medians of {reps})",
        explained / 1e6,
        traced.tracer.spans.len(),
        base_ns / 1e6
    ));
    let spans_path = out_dir().join(format!("spans-{}-s{}.tsv", args.workload.name(), args.seed));
    match traced.tracer.write(&spans_path) {
        Ok(()) => info.push(format!("spans written to {}", spans_path.display())),
        Err(e) => info.push(format!("spans not written: {e}")),
    }
    m.put("knn.update_ns", unit(shadow::Layer::Knn, 1.0), "ns");
    m.put("knn.updates", c.knn_updates as f64, "count");
    m.put(
        "crossval.compute_us",
        unit(shadow::Layer::CrossVal, 1e3),
        "us",
    );
    m.put("crossval.computes", c.computes as f64, "count");
    m.put("crossval.cold_rebuilds", c.cold_rebuilds as f64, "count");
    m.put("class.argmax_us", unit(shadow::Layer::Argmax, 1e3), "us");
    m.put(
        "stats.significance_us",
        unit(shadow::Layer::Stats, 1e3),
        "us",
    );
    m.put("stats.tests", c.tests as f64, "count");
    m.put(
        "stats.significant_ratio",
        c.significant as f64 / c.tests.max(1) as f64,
        "ratio",
    );
    m.put("wss.select_width_ms", wss_ms, "ms");
    m.put("wss.calls", c.wss_calls as f64, "count");
    m.put("class.warmup_replay_ms", replay_ms, "ms");
    m.put(
        "ledger.residual_pct",
        (base_ns - explained) / base_ns * 100.0,
        "%",
    );
    m.put("ledger.base_ms", base_ns / 1e6, "ms");
    m.put(
        "tracing.overhead_pct",
        (median(&traceds) - median(&plains)) / median(&plains) * 100.0,
        "%",
    );
}

/// Per-layer metrics of the serving stack: counts summed over rounds,
/// times as medians over rounds.
fn layer_metrics(
    args: &Args,
    xs: &[f64],
    rounds: &[Round],
    m: &mut Metrics,
    verdict: &mut Verdict,
) {
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>() as f64;
    let (to_ack_p50, to_ack_p99) = if rounds.iter().all(|r| r.to_ack.is_some()) {
        (
            med(&|r| r.to_ack.map_or(0.0, |t| t.0)),
            med(&|r| r.to_ack.map_or(0.0, |t| t.1)),
        )
    } else {
        let probe = layers::wire_round_trips(xs, 64, WIRE_PROBE_FRAMES).unwrap_or_else(|e| {
            verdict.fail(1, format!("loopback round-trip probe: {e}"));
            Vec::new()
        });
        let d = Dist::from_ns(probe);
        (d.q(0.5), d.q(0.99))
    };
    let records_frames = sum(&|r| r.wire.records_frames);
    let throttles = sum(&|r| r.wire.throttle_events);
    m.put("net.frames", sum(&|r| r.wire.frames), "count");
    m.put("net.throttle_events", throttles, "count");
    m.put(
        "net.throttle_ratio",
        throttles / records_frames.max(1.0),
        "ratio",
    );
    m.put(
        "net.protocol_errors",
        sum(&|r| r.wire.protocol_errors),
        "count",
    );
    m.put("net.send_to_ack_us_p50", to_ack_p50 / 1e3, "us");
    m.put("net.send_to_ack_us_p99", to_ack_p99 / 1e3, "us");
    m.put(
        "net.codec_ns_per_record",
        layers::codec_ns_per_record(xs, args.workload.batch().max(64)),
        "ns",
    );
    m.put("ring.feed_calls", sum(&|r| r.feed.calls), "count");
    m.put("ring.full_rounds", sum(&|r| r.feed.full_rounds), "count");
    m.put(
        "ring.accept_ratio",
        sum(&|r| r.feed.accepted) / sum(&|r| r.feed.offered).max(1.0),
        "ratio",
    );
    m.put("engine.shard_busy_share", med(&|r| r.busy_share), "ratio");
    m.put("engine.queue_wait_us_p50", med(&|r| r.wait_p50) / 1e3, "us");
    m.put("engine.queue_wait_us_p99", med(&|r| r.wait_p99) / 1e3, "us");
    m.put("metrics.scrape_us", med(&|r| r.scrape_p50) / 1e3, "us");
    m.put("operator.process_us", med(&|r| r.step_mean) / 1e3, "us");
    m.put("loadgen.lag_max_ms", med(&|r| r.lag_max_ns) / 1e6, "ms");
}

/// Writes the run's provenance and metrics to `perfbench/out/`.
fn write_result(args: &Args, prov: &[(&'static str, String)], m: &Metrics, correct: bool) {
    let mut doc = String::from("{\n  \"schema\": \"perfbench-result/v1\",\n");
    for (k, v) in prov {
        doc.push_str(&format!("  \"{k}\": \"{v}\",\n"));
    }
    doc.push_str(&format!(
        "  \"correct\": {correct},\n  \"metrics\": {}\n}}\n",
        m.json()
    ));
    let path = out_dir().join(format!(
        "{}-s{}-t{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, doc)) {
        eprintln!("perfbench: result not written to {}: {e}", path.display());
    }
}

/// `compare A.json B.json`: per-metric change from A to B. Refuses
/// results of different workloads, run lengths, trace modes, SIMD
/// backends, core counts or shard counts.
fn compare(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        eprintln!("usage: perfbench compare A.json B.json");
        return ExitCode::from(2);
    };
    let load = |p: &str| -> Result<eval::Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        eval::parse_json(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for key in [
        "workload",
        "seconds",
        "trace",
        "simd_backend",
        "nproc",
        "shards",
    ] {
        let (va, vb) = (
            a.get(key).and_then(eval::Json::as_str),
            b.get(key).and_then(eval::Json::as_str),
        );
        if va != vb {
            eprintln!("perfbench: refusing to compare: {key} differs ({va:?} vs {vb:?})");
            return ExitCode::from(2);
        }
    }
    let metrics = |doc: &eval::Json| -> Vec<(String, f64, String)> {
        doc.get("metrics")
            .and_then(eval::Json::as_obj)
            .unwrap_or(&[])
            .iter()
            .filter_map(|(name, v)| {
                Some((
                    name.clone(),
                    v.get("value")?.as_f64()?,
                    v.get("unit")?.as_str()?.to_string(),
                ))
            })
            .collect()
    };
    let mb = metrics(&b);
    for (name, va, unit) in metrics(&a) {
        if let Some((_, vb, _)) = mb.iter().find(|(n, _, _)| *n == name) {
            let change = if va != 0.0 {
                (vb - va) / va.abs() * 100.0
            } else {
                0.0
            };
            println!("{name:<28} {va:>14.4} -> {vb:>14.4} {unit:<7} {change:+8.2}%");
        }
    }
    ExitCode::SUCCESS
}
