//! `class-cli` — command-line streaming time series segmentation.
//!
//! Reads one observation per line (plain number, or a chosen column of a
//! CSV) from a file or stdin and prints change points as they are detected,
//! exactly as a downstream user would deploy ClaSS on a live feed:
//!
//! ```text
//! cat sensor.csv | class-cli --window 10000 --alpha 1e-50
//! class-cli --input recording.txt --width 125 --format tsv
//! ```
//!
//! The `datasets` subcommands work with annotated benchmark archives
//! (real files under `CLASS_DATA_DIR`, the bundled fixtures, or the
//! synthetic Table 1 stand-ins):
//!
//! ```text
//! class-cli datasets list
//! class-cli datasets run crates/datasets/fixtures/TSSB/SineFreqDouble_50_900.txt
//! ```
//!
//! `serve-status` inspects a running (or finished) serving engine via
//! either observability source — the live metrics endpoint's
//! `/stats.json` route or the periodic JSON snapshot file:
//!
//! ```text
//! class-cli serve-status --addr 127.0.0.1:9599
//! class-cli serve-status --snapshot /var/run/class/stats.json --format tsv
//! ```
//!
//! `serve` and `feed` are the two ends of the TCP ingestion tier: `serve`
//! binds an [`stream_engine::IngestServer`] on a live serving engine so
//! any number of producers can register streams at runtime and push
//! values over the length-prefixed binary protocol; `feed` is such a
//! producer, streaming local files:
//!
//! ```text
//! class-cli serve --listen 127.0.0.1:9600 --window 10000 --metrics-addr 127.0.0.1:9599
//! class-cli feed --connect 127.0.0.1:9600 sensor-a.txt sensor-b.txt
//! ```

use class_core::{
    ClassConfig, ClassSegmenter, StreamingSegmenter, WidthSelection, WssMethod, MIN_WINDOW_SIZE,
};
use eval::Flags;
use std::io::{BufRead, BufReader, Read, Write};

/// The segmenter flags the stdin mode and `serve` share
/// (`--window/--width/--wss/--alpha/--jump`).
struct SegmenterArgs {
    window: usize,
    width: Option<usize>,
    wss: WssMethod,
    alpha: f64,
    jump: Option<usize>,
}

impl Default for SegmenterArgs {
    fn default() -> Self {
        Self {
            window: 10_000,
            width: None,
            wss: WssMethod::Suss,
            alpha: 1e-50,
            jump: None,
        }
    }
}

impl SegmenterArgs {
    /// Reads the value of `flag` when it is a segmenter flag; `Ok(false)`
    /// leaves every other flag to the caller.
    fn read(&mut self, flag: &str, flags: &mut Flags) -> Result<bool, String> {
        match flag {
            "--window" => self.window = flags.at_least(MIN_WINDOW_SIZE)?,
            "--width" => self.width = Some(flags.parse()?),
            "--wss" => {
                self.wss = flags.one_of(&[
                    ("suss", WssMethod::Suss),
                    ("fft", WssMethod::FftDominant),
                    ("acf", WssMethod::Acf),
                    ("mwf", WssMethod::Mwf),
                ])?
            }
            "--alpha" => self.alpha = parse_alpha(flags)?,
            "--jump" => self.jump = Some(flags.at_least(1)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The segmenter configuration the flags describe.
    fn config(&self) -> ClassConfig {
        let mut cfg = ClassConfig::with_window_size(self.window);
        cfg.width = match self.width {
            Some(w) => WidthSelection::Fixed(w),
            None => WidthSelection::Learn(self.wss),
        };
        cfg.log10_alpha = self.alpha.log10();
        if let Some(j) = self.jump {
            cfg.jump = j;
        }
        cfg
    }
}

#[derive(Default)]
struct CliArgs {
    input: Option<String>,
    segmenter: SegmenterArgs,
    column: usize,
    delimiter: char,
    tsv: bool,
    relearn: bool,
}

/// The `--format` names: text or tab-separated output.
const FORMATS: [(&str, bool); 2] = [("text", false), ("tsv", true)];

const USAGE: &str = "\
class-cli — streaming time series segmentation (ClaSS, VLDB 2024)

USAGE:
    class-cli [OPTIONS]                 segment a stdin/--input feed
    class-cli datasets list             list available archives
    class-cli datasets run FILE...      segment annotated archive files
    class-cli serve --listen ADDR       run a TCP ingestion server
    class-cli feed --connect ADDR FILE... stream files to a `serve` instance
    class-cli serve-status ...          inspect a serving engine's stats

OPTIONS:
    --input FILE       read from FILE instead of stdin
    --window N         sliding window size d (default 10000, at least 16)
    --width N          fixed subsequence width (default: learned via SuSS)
    --wss METHOD       width selection: suss | fft | acf | mwf
    --alpha P          significance level in (0, 1] (default 1e-50)
    --column N         0-based CSV column to read (default 0)
    --delimiter C      CSV delimiter (default ',')
    --format FMT       output: text | tsv
    --relearn          re-learn the width after each change point
    --jump N           evaluate the profile every N-th point (default 5;
                       1 = exact per-point evaluation)
    --help             print this help

DATASETS SUBCOMMANDS (annotated archives: real files, fixtures, synthetic):
    datasets list [--data-dir PATH] [--format text|tsv]
        List archives under --data-dir (default: $CLASS_DATA_DIR), the
        bundled golden fixtures, and the synthetic Table 1 stand-ins.
        Files discovery cannot classify are warned about on stderr and
        counted per archive (the `skipped` column in --format tsv) —
        never silently dropped.
    datasets run FILE... [--window N] [--alpha P] [--width N] [--rate R]
                         [--jump N] [--channels K] [--fusion quorum|any|N]
                         [--extract-channels]
                         [--guard-nan-burst N] [--guard-flatline N]
                         [--metrics-addr HOST:PORT] [--bundle-out PATH]
                         [--format text|tsv]
        Load annotated archive files — univariate TSSB/FLOSS-style .txt /
        UTSA-style .csv, or multi-channel WFDB .hea (with .dat/.atr
        companions) / EDF(+) .edf / wide .csv — replay each through the
        serving engine (--rate records/sec simulates a live feed;
        default: unpaced), and report Covering and detection delay
        against the files' ground-truth annotations. Multi-channel files
        run the fused multivariate segmenter: --fusion picks the vote
        fusion (quorum = majority, any = union, N = quorum of N
        channels) and --channels K keeps only the K highest-variance
        channels after a probe phase. --extract-channels instead scores
        every channel as its own `<name>/ch<c>` univariate stream
        against the record's shared annotations (the paper's
        per-channel protocol).

        Degraded-input policy: --guard-nan-burst N quarantines a stream
        after N consecutive non-finite values (isolated ones are healed
        with the last finite value); --guard-flatline N quarantines after
        N identical consecutive values. On a multi-channel file the guard
        applies per channel: a tripped channel is retired and the vote
        quorum re-derived over the survivors, so the fused stream
        degrades instead of dying.

        Exit status: 0 ok, 1 load/engine error, 2 usage error, 3 at
        least one stream was quarantined (a report with the cause and
        record index is printed to stderr).

        Observability: --metrics-addr HOST:PORT serves live Prometheus
        text at /metrics (and JSON at /stats.json) while files replay;
        --bundle-out PATH writes a provenance-stamped run bundle
        (class-run-bundle/v1) for diffing with compare_bundles.

SERVE / FEED (the TCP ingestion tier: many producers, one engine):
    serve --listen HOST:PORT [--shards N] [--window N] [--width N]
          [--wss METHOD] [--alpha P] [--jump N] [--ring N]
          [--policy block|drop-oldest|error] [--metrics-addr HOST:PORT]
          [--idle-exit SECONDS]
        Run a ClaSS segmenter behind the binary ingestion protocol:
        producers (e.g. `class-cli feed`) connect, register streams at
        runtime and stream values; each stream's change points are
        collected and printed when the server exits. The FIRST stderr
        line is `listening on HOST:PORT` with the resolved port (bind
        port 0 for an ephemeral one). --ring/--policy set the default
        ring a producer gets when its REGISTER does not request one;
        backpressure is surfaced on the wire (block -> THROTTLE frames,
        drop-oldest -> drop counts on ACKs, error -> typed ERROR and
        close). --idle-exit S exits once at least one producer has
        connected and none has been active for S seconds (default:
        serve forever). Exit status: 0 ok, 1 bind/engine error, 2
        usage error, 3 at least one stream was quarantined.

    feed --connect HOST:PORT [--batch N] [--column N] [--delimiter C]
         [--ring N] [--policy block|drop-oldest|error] FILE...
        Register one wire stream per FILE (named by its file stem) on a
        running `serve` instance and stream its values in --batch-sized
        RECORDS frames (default 512), stop-and-wait. Values parse like
        the stdin mode (--column/--delimiter; non-numeric lines are
        skipped). --ring/--policy request a specific ring at
        registration (default: the server decides). Prints per-file
        acked/dropped/throttled counts. Exit status: 0 ok, 1
        connect/protocol/read error, 2 usage error.

SERVE-STATUS (read a serving engine's stats from either source):
    serve-status (--addr HOST:PORT | --snapshot PATH) [--format text|tsv]
        --addr fetches /stats.json from a live metrics endpoint
        (serve_soak --metrics-addr, datasets run --metrics-addr, or any
        ServingEngine::serve_metrics listener); --snapshot reads the
        periodic JSON snapshot file a headless run maintains. Prints
        connected streams, records/sec, ingest lag (queue depth), drops
        and quarantines; --format tsv emits one row per stream. When
        the engine has a network ingestion tier attached (serve
        --metrics-addr), text mode also prints the tier totals and one
        row per producer connection.

        Exit status: 0 healthy, 1 fetch/read/parse error, 2 usage
        error, 3 the engine reports quarantined streams.
";

/// Reports a usage error followed by the help text; exits with status 2.
fn usage_error(e: &str) -> ! {
    eval::usage_exit(&format!("{e}\n\n{USAGE}"))
}

fn parse_args(rest: &[String]) -> Result<CliArgs, String> {
    let mut args = CliArgs {
        delimiter: ',',
        ..CliArgs::default()
    };
    let mut flags = Flags::new(rest.iter().cloned());
    while let Some(arg) = flags.next() {
        if args.segmenter.read(&arg, &mut flags)? {
            continue;
        }
        match arg.as_str() {
            "--input" => args.input = Some(flags.value()?),
            "--column" => args.column = flags.parse()?,
            "--delimiter" => args.delimiter = parse_delimiter(&mut flags)?,
            "--format" => args.tsv = flags.one_of(&FORMATS)?,
            "--relearn" => args.relearn = true,
            "--help" | "-h" => {
                // A reader that stops early (`| head`) is not an error.
                let _ = std::io::stdout().write_all(USAGE.as_bytes());
                std::process::exit(0);
            }
            _ => return Err(flags.unknown()),
        }
    }
    Ok(args)
}

/// Reads an `--alpha` significance level, which must lie in (0, 1].
fn parse_alpha(flags: &mut Flags) -> Result<f64, String> {
    flags.parse_where("in (0, 1]", |a: &f64| *a > 0.0 && *a <= 1.0)
}

/// Reads a `--delimiter`, which must be exactly one character.
fn parse_delimiter(flags: &mut Flags) -> Result<char, String> {
    let v = flags.value()?;
    let mut chars = v.chars();
    match (chars.next(), chars.next()) {
        (Some(c), None) => Ok(c),
        _ => Err(format!("--delimiter must be one character, got {v:?}")),
    }
}

/// Exit status after a failed stdout write: a reader that closed the
/// pipe early (`| head`, `| true`) ends the run normally; any other write
/// failure is an error.
fn write_failure_code(e: &std::io::Error) -> i32 {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        0
    } else {
        eprintln!("error: writing output: {e}");
        1
    }
}

// ---------------------------------------------------------------------------
// `datasets` subcommands
// ---------------------------------------------------------------------------

/// How `datasets run` fuses per-channel votes on multi-channel files.
#[derive(Default)]
enum FusionChoice {
    /// Majority quorum (the multivariate default).
    #[default]
    Quorum,
    /// Union of every channel's change points.
    Any,
    /// Quorum of exactly N channels.
    Votes(usize),
}

#[derive(Default)]
struct DatasetsRunArgs {
    files: Vec<String>,
    window: Option<usize>,
    width: Option<usize>,
    alpha: f64,
    rate: Option<f64>,
    tsv: bool,
    channels: Option<usize>,
    fusion: FusionChoice,
    extract_channels: bool,
    jump: Option<usize>,
    guard_nan_burst: Option<usize>,
    guard_flatline: Option<usize>,
    metrics_addr: Option<String>,
    bundle_out: Option<String>,
}

impl DatasetsRunArgs {
    /// The segmenter configuration for one file of `n_points` points
    /// annotated with subsequence width `width`: the window defaults to
    /// the whole file (at most 10k points), the width to the annotated
    /// one.
    fn config(&self, n_points: usize, width: usize) -> ClassConfig {
        let window = self.window.unwrap_or_else(|| n_points.min(10_000));
        let mut cfg = ClassConfig::with_window_size(window);
        cfg.width = WidthSelection::Fixed(self.width.unwrap_or(width));
        cfg.log10_alpha = self.alpha.log10();
        if let Some(j) = self.jump {
            cfg.jump = j;
        }
        cfg
    }

    /// The `--guard-*` limits `(nan_burst, flatline)`, 0 disabling either;
    /// `None` when neither flag is given (values pass verbatim). Streams
    /// and the channels of multivariate files are guarded alike.
    fn guard_limits(&self) -> Option<(usize, usize)> {
        let (nan_burst, flatline) = (self.guard_nan_burst, self.guard_flatline);
        (nan_burst.is_some() || flatline.is_some())
            .then(|| (nan_burst.unwrap_or(0), flatline.unwrap_or(0)))
    }
}

/// Exit code for a run in which at least one stream was quarantined.
const EXIT_QUARANTINED: i32 = 3;

fn datasets_main(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("list") => datasets_list(&args[1..]),
        Some("run") => datasets_run(&args[1..]),
        other => usage_error(&format!(
            "expected `datasets list` or `datasets run`, got {:?}",
            other.unwrap_or("")
        )),
    }
}

fn parse_list_args(rest: &[String]) -> Result<(Option<datasets::DataDir>, bool), String> {
    let mut data_dir = datasets::DataDir::from_env();
    let mut tsv = false;
    let mut flags = Flags::new(rest.iter().cloned());
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--data-dir" => data_dir = Some(datasets::DataDir::open(flags.value()?)),
            "--format" => tsv = flags.one_of(&FORMATS)?,
            _ => return Err(flags.unknown()),
        }
    }
    Ok((data_dir, tsv))
}

fn datasets_list(rest: &[String]) -> i32 {
    let (data_dir, tsv) = parse_list_args(rest).unwrap_or_else(|e| usage_error(&e));
    match list_datasets(data_dir.as_ref(), tsv, &mut std::io::stdout().lock()) {
        Ok(()) => 0,
        Err(e) => write_failure_code(&e),
    }
}

/// Writes the `datasets list` report. Only write failures are returned.
fn list_datasets(
    data_dir: Option<&datasets::DataDir>,
    tsv: bool,
    out: &mut impl Write,
) -> std::io::Result<()> {
    if tsv {
        writeln!(
            out,
            "source\tarchive\tseries_files\tmultivariate_files\tskipped"
        )?;
    }
    match data_dir {
        Some(dir) => list_tree(out, tsv, "real", "real archives", dir)?,
        None if !tsv => writeln!(
            out,
            "real archives: none (set {} or pass --data-dir)",
            datasets::DATA_DIR_ENV
        )?,
        None => {}
    }
    if !tsv {
        writeln!(out)?;
    }
    list_tree(
        out,
        tsv,
        "fixtures",
        "bundled fixtures",
        &datasets::DataDir::open(datasets::fixtures_dir()),
    )?;
    if !tsv {
        writeln!(out)?;
        writeln!(out, "synthetic stand-ins (Table 1 profiles):")?;
    }
    for a in datasets::Archive::all() {
        let spec = a.spec();
        if tsv {
            writeln!(out, "synthetic\t{}\t{}\t0\t0", spec.name, spec.n_series)?;
        } else {
            writeln!(
                out,
                "  {:<12} {:>4} series, median length {:>9}, median segments {:>3}{}",
                spec.name,
                spec.n_series,
                spec.len.1,
                spec.segments.1,
                if spec.is_benchmark {
                    "  [benchmark]"
                } else {
                    ""
                }
            )?;
        }
    }
    out.flush()
}

/// Lists the archives under one data directory. Files the discovery walk
/// could not classify are never silently dropped: each one gets a stderr
/// warning, and the per-archive skipped count shows up in both output
/// formats.
fn list_tree(
    out: &mut impl Write,
    tsv: bool,
    source: &str,
    label: &str,
    dir: &datasets::DataDir,
) -> std::io::Result<()> {
    match dir.archives() {
        Ok(archives) if !archives.is_empty() => {
            if !tsv {
                writeln!(out, "{label} ({}):", dir.root().display())?;
            }
            for a in archives {
                for p in &a.skipped {
                    eprintln!(
                        "warning: {}: skipped {}: not a recognized series file",
                        a.name,
                        p.display()
                    );
                }
                if tsv {
                    writeln!(
                        out,
                        "{source}\t{}\t{}\t{}\t{}",
                        a.name,
                        a.files.len(),
                        a.multivariate_files.len(),
                        a.skipped.len()
                    )?;
                } else {
                    let mv = a.multivariate_files.len();
                    let mv_note = if mv > 0 {
                        format!(" + {mv} multi-channel")
                    } else {
                        String::new()
                    };
                    let skip_note = if a.skipped.is_empty() {
                        String::new()
                    } else {
                        format!(" ({} skipped)", a.skipped.len())
                    };
                    writeln!(
                        out,
                        "  {:<12} {:>4} series files{mv_note}{skip_note}",
                        a.name,
                        a.files.len()
                    )?;
                }
            }
        }
        Ok(_) => {
            if !tsv {
                writeln!(out, "{label} ({}): no archives", dir.root().display())?;
            }
        }
        Err(e) => {
            if tsv {
                eprintln!(
                    "warning: {label} ({}): unreadable: {e}",
                    dir.root().display()
                );
            } else {
                writeln!(out, "{label} ({}): unreadable: {e}", dir.root().display())?;
            }
        }
    }
    Ok(())
}

fn parse_datasets_run_args(rest: &[String]) -> Result<DatasetsRunArgs, String> {
    let mut out = DatasetsRunArgs {
        alpha: 1e-15,
        ..DatasetsRunArgs::default()
    };
    let mut flags = Flags::new(rest.iter().cloned());
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--window" => out.window = Some(flags.at_least(MIN_WINDOW_SIZE)?),
            "--width" => out.width = Some(flags.parse()?),
            "--alpha" => out.alpha = parse_alpha(&mut flags)?,
            "--rate" => {
                out.rate = Some(
                    flags.parse_where("a positive number", |r: &f64| *r > 0.0 && r.is_finite())?,
                )
            }
            "--format" => out.tsv = flags.one_of(&FORMATS)?,
            "--jump" => out.jump = Some(flags.at_least(1)?),
            "--channels" => out.channels = Some(flags.at_least(1)?),
            "--guard-nan-burst" => out.guard_nan_burst = Some(flags.at_least(1)?),
            "--guard-flatline" => out.guard_flatline = Some(flags.at_least(1)?),
            "--extract-channels" => out.extract_channels = true,
            "--metrics-addr" => out.metrics_addr = Some(flags.value()?),
            "--bundle-out" => out.bundle_out = Some(flags.value()?),
            "--fusion" => {
                let v = flags.value()?;
                out.fusion = match (v.as_str(), v.parse::<usize>()) {
                    ("quorum", _) => FusionChoice::Quorum,
                    ("any", _) => FusionChoice::Any,
                    (_, Ok(k)) if k >= 1 => FusionChoice::Votes(k),
                    _ => {
                        let want = "quorum, any, or a positive vote count";
                        return Err(format!("--fusion must be {want}, got {v}"));
                    }
                };
            }
            flag if flag.starts_with("--") => return Err(flags.unknown()),
            file => out.files.push(file.to_string()),
        }
    }
    if out.files.is_empty() {
        return Err("datasets run needs at least one FILE".into());
    }
    if out.extract_channels {
        // Fused-path knobs have no meaning when every channel runs as
        // its own univariate stream.
        if out.channels.is_some() {
            return Err("--channels applies to the fused run, not --extract-channels".into());
        }
        if !matches!(out.fusion, FusionChoice::Quorum) {
            return Err("--fusion applies to the fused run, not --extract-channels".into());
        }
    }
    Ok(out)
}

/// Everything one scored file prints, regardless of channel count.
struct FileScore {
    name: String,
    archive: &'static str,
    points: usize,
    width: usize,
    channels: usize,
    true_cps: Vec<u64>,
    found: Vec<u64>,
    records_in: u64,
    elapsed: std::time::Duration,
}

impl FileScore {
    fn print(&self, tsv: bool, stats: &eval::DelayStats, cov: f64) -> std::io::Result<()> {
        let mut out = std::io::stdout().lock();
        let delay = stats
            .mean_delay()
            .map(|d| format!("{d:.0}"))
            .unwrap_or_else(|| "-".into());
        if tsv {
            return writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{:.4}\t{:.2}\t{delay}\t{}",
                self.name,
                self.points,
                self.width,
                fmt_cps(&self.true_cps),
                fmt_cps(&self.found),
                cov,
                stats.detection_rate(),
                self.channels,
            );
        }
        writeln!(out, "series: {} ({})", self.name, self.archive)?;
        writeln!(
            out,
            "points: {}, width: {}, channels: {}, true cps: [{}]",
            self.points,
            self.width,
            self.channels,
            fmt_cps(&self.true_cps)
        )?;
        writeln!(out, "found cps: [{}]", fmt_cps(&self.found))?;
        writeln!(out, "covering: {cov:.4}")?;
        writeln!(
            out,
            "detection rate: {:.2}, mean delay: {delay}, false alarms: {}",
            stats.detection_rate(),
            stats.false_alarms
        )?;
        writeln!(
            out,
            "throughput: {:.0} pts/s\n",
            self.records_in as f64 / self.elapsed.as_secs_f64().max(1e-9)
        )
    }
}

/// Scores engine output records against annotations: `(sorted deduped
/// change points, covering, delay stats)`. Flush-time reports
/// (timestamp `u64::MAX`) count as emitted at end-of-stream.
fn score_records(
    records: &[stream_engine::Record<u64>],
    true_cps: &[u64],
    n_points: usize,
    width: usize,
) -> (Vec<u64>, f64, eval::DelayStats) {
    let mut found: Vec<u64> = records.iter().map(|r| r.value).collect();
    found.sort_unstable();
    found.dedup();
    let cov = eval::covering(true_cps, &found, n_points as u64);
    let timed: Vec<eval::TimedReport> = records
        .iter()
        .map(|r| eval::TimedReport {
            emitted_at: if r.timestamp == u64::MAX {
                n_points as u64
            } else {
                r.timestamp
            },
            cp: r.value,
        })
        .collect();
    // Localisation tolerance: the paper's minimum-segment margin of
    // 5 subsequence widths (ClaSP's `excl_radius`); profile maxima
    // systematically sit a couple of widths before the annotation.
    let stats = eval::delay_stats(true_cps, &timed, 5 * width as u64);
    (found, cov, stats)
}

/// What `datasets run` accumulates across files for the `--bundle-out`
/// provenance bundle.
#[derive(Default)]
struct RunTally {
    files: usize,
    records: u64,
    change_points: usize,
    covering_sum: f64,
    quarantined: usize,
}

/// Replays one univariate archive file through a 1-shard serving engine
/// and prints its scores.
fn run_univariate_file(
    args: &DatasetsRunArgs,
    path: &std::path::Path,
    archive: &str,
    metrics: Option<&stream_engine::MetricsServer>,
    tally: &mut RunTally,
) -> std::io::Result<i32> {
    let series = match datasets::load_series_file(path, archive) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(1);
        }
    };
    replay_univariate_series(args, series, metrics, tally)
}

/// Replays one extracted multi-channel file per channel: each channel of
/// the record becomes its own `<name>/ch<c>` univariate stream scored
/// against the record's shared annotations — the paper's per-channel
/// protocol, as opposed to the fused run.
fn run_extracted_channels(
    args: &DatasetsRunArgs,
    path: &std::path::Path,
    archive: &str,
    metrics: Option<&stream_engine::MetricsServer>,
    tally: &mut RunTally,
) -> std::io::Result<i32> {
    let series = match datasets::load_multivariate_file(path, archive) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(1);
        }
    };
    let mut code = 0;
    for channel in series.extract_channels() {
        code = replay_univariate_series(args, channel, metrics, tally)?;
        if code != 0 {
            break;
        }
    }
    Ok(code)
}

/// The shared engine replay for one univariate series (file-loaded or
/// channel-extracted): one stream on one shard, scored and printed.
fn replay_univariate_series(
    args: &DatasetsRunArgs,
    series: datasets::AnnotatedSeries,
    metrics: Option<&stream_engine::MetricsServer>,
    tally: &mut RunTally,
) -> std::io::Result<i32> {
    let cfg = args.config(series.len(), series.width);

    // Replay the loaded series through the serving engine — unpaced
    // like the paper's §4.4 RAM-resident streams, or at --rate
    // records/sec like a live sensor feed. One stream on one shard:
    // the ingest loop below paces, the shard steps the segmenter.
    let mut source = stream_engine::ReplaySource::new(series.values.clone());
    if let Some(rate) = args.rate {
        source = source.with_rate(rate);
    }
    let started = std::time::Instant::now();
    let retry = stream_engine::RetryPolicy::default();
    let guard = args
        .guard_limits()
        .map(|(n, f)| stream_engine::GuardConfig::new(n, f));
    let stream_name = series.name.clone();
    let (mut results, fed) = stream_engine::serve(stream_engine::EngineConfig::new(1), |engine| {
        if let Some(m) = metrics {
            m.attach(engine.stats_handle());
        }
        let mut handle = engine.register_with(
            stream_engine::StreamOptions {
                guard,
                name: Some(stream_name),
                ..stream_engine::StreamOptions::default()
            },
            move || stream_engine::SegmenterOperator::new(ClassSegmenter::new(cfg)),
        );
        for v in source {
            handle.push_with_retry(v, &retry)?;
        }
        Ok::<(), stream_engine::IngestError>(())
    });
    let elapsed = started.elapsed();
    let result = results.remove(0);
    if let Err(e) = fed {
        eprintln!("error: {}: ingest failed: {e}", series.name);
        return Ok(1);
    }
    let (found, cov, stats) = score_records(
        &result.output,
        &series.change_points,
        series.len(),
        series.width,
    );
    tally.files += 1;
    tally.records += result.records_in;
    tally.change_points += found.len();
    tally.covering_sum += cov;
    FileScore {
        name: series.name.clone(),
        archive: series.archive,
        points: series.len(),
        width: series.width,
        channels: 1,
        true_cps: series.change_points.clone(),
        found,
        records_in: result.records_in,
        elapsed,
    }
    .print(args.tsv, &stats, cov)?;
    if let Some((cause, at_record)) = result.quarantine() {
        eprintln!(
            "quarantined: {} at record {at_record}: {cause} \
             ({} records processed, {} drained after the fault)",
            series.name, result.records_in, result.quarantined_after
        );
        tally.quarantined += 1;
        return Ok(EXIT_QUARANTINED);
    }
    Ok(0)
}

/// Replays one multi-channel archive file (WFDB record or wide-CSV) as a
/// single fused stream through a 1-shard serving engine — channels
/// travel interleaved through one ring, the shard reassembles frames and
/// steps the quorum-fusion segmenter — and prints its scores.
fn run_multivariate_file(
    args: &DatasetsRunArgs,
    path: &std::path::Path,
    archive: &str,
    metrics: Option<&stream_engine::MetricsServer>,
    tally: &mut RunTally,
) -> std::io::Result<i32> {
    use class_core::{ChannelSelection, FusionStrategy, MultivariateClass, MultivariateConfig};

    let series = match datasets::load_multivariate_file(path, archive) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(1);
        }
    };
    let n = series.len();
    let n_channels = series.n_channels();
    let base = args.config(n, series.width);
    let window = base.window_size;
    let mut cfg = MultivariateConfig::new(base, n_channels);
    // Overrides keep the default config's clustering tolerance, so
    // `--fusion N` with the default quorum count behaves identically to
    // no flag at all.
    let tolerance = cfg.fusion.tolerance();
    match args.fusion {
        FusionChoice::Quorum => {}
        FusionChoice::Any => cfg.fusion = FusionStrategy::Any { tolerance },
        FusionChoice::Votes(k) => {
            if k > n_channels {
                eprintln!("error: --fusion {k} exceeds the file's {n_channels} channels");
                return Ok(2);
            }
            cfg.fusion = FusionStrategy::Quorum {
                min_votes: k,
                tolerance,
            };
        }
    }
    if let Some(k) = args.channels {
        if k > n_channels {
            eprintln!("error: --channels {k} exceeds the file's {n_channels} channels");
            return Ok(2);
        }
        if k < n_channels {
            // Probe for half a window, floored at 64 frames but never
            // longer than the stream itself.
            cfg.selection = ChannelSelection::TopVariance {
                k,
                probe: (window / 2).max(64).min(n),
            };
            // Only the selected channels can vote, so a quorum sized for
            // the full channel count could never be satisfied. An
            // explicit contradictory --fusion N is a usage error; the
            // default quorum re-derives as a majority of the selection.
            match args.fusion {
                FusionChoice::Votes(v) if v > k => {
                    eprintln!(
                        "error: --fusion {v} can never be satisfied by the --channels {k} selection"
                    );
                    return Ok(2);
                }
                FusionChoice::Quorum => {
                    cfg.fusion = FusionStrategy::Quorum {
                        min_votes: k.div_ceil(2).max(1),
                        tolerance,
                    };
                }
                _ => {}
            }
        }
    }

    // Per-channel degraded-input policy: a tripped channel is retired
    // inside the fused segmenter (votes re-quorumed) instead of taking
    // the whole stream down.
    cfg.channel_guard = args
        .guard_limits()
        .map(|(n, f)| class_core::ChannelGuardConfig::new(n, f));

    let mut source = stream_engine::MultiChannelReplaySource::new(series.channels.clone());
    if let Some(rate) = args.rate {
        source = source.with_rate(rate);
    }
    let started = std::time::Instant::now();
    let retry = stream_engine::RetryPolicy::default();
    let stream_name = series.name.clone();
    let (mut results, fed) = stream_engine::serve(stream_engine::EngineConfig::new(1), |engine| {
        if let Some(m) = metrics {
            m.attach(engine.stats_handle());
        }
        let mut handle = engine.register_with(
            stream_engine::StreamOptions {
                name: Some(stream_name),
                ..stream_engine::StreamOptions::default()
            },
            move || {
                stream_engine::MultivariateSegmenterOperator::new(MultivariateClass::new(
                    cfg, n_channels,
                ))
            },
        );
        for row in source {
            for v in row {
                handle.push_with_retry(v, &retry)?;
            }
        }
        Ok::<(), stream_engine::IngestError>(())
    });
    let elapsed = started.elapsed();
    let result = results.remove(0);
    if let Err(e) = fed {
        eprintln!("error: {}: ingest failed: {e}", series.name);
        return Ok(1);
    }
    let (found, cov, stats) = score_records(&result.output, &series.change_points, n, series.width);
    tally.files += 1;
    tally.records += result.records_in / n_channels as u64;
    tally.change_points += found.len();
    tally.covering_sum += cov;
    FileScore {
        name: series.name.clone(),
        archive: series.archive,
        points: n,
        width: series.width,
        channels: n_channels,
        true_cps: series.change_points.clone(),
        found,
        // The ring carried frames x channels interleaved records; report
        // throughput in frames so it is comparable to univariate files.
        records_in: result.records_in / n_channels as u64,
        elapsed,
    }
    .print(args.tsv, &stats, cov)?;
    if let Some((cause, at_record)) = result.quarantine() {
        eprintln!(
            "quarantined: {} at frame {}: {cause}",
            series.name,
            at_record / n_channels as u64
        );
        tally.quarantined += 1;
        return Ok(EXIT_QUARANTINED);
    }
    Ok(0)
}

/// Scores every file of a `datasets run` in order, stopping at the first
/// non-zero exit status. Only stdout write failures are returned.
fn score_files(
    args: &DatasetsRunArgs,
    metrics: Option<&stream_engine::MetricsServer>,
    tally: &mut RunTally,
) -> std::io::Result<i32> {
    if args.tsv {
        writeln!(
            std::io::stdout().lock(),
            "series\tpoints\twidth\ttrue_cps\tfound_cps\tcovering\tdetection_rate\tmean_delay\tchannels"
        )?;
    }
    for file in &args.files {
        let path = std::path::Path::new(file);
        let archive = path
            .parent()
            .and_then(|p| p.file_name())
            .and_then(|n| n.to_str())
            .unwrap_or("archive");
        let kind = match datasets::classify_series_file(path) {
            Ok(Some(kind)) => kind,
            Ok(None) => {
                eprintln!(
                    "error: {}: not a loadable series file (expected .txt, .csv, .hea or .edf)",
                    path.display()
                );
                return Ok(1);
            }
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                return Ok(1);
            }
        };
        let code = match kind {
            datasets::SeriesKind::Univariate => {
                run_univariate_file(args, path, archive, metrics, tally)
            }
            datasets::SeriesKind::Multivariate if args.extract_channels => {
                run_extracted_channels(args, path, archive, metrics, tally)
            }
            datasets::SeriesKind::Multivariate => {
                run_multivariate_file(args, path, archive, metrics, tally)
            }
        }?;
        if code != 0 {
            return Ok(code);
        }
    }
    Ok(0)
}

fn datasets_run(rest: &[String]) -> i32 {
    let args = parse_datasets_run_args(rest).unwrap_or_else(|e| usage_error(&e));
    let metrics = match &args.metrics_addr {
        Some(addr) => match stream_engine::MetricsServer::bind(addr) {
            Ok(server) => {
                eprintln!("metrics: http://{}/metrics", server.addr());
                Some(server)
            }
            Err(e) => {
                eprintln!("error: binding metrics endpoint {addr}: {e}");
                return 1;
            }
        },
        None => None,
    };
    let started = std::time::Instant::now();
    let mut tally = RunTally::default();
    let mut code =
        score_files(&args, metrics.as_ref(), &mut tally).unwrap_or_else(|e| write_failure_code(&e));
    // The bundle records whatever was processed, even on a quarantine
    // or error exit — a partial run is still evidence worth diffing.
    if let Some(path) = &args.bundle_out {
        let elapsed = started.elapsed().as_secs_f64();
        let mut bundle = eval::RunBundle::new("datasets-run");
        bundle.config("alpha", args.alpha);
        bundle.config(
            "window",
            args.window.map_or_else(|| "auto".into(), |w| w.to_string()),
        );
        bundle.config("files", args.files.join(","));
        bundle.metric("files", tally.files as f64);
        bundle.metric("records", tally.records as f64);
        bundle.metric("change_points", tally.change_points as f64);
        bundle.metric(
            "covering_mean",
            if tally.files > 0 {
                tally.covering_sum / tally.files as f64
            } else {
                0.0
            },
        );
        bundle.metric("quarantined", tally.quarantined as f64);
        bundle.metric("elapsed_s", elapsed);
        if let Err(e) = bundle.write(path) {
            eprintln!("error: writing bundle {path}: {e}");
            if code == 0 {
                code = 1;
            }
        } else {
            eprintln!("bundle: {path}");
        }
    }
    code
}

// ---------------------------------------------------------------------------
// `serve-status` — inspect a serving engine via its observability surface
// ---------------------------------------------------------------------------

/// Fetches `/stats.json` from a live metrics endpoint with a plain
/// std-TCP HTTP/1.1 GET (2 s connect/read timeouts, `Connection:
/// close` so EOF delimits the body).
fn http_get_stats_json(addr: &str) -> Result<String, String> {
    use std::net::{TcpStream, ToSocketAddrs};
    let timeout = std::time::Duration::from_secs(2);
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| format!("{addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr}: no address resolved"))?;
    let mut conn =
        TcpStream::connect_timeout(&sock, timeout).map_err(|e| format!("{addr}: {e}"))?;
    conn.set_read_timeout(Some(timeout)).ok();
    conn.set_write_timeout(Some(timeout)).ok();
    conn.write_all(
        format!("GET /stats.json HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .map_err(|e| format!("{addr}: {e}"))?;
    let mut response = String::new();
    conn.read_to_string(&mut response)
        .map_err(|e| format!("{addr}: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{addr}: malformed HTTP response"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(format!("{addr}: {status}"));
    }
    Ok(body.to_string())
}

/// `serve-status` flags: `(--addr, --snapshot, tsv output)`.
fn parse_status_args(rest: &[String]) -> Result<(Option<String>, Option<String>, bool), String> {
    let mut addr = None;
    let mut snapshot = None;
    let mut tsv = false;
    let mut flags = Flags::new(rest.iter().cloned());
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--addr" => addr = Some(flags.value()?),
            "--snapshot" => snapshot = Some(flags.value()?),
            "--format" => tsv = flags.one_of(&FORMATS)?,
            _ => return Err(flags.unknown()),
        }
    }
    Ok((addr, snapshot, tsv))
}

/// `class-cli serve-status`: read a `class-serving-stats/v1` document
/// from a live endpoint or a snapshot file and summarise engine health.
fn serve_status(rest: &[String]) -> i32 {
    let (addr, snapshot, tsv) = parse_status_args(rest).unwrap_or_else(|e| usage_error(&e));
    let (source, doc) = match (&addr, &snapshot) {
        (Some(a), None) => match http_get_stats_json(a) {
            Ok(d) => (format!("http://{a}/stats.json"), d),
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        },
        (None, Some(p)) => match std::fs::read_to_string(p) {
            Ok(d) => (p.clone(), d),
            Err(e) => {
                eprintln!("error: {p}: {e}");
                return 1;
            }
        },
        _ => usage_error("serve-status needs exactly one of --addr or --snapshot"),
    };
    let json = match eval::parse_json(&doc) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: {source}: {e}");
            return 1;
        }
    };
    let schema = json.get("schema").and_then(|s| s.as_str()).unwrap_or("");
    if !schema.starts_with("class-serving-stats/") {
        eprintln!("error: {source}: not a serving-stats document (schema {schema:?})");
        return 1;
    }
    let totals = match json.get("totals") {
        Some(t) => t.clone(),
        None => {
            eprintln!("error: {source}: missing totals");
            return 1;
        }
    };
    let quarantined = num(&totals, "quarantined") as u64;
    let streams = json
        .get("streams")
        .and_then(|s| s.as_arr())
        .unwrap_or(&[])
        .to_vec();

    if let Err(e) = print_serve_status(
        &mut std::io::stdout().lock(),
        tsv,
        &source,
        &json,
        &totals,
        &streams,
    ) {
        return write_failure_code(&e);
    }
    // Quarantine detail goes to stderr in both formats, like
    // `datasets run`, so scripts scraping stdout stay parseable.
    for s in &streams {
        if s.get("state").and_then(|v| v.as_str()) == Some("quarantined") {
            let detail = s.get("quarantine").cloned().unwrap_or(eval::Json::Null);
            eprintln!(
                "quarantined: stream {} ({}) at record {}: {}",
                num(s, "stream") as u64,
                s.get("name").and_then(|v| v.as_str()).unwrap_or("?"),
                num(&detail, "at_record") as u64,
                detail
                    .get("cause")
                    .and_then(|v| v.as_str())
                    .unwrap_or("unknown cause"),
            );
        }
    }
    if quarantined > 0 {
        EXIT_QUARANTINED
    } else {
        0
    }
}

/// Writes the `serve-status` summary of one stats document. Only write
/// failures are returned.
fn print_serve_status(
    out: &mut impl Write,
    tsv: bool,
    source: &str,
    json: &eval::Json,
    totals: &eval::Json,
    streams: &[eval::Json],
) -> std::io::Result<()> {
    if tsv {
        writeln!(
            out,
            "stream\tname\tshard\tstate\trecords_in\tdrops\tqueue_depth\tp99_ns"
        )?;
        for s in streams {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                num(s, "stream") as u64,
                s.get("name").and_then(|v| v.as_str()).unwrap_or("?"),
                num(s, "shard") as u64,
                s.get("state").and_then(|v| v.as_str()).unwrap_or("?"),
                num(s, "records_in") as u64,
                num(s, "drops") as u64,
                num(s, "queue_depth") as u64,
                num(s, "p99_ns") as u64,
            )?;
        }
    } else {
        writeln!(out, "serving stats from {source}")?;
        writeln!(out, "uptime:       {:.1} s", num(json, "uptime_s"))?;
        writeln!(
            out,
            "streams:      {} connected, {} active, {} quarantined",
            num(totals, "streams") as u64,
            num(totals, "active") as u64,
            num(totals, "quarantined") as u64,
        )?;
        writeln!(
            out,
            "records in:   {} ({:.0} records/s)",
            num(totals, "records_in") as u64,
            num(totals, "records_per_sec"),
        )?;
        writeln!(out, "drops:        {}", num(totals, "drops") as u64)?;
        writeln!(
            out,
            "ingest lag:   {} records queued",
            num(totals, "queue_depth") as u64
        )?;
        // The `net` object is additive: only engines with an ingestion
        // tier attached report it (serve --metrics-addr).
        if let Some(net) = json.get("net") {
            writeln!(
                out,
                "ingest tier:  {} connections accepted ({} open), {} frames, \
                 {} records, {} throttles, {} protocol errors",
                num(net, "accepted") as u64,
                num(net, "active") as u64,
                num(net, "frames") as u64,
                num(net, "records") as u64,
                num(net, "throttle_events") as u64,
                num(net, "protocol_errors") as u64,
            )?;
            for c in net
                .get("connections")
                .and_then(|v| v.as_arr())
                .unwrap_or(&[])
            {
                writeln!(
                    out,
                    "  conn {} ({}): {}, {} streams, {} frames ({:.1}/s), \
                     {} records, {} throttles",
                    num(c, "conn") as u64,
                    c.get("peer").and_then(|v| v.as_str()).unwrap_or("?"),
                    if matches!(c.get("open"), Some(eval::Json::Bool(true))) {
                        "open"
                    } else {
                        "closed"
                    },
                    num(c, "streams") as u64,
                    num(c, "frames") as u64,
                    num(c, "frames_per_sec"),
                    num(c, "records") as u64,
                    num(c, "throttle_events") as u64,
                )?;
            }
        }
    }
    out.flush()
}

/// Numeric field `key` of a JSON object, 0 when absent.
fn num(obj: &eval::Json, key: &str) -> f64 {
    obj.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0)
}

// ---------------------------------------------------------------------------
// `serve` / `feed` — the TCP ingestion tier from the command line
// ---------------------------------------------------------------------------

/// The `--policy` names: a ring's backpressure policy.
const POLICIES: [(&str, stream_engine::Backpressure); 3] = [
    ("block", stream_engine::Backpressure::Block),
    ("drop-oldest", stream_engine::Backpressure::DropOldest),
    ("error", stream_engine::Backpressure::Error),
];

#[derive(Default)]
struct ServeArgs {
    listen: String,
    shards: usize,
    segmenter: SegmenterArgs,
    ring: usize,
    policy: stream_engine::Backpressure,
    metrics_addr: Option<String>,
    idle_exit: Option<f64>,
}

fn parse_serve_args(rest: &[String]) -> Result<ServeArgs, String> {
    let mut out = ServeArgs {
        shards: 2,
        ring: stream_engine::RingConfig::default().capacity,
        ..ServeArgs::default()
    };
    let mut flags = Flags::new(rest.iter().cloned());
    while let Some(arg) = flags.next() {
        if out.segmenter.read(&arg, &mut flags)? {
            continue;
        }
        match arg.as_str() {
            "--listen" => out.listen = flags.value()?,
            "--shards" => out.shards = flags.at_least(1)?,
            "--ring" => out.ring = flags.at_least(1)?,
            "--policy" => out.policy = flags.one_of(&POLICIES)?,
            "--metrics-addr" => out.metrics_addr = Some(flags.value()?),
            "--idle-exit" => {
                out.idle_exit = Some(
                    flags.parse_where("a positive number of seconds", |s: &f64| {
                        *s > 0.0 && s.is_finite()
                    })?,
                )
            }
            _ => return Err(flags.unknown()),
        }
    }
    if out.listen.is_empty() {
        return Err("serve needs --listen HOST:PORT (use port 0 for an ephemeral port)".into());
    }
    Ok(out)
}

/// `class-cli serve`: bind a TCP ingestion server on a live serving
/// engine and step wire-registered ClaSS streams until idle (or forever).
fn serve_cmd(rest: &[String]) -> i32 {
    let args = parse_serve_args(rest).unwrap_or_else(|e| usage_error(&e));
    let cfg = args.segmenter.config();
    let engine_cfg = stream_engine::EngineConfig {
        shards: args.shards,
        ring: stream_engine::RingConfig::new(args.ring, args.policy),
    };
    let started = std::time::Instant::now();
    let (results, code) = stream_engine::serve(engine_cfg, |engine| {
        let server = match stream_engine::IngestServer::bind(
            args.listen.as_str(),
            engine.registrar(),
            move |_req: &stream_engine::RegisterRequest| {
                stream_engine::SegmenterOperator::new(ClassSegmenter::new(cfg.clone()))
            },
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: binding {}: {e}", args.listen);
                return 1;
            }
        };
        // First stderr line by contract: scripts bind port 0 and parse
        // the resolved address from here.
        eprintln!("listening on {}", server.addr());
        let metrics = match &args.metrics_addr {
            Some(addr) => match stream_engine::MetricsServer::bind(addr) {
                Ok(m) => {
                    m.attach(engine.stats_handle());
                    m.attach_net(server.net_stats());
                    eprintln!("metrics: http://{}/metrics", m.addr());
                    Some(m)
                }
                Err(e) => {
                    eprintln!("error: binding metrics endpoint {addr}: {e}");
                    return 1;
                }
            },
            None => None,
        };
        let stats = server.net_stats();
        let poll = std::time::Duration::from_millis(100);
        let mut idle_since: Option<std::time::Instant> = None;
        loop {
            std::thread::sleep(poll);
            let Some(limit) = args.idle_exit else {
                continue;
            };
            let snap = stats.stats();
            if snap.accepted > 0 && snap.active == 0 {
                let since = *idle_since.get_or_insert_with(std::time::Instant::now);
                if since.elapsed().as_secs_f64() >= limit {
                    break;
                }
            } else {
                idle_since = None;
            }
        }
        let snap = stats.stats();
        eprintln!(
            "shutting down after {} connections, {} frames, {} records on the wire",
            snap.accepted,
            snap.frames(),
            snap.records()
        );
        drop(metrics);
        drop(server);
        0
    });
    if code != 0 {
        return code;
    }
    print_served(
        &results,
        started.elapsed().as_secs_f64(),
        &mut std::io::stdout().lock(),
    )
    .unwrap_or_else(|e| write_failure_code(&e))
}

/// Writes the per-stream report of a finished `serve` run. Only write
/// failures are returned.
fn print_served(
    results: &[stream_engine::StreamResult<u64>],
    elapsed_s: f64,
    out: &mut impl Write,
) -> std::io::Result<i32> {
    writeln!(
        out,
        "served {} wire streams in {elapsed_s:.1} s",
        results.len()
    )?;
    let mut code = 0;
    for r in results {
        let mut found: Vec<u64> = r.output.iter().map(|rec| rec.value).collect();
        found.sort_unstable();
        found.dedup();
        writeln!(
            out,
            "stream {}: {} records, {} drops, {} change points [{}]",
            r.stream,
            r.records_in,
            r.drops,
            found.len(),
            fmt_cps(&found)
        )?;
        if let Some((cause, at_record)) = r.quarantine() {
            eprintln!(
                "quarantined: stream {} at record {at_record}: {cause}",
                r.stream
            );
            code = EXIT_QUARANTINED;
        }
    }
    out.flush()?;
    Ok(code)
}

#[derive(Default)]
struct FeedArgs {
    connect: String,
    batch: usize,
    column: usize,
    delimiter: char,
    ring: Option<usize>,
    policy: Option<stream_engine::Backpressure>,
    files: Vec<String>,
}

fn parse_feed_args(rest: &[String]) -> Result<FeedArgs, String> {
    let mut out = FeedArgs {
        batch: 512,
        delimiter: ',',
        ..FeedArgs::default()
    };
    let mut flags = Flags::new(rest.iter().cloned());
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--connect" => out.connect = flags.value()?,
            "--batch" => out.batch = flags.at_least(1)?,
            "--column" => out.column = flags.parse()?,
            "--delimiter" => out.delimiter = parse_delimiter(&mut flags)?,
            "--ring" => out.ring = Some(flags.at_least(1)?),
            "--policy" => out.policy = Some(flags.one_of(&POLICIES)?),
            flag if flag.starts_with("--") => return Err(flags.unknown()),
            file => out.files.push(file.to_string()),
        }
    }
    if out.connect.is_empty() {
        return Err("feed needs --connect HOST:PORT".into());
    }
    if out.files.is_empty() {
        return Err("feed needs at least one FILE".into());
    }
    Ok(out)
}

/// Reads one value per line from `path` exactly like the stdin mode:
/// pick a delimited column, skip lines that do not parse.
fn read_values(path: &str, column: usize, delimiter: char) -> Result<Vec<f64>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut values = Vec::new();
    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| format!("{path}: read failure: {e}"))?;
        let field = line.split(delimiter).nth(column).unwrap_or("");
        if let Ok(x) = field.trim().parse::<f64>() {
            values.push(x); // headers and malformed lines are skipped
        }
    }
    if values.is_empty() {
        return Err(format!("{path}: no numeric values in column {column}"));
    }
    Ok(values)
}

/// `class-cli feed`: stream local files to a running `serve` instance,
/// one wire stream per file, stop-and-wait batches.
fn feed_cmd(rest: &[String]) -> i32 {
    let args = parse_feed_args(rest).unwrap_or_else(|e| usage_error(&e));
    // A requested ring only travels on REGISTER when either knob is
    // given; otherwise capacity 0 asks for the server's default.
    let req_ring = match (args.ring, args.policy) {
        (None, None) => None,
        (cap, pol) => Some(stream_engine::RingConfig::new(
            cap.unwrap_or_else(|| stream_engine::RingConfig::default().capacity),
            pol.unwrap_or(stream_engine::Backpressure::Block),
        )),
    };
    let client_name = format!("class-cli-feed/{}", std::process::id());
    let mut client = match stream_engine::NetClient::connect(args.connect.as_str(), &client_name) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: connecting {}: {e}", args.connect);
            return 1;
        }
    };
    feed_files(&args, &mut client, req_ring, &mut std::io::stdout().lock())
        .unwrap_or_else(|e| write_failure_code(&e))
}

/// Streams every file of `args` over `client`, one wire stream per file,
/// and reports each file's ACK. Only stdout write failures are returned;
/// other failures print an error and yield exit status 1.
fn feed_files(
    args: &FeedArgs,
    client: &mut stream_engine::NetClient,
    req_ring: Option<stream_engine::RingConfig>,
    out: &mut impl Write,
) -> std::io::Result<i32> {
    // ACK `received`/`drops` are cumulative per stream (= per file here);
    // the client's throttle counter spans the connection, so that one is
    // reported as a per-file delta.
    let mut throttled_before = 0u64;
    for file in &args.files {
        let values = match read_values(file, args.column, args.delimiter) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {e}");
                return Ok(1);
            }
        };
        let name = std::path::Path::new(file)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(file.as_str());
        let id = match client.register(name, req_ring) {
            Ok(id) => id,
            Err(e) => {
                eprintln!("error: {file}: register: {e}");
                return Ok(1);
            }
        };
        for chunk in values.chunks(args.batch) {
            if let Err(e) = client.send_records(id, chunk) {
                eprintln!("error: {file}: send: {e}");
                return Ok(1);
            }
        }
        let ack = match client.detach(id) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {file}: detach: {e}");
                return Ok(1);
            }
        };
        let throttled = client.throttle_events();
        writeln!(
            out,
            "fed {name}: {} records read, {} acked, {} dropped, {} throttle events",
            values.len(),
            ack.received,
            ack.drops,
            throttled - throttled_before,
        )?;
        throttled_before = throttled;
    }
    out.flush()?;
    Ok(0)
}

fn fmt_cps(cps: &[u64]) -> String {
    cps.iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let code = match raw.first().map(String::as_str) {
        Some("datasets") => datasets_main(&raw[1..]),
        Some("serve-status") => serve_status(&raw[1..]),
        Some("serve") => serve_cmd(&raw[1..]),
        Some("feed") => feed_cmd(&raw[1..]),
        _ => segment_main(&raw),
    };
    std::process::exit(code);
}

/// The stdin mode: segment a stdin or `--input` feed.
fn segment_main(raw: &[String]) -> i32 {
    let args = parse_args(raw).unwrap_or_else(|e| usage_error(&e));
    let reader: Box<dyn Read> = match &args.input {
        Some(path) => Box::new(std::fs::File::open(path).unwrap_or_else(|e| {
            eprintln!("error: cannot open {path}: {e}");
            std::process::exit(1);
        })),
        None => Box::new(std::io::stdin()),
    };
    match segment_feed(&args, BufReader::new(reader), &mut std::io::stdout().lock()) {
        Ok(()) => 0,
        Err(e) => write_failure_code(&e),
    }
}

/// Segments one observation per line of `reader`, writing change points
/// to `out` as they are detected. Only write failures are returned; a
/// read failure exits with status 1.
fn segment_feed(args: &CliArgs, reader: impl BufRead, out: &mut impl Write) -> std::io::Result<()> {
    let mut cfg = args.segmenter.config();
    cfg.relearn_width = args.relearn;
    let mut class = ClassSegmenter::new(cfg);

    let tsv = args.tsv;
    if tsv {
        writeln!(out, "detected_at\tchange_point")?;
    }
    let mut cps = Vec::new();
    let mut t: u64 = 0;
    let mut skipped = 0usize;
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: read failure: {e}");
                std::process::exit(1);
            }
        };
        let field = line.split(args.delimiter).nth(args.column).unwrap_or("");
        let Ok(x) = field.trim().parse::<f64>() else {
            skipped += 1;
            continue; // header or malformed line
        };
        let before = cps.len();
        class.step(x, &mut cps);
        for &cp in &cps[before..] {
            if tsv {
                writeln!(out, "{t}\t{cp}")?;
            } else {
                writeln!(out, "t={t}: change point at {cp}")?;
            }
        }
        t += 1;
    }
    let before = cps.len();
    class.finalize(&mut cps);
    for &cp in &cps[before..] {
        if tsv {
            writeln!(out, "{t}\t{cp}")?;
        } else {
            writeln!(out, "end-of-stream: change point at {cp}")?;
        }
    }
    if !tsv {
        writeln!(
            out,
            "processed {t} observations ({skipped} skipped), {} change points, width {:?}",
            cps.len(),
            class.width()
        )?;
    }
    out.flush()
}
