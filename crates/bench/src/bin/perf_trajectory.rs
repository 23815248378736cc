//! `perf_trajectory` — the pinned perf workload every PR is measured on.
//!
//! Runs the streaming hot paths at d ∈ {1_000, 4_000, 10_000} on
//! fixed-seed synthetic streams and writes `BENCH_perf.json` (median ns/op
//! per kernel) next to the working directory, plus a Markdown table on
//! stdout. Numbers are before/after comparable across PRs: same seeds,
//! same widths, same batch protocol (see `bench::perf`). Kernels:
//!
//! * `knn_update` — one streaming index update,
//! * `crossval_cold` — one full profile rebuild from the neighbour lists
//!   (the former `crossval_profile` workload, now the fallback path),
//! * `crossval_incremental` — advance the stream by one observation
//!   (untimed; that context is the `knn_update` kernel) and re-evaluate
//!   the warm journal-synced profile — the steady-state serving cost,
//! * `class_step` — the full per-observation pipeline at the default
//!   jump-ahead cadence.
//!
//! Beside the kernels it records `index_bytes` per d: the heap footprint of
//! the `knn_update` workload's index ([`StreamingKnn::heap_bytes`]).
//!
//! ```sh
//! cargo run --release -p bench --bin perf_trajectory              # full
//! cargo run --release -p bench --bin perf_trajectory -- --preset quick
//! CLASS_SIMD=scalar cargo run --release -p bench --bin perf_trajectory
//! ```
//!
//! `--preset quick` (CI) runs d ∈ {1_000, 4_000} with fewer batches —
//! seconds, not minutes. `--out PATH` overrides the output path. The
//! `CLASS_SIMD` environment variable pins the kernel backend for A/B runs.
//!
//! `--check BASELINE.json` turns the run into a **regression gate**: the
//! fresh medians of *every* kernel shared with the baseline document are
//! compared (read before `--out` is written, so checking against the
//! committed `BENCH_perf.json` in place works) and the process exits
//! non-zero if any shared (kernel, d) regressed beyond its tolerance —
//! `--tolerance` (default 0.25) for the steady kernels, widened to 0.35
//! for the noisier end-to-end `class_step`. It also fails if a d's
//! `index_bytes` exceeds the baseline's: memory has no noise, so any growth
//! is a regression.

use bench::perf::{
    index_bytes, json_string, kernel_medians, measure_batches, measure_batches_paired, regressions,
    render_json, render_table, KernelStat,
};
use class_core::crossval::{CrossVal, ScoreFn};
use class_core::knn::{KnnConfig, StreamingKnn};
use class_core::stats::SplitMix64;
use class_core::{ClassConfig, ClassSegmenter, StreamingSegmenter, WidthSelection};
use std::hint::black_box;

const WIDTH: usize = 50;
const K: usize = 3;

struct Preset {
    name: &'static str,
    d_values: &'static [usize],
    batches: usize,
    knn_ops: u64,
    cv_ops: u64,
    step_ops: u64,
}

const FULL: Preset = Preset {
    name: "full",
    d_values: &[1_000, 4_000, 10_000],
    batches: 15,
    knn_ops: 400,
    cv_ops: 40,
    step_ops: 60,
};

const QUICK: Preset = Preset {
    name: "quick",
    d_values: &[1_000, 4_000],
    batches: 9,
    knn_ops: 200,
    cv_ops: 20,
    step_ops: 30,
};

fn filled_knn(d: usize) -> (StreamingKnn, SplitMix64) {
    let mut rng = SplitMix64::new(42);
    let mut knn = StreamingKnn::new(KnnConfig::new(d, WIDTH, K));
    for _ in 0..2 * d {
        knn.update(rng.next_f64() * 2.0 - 1.0);
    }
    (knn, rng)
}

fn main() {
    let mut preset = &FULL;
    let mut out_path = "BENCH_perf.json".to_string();
    let mut check_path: Option<String> = None;
    let mut tolerance: f64 = 0.25;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--preset" => {
                let v = it.next().expect("--preset requires a value");
                preset = match v.as_str() {
                    "quick" => &QUICK,
                    "full" => &FULL,
                    other => panic!("unknown preset {other} (quick|full)"),
                };
            }
            "--out" => out_path = it.next().expect("--out requires a value"),
            "--check" => check_path = Some(it.next().expect("--check requires a value")),
            "--tolerance" => {
                tolerance = it
                    .next()
                    .expect("--tolerance requires a value")
                    .parse()
                    .expect("numeric --tolerance");
            }
            "--help" | "-h" => {
                eprintln!(
                    "options: --preset quick|full --out PATH --check BASELINE.json --tolerance F"
                );
                return;
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    // Read the baseline before measuring: `--check` against the same
    // file `--out` overwrites must compare old numbers, not fresh ones.
    let baseline = check_path.as_ref().map(|p| {
        std::fs::read_to_string(p).unwrap_or_else(|e| panic!("reading baseline {p}: {e}"))
    });

    let backend = class_core::simd::active_backend().name();
    eprintln!(
        "perf_trajectory: preset={} simd_backend={backend} (override with CLASS_SIMD)",
        preset.name
    );

    let mut stats: Vec<KernelStat> = Vec::new();
    let mut footprints: Vec<(usize, usize)> = Vec::new();
    for &d in preset.d_values {
        // --- knn_update: one streaming index update (Q-recursion +
        // scoring + single-pass selection + list maintenance). ---
        let (mut knn, mut rng) = filled_knn(d);
        footprints.push((d, knn.heap_bytes()));
        eprintln!("  index_bytes          d={d:<6} {:>12} B", knn.heap_bytes());
        let (median, best, ops) = measure_batches(preset.batches, preset.knn_ops, || {
            knn.update(black_box(rng.next_f64() * 2.0 - 1.0));
        });
        stats.push(KernelStat {
            name: "knn_update",
            d,
            median_ns: median,
            best_ns: best,
            ops,
        });
        eprintln!("  knn_update           d={d:<6} median {median:>12.1} ns/op");

        // --- crossval_cold: one full profile rebuild from the neighbour
        // lists (reset() drops the persisted incremental state first). ---
        let (knn, _) = filled_knn(d);
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        let (median, best, ops) = measure_batches(preset.batches, preset.cv_ops, || {
            cv.reset();
            black_box(cv.compute(&knn, knn.qstart()));
        });
        stats.push(KernelStat {
            name: "crossval_cold",
            d,
            median_ns: median,
            best_ns: best,
            ops,
        });
        eprintln!("  crossval_cold        d={d:<6} median {median:>12.1} ns/op");

        // --- crossval_incremental: advance the stream by one observation
        // (untimed: that context is exactly the knn_update kernel above)
        // and re-evaluate the warm, journal-synced profile. ---
        let mut state = {
            let (knn, rng) = filled_knn(d);
            let mut cv = CrossVal::new(ScoreFn::MacroF1);
            cv.compute(&knn, knn.qstart());
            (knn, cv, rng)
        };
        let (median, best, ops) = measure_batches_paired(
            preset.batches,
            preset.cv_ops,
            &mut state,
            |(knn, _, rng)| {
                knn.update(black_box(rng.next_f64() * 2.0 - 1.0));
            },
            |(knn, cv, _)| {
                black_box(cv.compute(knn, knn.qstart()));
            },
        );
        stats.push(KernelStat {
            name: "crossval_incremental",
            d,
            median_ns: median,
            best_ns: best,
            ops,
        });
        eprintln!("  crossval_incremental d={d:<6} median {median:>12.1} ns/op");

        // --- class_step: the full per-observation pipeline. ---
        let mut cfg = ClassConfig::with_window_size(d);
        cfg.width = WidthSelection::Fixed(WIDTH);
        let mut class = ClassSegmenter::new(cfg);
        let mut rng = SplitMix64::new(7);
        let mut cps = Vec::new();
        for i in 0..2 * d {
            class.step((i as f64 * 0.2).sin() + 0.05 * rng.next_f64(), &mut cps);
        }
        let (median, best, ops) = measure_batches(preset.batches, preset.step_ops, || {
            class.step(black_box(rng.next_f64()), &mut cps);
            cps.clear();
        });
        stats.push(KernelStat {
            name: "class_step",
            d,
            median_ns: median,
            best_ns: best,
            ops,
        });
        eprintln!("  class_step           d={d:<6} median {median:>12.1} ns/op");
    }

    let json = render_json(preset.name, backend, &stats, &footprints);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("{}", render_table(&stats));
    eprintln!("wrote {out_path}");

    if let Some(baseline) = baseline {
        let grew = footprint_grew(&baseline, &footprints);
        let base_backend = json_string(&baseline, "simd_backend").unwrap_or_default();
        if base_backend != backend {
            // A scalar-vs-AVX2 comparison measures the hardware, not the
            // PR; skip rather than fail, loudly, so the gate never goes
            // red on a runner-generation change.
            eprintln!(
                "regression check SKIPPED: baseline backend {base_backend} != fresh backend \
                 {backend}; absolute ns/op are not comparable across kernel backends \
                 (re-commit {} from matching hardware to re-arm the gate)",
                check_path.as_deref().unwrap_or("")
            );
            if grew {
                std::process::exit(1);
            }
            return;
        }
        // Gate every kernel shared between the fresh run and the baseline
        // (a kernel new to this PR has no baseline yet and is skipped; a
        // kernel retired from the workload no longer gates). Per-kernel
        // tolerance: the end-to-end class_step mixes cheap skipped steps
        // with full evaluations and the occasional detection, so it is
        // noisier than the steady kernels.
        let mut failed = grew;
        let mut matched = 0usize;
        eprintln!(
            "regression check vs {} (baseline backend {base_backend}, tolerance {tolerance}):",
            check_path.as_deref().unwrap_or("")
        );
        // First-occurrence order; stats interleave kernels per d, so a
        // plain consecutive dedup would visit each kernel once per d.
        let mut kernels: Vec<&'static str> = Vec::new();
        for s in &stats {
            if !kernels.contains(&s.name) {
                kernels.push(s.name);
            }
        }
        for kernel in kernels {
            let base = kernel_medians(&baseline, kernel);
            let pairs: Vec<(String, f64, f64)> = stats
                .iter()
                .filter(|s| s.name == kernel)
                .filter_map(|s| {
                    base.iter()
                        .find(|&&(d, _)| d == s.d)
                        .map(|&(_, m)| (format!("{kernel} d={}", s.d), m, s.median_ns))
                })
                .collect();
            if pairs.is_empty() {
                eprintln!("  {kernel:<31} not in baseline; skipped");
                continue;
            }
            let kernel_tol = if kernel == "class_step" {
                tolerance.max(0.35)
            } else {
                tolerance
            };
            matched += pairs.len();
            for (label, base_ns, fresh_ns, regressed) in regressions(&pairs, true, kernel_tol) {
                eprintln!(
                    "  {label:<31} baseline {base_ns:>10.1} ns/op, fresh {fresh_ns:>10.1} ns/op  \
                     {} (tol {kernel_tol})",
                    if regressed { "REGRESSED" } else { "ok" }
                );
                failed |= regressed;
            }
        }
        assert!(
            matched > 0,
            "baseline {} shares no kernel/d with preset {}",
            check_path.as_deref().unwrap_or(""),
            preset.name
        );
        if failed {
            eprintln!("perf regression beyond tolerance");
            std::process::exit(1);
        }
    }
}

/// Gates each d's `index_bytes` against the baseline's, with no slack:
/// the footprint is exact, so any growth is a regression. The footprint
/// does not depend on the kernel backend, so it is gated on every runner.
fn footprint_grew(baseline: &str, footprints: &[(usize, usize)]) -> bool {
    eprintln!("footprint check (no tolerance):");
    let base = index_bytes(baseline);
    let pairs: Vec<(String, f64, f64)> = footprints
        .iter()
        .filter_map(|&(d, fresh)| {
            base.iter()
                .find(|&&(bd, _)| bd == d)
                .map(|&(_, b)| (format!("index_bytes d={d}"), b as f64, fresh as f64))
        })
        .collect();
    if pairs.is_empty() {
        eprintln!("  index_bytes not in baseline; skipped");
    }
    let mut grew = false;
    for (label, base, fresh, regressed) in regressions(&pairs, true, 0.0) {
        eprintln!(
            "  {label:<31} baseline {base:>10} B, fresh {fresh:>10} B  {}",
            if regressed { "GREW" } else { "ok" }
        );
        grew |= regressed;
    }
    grew
}
