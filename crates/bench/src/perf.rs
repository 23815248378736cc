//! Perf-trajectory measurement: a fixed, pinned workload over the three
//! streaming hot paths, emitting machine-readable `BENCH_perf.json` so
//! every PR's numbers are comparable to its predecessors (see
//! EXPERIMENTS.md, §4.4 runtime decomposition).
//!
//! The measurement protocol is deliberately simple and robust: per kernel,
//! a short warm-up, then a fixed number of timed batches; the reported
//! statistic is the **median** ns/op across batches (insensitive to the
//! occasional scheduler hiccup, unlike the mean).

use std::time::Instant;

/// One measured kernel data point.
#[derive(Debug, Clone)]
pub struct KernelStat {
    /// Kernel identifier (`knn_update`, `crossval_profile`, `class_step`).
    pub name: &'static str,
    /// Sliding window size `d` of the workload.
    pub d: usize,
    /// Median nanoseconds per operation across batches.
    pub median_ns: f64,
    /// Best (minimum) batch mean, ns per operation.
    pub best_ns: f64,
    /// Total timed operations.
    pub ops: u64,
}

/// Times `ops_per_batch` invocations of `f` per batch over `batches`
/// timed batches (plus one untimed warm-up batch) and returns
/// `(median ns/op, best ns/op, total ops)`.
pub fn measure_batches(batches: usize, ops_per_batch: u64, mut f: impl FnMut()) -> (f64, f64, u64) {
    assert!(batches >= 1 && ops_per_batch >= 1);
    for _ in 0..ops_per_batch {
        f(); // warm-up: caches, branch predictors, lazy state
    }
    let mut per_op: Vec<f64> = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..ops_per_batch {
            f();
        }
        per_op.push(t.elapsed().as_nanos() as f64 / ops_per_batch as f64);
    }
    summarize(per_op, batches as u64 * ops_per_batch)
}

/// Like [`measure_batches`], but every operation is split into an untimed
/// `setup` phase and a timed `inner` phase over a shared mutable `state`.
/// This measures a kernel inside a realistically *evolving* context — e.g.
/// one stream update per profile re-evaluation — without charging the
/// context to the kernel (the context is typically a kernel of its own).
pub fn measure_batches_paired<S>(
    batches: usize,
    ops_per_batch: u64,
    state: &mut S,
    mut setup: impl FnMut(&mut S),
    mut inner: impl FnMut(&mut S),
) -> (f64, f64, u64) {
    assert!(batches >= 1 && ops_per_batch >= 1);
    for _ in 0..ops_per_batch {
        setup(state);
        inner(state);
    }
    let mut per_op: Vec<f64> = Vec::with_capacity(batches);
    for _ in 0..batches {
        let mut timed = std::time::Duration::ZERO;
        for _ in 0..ops_per_batch {
            setup(state);
            let t = Instant::now();
            inner(state);
            timed += t.elapsed();
        }
        per_op.push(timed.as_nanos() as f64 / ops_per_batch as f64);
    }
    summarize(per_op, batches as u64 * ops_per_batch)
}

fn summarize(mut per_op: Vec<f64>, ops: u64) -> (f64, f64, u64) {
    per_op.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = if per_op.len() % 2 == 1 {
        per_op[per_op.len() / 2]
    } else {
        0.5 * (per_op[per_op.len() / 2 - 1] + per_op[per_op.len() / 2])
    };
    let best = per_op[0];
    (median, best, ops)
}

/// Renders the stats and the per-`d` k-NN index footprints
/// (`(d, heap bytes)`) as the `BENCH_perf.json` document (no serde: the
/// workspace is offline; the format is a stable, hand-written schema).
pub fn render_json(
    preset: &str,
    simd_backend: &str,
    stats: &[KernelStat],
    index: &[(usize, usize)],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"class-perf-trajectory/v1\",\n");
    out.push_str(&format!("  \"preset\": \"{preset}\",\n"));
    out.push_str(&format!("  \"simd_backend\": \"{simd_backend}\",\n"));
    out.push_str("  \"kernels\": [\n");
    for (i, s) in stats.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"d\": {}, \"median_ns\": {:.1}, \
             \"best_ns\": {:.1}, \"ops\": {}}}{}\n",
            s.name,
            s.d,
            s.median_ns,
            s.best_ns,
            s.ops,
            if i + 1 < stats.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"index_bytes\": [\n");
    for (i, (d, bytes)) in index.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"d\": {d}, \"bytes\": {bytes}}}{}\n",
            if i + 1 < index.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Reads the `"index_bytes"` list of a `BENCH_perf.json` document as
/// `(d, bytes)` pairs; empty if the document has none.
pub fn index_bytes(doc: &str) -> Vec<(usize, usize)> {
    let Some(at) = doc.find("\"index_bytes\": [") else {
        return Vec::new();
    };
    let list = &doc[at..];
    let list = &list[..list.find(']').unwrap_or(list.len())];
    list.split('{')
        .skip(1)
        .filter_map(|entry| Some((json_number(entry, "d")?, json_number(entry, "bytes")?)))
        .map(|(d, bytes)| (d as usize, bytes as usize))
        .collect()
}

/// Extracts the first `"key": <number>` value from a JSON document.
/// Not a JSON parser — the workspace is offline (no serde) and both
/// `BENCH_perf.json` and `BENCH_serve.json` are emitted by this crate
/// with a stable, flat layout this scan matches exactly.
pub fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the first `"key": "<string>"` value from a JSON document
/// (same caveats as [`json_number`]).
pub fn json_string(doc: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Reads every `{"name": <kernel>, "d": .., "median_ns": ..}` entry of a
/// `BENCH_perf.json` document for one kernel, as `(d, median_ns)` pairs.
pub fn kernel_medians(doc: &str, kernel: &str) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    let needle = format!("\"name\": \"{kernel}\"");
    let mut rest = doc;
    while let Some(at) = rest.find(&needle) {
        let entry = &rest[at..];
        if let (Some(d), Some(median)) = (json_number(entry, "d"), json_number(entry, "median_ns"))
        {
            out.push((d as usize, median));
        }
        rest = &rest[at + needle.len()..];
    }
    out
}

/// Compares a fresh measurement against a committed baseline and returns
/// the regression verdicts: `(label, baseline, fresh, regressed)` per
/// matched entry. `higher_is_worse` says which direction is a regression
/// (true for ns/op medians, false for records/sec throughput);
/// `tolerance` is the allowed fractional slack (0.25 = fail beyond 25%).
pub fn regressions(
    pairs: &[(String, f64, f64)],
    higher_is_worse: bool,
    tolerance: f64,
) -> Vec<(String, f64, f64, bool)> {
    pairs
        .iter()
        .map(|(label, base, fresh)| {
            let regressed = if higher_is_worse {
                *fresh > *base * (1.0 + tolerance)
            } else {
                *fresh < *base * (1.0 - tolerance)
            };
            (label.clone(), *base, *fresh, regressed)
        })
        .collect()
}

/// Renders the stats as a Markdown table for stdout.
pub fn render_table(stats: &[KernelStat]) -> String {
    let mut out = String::new();
    out.push_str("| kernel | d | median ns/op | best ns/op | ops |\n");
    out.push_str("|---|---:|---:|---:|---:|\n");
    for s in stats {
        out.push_str(&format!(
            "| {} | {} | {:.1} | {:.1} | {} |\n",
            s.name, s.d, s.median_ns, s.best_ns, s.ops
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_batches_reports_sane_numbers() {
        let mut acc = 0u64;
        let (median, best, ops) = measure_batches(5, 100, || {
            acc = acc.wrapping_add(std::hint::black_box(1));
        });
        assert_eq!(ops, 500);
        assert!(median >= 0.0 && best >= 0.0 && best <= median);
    }

    #[test]
    fn paired_measurement_times_only_the_inner_phase() {
        // The setup phase spins noticeably longer than the inner phase; the
        // paired protocol must not charge it to the measurement.
        let spin = |iters: u64| {
            let mut x = 0u64;
            for i in 0..iters {
                x = x.wrapping_add(std::hint::black_box(i));
            }
            std::hint::black_box(x);
        };
        let mut state = 0u64;
        let (paired_median, _, ops) = measure_batches_paired(
            5,
            50,
            &mut state,
            |_| spin(40_000),
            |s| {
                *s = s.wrapping_add(1);
                spin(400);
            },
        );
        assert_eq!(ops, 250);
        assert_eq!(state, 300, "setup/inner must run once per op incl. warm-up");
        let (combined_median, _, _) = measure_batches(5, 50, || spin(40_000));
        assert!(
            paired_median < combined_median,
            "paired {paired_median} ns/op should exclude the {combined_median} ns/op setup"
        );
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let stats = vec![
            KernelStat {
                name: "knn_update",
                d: 1000,
                median_ns: 1234.5,
                best_ns: 1200.0,
                ops: 4000,
            },
            KernelStat {
                name: "class_step",
                d: 4000,
                median_ns: 9.25e4,
                best_ns: 9.0e4,
                ops: 500,
            },
        ];
        let doc = render_json("quick", "avx2", &stats, &[(1000, 123_456)]);
        assert!(doc.starts_with('{') && doc.trim_end().ends_with('}'));
        assert_eq!(doc.matches("\"name\"").count(), 2);
        assert!(doc.contains("\"schema\": \"class-perf-trajectory/v1\""));
        assert!(doc.contains("\"simd_backend\": \"avx2\""));
        // Exactly one comma between the two kernel objects.
        assert_eq!(doc.matches("},").count(), 1);
        assert!(doc.contains("\"index_bytes\": [\n    {\"d\": 1000, \"bytes\": 123456}\n  ]"));
        let table = render_table(&stats);
        assert_eq!(table.lines().count(), 4);
    }

    #[test]
    fn json_scans_read_back_the_rendered_document() {
        let stats = vec![
            KernelStat {
                name: "knn_update",
                d: 1000,
                median_ns: 3556.8,
                best_ns: 3425.0,
                ops: 6000,
            },
            KernelStat {
                name: "crossval_profile",
                d: 1000,
                median_ns: 26074.2,
                best_ns: 24945.1,
                ops: 600,
            },
            KernelStat {
                name: "knn_update",
                d: 4000,
                median_ns: 14044.3,
                best_ns: 13721.1,
                ops: 6000,
            },
        ];
        let doc = render_json("quick", "avx2", &stats, &[(1000, 99_001), (4000, 350_120)]);
        assert_eq!(json_string(&doc, "preset").as_deref(), Some("quick"));
        assert_eq!(json_string(&doc, "simd_backend").as_deref(), Some("avx2"));
        assert_eq!(json_number(&doc, "d"), Some(1000.0));
        assert_eq!(json_string(&doc, "nope"), None);
        assert_eq!(json_number(&doc, "nope"), None);
        assert_eq!(
            kernel_medians(&doc, "knn_update"),
            vec![(1000, 3556.8), (4000, 14044.3)]
        );
        assert_eq!(kernel_medians(&doc, "class_step"), Vec::new());
        assert_eq!(index_bytes(&doc), vec![(1000, 99_001), (4000, 350_120)]);
        // A baseline from before the footprint was recorded has none.
        assert_eq!(
            index_bytes(&render_json("quick", "avx2", &stats, &[])),
            Vec::new()
        );
        assert_eq!(index_bytes("{\"kernels\": []}"), Vec::new());
    }

    #[test]
    fn regression_verdicts_respect_direction_and_tolerance() {
        let pairs = vec![
            ("lat d=1000".to_string(), 100.0, 124.0),
            ("lat d=4000".to_string(), 100.0, 126.0),
        ];
        // Latency: higher is worse; 24% slower passes, 26% fails.
        let v = regressions(&pairs, true, 0.25);
        assert!(!v[0].3 && v[1].3);
        // Throughput: lower is worse; both are *faster*, so both pass.
        let v = regressions(&pairs, false, 0.25);
        assert!(!v[0].3 && !v[1].3);
        let v = regressions(&[("tps".into(), 1000.0, 700.0)], false, 0.25);
        assert!(v[0].3, "30% throughput drop must fail");
    }
}
