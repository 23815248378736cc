//! End-to-end integration tests spanning all workspace crates: datasets ->
//! segmenters -> Covering evaluation, plus the stream-engine execution
//! path. These exercise the exact code paths of the experiment binaries on
//! miniature workloads.

use class_core::{ClassConfig, ClassSegmenter, StreamingSegmenter};
use competitors::CompetitorKind;
use datasets::{build_series, Archive, GenConfig, NoiseSpec, Regime};
use eval::{covering, run_matrix, AlgoSpec};
use stream_engine::{feed_all, serve, EngineConfig, SegmenterOperator};

fn two_regime_series(seed: u64) -> datasets::AnnotatedSeries {
    build_series(
        format!("it/{seed}"),
        "test",
        &[
            (
                Regime::Sine {
                    period: 30.0,
                    amp: 1.0,
                    phase: 0.0,
                },
                2000,
            ),
            (
                Regime::Sawtooth {
                    period: 45.0,
                    amp: 1.2,
                },
                2000,
            ),
        ],
        NoiseSpec::benchmark(),
        seed,
    )
}

#[test]
fn class_segments_generated_archive_series() {
    let cfg = GenConfig::default();
    let series = &Archive::MHealth.generate(&cfg)[0];
    let mut class_cfg = ClassConfig::with_window_size(2000);
    class_cfg.warmup = Some(1500);
    let mut class = ClassSegmenter::new(class_cfg);
    let cps = class.segment_series(&series.values);
    let cov = covering(&series.change_points, &cps, series.len() as u64);
    // mHealth-like activity data is ClaSS's home turf.
    assert!(cov > 0.5, "covering = {cov} (cps = {cps:?})");
}

#[test]
fn full_lineup_runs_on_a_small_matrix() {
    let series = vec![two_regime_series(1), two_regime_series(2)];
    let algos = AlgoSpec::default_lineup(1200);
    let results = run_matrix(&algos, &series, 4);
    assert_eq!(results.len(), algos.len() * series.len());
    for r in &results {
        assert!(
            (0.0..=1.0).contains(&r.covering),
            "{}: covering {}",
            r.algo,
            r.covering
        );
        assert!(r.throughput() > 0.0);
    }
    // ClaSS should be at least as good as the drift detectors here.
    let score = |name: &str| -> f64 {
        results
            .iter()
            .filter(|r| r.algo == name)
            .map(|r| r.covering)
            .sum::<f64>()
    };
    assert!(score("ClaSS") >= score("DDM") - 1e-9);
    assert!(score("ClaSS") >= score("HDDM") - 1e-9);
}

#[test]
fn standalone_and_stream_engine_agree() {
    let series = two_regime_series(3);
    // Standalone.
    let mk_cfg = || {
        let mut c = ClassConfig::with_window_size(1500);
        c.warmup = Some(1000);
        c.log10_alpha = -15.0;
        c
    };
    let mut standalone = ClassSegmenter::new(mk_cfg());
    let direct_cps = standalone.segment_series(&series.values);
    // Through the stream engine.
    let (results, ()) = serve(EngineConfig::new(1), |engine| {
        let handle = engine.register(|| SegmenterOperator::new(ClassSegmenter::new(mk_cfg())));
        feed_all(vec![handle], &[series.values.as_slice()]).expect("feed completes");
    });
    let mut engine_cps: Vec<u64> = results[0].output.iter().map(|r| r.value).collect();
    engine_cps.sort_unstable();
    engine_cps.dedup();
    // The engine does not call finalize-driven replay (infinite-stream
    // semantics); both paths must agree on every CP reported while
    // streaming. With warmup < series length, the sets are identical.
    assert_eq!(direct_cps, engine_cps);
}

#[test]
fn every_baseline_handles_every_archive_family() {
    let cfg = GenConfig {
        scale: 0.3,
        ..GenConfig::default()
    };
    for archive in Archive::all() {
        let series = &archive.generate(&cfg)[0];
        for kind in CompetitorKind::baselines() {
            if kind == CompetitorKind::Bocd && series.len() > 20_000 {
                continue; // O(n) state; the paper also skips BOCD on archives
            }
            let mut seg = competitors::build(
                kind,
                competitors::SeriesContext {
                    width: series.width,
                    window_size: 1000,
                },
            );
            let cps = seg.segment_series(&series.values);
            let cov = covering(&series.change_points, &cps, series.len() as u64);
            assert!(
                (0.0..=1.0).contains(&cov),
                "{} on {}: covering {cov}",
                kind.name(),
                series.name
            );
        }
    }
}

#[test]
fn covering_ranks_separate_good_from_bad_segmenters() {
    // Sanity for the whole measurement chain: an oracle that reports the
    // truth must dominate one that reports nothing.
    let series = two_regime_series(4);
    let n = series.len() as u64;
    let oracle = covering(&series.change_points, &series.change_points, n);
    let nothing = covering(&series.change_points, &[], n);
    let garbage: Vec<u64> = (1..40).map(|i| i * 100).collect();
    let noisy = covering(&series.change_points, &garbage, n);
    assert_eq!(oracle, 1.0);
    assert!(nothing < 0.6);
    assert!(noisy < oracle);
}

#[test]
fn class_profile_is_exposed_through_the_public_api() {
    let series = two_regime_series(5);
    let mut cfg = ClassConfig::with_window_size(1500);
    cfg.warmup = Some(800);
    let mut class = ClassSegmenter::new(cfg);
    let mut cps = Vec::new();
    let mut saw_profile = false;
    for &x in &series.values {
        class.step(x, &mut cps);
        if let Some((start, profile)) = class.latest_profile() {
            saw_profile = true;
            assert!(profile.iter().all(|v| (0.0..=1.0).contains(v)));
            assert!(start < series.len() as u64);
        }
    }
    assert!(saw_profile, "profile never became available");
}

#[test]
fn facade_crate_reexports_work() {
    // The root crate exposes the whole workspace under one namespace.
    let _cfg: class_repro::core::ClassConfig = Default::default();
    let spec = class_repro::datasets::Archive::Tssb.spec();
    assert_eq!(spec.n_series, 75);
    let c = class_repro::eval::covering(&[10], &[10], 20);
    assert_eq!(c, 1.0);
}

#[test]
fn multivariate_fusion_recovers_shared_changes() {
    use class_core::{MultivariateClass, MultivariateConfig, WidthSelection};
    use datasets::{generate_multivariate, MultivariateSpec};

    let spec = MultivariateSpec {
        seed: 42,
        ..Default::default()
    };
    let mv = generate_multivariate(&spec);
    let mut base = ClassConfig::with_window_size(2000);
    base.width = WidthSelection::Fixed(mv.width);
    base.log10_alpha = -12.0;
    let cfg = MultivariateConfig::new(base, mv.n_channels());
    let mut seg = MultivariateClass::new(cfg, mv.n_channels());
    let mut cps = Vec::new();
    let mut row = vec![0.0; mv.n_channels()];
    for t in 0..mv.len() {
        for (c, v) in row.iter_mut().enumerate() {
            *v = mv.channels[c][t];
        }
        seg.step(&row, &mut cps);
    }
    seg.finalize(&mut cps);
    cps.sort_unstable();
    cps.dedup();
    let cov = covering(&mv.change_points, &cps, mv.len() as u64);
    assert!(
        cov > 0.55,
        "covering = {cov} (cps = {cps:?}, gt = {:?})",
        mv.change_points
    );
}
