//! Differential tests of the SIMD layer: every backend (autovec, and AVX2
//! where the CPU supports it) must agree with the scalar reference within
//! 1e-12 (relative, to absorb reassociated accumulation in the reductions)
//! on random, constant, and NaN-containing inputs, across all remainder
//! lengths (`n % 4 != 0` included). The element-wise Q-step kernels must
//! also agree on *which* lanes are NaN — NaN semantics are part of the
//! kernel contract (see `class_core::simd`). The next-candidate searches
//! only compare, so every backend must return exactly the scalar index.

use class_core::simd::{self, autovec, scalar, QStepIo};
use class_core::SplitMix64;
use proptest::prelude::*;

const TOL: f64 = 1e-12;

/// Equality up to `TOL` (relative), treating NaN == NaN.
fn close(a: f64, b: f64) -> bool {
    if a.is_nan() || b.is_nan() {
        return a.is_nan() && b.is_nan();
    }
    (a - b).abs() <= TOL * (1.0 + a.abs().max(b.abs()))
}

fn assert_all_close(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len());
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(close(g, w), "{what}[{i}]: {g} vs {w}");
    }
}

/// Input generator: uniform values in [-3, 3] with optional NaN injection
/// and an optional constant (flat) prefix — the three regimes the kernels
/// must handle (`SIGMA_FLOOR` zeroing kicks in on flat subsequences).
fn make_input(n: usize, seed: u64, nan_at: Option<usize>, constant: bool) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    let mut v: Vec<f64> = if constant {
        vec![1.25; n]
    } else {
        (0..n).map(|_| rng.next_f64() * 6.0 - 3.0).collect()
    };
    if let Some(p) = nan_at {
        if n > 0 {
            let p = p % n;
            v[p] = f64::NAN;
        }
    }
    v
}

/// Runs one Q-step kernel variant on fresh copies of the shared inputs and
/// returns `(q_out, scores_out)`.
#[allow(clippy::too_many_arguments)]
fn run_qstep(
    which: &str,
    backend: &str,
    q0: &[f64],
    tail: &[f64],
    head: &[f64],
    moments: (&[f64], &[f64], &[f64]),
    newest: (f64, f64, f64, f64),
    shift: (f64, f64),
) -> (Vec<f64>, Vec<f64>) {
    let (mu, sig, aux) = moments;
    let (mu_n, sig_n, ssq_n, ce2_n) = newest;
    let (last, first) = shift;
    let mut q = q0.to_vec();
    let mut scores = vec![0.0; q0.len()];
    let io = QStepIo {
        q: &mut q,
        scores: &mut scores,
        tail,
        head,
        last,
        first,
    };
    let w = 8.0;
    match (which, backend) {
        ("pearson", "scalar") => scalar::qstep_pearson(io, mu, sig, w, mu_n, sig_n),
        ("pearson", "autovec") => autovec::qstep_pearson(io, mu, sig, w, mu_n, sig_n),
        ("euclidean", "scalar") => scalar::qstep_euclidean(io, sig, ssq_n),
        ("euclidean", "autovec") => autovec::qstep_euclidean(io, sig, ssq_n),
        ("cid", "scalar") => scalar::qstep_cid(io, sig, aux, ssq_n, ce2_n),
        ("cid", "autovec") => autovec::qstep_cid(io, sig, aux, ssq_n, ce2_n),
        #[cfg(target_arch = "x86_64")]
        ("pearson", "avx2") => simd::avx2::qstep_pearson(io, mu, sig, w, mu_n, sig_n),
        #[cfg(target_arch = "x86_64")]
        ("euclidean", "avx2") => simd::avx2::qstep_euclidean(io, sig, ssq_n),
        #[cfg(target_arch = "x86_64")]
        ("cid", "avx2") => simd::avx2::qstep_cid(io, sig, aux, ssq_n, ce2_n),
        other => panic!("unknown kernel/backend combination {other:?}"),
    }
    (q, scores)
}

fn qstep_backends() -> Vec<&'static str> {
    let mut b = vec!["autovec"];
    #[cfg(target_arch = "x86_64")]
    if simd::avx2::available() {
        b.push("avx2");
    }
    b
}

/// Shared harness: build inputs for all three Q-step kernels from a seed
/// and compare every backend against the scalar reference.
fn check_qstep_all(n: usize, seed: u64, nan_at: Option<usize>, constant: bool) {
    let q0 = make_input(n, seed, nan_at, false);
    let tail = make_input(n, seed ^ 1, nan_at.map(|p| p / 2), constant);
    let head = make_input(n, seed ^ 2, None, constant);
    let mu = make_input(n, seed ^ 3, None, false);
    // `sig` doubles as ssq for euclidean/cid; mix small values under the
    // sigma floor so the flat-subsequence zeroing path is exercised.
    let mut sig = make_input(n, seed ^ 4, nan_at.map(|p| p / 3), false);
    for (i, s) in sig.iter_mut().enumerate() {
        *s = s.abs();
        if i % 7 == 3 {
            *s = 1e-9; // below SIGMA_FLOOR
        }
    }
    let aux: Vec<f64> = make_input(n, seed ^ 5, None, false)
        .iter()
        .map(|v| v.abs())
        .collect();
    let newest = (0.3, if seed % 3 == 0 { 1e-9 } else { 0.9 }, 4.2, 1.7);
    let shift = (1.12, -0.57);
    for which in ["pearson", "euclidean", "cid"] {
        let (q_ref, s_ref) = run_qstep(
            which,
            "scalar",
            &q0,
            &tail,
            &head,
            (&mu, &sig, &aux),
            newest,
            shift,
        );
        for backend in qstep_backends() {
            let (q_got, s_got) = run_qstep(
                which,
                backend,
                &q0,
                &tail,
                &head,
                (&mu, &sig, &aux),
                newest,
                shift,
            );
            assert_all_close(&q_got, &q_ref, &format!("{which}/{backend}/q(n={n})"));
            assert_all_close(&s_got, &s_ref, &format!("{which}/{backend}/scores(n={n})"));
        }
    }
}

fn check_reductions(a: &[f64], b: &[f64], label: &str) {
    let want_dot = scalar::dot(a, b);
    let (want_s, want_q) = scalar::sum_sumsq(a);
    let want_d = scalar::diff_sumsq(a);
    let mut variants: Vec<(&str, f64, f64, f64, f64)> = vec![{
        let (s, q) = autovec::sum_sumsq(a);
        ("autovec", autovec::dot(a, b), s, q, autovec::diff_sumsq(a))
    }];
    #[cfg(target_arch = "x86_64")]
    if simd::avx2::available() {
        let (s, q) = simd::avx2::sum_sumsq(a);
        variants.push((
            "avx2",
            simd::avx2::dot(a, b),
            s,
            q,
            simd::avx2::diff_sumsq(a),
        ));
    }
    for (name, got_dot, got_s, got_q, got_d) in variants {
        assert!(
            close(got_dot, want_dot),
            "{label}/{name}/dot: {got_dot} vs {want_dot}"
        );
        assert!(
            close(got_s, want_s),
            "{label}/{name}/sum: {got_s} vs {want_s}"
        );
        assert!(
            close(got_q, want_q),
            "{label}/{name}/sumsq: {got_q} vs {want_q}"
        );
        assert!(
            close(got_d, want_d),
            "{label}/{name}/diff_sumsq: {got_d} vs {want_d}"
        );
    }
}

#[test]
fn reductions_agree_across_remainder_lengths() {
    for n in [
        0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65, 250,
    ] {
        let a = make_input(n, 100 + n as u64, None, false);
        let b = make_input(n, 200 + n as u64, None, false);
        check_reductions(&a, &b, &format!("random(n={n})"));
        let c = make_input(n, 0, None, true);
        check_reductions(&c, &c, &format!("constant(n={n})"));
        let d = make_input(n, 300 + n as u64, Some(n / 2), false);
        check_reductions(&d, &b, &format!("nan(n={n})"));
    }
}

#[test]
fn qstep_kernels_agree_across_remainder_lengths() {
    for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 127, 128, 129] {
        check_qstep_all(n, 500 + n as u64, None, false);
        check_qstep_all(n, 600 + n as u64, Some(n / 3), false);
        check_qstep_all(n, 700 + n as u64, None, true);
    }
}

#[test]
fn dispatch_layer_matches_scalar_reference() {
    // The top-level free functions must agree with `scalar` no matter which
    // backend the process resolved to.
    let a = make_input(101, 42, Some(50), false);
    let b = make_input(101, 43, None, false);
    assert!(close(simd::dot(&a, &b), scalar::dot(&a, &b)));
    let (s, q) = simd::sum_sumsq(&a);
    let (ws, wq) = scalar::sum_sumsq(&a);
    assert!(close(s, ws) && close(q, wq));
    assert!(close(simd::diff_sumsq(&a), scalar::diff_sumsq(&a)));
}

/// Every backend's `first_above` and `first_entering` index, for every
/// `from` in `0..=n + 1`, must equal the scalar reference's.
fn check_candidate_search(xs: &[f64], thr: f64, thr_col: &[f64], label: &str) {
    type Above = fn(&[f64], usize, f64) -> usize;
    type Entering = fn(&[f64], &[f64], usize) -> usize;
    let mut backends: Vec<(&str, Above, Entering)> = vec![
        ("autovec", autovec::first_above, autovec::first_entering),
        ("dispatch", simd::first_above, simd::first_entering),
    ];
    #[cfg(target_arch = "x86_64")]
    if simd::avx2::available() {
        backends.push(("avx2", simd::avx2::first_above, simd::avx2::first_entering));
    }
    for from in 0..=xs.len() + 1 {
        let want_above = scalar::first_above(xs, from, thr);
        let want_entering = scalar::first_entering(xs, thr_col, from);
        for &(name, above, entering) in &backends {
            assert_eq!(
                above(xs, from, thr),
                want_above,
                "{label}/{name}/first_above(from={from}, thr={thr})"
            );
            assert_eq!(
                entering(xs, thr_col, from),
                want_entering,
                "{label}/{name}/first_entering(from={from})"
            );
        }
    }
}

/// Scores with NaN and -inf sprinkled in, and a threshold column that
/// mixes NaN (list not full), exact ties with the score, and values on
/// both sides of it.
fn candidate_inputs(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut xs = make_input(n, seed, None, false);
    for (i, x) in xs.iter_mut().enumerate() {
        match i % 7 {
            2 => *x = f64::NAN,
            5 => *x = f64::NEG_INFINITY,
            _ => {}
        }
    }
    let col = xs
        .iter()
        .enumerate()
        .map(|(i, &x)| match i % 5 {
            0 => f64::NAN,
            1 => x,
            2 => x + 0.5,
            3 => x - 0.5,
            _ => f64::NEG_INFINITY,
        })
        .collect();
    (xs, col)
}

#[test]
fn candidate_searches_agree_across_remainders_and_offsets() {
    for n in (0usize..=9).chain([15, 16, 17, 31, 32, 33, 64]) {
        let (xs, col) = candidate_inputs(n, 900 + n as u64);
        for thr in [f64::NEG_INFINITY, -1.0, 0.0, 2.5, f64::INFINITY, f64::NAN] {
            check_candidate_search(&xs, thr, &col, &format!("mixed(n={n})"));
        }
        // Exact ties: every score equals the threshold, so nothing passes
        // `first_above`, and a tied full list is not entered.
        let ties = vec![0.75; n];
        check_candidate_search(&ties, 0.75, &ties, &format!("ties(n={n})"));
        assert_eq!(scalar::first_above(&ties, 0, 0.75), n);
        assert_eq!(scalar::first_entering(&ties, &ties, 0), n);
        // A NaN threshold column (no list full) admits every non-NaN score.
        let nan_col = vec![f64::NAN; n];
        check_candidate_search(&xs, f64::NEG_INFINITY, &nan_col, &format!("nan-col(n={n})"));
        // No candidate: NaN and -inf scores only.
        let dead: Vec<f64> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    f64::NAN
                } else {
                    f64::NEG_INFINITY
                }
            })
            .collect();
        check_candidate_search(&dead, f64::NEG_INFINITY, &dead, &format!("dead(n={n})"));
        assert_eq!(scalar::first_above(&dead, 0, f64::NEG_INFINITY), n);
        // A lone candidate at every position.
        for hit in 0..n {
            let mut one = vec![-2.0; n];
            one[hit] = 1.0;
            let col = vec![0.0; n];
            check_candidate_search(&one, 0.0, &col, &format!("one(n={n}, hit={hit})"));
            assert_eq!(scalar::first_above(&one, 0, 0.0), hit);
            assert_eq!(scalar::first_entering(&one, &col, 0), hit);
        }
    }
}

#[test]
fn candidate_search_reference_rules() {
    let nan = f64::NAN;
    let ninf = f64::NEG_INFINITY;
    // NaN and -inf never pass a -inf threshold; +inf does.
    assert_eq!(scalar::first_above(&[nan, ninf, f64::INFINITY], 0, ninf), 2);
    // A -inf score enters a list that is not full, but not a full list
    // whose k-th score is -inf; a NaN score enters nothing.
    assert_eq!(scalar::first_entering(&[nan, ninf], &[nan, nan], 0), 1);
    assert_eq!(scalar::first_entering(&[ninf, 0.0], &[ninf, 0.0], 0), 2);
    assert_eq!(scalar::first_entering(&[ninf, 0.5], &[ninf, 0.0], 0), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn proptest_reductions_agree(
        n in 0usize..130,
        seed in any::<u64>(),
        nan_sel in 0usize..260, // >= 130 encodes "no NaN injected"
    ) {
        let nan = (nan_sel < 130).then_some(nan_sel);
        let a = make_input(n, seed, nan, false);
        let b = make_input(n, seed ^ 0xABCD, None, false);
        check_reductions(&a, &b, "proptest");
    }

    #[test]
    fn proptest_qstep_kernels_agree(
        n in 0usize..130,
        seed in any::<u64>(),
        nan_sel in 0usize..260, // >= 130 encodes "no NaN injected"
        constant in any::<bool>(),
    ) {
        check_qstep_all(n, seed, (nan_sel < 130).then_some(nan_sel), constant);
    }

    #[test]
    fn proptest_candidate_searches_agree(
        n in 0usize..70,
        seed in any::<u64>(),
        thr in -3.5f64..3.5,
    ) {
        let (xs, col) = candidate_inputs(n, seed);
        check_candidate_search(&xs, thr, &col, "proptest");
    }
}
