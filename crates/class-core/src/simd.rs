//! Portable SIMD kernels for the streaming hot paths.
//!
//! The per-update cost of ClaSS is dominated by three straight-line f64
//! loops over contiguous slices (see `cargo bench -p bench --bench
//! core_speedups` and ROADMAP.md): the Q-recursion + scoring sweep of
//! [`crate::knn::StreamingKnn::update`], the subsequence-moment sums, and
//! the explicit dot products that seed the recursion. It also provides the
//! two next-candidate searches that let the neighbour-list maintenance
//! after the sweep visit only the slots that can change a list. Every
//! kernel comes in three layers that share one semantics:
//!
//! * [`scalar`] — the plain-Rust reference implementation and the single
//!   source of truth: every other backend must produce the same values
//!   (bit-identical for the element-wise Q-step kernels, within rounding
//!   reassociation for the reductions).
//! * [`autovec`] — the same loops restructured into 4-wide `[f64; 4]`
//!   lane blocks with branchless selects, written so stable-Rust LLVM
//!   autovectorizes them on any target.
//! * [`avx2`] (x86-64 only) — explicit 256-bit `core::arch` intrinsics,
//!   selected at runtime via CPU feature detection with [`autovec`] as the
//!   portable fallback.
//!
//! The free functions at the top level ([`dot`], [`sum_sumsq`],
//! [`diff_sumsq`], [`qstep_pearson`], [`qstep_euclidean`], [`qstep_cid`],
//! [`first_above`], [`first_entering`]) dispatch to the best available
//! backend, resolved once per process.
//! The `CLASS_SIMD` environment variable (`scalar` | `autovec` | `avx2`)
//! overrides the choice for A/B measurements; an unavailable request
//! falls back to [`Backend::Autovec`].
//!
//! NaN semantics are part of the contract: dirty stream values must
//! propagate (or be floored/zeroed) exactly as the scalar reference does,
//! so the differential tests in `tests/simd_differential.rs` exercise
//! NaN-containing inputs across all remainder lengths.

use crate::similarity::{
    pearson_from_dot, sq_cid_from_dot, sq_euclidean_from_dot, CE_FLOOR, SIGMA_FLOOR,
};
use std::sync::OnceLock;

/// Lane width of the vectorized kernels (4 × f64 = 256 bit).
pub const LANES: usize = 4;

/// Which kernel implementation services the dispatching free functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Plain-Rust reference loops (semantics source of truth).
    Scalar,
    /// 4-wide lane blocks autovectorized by LLVM on stable Rust.
    Autovec,
    /// Explicit AVX2 `core::arch` intrinsics (x86-64, runtime-detected).
    Avx2,
}

impl Backend {
    /// Short lowercase identifier, used by benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Autovec => "autovec",
            Backend::Avx2 => "avx2",
        }
    }
}

/// The backend servicing the dispatching free functions, resolved once per
/// process from CPU feature detection and the `CLASS_SIMD` override.
pub fn active_backend() -> Backend {
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(detect)
}

fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn detect() -> Backend {
    match std::env::var("CLASS_SIMD").ok().as_deref() {
        Some("scalar") => return Backend::Scalar,
        Some("autovec") => return Backend::Autovec,
        Some("avx2") => {
            return if avx2_available() {
                Backend::Avx2
            } else {
                Backend::Autovec
            };
        }
        _ => {}
    }
    if avx2_available() {
        Backend::Avx2
    } else {
        Backend::Autovec
    }
}

/// In/out state of one fused Q-recursion + score + Q-shift pass.
///
/// For every slot `i` the kernels compute, in a single traversal,
///
/// ```text
/// dot       = q[i] + tail[i] * last     // complete the w-length dot
/// scores[i] = similarity(dot, ...)      // measure-specific, see kernels
/// q[i]      = dot - head[i] * first     // shift to the next step's state
/// ```
///
/// replacing the previous load → dot → score → store sequence of
/// `StreamingKnn::update` (paper Eq. 3–5, Algorithm 2).
#[derive(Debug)]
pub struct QStepIo<'a> {
    /// Maintained (w-1)-length dot products; rewritten in place to the
    /// next step's value.
    pub q: &'a mut [f64],
    /// Output: similarity score of each slot vs. the newest subsequence.
    pub scores: &'a mut [f64],
    /// `win[i + w - 1]` per slot — the value completing each dot product.
    pub tail: &'a [f64],
    /// `win[i]` per slot — the value leaving each dot for the next step.
    pub head: &'a [f64],
    /// Newest window value (multiplies `tail`).
    pub last: f64,
    /// First value of the newest subsequence (multiplies `head`).
    pub first: f64,
}

impl QStepIo<'_> {
    #[inline]
    fn check(&self) {
        let n = self.q.len();
        assert_eq!(self.scores.len(), n, "scores length mismatch");
        assert_eq!(self.tail.len(), n, "tail length mismatch");
        assert_eq!(self.head.len(), n, "head length mismatch");
    }
}

/// Dot product of two equal-length slices via the active backend.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot operand length mismatch");
    match active_backend() {
        Backend::Scalar => scalar::dot(a, b),
        Backend::Autovec => autovec::dot(a, b),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => avx2::dot(a, b),
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => autovec::dot(a, b),
    }
}

/// Fused `(sum, sum of squares)` of a slice via the active backend.
#[inline]
pub fn sum_sumsq(a: &[f64]) -> (f64, f64) {
    match active_backend() {
        Backend::Scalar => scalar::sum_sumsq(a),
        Backend::Autovec => autovec::sum_sumsq(a),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => avx2::sum_sumsq(a),
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => autovec::sum_sumsq(a),
    }
}

/// Sum of squared consecutive differences (`CE(x)^2`, the complexity
/// estimate of the CID measure) via the active backend.
#[inline]
pub fn diff_sumsq(a: &[f64]) -> f64 {
    match active_backend() {
        Backend::Scalar => scalar::diff_sumsq(a),
        Backend::Autovec => autovec::diff_sumsq(a),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => avx2::diff_sumsq(a),
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => autovec::diff_sumsq(a),
    }
}

/// Fused Q-step scoring with the Pearson measure (paper Eq. 4).
/// `mu`/`sig` are the per-slot moments, `mu_n`/`sig_n` the newest
/// subsequence's, `w` the subsequence width as f64.
#[inline]
pub fn qstep_pearson(io: QStepIo<'_>, mu: &[f64], sig: &[f64], w: f64, mu_n: f64, sig_n: f64) {
    io.check();
    assert_eq!(mu.len(), io.q.len(), "mu length mismatch");
    assert_eq!(sig.len(), io.q.len(), "sig length mismatch");
    match active_backend() {
        Backend::Scalar => scalar::qstep_pearson(io, mu, sig, w, mu_n, sig_n),
        Backend::Autovec => autovec::qstep_pearson(io, mu, sig, w, mu_n, sig_n),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => avx2::qstep_pearson(io, mu, sig, w, mu_n, sig_n),
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => autovec::qstep_pearson(io, mu, sig, w, mu_n, sig_n),
    }
}

/// Fused Q-step scoring with the (negated squared) Euclidean measure.
/// `ssq` are the per-slot sums of squares, `ssq_n` the newest one's.
#[inline]
pub fn qstep_euclidean(io: QStepIo<'_>, ssq: &[f64], ssq_n: f64) {
    io.check();
    assert_eq!(ssq.len(), io.q.len(), "ssq length mismatch");
    match active_backend() {
        Backend::Scalar => scalar::qstep_euclidean(io, ssq, ssq_n),
        Backend::Autovec => autovec::qstep_euclidean(io, ssq, ssq_n),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => avx2::qstep_euclidean(io, ssq, ssq_n),
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => autovec::qstep_euclidean(io, ssq, ssq_n),
    }
}

/// Fused Q-step scoring with the (negated squared) complexity-invariant
/// distance. `ssq`/`ce2` are per-slot, `ssq_n`/`ce2_n` the newest one's.
#[inline]
pub fn qstep_cid(io: QStepIo<'_>, ssq: &[f64], ce2: &[f64], ssq_n: f64, ce2_n: f64) {
    io.check();
    assert_eq!(ssq.len(), io.q.len(), "ssq length mismatch");
    assert_eq!(ce2.len(), io.q.len(), "ce2 length mismatch");
    match active_backend() {
        Backend::Scalar => scalar::qstep_cid(io, ssq, ce2, ssq_n, ce2_n),
        Backend::Autovec => autovec::qstep_cid(io, ssq, ce2, ssq_n, ce2_n),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => avx2::qstep_cid(io, ssq, ce2, ssq_n, ce2_n),
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => autovec::qstep_cid(io, ssq, ce2, ssq_n, ce2_n),
    }
}

/// Index of the first `i >= from` with `xs[i] > thr`, or `xs.len()` if
/// there is none (also when `from >= xs.len()`). NaN scores and a NaN
/// threshold never compare above, so a `-inf` threshold passes exactly
/// the finite and `+inf` scores. The search only compares, so every
/// backend returns the same index.
#[inline]
pub fn first_above(xs: &[f64], from: usize, thr: f64) -> usize {
    match active_backend() {
        Backend::Scalar => scalar::first_above(xs, from, thr),
        Backend::Autovec => autovec::first_above(xs, from, thr),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => avx2::first_above(xs, from, thr),
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => autovec::first_above(xs, from, thr),
    }
}

/// Index of the first `i >= from` whose score would enter a neighbour list
/// with k-th score `thr_col[i]`: `scores[i]` is not NaN and either
/// `scores[i] > thr_col[i]` or `thr_col[i]` is NaN. A NaN entry in
/// `thr_col` marks a list that is not full yet, which every non-NaN score
/// enters. Returns `scores.len()` if there is no such index (also when
/// `from >= scores.len()`). Every backend returns the same index.
///
/// # Panics
/// Panics if `scores` and `thr_col` differ in length.
#[inline]
pub fn first_entering(scores: &[f64], thr_col: &[f64], from: usize) -> usize {
    assert_eq!(
        scores.len(),
        thr_col.len(),
        "first_entering operand length mismatch"
    );
    match active_backend() {
        Backend::Scalar => scalar::first_entering(scores, thr_col, from),
        Backend::Autovec => autovec::first_entering(scores, thr_col, from),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => avx2::first_entering(scores, thr_col, from),
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => autovec::first_entering(scores, thr_col, from),
    }
}

/// Plain-Rust reference kernels — the single source of truth for the
/// semantics (including NaN propagation) of every other backend.
pub mod scalar {
    use super::*;

    /// Dot product, sequential accumulation.
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = 0.0;
        for (&x, &y) in a.iter().zip(b) {
            acc += x * y;
        }
        acc
    }

    /// `(sum, sum of squares)`, sequential accumulation.
    pub fn sum_sumsq(a: &[f64]) -> (f64, f64) {
        let mut s = 0.0;
        let mut q = 0.0;
        for &v in a {
            s += v;
            q += v * v;
        }
        (s, q)
    }

    /// Sum of squared consecutive differences, sequential accumulation.
    pub fn diff_sumsq(a: &[f64]) -> f64 {
        let mut acc = 0.0;
        for p in a.windows(2) {
            let d = p[1] - p[0];
            acc += d * d;
        }
        acc
    }

    /// Fused Q-step, Pearson scoring (see [`QStepIo`]).
    pub fn qstep_pearson(io: QStepIo<'_>, mu: &[f64], sig: &[f64], w: f64, mu_n: f64, sig_n: f64) {
        let QStepIo {
            q,
            scores,
            tail,
            head,
            last,
            first,
        } = io;
        for i in 0..q.len() {
            let dot = q[i] + tail[i] * last;
            scores[i] = pearson_from_dot(dot, w, mu[i], sig[i], mu_n, sig_n);
            q[i] = dot - head[i] * first;
        }
    }

    /// Fused Q-step, negated squared Euclidean scoring.
    pub fn qstep_euclidean(io: QStepIo<'_>, ssq: &[f64], ssq_n: f64) {
        let QStepIo {
            q,
            scores,
            tail,
            head,
            last,
            first,
        } = io;
        for i in 0..q.len() {
            let dot = q[i] + tail[i] * last;
            scores[i] = -sq_euclidean_from_dot(dot, ssq[i], ssq_n);
            q[i] = dot - head[i] * first;
        }
    }

    /// Fused Q-step, negated squared CID scoring.
    pub fn qstep_cid(io: QStepIo<'_>, ssq: &[f64], ce2: &[f64], ssq_n: f64, ce2_n: f64) {
        let QStepIo {
            q,
            scores,
            tail,
            head,
            last,
            first,
        } = io;
        for i in 0..q.len() {
            let dot = q[i] + tail[i] * last;
            scores[i] = -sq_cid_from_dot(dot, ssq[i], ssq_n, ce2[i], ce2_n);
            q[i] = dot - head[i] * first;
        }
    }

    /// Whether `sc` enters a list whose k-th score is `kth` (NaN = not
    /// full): the rule [`super::first_entering`] searches for.
    #[inline(always)]
    pub(super) fn enters(sc: f64, kth: f64) -> bool {
        !sc.is_nan() && (kth.is_nan() || sc > kth)
    }

    /// First `i >= from` with `xs[i] > thr`, or `xs.len()`.
    pub fn first_above(xs: &[f64], from: usize, thr: f64) -> usize {
        (from..xs.len()).find(|&i| xs[i] > thr).unwrap_or(xs.len())
    }

    /// First `i >= from` whose score enters its list, or `scores.len()`.
    pub fn first_entering(scores: &[f64], thr_col: &[f64], from: usize) -> usize {
        debug_assert_eq!(scores.len(), thr_col.len());
        (from..scores.len())
            .find(|&i| enters(scores[i], thr_col[i]))
            .unwrap_or(scores.len())
    }
}

/// 4-wide lane-block kernels written so stable-Rust LLVM autovectorizes
/// them: fixed-size `[f64; 4]` blocks, independent accumulators for the
/// reductions, branchless selects for the element-wise kernels. The
/// element-wise Q-step kernels are value-identical to [`scalar`]; the
/// reductions differ only by summation order.
pub mod autovec {
    use super::*;

    /// Dot product with 4 independent lane accumulators.
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let m = a.len() - a.len() % LANES;
        let mut acc = [0.0f64; LANES];
        for (ca, cb) in a[..m].chunks_exact(LANES).zip(b[..m].chunks_exact(LANES)) {
            for l in 0..LANES {
                acc[l] += ca[l] * cb[l];
            }
        }
        let mut s = (acc[0] + acc[2]) + (acc[1] + acc[3]);
        for (&x, &y) in a[m..].iter().zip(&b[m..]) {
            s += x * y;
        }
        s
    }

    /// `(sum, sum of squares)` with 4 independent lane accumulators.
    pub fn sum_sumsq(a: &[f64]) -> (f64, f64) {
        let m = a.len() - a.len() % LANES;
        let mut acc_s = [0.0f64; LANES];
        let mut acc_q = [0.0f64; LANES];
        for c in a[..m].chunks_exact(LANES) {
            for l in 0..LANES {
                acc_s[l] += c[l];
                acc_q[l] += c[l] * c[l];
            }
        }
        let mut s = (acc_s[0] + acc_s[2]) + (acc_s[1] + acc_s[3]);
        let mut q = (acc_q[0] + acc_q[2]) + (acc_q[1] + acc_q[3]);
        for &v in &a[m..] {
            s += v;
            q += v * v;
        }
        (s, q)
    }

    /// Sum of squared consecutive differences, 4 lane accumulators over
    /// the `n - 1` difference pairs.
    pub fn diff_sumsq(a: &[f64]) -> f64 {
        if a.len() < 2 {
            return 0.0;
        }
        let nd = a.len() - 1;
        let m = nd - nd % LANES;
        let mut acc = [0.0f64; LANES];
        let mut i = 0;
        while i < m {
            for l in 0..LANES {
                let d = a[i + l + 1] - a[i + l];
                acc[l] += d * d;
            }
            i += LANES;
        }
        let mut s = (acc[0] + acc[2]) + (acc[1] + acc[3]);
        for j in m..nd {
            let d = a[j + 1] - a[j];
            s += d * d;
        }
        s
    }

    /// Branchless floor at zero that preserves NaN, matching the scalar
    /// `sq_euclidean_from_dot` clamp (the select compares false on NaN).
    #[inline(always)]
    fn floor0(x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            x
        }
    }

    /// Branchless clamp into `[-1, 1]` that, like `f64::clamp`, leaves NaN
    /// untouched (both selects compare false on NaN).
    #[inline(always)]
    fn clamp1(c: f64) -> f64 {
        let lo = if c < -1.0 { -1.0 } else { c };
        if lo > 1.0 {
            1.0
        } else {
            lo
        }
    }

    /// Fused Q-step, Pearson scoring; value-identical to the scalar kernel.
    pub fn qstep_pearson(io: QStepIo<'_>, mu: &[f64], sig: &[f64], w: f64, mu_n: f64, sig_n: f64) {
        let QStepIo {
            q,
            scores,
            tail,
            head,
            last,
            first,
        } = io;
        let n = q.len();
        let m = n - n % LANES;
        let flat_n = sig_n < SIGMA_FLOOR;
        let blocks = q[..m]
            .chunks_exact_mut(LANES)
            .zip(scores[..m].chunks_exact_mut(LANES))
            .zip(
                tail[..m]
                    .chunks_exact(LANES)
                    .zip(head[..m].chunks_exact(LANES)),
            )
            .zip(
                mu[..m]
                    .chunks_exact(LANES)
                    .zip(sig[..m].chunks_exact(LANES)),
            );
        for (((qb, sb), (tb, hb)), (mb, gb)) in blocks {
            for l in 0..LANES {
                let dot = qb[l] + tb[l] * last;
                let c = clamp1((dot - w * mb[l] * mu_n) / (w * gb[l] * sig_n));
                sb[l] = if flat_n || gb[l] < SIGMA_FLOOR {
                    0.0
                } else {
                    c
                };
                qb[l] = dot - hb[l] * first;
            }
        }
        scalar::qstep_pearson(
            QStepIo {
                q: &mut q[m..],
                scores: &mut scores[m..],
                tail: &tail[m..],
                head: &head[m..],
                last,
                first,
            },
            &mu[m..],
            &sig[m..],
            w,
            mu_n,
            sig_n,
        );
    }

    /// Fused Q-step, negated squared Euclidean scoring; value-identical to
    /// the scalar kernel.
    pub fn qstep_euclidean(io: QStepIo<'_>, ssq: &[f64], ssq_n: f64) {
        let QStepIo {
            q,
            scores,
            tail,
            head,
            last,
            first,
        } = io;
        let n = q.len();
        let m = n - n % LANES;
        let blocks = q[..m]
            .chunks_exact_mut(LANES)
            .zip(scores[..m].chunks_exact_mut(LANES))
            .zip(
                tail[..m]
                    .chunks_exact(LANES)
                    .zip(head[..m].chunks_exact(LANES)),
            )
            .zip(ssq[..m].chunks_exact(LANES));
        for (((qb, sb), (tb, hb)), cb) in blocks {
            for l in 0..LANES {
                let dot = qb[l] + tb[l] * last;
                let ed2 = floor0(cb[l] + ssq_n - 2.0 * dot);
                sb[l] = -ed2;
                qb[l] = dot - hb[l] * first;
            }
        }
        scalar::qstep_euclidean(
            QStepIo {
                q: &mut q[m..],
                scores: &mut scores[m..],
                tail: &tail[m..],
                head: &head[m..],
                last,
                first,
            },
            &ssq[m..],
            ssq_n,
        );
    }

    /// Fused Q-step, negated squared CID scoring; value-identical to the
    /// scalar kernel.
    pub fn qstep_cid(io: QStepIo<'_>, ssq: &[f64], ce2: &[f64], ssq_n: f64, ce2_n: f64) {
        let QStepIo {
            q,
            scores,
            tail,
            head,
            last,
            first,
        } = io;
        let n = q.len();
        let m = n - n % LANES;
        let blocks = q[..m]
            .chunks_exact_mut(LANES)
            .zip(scores[..m].chunks_exact_mut(LANES))
            .zip(
                tail[..m]
                    .chunks_exact(LANES)
                    .zip(head[..m].chunks_exact(LANES)),
            )
            .zip(
                ssq[..m]
                    .chunks_exact(LANES)
                    .zip(ce2[..m].chunks_exact(LANES)),
            );
        for (((qb, sb), (tb, hb)), (cb, eb)) in blocks {
            for l in 0..LANES {
                let dot = qb[l] + tb[l] * last;
                let ed2 = floor0(cb[l] + ssq_n - 2.0 * dot);
                let (hi, lo) = if eb[l] >= ce2_n {
                    (eb[l], ce2_n)
                } else {
                    (ce2_n, eb[l])
                };
                sb[l] = -(ed2 * (hi / lo.max(CE_FLOOR)));
                qb[l] = dot - hb[l] * first;
            }
        }
        scalar::qstep_cid(
            QStepIo {
                q: &mut q[m..],
                scores: &mut scores[m..],
                tail: &tail[m..],
                head: &head[m..],
                last,
                first,
            },
            &ssq[m..],
            &ce2[m..],
            ssq_n,
            ce2_n,
        );
    }

    /// First `i >= from` with `xs[i] > thr`: tests whole 4-lane blocks
    /// branch-free and locates the lane only in a block that has a hit.
    pub fn first_above(xs: &[f64], from: usize, thr: f64) -> usize {
        let n = xs.len();
        let mut i = from.min(n);
        while i + LANES <= n {
            let b = &xs[i..i + LANES];
            if (b[0] > thr) | (b[1] > thr) | (b[2] > thr) | (b[3] > thr) {
                break;
            }
            i += LANES;
        }
        scalar::first_above(xs, i, thr)
    }

    /// First `i >= from` whose score enters its list; block-wise like
    /// [`first_above`].
    pub fn first_entering(scores: &[f64], thr_col: &[f64], from: usize) -> usize {
        debug_assert_eq!(scores.len(), thr_col.len());
        let n = scores.len();
        let mut i = from.min(n);
        while i + LANES <= n {
            let s = &scores[i..i + LANES];
            let t = &thr_col[i..i + LANES];
            let hit = scalar::enters(s[0], t[0])
                | scalar::enters(s[1], t[1])
                | scalar::enters(s[2], t[2])
                | scalar::enters(s[3], t[3]);
            if hit {
                break;
            }
            i += LANES;
        }
        scalar::first_entering(scores, thr_col, i)
    }
}

/// Explicit AVX2 kernels (`core::arch::x86_64` intrinsics). Every public
/// function asserts [`avx2::available`] and falls through to [`scalar`]
/// for the `n % 4` remainder. NaN handling replicates the scalar kernels
/// exactly: clamps blend the unordered lanes back, and `maxpd`'s
/// returns-second-operand-on-NaN rule matches `f64::max`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // raw intrinsics behind runtime feature detection
pub mod avx2 {
    use super::*;
    use core::arch::x86_64::*;

    /// Whether the running CPU supports these kernels.
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    #[inline(always)]
    fn assert_available() {
        assert!(available(), "AVX2 kernels called on a CPU without AVX2");
    }

    /// Dot product; lane-accumulation order matches [`autovec::dot`].
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        assert_available();
        // Hard assert: the impl reads raw pointers sized by `a.len()`, so a
        // shorter `b` would be an out-of-bounds read, not a panic.
        assert_eq!(a.len(), b.len(), "dot operand length mismatch");
        unsafe { dot_impl(a, b) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn dot_impl(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let m = n - n % LANES;
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i < m {
            let va = _mm256_loadu_pd(a.as_ptr().add(i));
            let vb = _mm256_loadu_pd(b.as_ptr().add(i));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
            i += LANES;
        }
        let mut s = hsum(acc);
        for j in m..n {
            s += a[j] * b[j];
        }
        s
    }

    /// `(sum, sum of squares)`; lane order matches [`autovec::sum_sumsq`].
    pub fn sum_sumsq(a: &[f64]) -> (f64, f64) {
        assert_available();
        unsafe { sum_sumsq_impl(a) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn sum_sumsq_impl(a: &[f64]) -> (f64, f64) {
        let n = a.len();
        let m = n - n % LANES;
        let mut acc_s = _mm256_setzero_pd();
        let mut acc_q = _mm256_setzero_pd();
        let mut i = 0;
        while i < m {
            let v = _mm256_loadu_pd(a.as_ptr().add(i));
            acc_s = _mm256_add_pd(acc_s, v);
            acc_q = _mm256_add_pd(acc_q, _mm256_mul_pd(v, v));
            i += LANES;
        }
        let mut s = hsum(acc_s);
        let mut q = hsum(acc_q);
        for &v in &a[m..] {
            s += v;
            q += v * v;
        }
        (s, q)
    }

    /// Sum of squared consecutive differences via overlapping loads.
    pub fn diff_sumsq(a: &[f64]) -> f64 {
        assert_available();
        unsafe { diff_sumsq_impl(a) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn diff_sumsq_impl(a: &[f64]) -> f64 {
        if a.len() < 2 {
            return 0.0;
        }
        let nd = a.len() - 1;
        let m = nd - nd % LANES;
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i < m {
            let lo = _mm256_loadu_pd(a.as_ptr().add(i));
            let hi = _mm256_loadu_pd(a.as_ptr().add(i + 1));
            let d = _mm256_sub_pd(hi, lo);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
            i += LANES;
        }
        let mut s = hsum(acc);
        for j in m..nd {
            let d = a[j + 1] - a[j];
            s += d * d;
        }
        s
    }

    /// Horizontal sum in the `(0 + 2) + (1 + 3)` order the lane-block
    /// backends use.
    #[target_feature(enable = "avx2")]
    unsafe fn hsum(v: __m256d) -> f64 {
        let mut lanes = [0.0f64; LANES];
        _mm256_storeu_pd(lanes.as_mut_ptr(), v);
        (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
    }

    /// Fused Q-step, Pearson scoring; value-identical to the scalar kernel
    /// (flat-σ zeroing and NaN propagation included).
    pub fn qstep_pearson(io: QStepIo<'_>, mu: &[f64], sig: &[f64], w: f64, mu_n: f64, sig_n: f64) {
        assert_available();
        // Hard asserts: the impl reads raw pointers sized by `q.len()`.
        io.check();
        assert_eq!(mu.len(), io.q.len(), "mu length mismatch");
        assert_eq!(sig.len(), io.q.len(), "sig length mismatch");
        unsafe { qstep_pearson_impl(io, mu, sig, w, mu_n, sig_n) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn qstep_pearson_impl(
        io: QStepIo<'_>,
        mu: &[f64],
        sig: &[f64],
        w: f64,
        mu_n: f64,
        sig_n: f64,
    ) {
        let QStepIo {
            q,
            scores,
            tail,
            head,
            last,
            first,
        } = io;
        let n = q.len();
        let m = n - n % LANES;
        let vlast = _mm256_set1_pd(last);
        let vfirst = _mm256_set1_pd(first);
        let vw = _mm256_set1_pd(w);
        let vmun = _mm256_set1_pd(mu_n);
        let vsign = _mm256_set1_pd(sig_n);
        let vfloor = _mm256_set1_pd(SIGMA_FLOOR);
        let vneg1 = _mm256_set1_pd(-1.0);
        let vpos1 = _mm256_set1_pd(1.0);
        let vzero = _mm256_setzero_pd();
        // sig_n < floor zeroes every lane (scalar checks it per call).
        let flat_n = _mm256_cmp_pd::<_CMP_LT_OQ>(vsign, vfloor);
        let mut i = 0;
        while i < m {
            let vq = _mm256_loadu_pd(q.as_ptr().add(i));
            let vt = _mm256_loadu_pd(tail.as_ptr().add(i));
            let vh = _mm256_loadu_pd(head.as_ptr().add(i));
            let vmu = _mm256_loadu_pd(mu.as_ptr().add(i));
            let vsig = _mm256_loadu_pd(sig.as_ptr().add(i));
            let dot = _mm256_add_pd(vq, _mm256_mul_pd(vt, vlast));
            // Same association as the scalar kernel: (w*mu_a)*mu_n etc.
            let num = _mm256_sub_pd(dot, _mm256_mul_pd(_mm256_mul_pd(vw, vmu), vmun));
            let den = _mm256_mul_pd(_mm256_mul_pd(vw, vsig), vsign);
            let c = _mm256_div_pd(num, den);
            // clamp to [-1, 1] but keep NaN lanes NaN, like f64::clamp.
            let clamped = _mm256_min_pd(_mm256_max_pd(c, vneg1), vpos1);
            let unord = _mm256_cmp_pd::<_CMP_UNORD_Q>(c, c);
            let val = _mm256_blendv_pd(clamped, c, unord);
            let flat = _mm256_or_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(vsig, vfloor), flat_n);
            let score = _mm256_blendv_pd(val, vzero, flat);
            _mm256_storeu_pd(scores.as_mut_ptr().add(i), score);
            let qn = _mm256_sub_pd(dot, _mm256_mul_pd(vh, vfirst));
            _mm256_storeu_pd(q.as_mut_ptr().add(i), qn);
            i += LANES;
        }
        scalar::qstep_pearson(
            QStepIo {
                q: &mut q[m..],
                scores: &mut scores[m..],
                tail: &tail[m..],
                head: &head[m..],
                last,
                first,
            },
            &mu[m..],
            &sig[m..],
            w,
            mu_n,
            sig_n,
        );
    }

    /// Fused Q-step, negated squared Euclidean scoring; value-identical to
    /// the scalar kernel (NaN-preserving floor at zero included).
    pub fn qstep_euclidean(io: QStepIo<'_>, ssq: &[f64], ssq_n: f64) {
        assert_available();
        io.check();
        assert_eq!(ssq.len(), io.q.len(), "ssq length mismatch");
        unsafe { qstep_euclidean_impl(io, ssq, ssq_n) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn qstep_euclidean_impl(io: QStepIo<'_>, ssq: &[f64], ssq_n: f64) {
        let QStepIo {
            q,
            scores,
            tail,
            head,
            last,
            first,
        } = io;
        let n = q.len();
        let m = n - n % LANES;
        let vlast = _mm256_set1_pd(last);
        let vfirst = _mm256_set1_pd(first);
        let vssqn = _mm256_set1_pd(ssq_n);
        let vtwo = _mm256_set1_pd(2.0);
        let vzero = _mm256_setzero_pd();
        let vsign = _mm256_set1_pd(-0.0);
        let mut i = 0;
        while i < m {
            let vq = _mm256_loadu_pd(q.as_ptr().add(i));
            let vt = _mm256_loadu_pd(tail.as_ptr().add(i));
            let vh = _mm256_loadu_pd(head.as_ptr().add(i));
            let vssq = _mm256_loadu_pd(ssq.as_ptr().add(i));
            let dot = _mm256_add_pd(vq, _mm256_mul_pd(vt, vlast));
            let inner = _mm256_sub_pd(_mm256_add_pd(vssq, vssqn), _mm256_mul_pd(vtwo, dot));
            // maxpd returns the *second* operand on NaN, so this order
            // preserves a NaN `inner` like the scalar floor does.
            let ed2 = _mm256_max_pd(vzero, inner);
            _mm256_storeu_pd(scores.as_mut_ptr().add(i), _mm256_xor_pd(ed2, vsign));
            let qn = _mm256_sub_pd(dot, _mm256_mul_pd(vh, vfirst));
            _mm256_storeu_pd(q.as_mut_ptr().add(i), qn);
            i += LANES;
        }
        scalar::qstep_euclidean(
            QStepIo {
                q: &mut q[m..],
                scores: &mut scores[m..],
                tail: &tail[m..],
                head: &head[m..],
                last,
                first,
            },
            &ssq[m..],
            ssq_n,
        );
    }

    /// Fused Q-step, negated squared CID scoring; value-identical to the
    /// scalar kernel (hi/lo selection via an ordered `>=` mask so NaN
    /// complexity estimates land exactly where the scalar branch puts
    /// them).
    pub fn qstep_cid(io: QStepIo<'_>, ssq: &[f64], ce2: &[f64], ssq_n: f64, ce2_n: f64) {
        assert_available();
        io.check();
        assert_eq!(ssq.len(), io.q.len(), "ssq length mismatch");
        assert_eq!(ce2.len(), io.q.len(), "ce2 length mismatch");
        unsafe { qstep_cid_impl(io, ssq, ce2, ssq_n, ce2_n) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn qstep_cid_impl(io: QStepIo<'_>, ssq: &[f64], ce2: &[f64], ssq_n: f64, ce2_n: f64) {
        let QStepIo {
            q,
            scores,
            tail,
            head,
            last,
            first,
        } = io;
        let n = q.len();
        let m = n - n % LANES;
        let vlast = _mm256_set1_pd(last);
        let vfirst = _mm256_set1_pd(first);
        let vssqn = _mm256_set1_pd(ssq_n);
        let vce2n = _mm256_set1_pd(ce2_n);
        let vtwo = _mm256_set1_pd(2.0);
        let vzero = _mm256_setzero_pd();
        let vsign = _mm256_set1_pd(-0.0);
        let vtiny = _mm256_set1_pd(CE_FLOOR);
        let mut i = 0;
        while i < m {
            let vq = _mm256_loadu_pd(q.as_ptr().add(i));
            let vt = _mm256_loadu_pd(tail.as_ptr().add(i));
            let vh = _mm256_loadu_pd(head.as_ptr().add(i));
            let vssq = _mm256_loadu_pd(ssq.as_ptr().add(i));
            let vce2 = _mm256_loadu_pd(ce2.as_ptr().add(i));
            let dot = _mm256_add_pd(vq, _mm256_mul_pd(vt, vlast));
            let inner = _mm256_sub_pd(_mm256_add_pd(vssq, vssqn), _mm256_mul_pd(vtwo, dot));
            // NaN-preserving floor at zero (maxpd returns src2 on NaN).
            let ed2 = _mm256_max_pd(vzero, inner);
            // (hi, lo) = ce2_a >= ce2_b ? (a, b) : (b, a), as in the scalar
            // branch (NaN a compares false and becomes lo).
            let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(vce2, vce2n);
            let hi = _mm256_blendv_pd(vce2n, vce2, ge);
            let lo = _mm256_blendv_pd(vce2, vce2n, ge);
            let lo = _mm256_max_pd(lo, vtiny);
            let cid2 = _mm256_mul_pd(ed2, _mm256_div_pd(hi, lo));
            _mm256_storeu_pd(scores.as_mut_ptr().add(i), _mm256_xor_pd(cid2, vsign));
            let qn = _mm256_sub_pd(dot, _mm256_mul_pd(vh, vfirst));
            _mm256_storeu_pd(q.as_mut_ptr().add(i), qn);
            i += LANES;
        }
        scalar::qstep_cid(
            QStepIo {
                q: &mut q[m..],
                scores: &mut scores[m..],
                tail: &tail[m..],
                head: &head[m..],
                last,
                first,
            },
            &ssq[m..],
            &ce2[m..],
            ssq_n,
            ce2_n,
        );
    }

    /// First `i >= from` with `xs[i] > thr`; an ordered `>` compare per
    /// 4-lane block and `movemask` to find the lane.
    pub fn first_above(xs: &[f64], from: usize, thr: f64) -> usize {
        assert_available();
        let from = from.min(xs.len());
        // SAFETY: AVX2 is available (asserted above) and `from <= xs.len()`,
        // which is all `first_above_impl` requires.
        let i = unsafe { first_above_impl(xs, from, thr) };
        scalar::first_above(xs, i, thr)
    }

    /// Returns the first hit among the whole 4-lane blocks starting at
    /// `from`, or the start of the `< 4`-element remainder (which the
    /// caller scans).
    ///
    /// # Safety
    /// The CPU must support AVX2 and `from <= xs.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn first_above_impl(xs: &[f64], from: usize, thr: f64) -> usize {
        let n = xs.len();
        let vthr = _mm256_set1_pd(thr);
        let mut i = from;
        while i + LANES <= n {
            let v = _mm256_loadu_pd(xs.as_ptr().add(i));
            let hit = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(v, vthr));
            if hit != 0 {
                return i + hit.trailing_zeros() as usize;
            }
            i += LANES;
        }
        i
    }

    /// First `i >= from` whose score enters its list: an ordered
    /// self-compare drops NaN scores and an unordered `!<=` passes a NaN
    /// (not full) threshold, as [`scalar::first_entering`] does.
    pub fn first_entering(scores: &[f64], thr_col: &[f64], from: usize) -> usize {
        assert_available();
        // Hard assert: the impl reads `thr_col` at indices of `scores`.
        assert_eq!(
            scores.len(),
            thr_col.len(),
            "first_entering operand length mismatch"
        );
        let from = from.min(scores.len());
        // SAFETY: AVX2 is available, the two slices have equal length and
        // `from <= scores.len()`, which is all `first_entering_impl` requires.
        let i = unsafe { first_entering_impl(scores, thr_col, from) };
        scalar::first_entering(scores, thr_col, i)
    }

    /// Returns the first hit among the whole 4-lane blocks starting at
    /// `from`, or the start of the remainder (which the caller scans).
    ///
    /// # Safety
    /// The CPU must support AVX2, `thr_col.len() == scores.len()` and
    /// `from <= scores.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn first_entering_impl(scores: &[f64], thr_col: &[f64], from: usize) -> usize {
        let n = scores.len();
        let mut i = from;
        while i + LANES <= n {
            let vs = _mm256_loadu_pd(scores.as_ptr().add(i));
            let vt = _mm256_loadu_pd(thr_col.as_ptr().add(i));
            let ord = _mm256_cmp_pd::<_CMP_ORD_Q>(vs, vs);
            let nle = _mm256_cmp_pd::<_CMP_NLE_UQ>(vs, vt);
            let hit = _mm256_movemask_pd(_mm256_and_pd(ord, nle));
            if hit != 0 {
                return i + hit.trailing_zeros() as usize;
            }
            i += LANES;
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SplitMix64;

    fn random(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() * 4.0 - 2.0).collect()
    }

    #[test]
    fn backend_name_roundtrip() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Autovec.name(), "autovec");
        assert_eq!(Backend::Avx2.name(), "avx2");
        // Dispatch resolves to something usable on this machine.
        let _ = active_backend();
    }

    #[test]
    fn dispatch_dot_matches_scalar() {
        for n in [0usize, 1, 3, 4, 5, 63, 64, 65, 200] {
            let a = random(n, 1 + n as u64);
            let b = random(n, 1000 + n as u64);
            let want = scalar::dot(&a, &b);
            let got = dot(&a, &b);
            assert!((got - want).abs() <= 1e-10 * (1.0 + want.abs()), "n={n}");
        }
    }

    #[test]
    fn dispatch_moments_match_scalar() {
        for n in [0usize, 1, 2, 5, 8, 131] {
            let a = random(n, 7 + n as u64);
            let (ws, wq) = scalar::sum_sumsq(&a);
            let (gs, gq) = sum_sumsq(&a);
            assert!((gs - ws).abs() <= 1e-10 * (1.0 + ws.abs()));
            assert!((gq - wq).abs() <= 1e-10 * (1.0 + wq.abs()));
            let wd = scalar::diff_sumsq(&a);
            let gd = diff_sumsq(&a);
            assert!((gd - wd).abs() <= 1e-10 * (1.0 + wd.abs()));
        }
    }

    #[test]
    #[should_panic]
    fn qstep_rejects_mismatched_lengths() {
        let mut q = vec![0.0; 4];
        let mut scores = vec![0.0; 4];
        let tail = vec![0.0; 3];
        let head = vec![0.0; 4];
        qstep_euclidean(
            QStepIo {
                q: &mut q,
                scores: &mut scores,
                tail: &tail,
                head: &head,
                last: 0.0,
                first: 0.0,
            },
            &[0.0; 4],
            0.0,
        );
    }
}
