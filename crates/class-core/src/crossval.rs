//! Incremental self-supervised cross-validation (paper §3.2, Algorithm 3).
//!
//! For every hypothetical split of the scored sliding-window range into a
//! left (label 0) and right (label 1) part, a leave-one-out k-NN classifier
//! is evaluated: each subsequence's prediction is the majority label of its
//! k nearest neighbours. The resulting classification score per split forms
//! the ClaSP profile.
//!
//! A naive evaluation costs O(d) per split and O(d^2) per stream update.
//! Two observations bring this down to O(changes + d) per evaluation:
//!
//! 1. **Predictions flip at most once** (a sharpening of the paper's
//!    Algorithm 3). A neighbour with subsequence id `q` votes class 1 at
//!    split sid `s` exactly when `q >= s` — this covers in-range and
//!    pre-range neighbours uniformly ("negative offsets belong to class
//!    zero by design" is just `q < s`). The number of class-1 votes a row
//!    receives is therefore non-increasing in `s`, so its majority
//!    prediction flips from 1 to 0 at most once: at its **flip sid** — one
//!    past its majority-rank neighbour sid, a closed-form per-row threshold
//!    that replaces Algorithm 3's reverse-k-NN adjacency walk outright.
//!    Given all flip sids, one full profile is three linear passes: a
//!    histogram of flip offsets (suffix-summed into the per-split totals),
//!    a difference array (prefix-summed into the per-split left counts),
//!    and an elementwise score computation.
//!
//! 2. **Flip sids are persistent** (this engine is stateful across calls).
//!    A flip sid is an *absolute* stream position: advancing the scored
//!    range does not change it, and only rows whose neighbour list changed
//!    since the previous evaluation need theirs recomputed. Those rows are
//!    exactly the owners named by the [`StreamingKnn`] change journal of
//!    new rows, inserted edges and evicted edges (see
//!    [`crate::knn::KnnEvent`]), so a warm re-evaluation costs
//!    O(journalled changes + d_sweep) instead of re-reading all `n·k`
//!    neighbour lists — competitive with the k-NN update itself.

use crate::knn::{KnnEvent, StreamingKnn};
use crate::stats::BinaryGroups;

/// Classification score derived from the running confusion matrix
/// (paper ablation (e): macro F1 is the default, macro/balanced accuracy the
/// alternative; both are computable in O(1) from the confusion matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoreFn {
    /// Macro-averaged F1 over both classes (paper default).
    #[default]
    MacroF1,
    /// Balanced (macro-averaged) accuracy.
    BalancedAccuracy,
}

impl ScoreFn {
    /// Identifier used by the ablation harness.
    pub fn name(self) -> &'static str {
        match self {
            ScoreFn::MacroF1 => "macro-f1",
            ScoreFn::BalancedAccuracy => "balanced-accuracy",
        }
    }

    /// Score from a 2x2 confusion matrix `m[true][pred]`.
    ///
    /// [`CrossVal`]'s sweep evaluates the same arithmetic in
    /// [`CrossVal::score_pass`] on `i32` counts (the scored range is far
    /// below `i32::MAX`); the conversions are exact for both widths, so the
    /// two paths are bit-identical.
    #[inline]
    pub fn score(self, m: &[[i64; 2]; 2]) -> f64 {
        match self {
            ScoreFn::MacroF1 => {
                let f1 = |c: usize| {
                    let tp = m[c][c];
                    let fp = m[1 - c][c];
                    let fn_ = m[c][1 - c];
                    let denom = 2 * tp + fp + fn_;
                    if denom == 0 {
                        0.0
                    } else {
                        2.0 * tp as f64 / denom as f64
                    }
                };
                0.5 * (f1(0) + f1(1))
            }
            ScoreFn::BalancedAccuracy => {
                let rec = |c: usize| {
                    let denom = m[c][0] + m[c][1];
                    if denom == 0 {
                        0.0
                    } else {
                        m[c][c] as f64 / denom as f64
                    }
                };
                0.5 * (rec(0) + rec(1))
            }
        }
    }
}

/// Ring slot of an absolute sid under capacity `cap`.
#[inline(always)]
fn ring(sid: i64, cap: usize) -> usize {
    debug_assert!(sid >= 0);
    (sid as u64 % cap as u64) as usize
}

/// Absolute flip sid of a row from its neighbour sid list: the smallest
/// split sid at which the row's majority prediction is class 0 (the
/// prediction is class 1 for every split sid strictly below it). A majority
/// needs `floor(m/2) + 1` of the `m` neighbours at or past the split, so
/// the threshold is one past the `(floor(m/2) + 1)`-th largest neighbour
/// sid; with no neighbours the prediction is always 0.
#[inline]
fn flip_sid_of(sel: &mut Vec<i64>, sids: &[i64]) -> i64 {
    let m = sids.len();
    if m == 0 {
        return i64::MIN;
    }
    sel.clear();
    sel.extend_from_slice(sids);
    sel.sort_unstable();
    sel[(m - 1) / 2] + 1
}

/// Bookkeeping that ties the persisted flip sids to one specific index
/// history; any mismatch on the next call triggers a cold rebuild.
#[derive(Debug, Clone)]
struct WarmState {
    /// [`StreamingKnn::instance_id`] of the index the state was built from.
    knn_id: u64,
    /// `m_max` of that index (sizes the flip ring).
    cap: usize,
    /// Journal cursor: [`StreamingKnn::events_total`] at the last sync.
    seen_seq: u64,
}

/// Reusable cross-validation engine, stateful across calls.
///
/// [`CrossVal::compute`] transparently chooses between a cold rebuild (first
/// call, different index, journal overrun) and a warm delta-sync against the
/// index's change journal; both paths produce bit-identical profiles. All
/// buffers are kept between calls, so the per-evaluation hot path performs
/// no allocation once warmed up.
#[derive(Debug, Clone)]
pub struct CrossVal {
    score_fn: ScoreFn,
    /// Validity ticket for the incremental state below.
    warm: Option<WarmState>,
    /// Absolute flip sid per live row, ring-indexed by `sid % cap` over the
    /// *whole window* (the scored range may start anywhere at or past the
    /// window start, and may move freely between calls).
    flip: Vec<i64>,
    /// Scratch for the rank selection in [`flip_sid_of`].
    sel: Vec<i64>,
    profile: Vec<f64>,
    /// During the sweep: difference array, then (in place) its prefix sums
    /// `left_ones[p] = #{rows j < p predicted 1 at split p}`.
    left_ones: Vec<u32>,
    /// During the sweep: flip-offset histogram, then (in place) its suffix
    /// counts `tot_ones[p] = #{rows predicted 1 at split p}`.
    tot_ones: Vec<u32>,
    nn: usize,
    start_sid: i64,
}

impl CrossVal {
    /// Creates an engine with the given split score.
    pub fn new(score_fn: ScoreFn) -> Self {
        Self {
            score_fn,
            warm: None,
            flip: Vec::new(),
            sel: Vec::new(),
            profile: Vec::new(),
            left_ones: Vec::new(),
            tot_ones: Vec::new(),
            nn: 0,
            start_sid: 0,
        }
    }

    /// Heap bytes held by the engine's buffers.
    pub fn heap_bytes(&self) -> usize {
        use core::mem::size_of;
        (self.flip.capacity() + self.sel.capacity()) * size_of::<i64>()
            + self.profile.capacity() * size_of::<f64>()
            + (self.left_ones.capacity() + self.tot_ones.capacity()) * size_of::<u32>()
    }

    /// Score function in use.
    pub fn score_fn(&self) -> ScoreFn {
        self.score_fn
    }

    /// Number of subsequences scored by the last [`CrossVal::compute`].
    pub fn len(&self) -> usize {
        self.nn
    }

    /// Whether the last computation scored nothing.
    pub fn is_empty(&self) -> bool {
        self.nn == 0
    }

    /// The ClaSP profile of the last computation: `profile()[p]` is the
    /// cross-validation score of the split placing the first `p` scored
    /// subsequences into class 0. Valid for `p` in `1..len()`; index 0 is 0.
    pub fn profile(&self) -> &[f64] {
        &self.profile[..self.nn]
    }

    /// Absolute sid of the first subsequence scored by the last
    /// [`CrossVal::compute`] — i.e. `profile()[p]` splits at absolute sid
    /// `range_start_sid() + p`. Under jump-ahead evaluation this may lag
    /// the index's live range start by up to `jump - 1` positions.
    pub fn range_start_sid(&self) -> i64 {
        self.start_sid
    }

    /// Drops all persisted incremental state; the next
    /// [`CrossVal::compute`] performs a full cold rebuild.
    pub fn reset(&mut self) {
        self.warm = None;
    }

    /// Predicted-label group counts at split `p`, as needed by the
    /// significance test (paper §3.3).
    pub fn groups_at(&self, p: usize) -> BinaryGroups {
        debug_assert!(p >= 1 && p < self.nn);
        let left = self.left_ones[p] as u64;
        let tot = self.tot_ones[p] as u64;
        BinaryGroups {
            n_left: p as u64,
            ones_left: left,
            n_right: (self.nn - p) as u64,
            ones_right: tot - left,
        }
    }

    /// Computes the profile over the k-NN slots `[start_slot, m_max)`.
    /// Returns the number of scored subsequences `nn` (0 if fewer than two
    /// subsequences are in range).
    ///
    /// Warm path: when called repeatedly against the same index, only the
    /// rows named by the index's change journal since the previous call
    /// have their flip sid recomputed before the sweep. Both paths are
    /// bit-identical.
    pub fn compute(&mut self, knn: &StreamingKnn, start_slot: usize) -> usize {
        let m_max = knn.max_subsequences();
        debug_assert!(start_slot >= knn.qstart());
        let nn = m_max.saturating_sub(start_slot);
        if nn == 0 {
            self.nn = 0;
            self.warm = None;
            return 0;
        }
        let start_sid = knn.sid_of_slot(start_slot);
        debug_assert_eq!(Some(start_sid + nn as i64 - 1), knn.newest_sid());
        let cap = m_max;

        let warm_ok = match &self.warm {
            Some(w) => {
                w.knn_id == knn.instance_id()
                    && w.cap == cap
                    && knn.events_since(w.seen_seq).is_some()
            }
            None => false,
        };
        if warm_ok {
            self.sync_warm(knn);
        } else {
            self.rebuild_cold(knn);
        }
        self.warm = Some(WarmState {
            knn_id: knn.instance_id(),
            cap,
            seen_seq: knn.events_total(),
        });
        self.start_sid = start_sid;

        if nn < 2 {
            // State is synced (so the next call can still be warm), but
            // there is nothing to score.
            self.nn = 0;
            return 0;
        }
        self.nn = nn;
        self.sweep(start_sid, nn, cap);
        nn
    }

    /// Recomputes every live row's flip sid from the index's neighbour
    /// lists (the former per-evaluation cost, now only paid on the first
    /// call against an index or after a journal overrun).
    fn rebuild_cold(&mut self, knn: &StreamingKnn) {
        let cap = knn.max_subsequences();
        self.flip.clear();
        self.flip.resize(cap, i64::MIN);
        for slot in knn.qstart()..cap {
            let sid = knn.sid_of_slot(slot);
            let (sids, _) = knn.neighbors(slot);
            let f = flip_sid_of(&mut self.sel, sids);
            self.flip[ring(sid, cap)] = f;
        }
    }

    /// Recomputes the flip sid of every row whose neighbour list the
    /// journal reports as changed since the previous sync. Recomputing from
    /// the index's *current* list is idempotent, so replay order and
    /// repeated owners are harmless; owners already evicted from the window
    /// are skipped (their ring slot is rewritten by the `RowCreated` of
    /// whichever sid reuses it).
    fn sync_warm(&mut self, knn: &StreamingKnn) {
        let w = self.warm.as_ref().expect("warm guard checked");
        let (cap, seen_seq) = (w.cap, w.seen_seq);
        let oldest = knn.oldest_sid().expect("journalled index has rows");
        let events = knn.events_since(seen_seq).expect("warm guard checked");
        let mut last = i64::MIN;
        for ev in events {
            let owner = match ev {
                KnnEvent::RowCreated { sid } => sid,
                KnnEvent::EdgeAdded { owner, .. } | KnnEvent::EdgeReplaced { owner, .. } => owner,
            };
            // A row's creation and its initial edges arrive back to back;
            // skipping consecutive repeats avoids most duplicate work.
            if owner == last || owner < oldest {
                continue;
            }
            last = owner;
            let (sids, _) = knn.neighbors(knn.slot_of_sid(owner));
            let f = flip_sid_of(&mut self.sel, sids);
            self.flip[ring(owner, cap)] = f;
        }
    }

    /// The split sweep: three linear passes over the scored range.
    ///
    /// With `g(j)` the flip sid of row `j` clamped into split-offset range,
    /// row `j` is predicted 1 at split `p` iff `g(j) > p`, so
    /// `tot_ones[p] = #{j : g(j) > p}` falls out of a histogram of `g` and
    /// `left_ones[p] = #{j < p : g(j) > p}` out of a difference array (row
    /// `j` contributes to exactly the splits `j < p < g(j)`).
    fn sweep(&mut self, start_sid: i64, nn: usize, cap: usize) {
        self.profile.clear();
        self.profile.resize(nn, 0.0);
        self.left_ones.clear();
        self.left_ones.resize(nn + 1, 0);
        self.tot_ones.clear();
        self.tot_ones.resize(nn + 1, 0);

        // Pass 1: histogram + difference array, over the (at most two)
        // contiguous ring spans of the scored range. Counts are exact in
        // `u32` modulo arithmetic: the final sums are small non-negatives.
        let dl = &mut self.left_ones;
        let dt = &mut self.tot_ones;
        let s0 = ring(start_sid, cap);
        let len1 = (cap - s0).min(nn);
        let nn_i = nn as i64;
        for (span, j0) in [
            (&self.flip[s0..s0 + len1], 0),
            (&self.flip[..nn - len1], len1),
        ] {
            for (i, &f) in span.iter().enumerate() {
                let j = j0 + i;
                let g = f.saturating_sub(start_sid).clamp(0, nn_i) as usize;
                dt[g] = dt[g].wrapping_add(1);
                let a = j + 1;
                if g > a {
                    dl[a] = dl[a].wrapping_add(1);
                    dl[g] = dl[g].wrapping_sub(1);
                }
            }
        }

        // Pass 2: in-place histogram -> suffix counts, diffs -> prefix sums.
        let mut c = 0u32;
        let mut l = 0u32;
        for p in 0..nn {
            c = c.wrapping_add(dt[p]);
            dt[p] = nn as u32 - c;
            l = l.wrapping_add(dl[p]);
            dl[p] = l;
        }

        // Pass 3: scores. The dispatch is hoisted so each arm is a
        // branch-free elementwise loop.
        self.profile[0] = 0.0;
        match self.score_fn {
            ScoreFn::MacroF1 => Self::score_pass(ScoreFn::MacroF1, &mut self.profile, dl, dt, nn),
            ScoreFn::BalancedAccuracy => {
                Self::score_pass(ScoreFn::BalancedAccuracy, &mut self.profile, dl, dt, nn)
            }
        }
    }

    /// Elementwise score pass over the per-split counts, evaluating exactly
    /// the arithmetic of [`ScoreFn::score`] on the reconstructed confusion
    /// matrix (in `i32`, whose `f64` conversions are as exact as `i64`'s —
    /// see there). `score_fn` must be a literal at every call site so the
    /// per-split dispatch disappears and the loop vectorizes.
    #[inline(always)]
    fn score_pass(score_fn: ScoreFn, profile: &mut [f64], left: &[u32], tot: &[u32], nn: usize) {
        debug_assert!(nn <= i32::MAX as usize);
        for p in 1..nn {
            let l = left[p] as i32;
            let t = tot[p] as i32;
            // m[true][pred]: all rows left of `p` are truth 0, the rest
            // truth 1.
            let m00 = p as i32 - l;
            let m01 = l;
            let m11 = t - l;
            let m10 = (nn - p) as i32 - m11;
            profile[p] = match score_fn {
                ScoreFn::MacroF1 => {
                    let d0 = 2 * m00 + m10 + m01;
                    let f0 = if d0 == 0 {
                        0.0
                    } else {
                        2.0 * m00 as f64 / d0 as f64
                    };
                    let d1 = 2 * m11 + m01 + m10;
                    let f1 = if d1 == 0 {
                        0.0
                    } else {
                        2.0 * m11 as f64 / d1 as f64
                    };
                    0.5 * (f0 + f1)
                }
                ScoreFn::BalancedAccuracy => {
                    let d0 = m00 + m01;
                    let r0 = if d0 == 0 { 0.0 } else { m00 as f64 / d0 as f64 };
                    let d1 = m10 + m11;
                    let r1 = if d1 == 0 { 0.0 } else { m11 as f64 / d1 as f64 };
                    0.5 * (r0 + r1)
                }
            };
        }
    }
}

/// Naive reference: evaluates one split from scratch in O(k·n). Used by
/// tests and the benchmark harness to validate and time the incremental
/// algorithm against the paper's O(d^2) baseline.
pub fn naive_split_score(
    knn: &StreamingKnn,
    start_slot: usize,
    p: usize,
    score_fn: ScoreFn,
) -> f64 {
    let m_max = knn.max_subsequences();
    let nn = m_max - start_slot;
    let start_sid = knn.sid_of_slot(start_slot);
    let split_sid = start_sid + p as i64;
    let mut m = [[0i64; 2]; 2];
    for j in 0..nn {
        let (sids, _) = knn.neighbors(start_slot + j);
        let mut zeros = 0;
        let mut ones = 0;
        for &nsid in sids {
            if nsid < split_sid {
                zeros += 1;
            } else {
                ones += 1;
            }
        }
        let pred = usize::from(zeros < ones);
        let truth = usize::from(j >= p);
        m[truth][pred] += 1;
    }
    score_fn.score(&m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::{KnnConfig, StreamingKnn};
    use crate::stats::SplitMix64;

    fn feed(n: usize, d: usize, w: usize, k: usize, seed: u64) -> StreamingKnn {
        let mut rng = SplitMix64::new(seed);
        let mut knn = StreamingKnn::new(KnnConfig::new(d, w, k));
        for _ in 0..n {
            knn.update(rng.next_f64() * 2.0 - 1.0);
        }
        knn
    }

    fn feed_two_regimes(n: usize, d: usize, w: usize, k: usize, seed: u64) -> StreamingKnn {
        let mut rng = SplitMix64::new(seed);
        let mut knn = StreamingKnn::new(KnnConfig::new(d, w, k));
        for i in 0..n {
            let base = if i < n / 2 {
                (i as f64 * 0.7).sin()
            } else {
                ((i as f64 * 0.1).sin() * 3.0).tanh() * 2.0
            };
            knn.update(base + 0.05 * (rng.next_f64() - 0.5));
        }
        knn
    }

    #[test]
    fn incremental_matches_naive_random() {
        let knn = feed(180, 120, 6, 3, 21);
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        let start = knn.qstart();
        let nn = cv.compute(&knn, start);
        assert!(nn > 2);
        for p in 1..nn {
            let want = naive_split_score(&knn, start, p, ScoreFn::MacroF1);
            let got = cv.profile()[p];
            assert!((got - want).abs() < 1e-12, "p = {p}: {got} vs {want}");
        }
    }

    #[test]
    fn incremental_matches_naive_with_eviction_and_offsets() {
        // Long stream so neighbours expire; also score a sub-range.
        let knn = feed(500, 150, 8, 3, 22);
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        let start = knn.qstart() + 37;
        let nn = cv.compute(&knn, start);
        assert!(nn > 2);
        for p in 1..nn {
            let want = naive_split_score(&knn, start, p, ScoreFn::MacroF1);
            let got = cv.profile()[p];
            assert!((got - want).abs() < 1e-12, "p = {p}: {got} vs {want}");
        }
    }

    #[test]
    fn incremental_matches_naive_balanced_accuracy() {
        let knn = feed(260, 130, 7, 5, 23);
        let mut cv = CrossVal::new(ScoreFn::BalancedAccuracy);
        let start = knn.qstart();
        let nn = cv.compute(&knn, start);
        for p in 1..nn {
            let want = naive_split_score(&knn, start, p, ScoreFn::BalancedAccuracy);
            let got = cv.profile()[p];
            assert!((got - want).abs() < 1e-12, "p = {p}");
        }
    }

    #[test]
    fn group_counts_match_direct_recount() {
        let knn = feed(300, 140, 6, 3, 24);
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        let start = knn.qstart();
        let nn = cv.compute(&knn, start);
        // Recount ypred at a few splits by replaying naive predictions.
        let start_sid = knn.sid_of_slot(start);
        for &p in &[1usize, nn / 3, nn / 2, nn - 1] {
            let split_sid = start_sid + p as i64;
            let mut ones_left = 0u64;
            let mut ones_right = 0u64;
            for j in 0..nn {
                let (sids, _) = knn.neighbors(start + j);
                let zeros = sids.iter().filter(|&&s| s < split_sid).count();
                let pred = zeros * 2 < sids.len();
                if pred {
                    if j < p {
                        ones_left += 1;
                    } else {
                        ones_right += 1;
                    }
                }
            }
            let g = cv.groups_at(p);
            assert_eq!(g.n_left, p as u64);
            assert_eq!(g.ones_left, ones_left, "p = {p}");
            assert_eq!(g.ones_right, ones_right, "p = {p}");
        }
    }

    #[test]
    fn profile_peaks_near_true_change_point() {
        // Two clearly different regimes; the best split should fall near the
        // middle of the scored range.
        let n = 400;
        let knn = feed_two_regimes(n, 400, 10, 3, 25);
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        let nn = cv.compute(&knn, knn.qstart());
        assert!(nn > 10);
        let margin = 30;
        let best = (margin..nn - margin)
            .max_by(|&a, &b| cv.profile()[a].partial_cmp(&cv.profile()[b]).unwrap())
            .unwrap();
        let true_split = nn / 2;
        assert!(
            (best as i64 - true_split as i64).unsigned_abs() < 40,
            "best split {best}, expected ~{true_split}"
        );
        assert!(
            cv.profile()[best] > 0.85,
            "peak score {}",
            cv.profile()[best]
        );
    }

    #[test]
    fn too_small_range_returns_zero() {
        let knn = feed(40, 60, 6, 3, 26);
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        let nn = cv.compute(&knn, knn.max_subsequences() - 1);
        assert_eq!(nn, 0);
        assert!(cv.is_empty());
    }

    #[test]
    fn engine_is_reusable_across_different_sizes() {
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        for (n, d, w) in [(150usize, 100usize, 6usize), (260, 130, 9), (90, 80, 4)] {
            let knn = feed(n, d, w, 3, 27);
            let start = knn.qstart();
            let nn = cv.compute(&knn, start);
            for p in (1..nn).step_by(7) {
                let want = naive_split_score(&knn, start, p, ScoreFn::MacroF1);
                assert!((cv.profile()[p] - want).abs() < 1e-12);
            }
        }
    }

    /// Asserts that a warm engine and a fresh cold engine agree bit-exactly
    /// on the profile and the group counts of `warm`'s last computation.
    fn assert_warm_equals_cold(warm: &CrossVal, knn: &StreamingKnn, start_slot: usize) {
        let mut cold = CrossVal::new(warm.score_fn());
        let nn = cold.compute(knn, start_slot);
        assert_eq!(warm.len(), nn, "scored length diverged");
        for p in 0..nn {
            assert!(
                warm.profile()[p].to_bits() == cold.profile()[p].to_bits(),
                "profile diverged at p = {p}: {} vs {}",
                warm.profile()[p],
                cold.profile()[p]
            );
        }
        for p in 1..nn {
            assert_eq!(warm.groups_at(p), cold.groups_at(p), "groups at p = {p}");
        }
    }

    #[test]
    fn warm_reevaluation_is_bit_exact_every_step() {
        // Persistent engine, evaluated after every single update, through
        // growth, steady state and eviction.
        let mut rng = SplitMix64::new(31);
        let mut knn = StreamingKnn::new(KnnConfig::new(100, 6, 3));
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        for _ in 0..320 {
            if !knn.update(rng.next_f64() * 2.0 - 1.0) {
                continue;
            }
            cv.compute(&knn, knn.qstart());
            if cv.len() >= 2 {
                assert_warm_equals_cold(&cv, &knn, knn.qstart());
            }
        }
    }

    #[test]
    fn warm_reevaluation_with_jump_and_range_advance() {
        // Evaluate only every 5th update (jump-ahead) while the range start
        // leaps forward in chunks, as after detected change points.
        let mut rng = SplitMix64::new(32);
        let mut knn = StreamingKnn::new(KnnConfig::new(140, 7, 3));
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        let mut extra_start = 0usize; // simulated cpl offset
        let mut since = 0usize;
        for i in 0..600 {
            if !knn.update(rng.next_f64() * 2.0 - 1.0) {
                continue;
            }
            since += 1;
            if since < 5 {
                continue;
            }
            since = 0;
            if i % 150 == 0 && knn.n_subsequences() > extra_start + 40 {
                extra_start += 23;
            }
            let start = knn.qstart() + extra_start.min(knn.n_subsequences() - 1);
            cv.compute(&knn, start);
            if cv.len() >= 2 {
                assert_warm_equals_cold(&cv, &knn, start);
            }
        }
    }

    #[test]
    fn warm_reevaluation_with_nans_is_bit_exact() {
        // Non-finite values shorten neighbour lists and later heal; the
        // journal must keep the warm state exact throughout.
        let mut rng = SplitMix64::new(33);
        let mut knn = StreamingKnn::new(KnnConfig::new(90, 6, 3));
        let mut cv = CrossVal::new(ScoreFn::BalancedAccuracy);
        for i in 0..420 {
            let x = if i % 97 == 41 {
                f64::NAN
            } else {
                rng.next_f64() * 2.0 - 1.0
            };
            if !knn.update(x) {
                continue;
            }
            if i % 3 != 0 {
                continue;
            }
            cv.compute(&knn, knn.qstart());
            if cv.len() >= 2 {
                assert_warm_equals_cold(&cv, &knn, knn.qstart());
            }
        }
    }

    #[test]
    fn journal_overrun_falls_back_to_cold_rebuild() {
        // Leave the engine behind for far more events than the journal
        // holds; the next compute must detect the overrun and still be
        // exact.
        let mut rng = SplitMix64::new(34);
        let mut knn = StreamingKnn::new(KnnConfig::new(80, 5, 3));
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        for _ in 0..120 {
            knn.update(rng.next_f64() * 2.0 - 1.0);
        }
        cv.compute(&knn, knn.qstart());
        // >> JOURNAL_CAP events: each update emits at least one.
        for _ in 0..2500 {
            knn.update(rng.next_f64() * 2.0 - 1.0);
        }
        cv.compute(&knn, knn.qstart());
        assert_warm_equals_cold(&cv, &knn, knn.qstart());
    }

    #[test]
    fn cloned_knn_does_not_warm_poison_the_engine() {
        // A clone has a fresh identity: the engine warmed on the original
        // must cold-rebuild against the clone (whose journal diverges), and
        // stay exact on both.
        let mut rng = SplitMix64::new(35);
        let mut knn = StreamingKnn::new(KnnConfig::new(90, 6, 3));
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        for _ in 0..150 {
            knn.update(rng.next_f64() * 2.0 - 1.0);
        }
        cv.compute(&knn, knn.qstart());
        let mut fork = knn.clone();
        for _ in 0..30 {
            knn.update(rng.next_f64() * 2.0 - 1.0);
            fork.update(-(rng.next_f64() * 2.0 - 1.0));
        }
        cv.compute(&fork, fork.qstart());
        assert_warm_equals_cold(&cv, &fork, fork.qstart());
        cv.compute(&knn, knn.qstart());
        assert_warm_equals_cold(&cv, &knn, knn.qstart());
    }

    #[test]
    fn reset_forces_cold_rebuild_with_identical_results() {
        let mut rng = SplitMix64::new(36);
        let mut knn = StreamingKnn::new(KnnConfig::new(100, 6, 3));
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        for _ in 0..200 {
            knn.update(rng.next_f64() * 2.0 - 1.0);
        }
        cv.compute(&knn, knn.qstart());
        let warm_profile = cv.profile().to_vec();
        cv.reset();
        cv.compute(&knn, knn.qstart());
        assert_eq!(warm_profile.len(), cv.profile().len());
        for (a, b) in warm_profile.iter().zip(cv.profile()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn score_fn_confusion_matrix_basics() {
        // Perfect prediction.
        let m = [[10, 0], [0, 10]];
        assert!((ScoreFn::MacroF1.score(&m) - 1.0).abs() < 1e-12);
        assert!((ScoreFn::BalancedAccuracy.score(&m) - 1.0).abs() < 1e-12);
        // All predicted 1 with balanced truth: F1(0) = 0, F1(1) = 2/3.
        let m = [[0, 10], [0, 10]];
        assert!((ScoreFn::MacroF1.score(&m) - (2.0 / 3.0) / 2.0).abs() < 1e-12);
        assert!((ScoreFn::BalancedAccuracy.score(&m) - 0.5).abs() < 1e-12);
        // Empty matrix must not divide by zero.
        let m = [[0, 0], [0, 0]];
        assert_eq!(ScoreFn::MacroF1.score(&m), 0.0);
        assert_eq!(ScoreFn::BalancedAccuracy.score(&m), 0.0);
    }

    #[test]
    fn score_fn_all_one_class_edges_stay_finite_and_bounded() {
        // The matrices that arise at the extreme evaluation points reached
        // under jump-ahead: a split right after the range start (almost no
        // truth-0 rows) or right before its end (almost no truth-1 rows),
        // possibly with a degenerate all-one-sided prediction.
        for m in [
            [[0, 0], [0, 25]], // all truth 1, all predicted 1
            [[0, 0], [25, 0]], // all truth 1, all predicted 0
            [[25, 0], [0, 0]], // all truth 0, all predicted 0
            [[0, 25], [0, 0]], // all truth 0, all predicted 1
            [[1, 0], [24, 0]], // first split, everything predicted 0
            [[0, 1], [0, 24]], // first split, everything predicted 1
        ] {
            for sf in [ScoreFn::MacroF1, ScoreFn::BalancedAccuracy] {
                let s = sf.score(&m);
                assert!(s.is_finite(), "{sf:?} on {m:?} -> {s}");
                assert!((0.0..=1.0).contains(&s), "{sf:?} on {m:?} -> {s}");
            }
        }
    }

    #[test]
    fn groups_at_consistent_at_first_and_last_split() {
        // Pin the profile-index-0 convention and the boundary splits that
        // jump scheduling lands on: groups_at(p) must tile the scored range
        // exactly at p = 1 and p = nn - 1, matching the profile scores.
        let knn = feed(220, 120, 6, 3, 37);
        let mut cv = CrossVal::new(ScoreFn::MacroF1);
        let start = knn.qstart();
        let nn = cv.compute(&knn, start);
        assert!(nn > 2);
        assert_eq!(cv.profile()[0], 0.0, "index 0 is by convention 0");
        for p in [1, nn - 1] {
            let g = cv.groups_at(p);
            assert_eq!(g.n_left + g.n_right, nn as u64);
            assert!(g.ones_left <= g.n_left);
            assert!(g.ones_right <= g.n_right);
            let want = naive_split_score(&knn, start, p, ScoreFn::MacroF1);
            assert!((cv.profile()[p] - want).abs() < 1e-12, "p = {p}");
        }
    }
}
