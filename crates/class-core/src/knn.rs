//! Exact streaming k-nearest-neighbour index over sliding-window
//! subsequences (paper §3.1, Algorithm 2).
//!
//! For every new stream value the index
//!
//! 1. computes the similarity between the newest width-`w` subsequence and
//!    every other subsequence in the window in O(d) total, by maintaining
//!    the (w-1)-length dot products of the previous step (Eq. 3-5, the
//!    STOMP recurrence adapted to streaming),
//! 2. selects the k nearest neighbours of the newest subsequence, honouring
//!    a trivial-match exclusion radius of 1.5·w, by a bounded insertion
//!    over *candidate* slots only: [`simd::first_above`] skips, a vector of
//!    lanes at a time, every score that cannot beat the current k-th
//!    (O(d / lanes + i·k) where `i` is the number of top-k improvements),
//!    and
//! 3. inserts the newest subsequence into the stored neighbour lists of all
//!    older subsequences for which it is closer than their current k-th.
//!    The k-th scores live in a contiguous threshold column beside the
//!    lists, so [`simd::first_entering`] finds the few rows that change by
//!    comparing two contiguous columns instead of reading every list. A
//!    row whose list is not full yet holds NaN there, and any non-NaN
//!    score enters such a row, so the scan needs no length column. NaN is
//!    the one value a real k-th score never takes (NaN scores are never
//!    stored), whereas `-inf` is a legal stored score: a short list admits
//!    a `-inf` neighbour, but a full list whose k-th is `-inf` must not.
//!
//! Neighbour identities are stored as *absolute* subsequence ids (the
//! position of the subsequence start in the stream). This avoids the O(k·d)
//! index-decrement pass of the paper's Algorithm 2 line 21 while preserving
//! its semantics exactly: ids that have dropped out of the window simply
//! compare as "older than everything in range", which is the paper's
//! "negative offsets belong to class zero by design".

use crate::buffer::{ShiftBuffer, ShiftMatrix};
use crate::simd;
use crate::similarity::Similarity;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Largest supported neighbour count; the ablation study uses k in
/// {1, 3, 5, 7}, so 16 leaves generous headroom while letting the scratch
/// candidate list live on the stack.
pub const MAX_K: usize = 16;

/// Capacity of the change journal ring. Generously sized for the steady
/// state (a handful of events per update, consumed every `jump` updates by
/// the incremental cross-validation); if a consumer falls further behind
/// than this, [`StreamingKnn::events_since`] reports the loss and the
/// consumer rebuilds from the neighbour lists instead.
const JOURNAL_CAP: usize = 1024;

/// One neighbour-list mutation, as recorded in the change journal.
///
/// The journal is what makes the cross-validation profile *incremental
/// across stream updates*: instead of re-reading all `n·k` neighbour lists
/// per evaluation, [`crate::crossval::CrossVal`] replays only the edges the
/// index actually changed since the previous evaluation. Events are emitted
/// in execution order; sids are absolute subsequence ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnEvent {
    /// A new subsequence completed and its row entered the index. Emitted
    /// before the `EdgeAdded` events carrying the row's initial neighbours
    /// (a dirty-window row may have fewer than `k`, or none).
    RowCreated {
        /// Absolute id of the new subsequence.
        sid: i64,
    },
    /// `target` was inserted into `owner`'s neighbour list, which had room.
    EdgeAdded {
        /// Row whose list changed.
        owner: i64,
        /// Neighbour that was inserted.
        target: i64,
    },
    /// `target` was inserted into `owner`'s full neighbour list, displacing
    /// the former k-th neighbour `evicted`.
    EdgeReplaced {
        /// Row whose list changed.
        owner: i64,
        /// Neighbour that was inserted.
        target: i64,
        /// Former k-th neighbour that dropped off the list.
        evicted: i64,
    },
}

/// Monotone source of per-index identities; see [`StreamingKnn::instance_id`].
static NEXT_INSTANCE_ID: AtomicU64 = AtomicU64::new(1);

/// Configuration of the streaming k-NN index.
#[derive(Debug, Clone)]
pub struct KnnConfig {
    /// Sliding window size `d` in data points.
    pub window_size: usize,
    /// Subsequence width `w` in data points.
    pub width: usize,
    /// Number of neighbours `k`.
    pub k: usize,
    /// Similarity measure used for ranking.
    pub similarity: Similarity,
    /// Trivial-match exclusion radius in subsequence starts. `None` selects
    /// the paper's default of `ceil(1.5 * w)`.
    pub exclusion: Option<usize>,
    /// If `true` (ClaSS behaviour), newly arriving subsequences are inserted
    /// into the neighbour lists of older subsequences when closer than their
    /// current k-th neighbour. `false` restricts neighbours to the past only
    /// (the one-directional constraint used by FLOSS).
    pub update_existing: bool,
}

impl KnnConfig {
    /// Convenience constructor with paper defaults for the free parameters.
    pub fn new(window_size: usize, width: usize, k: usize) -> Self {
        Self {
            window_size,
            width,
            k,
            similarity: Similarity::Pearson,
            exclusion: None,
            update_existing: true,
        }
    }

    /// Effective exclusion radius in subsequence starts.
    pub fn exclusion_radius(&self) -> usize {
        self.exclusion
            .unwrap_or((3 * self.width).div_ceil(2))
            .max(1)
    }

    fn validate(&self) {
        assert!(self.window_size >= 4, "window size too small");
        assert!(
            self.width >= 2 && self.width < self.window_size,
            "width must satisfy 2 <= w < d (w = {}, d = {})",
            self.width,
            self.window_size
        );
        assert!(
            self.k >= 1 && self.k <= MAX_K,
            "k must be in 1..={MAX_K}, got {}",
            self.k
        );
    }
}

/// Per-subsequence moment columns, aligned with subsequence offsets. Each
/// similarity keeps only the columns its Q-step reads.
#[derive(Debug, Clone)]
enum Moments {
    /// Mean and standard deviation.
    Pearson {
        mu: ShiftBuffer<f64>,
        sig: ShiftBuffer<f64>,
    },
    /// Sum of squares.
    Euclidean { ssq: ShiftBuffer<f64> },
    /// Sum of squares and squared complexity estimate.
    Cid {
        ssq: ShiftBuffer<f64>,
        ce2: ShiftBuffer<f64>,
    },
}

impl Moments {
    fn new(similarity: Similarity, capacity: usize) -> Self {
        let col = || ShiftBuffer::new(capacity);
        match similarity {
            Similarity::Pearson => Self::Pearson {
                mu: col(),
                sig: col(),
            },
            Similarity::Euclidean => Self::Euclidean { ssq: col() },
            Similarity::Cid => Self::Cid {
                ssq: col(),
                ce2: col(),
            },
        }
    }

    /// Appends the moments of the newest subsequence.
    fn push(&mut self, newest: &[f64]) {
        let (sum, sumsq) = simd::sum_sumsq(newest);
        match self {
            Self::Pearson { mu, sig } => {
                let w = newest.len() as f64;
                let m = sum / w;
                let var = (sumsq / w - m * m).max(0.0);
                mu.push(m);
                sig.push(var.sqrt());
            }
            Self::Euclidean { ssq } => {
                ssq.push(sumsq);
            }
            Self::Cid { ssq, ce2 } => {
                ssq.push(sumsq);
                ce2.push(simd::diff_sumsq(newest));
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Self::Pearson { mu: a, sig: b } | Self::Cid { ssq: a, ce2: b } => {
                a.heap_bytes() + b.heap_bytes()
            }
            Self::Euclidean { ssq } => ssq.heap_bytes(),
        }
    }
}

/// Exact streaming k-NN over sliding-window subsequences.
///
/// See the module documentation for the algorithm; all state is pre-sized at
/// construction, and [`StreamingKnn::update`] performs no heap allocation
/// (the change journal ring reaches its fixed capacity and stays there).
#[derive(Debug)]
pub struct StreamingKnn {
    cfg: KnnConfig,
    /// Process-unique identity, refreshed on clone; see
    /// [`StreamingKnn::instance_id`].
    instance_id: u64,
    /// Bounded ring of recent neighbour-list mutations, oldest first.
    events: VecDeque<KnnEvent>,
    /// Total events ever emitted (monotone journal sequence number).
    events_total: u64,
    excl: usize,
    m_max: usize,
    /// Raw window values.
    win: ShiftBuffer<f64>,
    /// Per-subsequence moments the similarity reads.
    moments: Moments,
    /// Slot-indexed (w-1)-length dot products (the `Q` of Algorithm 2).
    /// Values never move between slots; see module docs.
    q: Vec<f64>,
    /// Scratch: similarity score of every subsequence vs. the newest.
    scores: Vec<f64>,
    /// Neighbour ids (absolute subsequence start positions), k per row.
    nn_sid: ShiftMatrix<i64>,
    /// Neighbour scores, aligned with `nn_sid`, sorted descending.
    nn_score: ShiftMatrix<f64>,
    /// Number of valid neighbours per row.
    nn_len: ShiftBuffer<u8>,
    /// Per row: the k-th neighbour's score when the list is full, NaN
    /// otherwise. A contiguous copy of the insertion threshold, so the
    /// insertion scan reads one column instead of every row of `nn_score`.
    kth: ShiftBuffer<f64>,
    /// Absolute id (stream start position) of the next subsequence.
    next_sid: i64,
    /// Remaining pushes until the most recent non-finite observation has
    /// left the window (0 = window clean). When it reaches 0, the Q slots
    /// the NaN poisoned are recomputed explicitly, restoring exactness for
    /// dirty feeds.
    nan_heal: usize,
}

impl Clone for StreamingKnn {
    /// Field-for-field copy, except `instance_id`, which is freshly
    /// assigned: the two indices evolve independently afterwards, so journal
    /// cursors taken against one must not be replayed against the other.
    fn clone(&self) -> Self {
        Self {
            cfg: self.cfg.clone(),
            instance_id: NEXT_INSTANCE_ID.fetch_add(1, Ordering::Relaxed),
            events: self.events.clone(),
            events_total: self.events_total,
            excl: self.excl,
            m_max: self.m_max,
            win: self.win.clone(),
            moments: self.moments.clone(),
            q: self.q.clone(),
            scores: self.scores.clone(),
            nn_sid: self.nn_sid.clone(),
            nn_score: self.nn_score.clone(),
            nn_len: self.nn_len.clone(),
            kth: self.kth.clone(),
            next_sid: self.next_sid,
            nan_heal: self.nan_heal,
        }
    }
}

impl StreamingKnn {
    /// Creates an empty index.
    ///
    /// # Panics
    /// Panics if the configuration is inconsistent (see [`KnnConfig`]).
    pub fn new(cfg: KnnConfig) -> Self {
        cfg.validate();
        let m_max = cfg.window_size - cfg.width + 1;
        let k = cfg.k;
        let excl = cfg.exclusion_radius();
        Self {
            instance_id: NEXT_INSTANCE_ID.fetch_add(1, Ordering::Relaxed),
            events: VecDeque::with_capacity(JOURNAL_CAP),
            events_total: 0,
            excl,
            m_max,
            win: ShiftBuffer::new(cfg.window_size),
            moments: Moments::new(cfg.similarity, m_max),
            q: vec![0.0; m_max],
            scores: vec![0.0; m_max],
            nn_sid: ShiftMatrix::new(m_max, k),
            nn_score: ShiftMatrix::new(m_max, k),
            nn_len: ShiftBuffer::new(m_max),
            kth: ShiftBuffer::new(m_max),
            next_sid: 0,
            nan_heal: 0,
            cfg,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &KnnConfig {
        &self.cfg
    }

    /// Process-unique identity of this index. A [`Clone`] receives a fresh
    /// id: the clone's journal diverges from the original's from that point
    /// on, so a consumer keyed to the original must not warm-resume against
    /// the copy (it cold-rebuilds instead).
    #[inline]
    pub fn instance_id(&self) -> u64 {
        self.instance_id
    }

    /// Total number of change-journal events ever emitted by this index.
    /// Consumers remember this value as their cursor and later replay the
    /// suffix via [`StreamingKnn::events_since`].
    #[inline]
    pub fn events_total(&self) -> u64 {
        self.events_total
    }

    /// Events emitted since journal sequence number `seq` (a previous
    /// [`StreamingKnn::events_total`] reading), oldest first. Returns `None`
    /// if the bounded ring has already dropped part of that suffix (the
    /// consumer fell too far behind and must rebuild from the neighbour
    /// lists), or if `seq` is from this index's future (wrong index).
    pub fn events_since(&self, seq: u64) -> Option<impl Iterator<Item = KnnEvent> + '_> {
        if seq > self.events_total {
            return None;
        }
        let behind = self.events_total - seq;
        if behind > self.events.len() as u64 {
            return None;
        }
        let skip = self.events.len() - behind as usize;
        Some(self.events.iter().skip(skip).copied())
    }

    #[inline]
    fn push_event(&mut self, ev: KnnEvent) {
        if self.events.len() == JOURNAL_CAP {
            self.events.pop_front();
        }
        self.events.push_back(ev);
        self.events_total += 1;
    }

    /// Subsequence width `w`.
    #[inline]
    pub fn width(&self) -> usize {
        self.cfg.width
    }

    /// Maximum number of co-resident subsequences (`d - w + 1`).
    #[inline]
    pub fn max_subsequences(&self) -> usize {
        self.m_max
    }

    /// Number of subsequences currently in the window.
    #[inline]
    pub fn n_subsequences(&self) -> usize {
        (self.win.len() + 1).saturating_sub(self.cfg.width)
    }

    /// First slot holding a live subsequence (`m_max - n_subsequences`).
    #[inline]
    pub fn qstart(&self) -> usize {
        self.m_max - self.n_subsequences()
    }

    /// Absolute id (stream start position) of the newest subsequence, or
    /// `None` before the first subsequence completes.
    #[inline]
    pub fn newest_sid(&self) -> Option<i64> {
        (self.next_sid > 0).then(|| self.next_sid - 1)
    }

    /// Absolute id of the oldest subsequence still in the window.
    #[inline]
    pub fn oldest_sid(&self) -> Option<i64> {
        self.newest_sid()
            .map(|n| n - (self.n_subsequences() as i64 - 1))
    }

    /// Absolute id of the subsequence in `slot` (slots are right-aligned:
    /// slot `m_max - 1` is the newest).
    #[inline]
    pub fn sid_of_slot(&self, slot: usize) -> i64 {
        debug_assert!(slot >= self.qstart() && slot < self.m_max);
        self.next_sid - 1 - (self.m_max - 1 - slot) as i64
    }

    /// Slot of the subsequence with absolute id `sid` (must be live).
    #[inline]
    pub fn slot_of_sid(&self, sid: i64) -> usize {
        let newest = self.next_sid - 1;
        debug_assert!(sid <= newest && newest - sid < self.n_subsequences() as i64);
        self.m_max - 1 - (newest - sid) as usize
    }

    /// Neighbour ids and scores of the subsequence in `slot`, best first.
    #[inline]
    pub fn neighbors(&self, slot: usize) -> (&[i64], &[f64]) {
        let qs = self.qstart();
        debug_assert!(slot >= qs && slot < self.m_max);
        let r = slot - qs;
        let len = self.nn_len.get(r) as usize;
        (&self.nn_sid.row(r)[..len], &self.nn_score.row(r)[..len])
    }

    /// Similarity score of every live subsequence against the newest one, as
    /// computed by the latest [`StreamingKnn::update`]. Indexed by slot;
    /// only `[qstart(), m_max)` is meaningful.
    #[inline]
    pub fn latest_scores(&self) -> &[f64] {
        &self.scores
    }

    /// Heap bytes held by the index: every column's allocation, spare
    /// regions included, plus the change journal ring. Fixed at
    /// construction; [`StreamingKnn::update`] never grows it.
    pub fn heap_bytes(&self) -> usize {
        use core::mem::size_of;
        self.win.heap_bytes()
            + self.moments.heap_bytes()
            + (self.q.capacity() + self.scores.capacity()) * size_of::<f64>()
            + self.nn_sid.heap_bytes()
            + self.nn_score.heap_bytes()
            + self.nn_len.heap_bytes()
            + self.kth.heap_bytes()
            + self.events.capacity() * size_of::<KnnEvent>()
    }

    /// Raw window contents, oldest value first.
    #[inline]
    pub fn window(&self) -> &[f64] {
        self.win.as_slice()
    }

    /// Ingests one stream value. Returns `true` if a new subsequence was
    /// completed (i.e. at least `w` values have been seen).
    pub fn update(&mut self, x: f64) -> bool {
        let grew = !self.win.is_full();
        self.win.push(x);
        // Track when the most recent non-finite observation leaves the
        // window: a value pushed now is evicted after exactly `capacity`
        // further pushes, regardless of the current fill level.
        let mut heal_now = false;
        if self.nan_heal > 0 {
            self.nan_heal -= 1;
            heal_now = self.nan_heal == 0;
        }
        if !x.is_finite() {
            self.nan_heal = self.win.capacity();
            heal_now = false;
        }
        let l = self.win.len();
        let w = self.cfg.width;
        if l < w {
            return false;
        }
        let sid = self.next_sid;
        self.next_sid += 1;

        // --- Per-subsequence moments of the newest subsequence (O(w)). ---
        self.moments.push(&self.win.as_slice()[l - w..]);

        let n_subs = l - w + 1;
        let qstart = self.m_max - n_subs;

        // --- NaN healing (ROADMAP): the last non-finite value has left the
        // window, but the Q recursion keeps NaN in every slot it touched
        // (x + NaN - NaN = NaN). All live subsequences are clean again, so
        // an explicit recompute of the poisoned slots restores exactness.
        // The pre-update invariant is q[s] = win[o..o+w-1] · win[l-w..l-1].
        if heal_now {
            let win = self.win.as_slice();
            let prefix = &win[l - w..l - 1];
            for s in qstart..self.m_max {
                if self.q[s].is_nan() {
                    let o = s - qstart;
                    self.q[s] = simd::dot(&win[o..o + w - 1], prefix);
                }
            }
        }

        // --- Q maintenance & similarity scores (Eq. 3-5), one fused
        // SIMD pass per update (see `crate::simd`). ---
        {
            let win = self.win.as_slice();
            if grew {
                // A new leftmost slot appeared: fill the recursion hole with
                // an explicit (w-1)-length dot product (Algorithm 2 line 7).
                self.q[qstart] = simd::dot(&win[0..w - 1], &win[l - w..l - 1]);
            }
            let last = win[l - 1];
            let first_of_newest = win[l - w];
            let o_new = n_subs - 1;
            let io = simd::QStepIo {
                q: &mut self.q[qstart..],
                scores: &mut self.scores[qstart..],
                tail: &win[w - 1..],
                head: &win[..n_subs],
                last,
                first: first_of_newest,
            };
            match &self.moments {
                Moments::Pearson { mu, sig } => {
                    let (mu, sig) = (mu.as_slice(), sig.as_slice());
                    simd::qstep_pearson(io, mu, sig, w as f64, mu[o_new], sig[o_new]);
                }
                Moments::Euclidean { ssq } => {
                    let ssq = ssq.as_slice();
                    simd::qstep_euclidean(io, ssq, ssq[o_new]);
                }
                Moments::Cid { ssq, ce2 } => {
                    let (ssq, ce2) = (ssq.as_slice(), ce2.as_slice());
                    simd::qstep_cid(io, ssq, ce2, ssq[o_new], ce2[o_new]);
                }
            }
        }

        // --- k-NN selection for the newest subsequence: a bounded
        // insertion over the candidate slots only. A slot is a candidate
        // iff its score beats `thr`, which is -inf (so NaN and -inf are
        // never selected: a NaN in the window must shorten the list rather
        // than fabricate neighbours) until `kk` neighbours are chosen and
        // the current k-th score after that. Candidates arrive in slot
        // order, so ties still go to the older slot. ---
        let k = self.cfg.k;
        let elig_end = self.m_max - self.excl; // exclusive slot bound
        let n_elig = elig_end.saturating_sub(qstart);
        let kk = k.min(n_elig);
        let mut row_sid = [i64::MIN; MAX_K];
        let mut row_score = [f64::NEG_INFINITY; MAX_K];
        let mut n_chosen = 0usize;
        let mut thr = f64::NEG_INFINITY;
        let elig = &self.scores[..elig_end];
        let mut s = simd::first_above(elig, qstart, thr);
        while s < elig.len() {
            let sc = elig[s];
            let mut pos = n_chosen;
            while pos > 0 && row_score[pos - 1] < sc {
                pos -= 1;
            }
            let end = if n_chosen == kk { kk - 1 } else { n_chosen };
            for j in (pos..end).rev() {
                row_score[j + 1] = row_score[j];
                row_sid[j + 1] = row_sid[j];
            }
            row_score[pos] = sc;
            row_sid[pos] = self.sid_of_slot(s);
            if n_chosen < kk {
                n_chosen += 1;
            }
            if n_chosen == kk {
                thr = row_score[kk - 1];
            }
            s = simd::first_above(elig, s + 1, thr);
        }
        self.nn_sid.push_row(&row_sid[..k]);
        self.nn_score.push_row(&row_score[..k]);
        self.nn_len.push(n_chosen as u8);
        self.kth.push(if n_chosen == k {
            row_score[k - 1]
        } else {
            f64::NAN
        });
        // Journal: row creation precedes its initial edges, so a replaying
        // consumer resets the row's slot before applying them.
        self.push_event(KnnEvent::RowCreated { sid });
        for i in 0..n_chosen {
            self.push_event(KnnEvent::EdgeAdded {
                owner: sid,
                target: row_sid[i],
            });
        }

        // --- Insert the newest subsequence into older neighbour lists. ---
        if self.cfg.update_existing {
            let rows = self.nn_sid.rows();
            debug_assert_eq!(rows, n_subs);
            // Rows are ordered oldest -> newest; only rows at slot distance
            // >= excl from the newest are eligible, i.e. row indices
            // 0 .. n_subs - excl (matching the eligibility of the initial
            // selection above).
            let upto = n_subs.saturating_sub(self.excl);
            let mut r = 0;
            loop {
                // Candidates: non-NaN scores (a NaN neighbour entry would
                // break the lists' sortedness) above the row's k-th score,
                // or any non-NaN score if the row's list is not full.
                r = simd::first_entering(
                    &self.scores[qstart..qstart + upto],
                    &self.kth.as_slice()[..upto],
                    r,
                );
                if r == upto {
                    break;
                }
                let s = qstart + r;
                let sc = self.scores[s];
                let len = self.nn_len.get(r) as usize;
                // Insertion position by descending score.
                let mut pos = 0;
                {
                    let sr = self.nn_score.row(r);
                    while pos < len && sr[pos] >= sc {
                        pos += 1;
                    }
                }
                let end = len.min(k - 1);
                // Journaled before the shift below overwrites it.
                let evicted = (len == k).then(|| self.nn_sid.row(r)[k - 1]);
                {
                    let sr = self.nn_score.row_mut(r);
                    for j in (pos..end).rev() {
                        sr[j + 1] = sr[j];
                    }
                    sr[pos] = sc;
                }
                {
                    let ir = self.nn_sid.row_mut(r);
                    for j in (pos..end).rev() {
                        ir[j + 1] = ir[j];
                    }
                    ir[pos] = sid;
                }
                if len < k {
                    self.nn_len.as_mut_slice()[r] += 1;
                }
                if len + 1 >= k {
                    self.kth.as_mut_slice()[r] = self.nn_score.row(r)[k - 1];
                }
                let owner = self.sid_of_slot(s);
                match evicted {
                    Some(evicted) => self.push_event(KnnEvent::EdgeReplaced {
                        owner,
                        target: sid,
                        evicted,
                    }),
                    None => self.push_event(KnnEvent::EdgeAdded { owner, target: sid }),
                }
                r += 1;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::naive;
    use crate::stats::SplitMix64;

    fn random_series(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() * 4.0 - 2.0).collect()
    }

    /// Brute-force mirror of the streaming semantics: same exclusion, same
    /// insert-only updates, but naive dot products. Returns neighbour lists
    /// by absolute sid after feeding the whole series.
    struct NaiveMirror {
        d: usize,
        w: usize,
        k: usize,
        excl: usize,
        sim: Similarity,
        series: Vec<f64>,
        rows: Vec<(i64, Vec<(i64, f64)>)>, // (sid, sorted neighbour list)
    }

    impl NaiveMirror {
        fn score(&self, a: i64, b: i64) -> f64 {
            let sa = &self.series[a as usize..a as usize + self.w];
            let sb = &self.series[b as usize..b as usize + self.w];
            match self.sim {
                Similarity::Pearson => naive::pearson(sa, sb),
                Similarity::Euclidean => -naive::sq_euclidean(sa, sb),
                Similarity::Cid => -naive::sq_cid(sa, sb),
            }
        }

        fn run(&mut self) {
            let n = self.series.len();
            for t in self.w - 1..n {
                let sid = (t + 1 - self.w) as i64;
                let oldest_point = (t + 1).saturating_sub(self.d);
                let oldest_sid = oldest_point as i64;
                // Selection among older, eligible subsequences.
                let mut cands: Vec<(i64, f64)> = (oldest_sid..=sid - self.excl as i64)
                    .map(|c| (c, self.score(c, sid)))
                    .collect();
                cands.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
                cands.truncate(self.k);
                self.rows.push((sid, cands));
                // Insert-only update of older rows still in window.
                for (rsid, list) in self.rows.iter_mut() {
                    if *rsid < oldest_sid || sid - *rsid < self.excl as i64 || *rsid == sid {
                        continue;
                    }
                    let sc = {
                        let sa = &self.series[*rsid as usize..*rsid as usize + self.w];
                        let sb = &self.series[sid as usize..sid as usize + self.w];
                        match self.sim {
                            Similarity::Pearson => naive::pearson(sa, sb),
                            Similarity::Euclidean => -naive::sq_euclidean(sa, sb),
                            Similarity::Cid => -naive::sq_cid(sa, sb),
                        }
                    };
                    if list.len() < self.k {
                        let pos = list.iter().position(|e| e.1 < sc).unwrap_or(list.len());
                        list.insert(pos, (sid, sc));
                    } else if sc > list.last().unwrap().1 {
                        list.pop();
                        let pos = list.iter().position(|e| e.1 < sc).unwrap_or(list.len());
                        list.insert(pos, (sid, sc));
                    }
                }
            }
        }
    }

    fn check_against_naive(n: usize, d: usize, w: usize, k: usize, sim: Similarity, seed: u64) {
        let series = random_series(n, seed);
        let cfg = KnnConfig {
            window_size: d,
            width: w,
            k,
            similarity: sim,
            exclusion: None,
            update_existing: true,
        };
        let excl = cfg.exclusion_radius();
        let mut knn = StreamingKnn::new(cfg);
        for &x in &series {
            knn.update(x);
        }
        let mut mirror = NaiveMirror {
            d,
            w,
            k,
            excl,
            sim,
            series,
            rows: Vec::new(),
        };
        mirror.run();
        // Compare the live rows at the end.
        let qs = knn.qstart();
        for slot in qs..knn.max_subsequences() {
            let sid = knn.sid_of_slot(slot);
            let (got_sids, got_scores) = knn.neighbors(slot);
            let (_, want) = mirror
                .rows
                .iter()
                .find(|(s, _)| *s == sid)
                .unwrap_or_else(|| panic!("missing naive row for sid {sid}"));
            assert_eq!(got_sids.len(), want.len(), "sid {sid}: neighbour count");
            for (i, &(wsid, wscore)) in want.iter().enumerate() {
                // Scores must match; ids may differ only under (near-)ties,
                // where the streaming recursion and the naive mirror may
                // legitimately order equal-scored neighbours differently.
                assert!(
                    (got_scores[i] - wscore).abs() < 1e-7,
                    "sid {sid} nn{i}: score {} vs {}",
                    got_scores[i],
                    wscore
                );
                let tie = i
                    .checked_sub(1)
                    .is_some_and(|p| (want[p].1 - wscore).abs() < 1e-7)
                    || want.get(i + 1).is_some_and(|n| (n.1 - wscore).abs() < 1e-7);
                assert!(
                    got_sids[i] == wsid || tie,
                    "sid {sid} nn{i}: id {} vs {} (scores {} vs {})",
                    got_sids[i],
                    wsid,
                    got_scores[i],
                    wscore
                );
            }
        }
    }

    #[test]
    fn streaming_knn_matches_naive_pearson_short() {
        check_against_naive(120, 200, 8, 3, Similarity::Pearson, 1);
    }

    #[test]
    fn streaming_knn_matches_naive_pearson_with_eviction() {
        check_against_naive(300, 100, 7, 3, Similarity::Pearson, 2);
    }

    #[test]
    fn streaming_knn_matches_naive_euclidean() {
        check_against_naive(250, 90, 6, 2, Similarity::Euclidean, 3);
    }

    #[test]
    fn streaming_knn_matches_naive_cid() {
        check_against_naive(220, 80, 5, 3, Similarity::Cid, 4);
    }

    #[test]
    fn streaming_knn_matches_naive_k1() {
        check_against_naive(260, 110, 9, 1, Similarity::Pearson, 5);
    }

    #[test]
    fn latest_scores_match_naive_pearson_each_step() {
        let n = 240;
        let (d, w) = (90, 7);
        let series = random_series(n, 6);
        let mut knn = StreamingKnn::new(KnnConfig::new(d, w, 3));
        for (t, &x) in series.iter().enumerate() {
            if !knn.update(x) {
                continue;
            }
            let newest = knn.newest_sid().unwrap() as usize;
            let sb = &series[newest..newest + w];
            for slot in knn.qstart()..knn.max_subsequences() {
                let sid = knn.sid_of_slot(slot) as usize;
                let sa = &series[sid..sid + w];
                let want = naive::pearson(sa, sb);
                let got = knn.latest_scores()[slot];
                assert!(
                    (got - want).abs() < 1e-7,
                    "t={t} slot={slot}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn exclusion_radius_is_respected() {
        let series = random_series(400, 7);
        let cfg = KnnConfig::new(150, 10, 3);
        let excl = cfg.exclusion_radius();
        let mut knn = StreamingKnn::new(cfg);
        for &x in &series {
            knn.update(x);
        }
        for slot in knn.qstart()..knn.max_subsequences() {
            let sid = knn.sid_of_slot(slot);
            let (sids, _) = knn.neighbors(slot);
            for &nsid in sids {
                assert!(
                    (nsid - sid).unsigned_abs() as usize >= excl,
                    "sid {sid} has trivial neighbour {nsid} (excl {excl})"
                );
            }
        }
    }

    #[test]
    fn neighbor_scores_sorted_descending() {
        let series = random_series(500, 8);
        let mut knn = StreamingKnn::new(KnnConfig::new(120, 9, 5));
        for &x in &series {
            knn.update(x);
        }
        for slot in knn.qstart()..knn.max_subsequences() {
            let (_, scores) = knn.neighbors(slot);
            for p in scores.windows(2) {
                assert!(p[0] >= p[1]);
            }
        }
    }

    #[test]
    fn update_returns_false_until_width_reached() {
        let mut knn = StreamingKnn::new(KnnConfig::new(50, 10, 3));
        for i in 0..9 {
            assert!(!knn.update(i as f64), "step {i}");
        }
        assert!(knn.update(9.0));
        assert_eq!(knn.n_subsequences(), 1);
    }

    #[test]
    fn constant_stream_is_handled_gracefully() {
        let mut knn = StreamingKnn::new(KnnConfig::new(60, 8, 3));
        for _ in 0..200 {
            knn.update(1.0);
        }
        // Flat subsequences: Pearson degenerates to 0 everywhere; the index
        // must stay finite and populated.
        for slot in knn.qstart()..knn.max_subsequences() {
            let (_, scores) = knn.neighbors(slot);
            assert!(scores.iter().all(|s| s.is_finite()));
        }
    }

    #[test]
    fn sid_slot_roundtrip() {
        let series = random_series(300, 9);
        let mut knn = StreamingKnn::new(KnnConfig::new(100, 6, 3));
        for &x in &series {
            knn.update(x);
        }
        for slot in knn.qstart()..knn.max_subsequences() {
            assert_eq!(knn.slot_of_sid(knn.sid_of_slot(slot)), slot);
        }
        assert_eq!(knn.oldest_sid().unwrap(), knn.sid_of_slot(knn.qstart()));
    }

    #[test]
    fn one_directional_mode_never_points_forward() {
        let series = random_series(400, 10);
        let mut cfg = KnnConfig::new(120, 8, 1);
        cfg.update_existing = false;
        let mut knn = StreamingKnn::new(cfg);
        for &x in &series {
            knn.update(x);
        }
        for slot in knn.qstart()..knn.max_subsequences() {
            let sid = knn.sid_of_slot(slot);
            let (sids, _) = knn.neighbors(slot);
            for &nsid in sids {
                assert!(nsid < sid, "forward arc {nsid} from {sid}");
            }
        }
    }

    #[test]
    fn nan_is_healed_once_evicted_from_window() {
        // A single NaN poisons the Q recursion (x + NaN - NaN = NaN). Once
        // the value has left the sliding window, the index must return to
        // exactness: every per-step score matches the naive computation.
        let (d, w) = (90, 7);
        let nan_at = 130;
        let mut series = random_series(400, 12);
        series[nan_at] = f64::NAN;
        let mut knn = StreamingKnn::new(KnnConfig::new(d, w, 3));
        // The NaN is evicted after exactly `d` further pushes.
        let clean_from = nan_at + d + 1;
        for (t, &x) in series.iter().enumerate() {
            if !knn.update(x) {
                continue;
            }
            if t < clean_from {
                continue;
            }
            let newest = knn.newest_sid().unwrap() as usize;
            let sb = &series[newest..newest + w];
            for slot in knn.qstart()..knn.max_subsequences() {
                let sid = knn.sid_of_slot(slot) as usize;
                let sa = &series[sid..sid + w];
                let want = naive::pearson(sa, sb);
                let got = knn.latest_scores()[slot];
                assert!(
                    (got - want).abs() < 1e-7,
                    "t={t} slot={slot}: {got} vs {want} (healing failed)"
                );
            }
            // Fresh rows must get full neighbour lists again.
            let (sids, _) = knn.neighbors(knn.max_subsequences() - 1);
            assert_eq!(sids.len(), 3, "t={t}: short list after heal");
        }
    }

    #[test]
    fn nan_healing_applies_to_euclidean_q_state() {
        // Through the Euclidean scoring path, a dirty window must propagate
        // NaN (shortened neighbour lists), never fabricate distance-0
        // neighbours; after eviction the Q state (shared across measures)
        // must be finite and the scores exact again.
        let (d, w) = (70, 6);
        let nan_at = 100;
        let mut series = random_series(300, 13);
        series[nan_at] = f64::NAN;
        let cfg = KnnConfig {
            window_size: d,
            width: w,
            k: 2,
            similarity: Similarity::Euclidean,
            exclusion: None,
            update_existing: true,
        };
        let mut knn = StreamingKnn::new(cfg);
        // The NaN is evicted (and healing fires) exactly at t = nan_at + d.
        let clean_from = nan_at + d;
        for (t, &x) in series.iter().enumerate() {
            if !knn.update(x) {
                continue;
            }
            if t >= nan_at && t < clean_from {
                // Dirty window: the recursion poisons every slot one step
                // after the NaN arrives; poisoned scores must surface as
                // NaN — not as a perfect distance-0 match — so no stored
                // neighbour can ever carry a fabricated 0.0 score.
                for slot in knn.qstart()..knn.max_subsequences() {
                    let sc = knn.latest_scores()[slot];
                    assert!(
                        t == nan_at || sc.is_nan(),
                        "t={t} slot={slot}: dirty-window score {sc} not NaN"
                    );
                }
                continue;
            }
            if t < clean_from {
                continue;
            }
            let newest = knn.newest_sid().unwrap() as usize;
            let sb = &series[newest..newest + w];
            for slot in knn.qstart()..knn.max_subsequences() {
                let sid = knn.sid_of_slot(slot) as usize;
                let sa = &series[sid..sid + w];
                let want = -naive::sq_euclidean(sa, sb);
                let got = knn.latest_scores()[slot];
                assert!(
                    (got - want).abs() < 1e-6,
                    "t={t} slot={slot}: {got} vs {want}"
                );
            }
        }
    }

    /// Asserts the threshold-column invariant on every live row: the k-th
    /// neighbour's score (bit-for-bit) when the list is full, NaN otherwise.
    fn assert_kth_column(knn: &StreamingKnn, t: usize) {
        let k = knn.config().k;
        let qs = knn.qstart();
        assert_eq!(knn.kth.len(), knn.n_subsequences(), "t={t}: column length");
        for slot in qs..knn.max_subsequences() {
            let (_, scores) = knn.neighbors(slot);
            let got = knn.kth.get(slot - qs);
            if scores.len() == k {
                assert_eq!(
                    got.to_bits(),
                    scores[k - 1].to_bits(),
                    "t={t} slot={slot}: threshold {got} vs k-th score {}",
                    scores[k - 1]
                );
            } else {
                assert!(
                    got.is_nan(),
                    "t={t} slot={slot}: short list, threshold {got}"
                );
            }
        }
    }

    #[test]
    fn threshold_column_tracks_kth_neighbour_pearson_nan_burst() {
        // A NaN burst shortens lists while the window is dirty; once it is
        // evicted, healing refills them. The column must follow throughout.
        let (d, w) = (90, 7);
        let mut series = random_series(420, 14);
        for x in &mut series[150..156] {
            *x = f64::NAN;
        }
        let mut knn = StreamingKnn::new(KnnConfig::new(d, w, 3));
        let mut saw_short = false;
        for (t, &x) in series.iter().enumerate() {
            knn.update(x);
            assert_kth_column(&knn, t);
            if knn.n_subsequences() > 0 {
                let newest = knn.max_subsequences() - 1;
                saw_short |= t > 150 && knn.neighbors(newest).0.len() < 3;
            }
        }
        assert!(saw_short, "the NaN burst never shortened a list");
        let (sids, _) = knn.neighbors(knn.max_subsequences() - 1);
        assert_eq!(sids.len(), 3, "lists not refilled after healing");
    }

    #[test]
    fn threshold_column_tracks_kth_neighbour_euclidean_k1() {
        let cfg = KnnConfig {
            window_size: 80,
            width: 6,
            k: 1,
            similarity: Similarity::Euclidean,
            exclusion: None,
            update_existing: true,
        };
        let mut knn = StreamingKnn::new(cfg);
        for (t, &x) in random_series(300, 15).iter().enumerate() {
            knn.update(x);
            assert_kth_column(&knn, t);
        }
    }

    #[test]
    fn index_footprint_stays_within_budget() {
        // The paper's default window at width 50. With a second full copy
        // of every column and all four moment columns, this index would
        // hold 2,123,262 B.
        let (d, w, k) = (10_000, 50, 3);
        let mut knn = StreamingKnn::new(KnnConfig::new(d, w, k));
        let at_start = knn.heap_bytes();
        // 30k updates fill the window and compact every column 16 times;
        // unoptimized builds stop after 4 compactions to stay fast.
        let n = if cfg!(debug_assertions) {
            15_000
        } else {
            30_000
        };
        for &x in &random_series(n, 16) {
            knn.update(x);
        }
        assert_eq!(knn.heap_bytes(), at_start, "update must not allocate");
        assert!(
            knn.heap_bytes() <= 1_150_000,
            "Pearson index at d={d}: {} B",
            knn.heap_bytes()
        );

        // Euclidean reads one moment column, CID two, Pearson two.
        let with = |similarity| {
            StreamingKnn::new(KnnConfig {
                similarity,
                ..KnnConfig::new(d, w, k)
            })
        };
        let column = ShiftBuffer::<f64>::new(d - w + 1).heap_bytes();
        let (euclidean, cid) = (with(Similarity::Euclidean), with(Similarity::Cid));
        assert!(matches!(euclidean.moments, Moments::Euclidean { .. }));
        assert!(matches!(cid.moments, Moments::Cid { .. }));
        assert_eq!(euclidean.moments.heap_bytes(), column);
        assert_eq!(cid.moments.heap_bytes(), 2 * column);
        assert_eq!(knn.moments.heap_bytes(), 2 * column);
        assert_eq!(knn.heap_bytes() - euclidean.heap_bytes(), column);
    }

    #[test]
    #[should_panic]
    fn rejects_width_larger_than_window() {
        let _ = StreamingKnn::new(KnnConfig::new(50, 60, 3));
    }

    #[test]
    #[should_panic]
    fn rejects_zero_k() {
        let _ = StreamingKnn::new(KnnConfig::new(50, 5, 0));
    }
}
