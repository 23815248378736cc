//! The traced run: one stream re-driven through the public `class-core`
//! primitives in the order `ClassSegmenter::step` calls them —
//! `select_width`, `StreamingKnn::update`, `CrossVal::compute`, the
//! argmax, `significance_ln_p` — with a span around each call. Its change
//! points must equal the segmenter's; its span totals form the ledger.

use class_core::stats::significance_ln_p;
use class_core::{
    select_width, ClassConfig, CrossVal, KnnConfig, SplitMix64, StreamingKnn, WidthBounds,
    WidthSelection,
};
use std::io::Write;
use std::time::Instant;

/// The layers a span can name, in ledger order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Wss,
    Replay,
    Knn,
    CrossVal,
    Argmax,
    Stats,
}

pub const LAYERS: [Layer; 6] = [
    Layer::Wss,
    Layer::Replay,
    Layer::Knn,
    Layer::CrossVal,
    Layer::Argmax,
    Layer::Stats,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Wss => "wss.select_width",
            Layer::Replay => "class.warmup_replay",
            Layer::Knn => "knn.update",
            Layer::CrossVal => "crossval.compute",
            Layer::Argmax => "class.argmax",
            Layer::Stats => "stats.significance",
        }
    }

    /// Whether the layer's time is covered by child spans (its self time
    /// is not a ledger line of its own).
    fn is_parent(self) -> bool {
        self == Layer::Replay
    }
}

/// One span: layer, start and end (ns since the run's start) and the
/// index of the enclosing span, if any.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    pub parent: Option<u32>,
}

/// In-memory span store. With `enabled == false` nothing is recorded and
/// no clock is read: the untraced twin of the same code.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    open: Option<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: None,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    #[inline]
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open;
        let start = self.now();
        self.spans.push(Span {
            layer,
            start,
            end: start,
            parent,
        });
        if layer.is_parent() {
            self.open = Some(idx);
        }
        let r = f(self);
        self.open = parent;
        self.spans[idx as usize].end = self.now();
        r
    }

    /// `(count, total ns)` per layer.
    pub fn totals(&self) -> [(u64, u64); 6] {
        let mut t = [(0u64, 0u64); 6];
        for s in &self.spans {
            let i = LAYERS
                .iter()
                .position(|&l| l == s.layer)
                .expect("known layer");
            t[i].0 += 1;
            t[i].1 += s.end - s.start;
        }
        t
    }

    /// Σ (count × unit cost) over the leaf layers: the ledger's explained
    /// time in ns.
    pub fn explained_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| !s.layer.is_parent())
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Writes the spans as TSV (`id name start_ns end_ns parent`).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}",
                s.layer.name(),
                s.start,
                s.end
            )?;
        }
        w.flush()
    }
}

/// Counts made at the span boundaries.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub knn_updates: u64,
    pub computes: u64,
    pub cold_rebuilds: u64,
    pub tests: u64,
    pub significant: u64,
    pub wss_calls: u64,
}

/// The post-warm-up state, field for field what `ClassSegmenter` keeps.
struct Running {
    knn: StreamingKnn,
    cv: CrossVal,
    rng: SplitMix64,
    ln_alpha: f64,
    margin: usize,
    since_eval: usize,
    cpl_sid: i64,
    next_pos: u64,
    /// Journal cursor of the last `CrossVal::compute`, `None` before the
    /// first call: the rule `CrossVal` uses to choose a cold rebuild.
    seen_seq: Option<u64>,
}

impl Running {
    fn new(cfg: &ClassConfig, w: usize) -> Running {
        let w = w.clamp(2, cfg.window_size / 2);
        Running {
            knn: StreamingKnn::new(KnnConfig {
                window_size: cfg.window_size,
                width: w,
                k: cfg.k,
                similarity: cfg.similarity,
                exclusion: None,
                update_existing: true,
            }),
            cv: CrossVal::new(cfg.score),
            rng: SplitMix64::new(cfg.seed),
            ln_alpha: cfg.log10_alpha * core::f64::consts::LN_10,
            margin: ((cfg.cp_margin_factor * w as f64).round() as usize).max(2),
            since_eval: 0,
            cpl_sid: 0,
            next_pos: 0,
            seen_seq: None,
        }
    }

    fn step(
        &mut self,
        cfg: &ClassConfig,
        x: f64,
        tr: &mut Tracer,
        c: &mut Counts,
        cps: &mut Vec<u64>,
    ) {
        self.next_pos += 1;
        c.knn_updates += 1;
        if !tr.span(Layer::Knn, |_| self.knn.update(x)) {
            return;
        }
        self.since_eval += 1;
        if self.since_eval < cfg.jump {
            return;
        }
        self.since_eval = 0;
        self.evaluate(cfg, tr, c, cps);
    }

    fn evaluate(&mut self, cfg: &ClassConfig, tr: &mut Tracer, c: &mut Counts, cps: &mut Vec<u64>) {
        let Some(oldest) = self.knn.oldest_sid() else {
            return;
        };
        let start_sid = self.cpl_sid.max(oldest);
        let start_slot = self.knn.slot_of_sid(start_sid);
        let cold = self
            .seen_seq
            .is_none_or(|seq| self.knn.events_since(seq).is_none());
        c.computes += 1;
        c.cold_rebuilds += u64::from(cold);
        let (knn, cv) = (&self.knn, &mut self.cv);
        let nn = tr.span(Layer::CrossVal, |_| cv.compute(knn, start_slot));
        self.seen_seq = (self.knn.max_subsequences() > start_slot).then(|| self.knn.events_total());
        if nn < 2 * self.margin + 2 {
            return;
        }
        let (lo, hi) = (self.margin, nn - self.margin);
        let profile = self.cv.profile();
        let (best_p, best_v) = tr.span(Layer::Argmax, |_| {
            let mut best = (lo, f64::MIN);
            for (p, &v) in profile.iter().enumerate().take(hi).skip(lo) {
                if v > best.1 {
                    best = (p, v);
                }
            }
            best
        });
        if best_v < cfg.min_score {
            return;
        }
        let groups = self.cv.groups_at(best_p);
        let rng = &mut self.rng;
        let ln_p = tr.span(Layer::Stats, |_| {
            significance_ln_p(groups, cfg.sample_size, rng)
        });
        c.tests += 1;
        if ln_p <= self.ln_alpha {
            c.significant += 1;
            let cp_sid = start_sid + best_p as i64;
            cps.push(cp_sid as u64);
            self.cpl_sid = cp_sid;
        }
    }
}

/// What one re-drive produced.
pub struct Redrive {
    pub cps: Vec<u64>,
    pub wall_ns: u64,
    pub counts: Counts,
    pub tracer: Tracer,
}

/// Re-drives `xs` through the primitives. Width re-learning after a
/// change point is not re-driven: every workload runs with it off.
pub fn redrive(cfg: &ClassConfig, xs: &[f64], traced: bool) -> Redrive {
    assert!(
        !cfg.relearn_width,
        "the re-drive covers configurations without width re-learning"
    );
    let mut tr = Tracer::new(traced);
    let mut c = Counts::default();
    let mut cps = Vec::new();
    let t0 = Instant::now();
    let mut prefix = 0usize;
    let mut run = match cfg.width {
        WidthSelection::Fixed(w) => Running::new(cfg, w),
        WidthSelection::Learn(method) => {
            let target = cfg.warmup.unwrap_or(cfg.window_size).max(32).min(xs.len());
            let buf = &xs[..target];
            let bounds = WidthBounds::for_stream(buf.len(), cfg.window_size);
            c.wss_calls += 1;
            let w = tr.span(Layer::Wss, |_| select_width(method, buf, bounds));
            let mut run = Running::new(cfg, w);
            tr.span(Layer::Replay, |tr| {
                for &x in buf {
                    run.step(cfg, x, tr, &mut c, &mut cps);
                }
            });
            prefix = target;
            run
        }
    };
    for &x in &xs[prefix..] {
        run.step(cfg, x, &mut tr, &mut c, &mut cps);
    }
    if cfg.jump > 1 && run.since_eval > 0 && run.next_pos > 0 {
        run.since_eval = 0;
        run.evaluate(cfg, &mut tr, &mut c, &mut cps);
    }
    Redrive {
        cps,
        wall_ns: t0.elapsed().as_nanos() as u64,
        counts: c,
        tracer: tr,
    }
}

/// Unit costs of the width-learning layers on `xs`, timed once each, for
/// workloads whose configuration never calls them (fixed width): one
/// `select_width` over the first window and one replay of that window
/// into a fresh index. Returns `(select_width ns, replay ns)`.
pub fn learn_unit_costs(cfg: &ClassConfig, xs: &[f64]) -> (u64, u64) {
    let buf = &xs[..cfg.window_size.min(xs.len())];
    let bounds = WidthBounds::for_stream(buf.len(), cfg.window_size);
    let t0 = Instant::now();
    let w = std::hint::black_box(select_width(class_core::WssMethod::Suss, buf, bounds));
    let wss = t0.elapsed().as_nanos() as u64;
    let mut run = Running::new(cfg, w);
    let (mut tr, mut c, mut cps) = (Tracer::new(false), Counts::default(), Vec::new());
    let t1 = Instant::now();
    for &x in buf {
        run.step(cfg, x, &mut tr, &mut c, &mut cps);
    }
    (wss, t1.elapsed().as_nanos() as u64)
}
