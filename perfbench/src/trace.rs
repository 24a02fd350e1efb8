//! Spans recorded from the benchmark's own code around calls into each
//! layer, plus the decorators that place those spans on the program's
//! trait seams.
//!
//! Nothing here touches a program crate: every span wraps a public call
//! (or a trait method the program calls back into). Spans are kept in
//! memory and aggregated when the traced run ends; a span's *self time*
//! is its duration minus the union of the intervals its child spans
//! cover. A span's parent is the innermost open span on its own thread,
//! or — for work that the program fans out to rayon workers — the span
//! the workload code marked as the root with [`Span::root`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use wanify::{BandwidthSource, WanifyError};
use wanify_gda::{JobProfile, PlacementCtx, Scheduler, ShardPolicy};
use wanify_netsim::{BwMatrix, EpochCtx, EpochHook, NetSim, Topology};

/// The layer boundaries the benchmark times. The label is the metric
/// prefix in the per-layer report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    RunStream,
    ShardOf,
    Gauge,
    Place,
    Migrate,
    Arrivals,
    Snapshot,
    Predict,
    Plan,
    Collect,
    Train,
    RunTransfers,
    Advance,
    JobRun,
    OnEpoch,
    Offer,
    AdvanceTo,
    Drain,
}

impl Layer {
    pub fn label(self) -> &'static str {
        match self {
            Layer::RunStream => "gda.sharded.run_stream",
            Layer::ShardOf => "gda.sharded.shard_of",
            Layer::Gauge => "core.source.gauge",
            Layer::Place => "gda.scheduler.place",
            Layer::Migrate => "gda.scheduler.migrate",
            Layer::Arrivals => "workloads.arrivals",
            Layer::Snapshot => "netsim.probe.snapshot",
            Layer::Predict => "core.predictor.predict_matrix",
            Layer::Plan => "core.global.plan_matrix",
            Layer::Collect => "core.predictor.collect",
            Layer::Train => "mlforest.train",
            Layer::RunTransfers => "netsim.sim.run_transfers",
            Layer::Advance => "netsim.sim.advance",
            Layer::JobRun => "gda.executor.jobrun",
            Layer::OnEpoch => "core.agent.on_epoch",
            Layer::Offer => "gateway.offer",
            Layer::AdvanceTo => "gateway.advance_to",
            Layer::Drain => "gateway.drain",
        }
    }
}

/// One closed span: ids are 1-based, parent 0 means "no parent".
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    pub id: u32,
    pub parent: u32,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicU32 = AtomicU32::new(0);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static ROOT: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn clock() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(clock().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Starts recording (clears earlier spans).
pub fn enable() {
    SPANS.lock().expect("span store").clear();
    ENABLED.store(1, Ordering::Release);
}

/// Stops recording and hands back every closed span.
pub fn disable() -> Vec<SpanRecord> {
    ENABLED.store(0, Ordering::Release);
    std::mem::take(&mut *SPANS.lock().expect("span store"))
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire) == 1
}

/// An open span; it closes (and is recorded) when dropped. Inert while
/// recording is off: the spans the workloads open around public calls
/// then cost one atomic load each in untraced runs.
pub struct Span {
    id: u32,
    parent: u32,
    layer: Layer,
    start_ns: u64,
    root: bool,
}

impl Span {
    pub fn enter(layer: Layer) -> Self {
        if !enabled() {
            return Self { id: 0, parent: 0, layer, start_ns: 0, root: false };
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or_else(|| ROOT.load(Ordering::Acquire));
            s.push(id);
            parent
        });
        Self { id, parent, layer, start_ns: now_ns(), root: false }
    }

    /// Like [`Span::enter`], and also adopts spans opened on threads with
    /// no open span of their own (rayon workers) as children.
    pub fn root(layer: Layer) -> Self {
        let mut span = Self::enter(layer);
        if span.id != 0 {
            ROOT.store(span.id, Ordering::Release);
            span.root = true;
        }
        span
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped, Some(self.id), "spans close in LIFO order per thread");
        });
        if self.root {
            ROOT.store(self.parent, Ordering::Release);
        }
        let rec = SpanRecord {
            id: self.id,
            parent: self.parent,
            layer: self.layer,
            start_ns: self.start_ns,
            end_ns,
        };
        SPANS.lock().expect("span store").push(rec);
    }
}

/// Times `f` as one span of `layer`.
pub fn timed<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let _span = Span::enter(layer);
    f()
}

/// Per-layer aggregate of a traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub ns: u64,
    pub self_ns: u64,
}

/// Aggregates spans into per-layer calls, total ns and self ns.
pub fn aggregate(spans: &[SpanRecord]) -> BTreeMap<Layer, LayerTotals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<Layer, LayerTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered =
            children.get_mut(&s.id).map_or(0, |iv| union_within(iv, s.start_ns, s.end_ns));
        let t = out.entry(s.layer).or_default();
        t.calls += 1;
        t.ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}

/// Times every placement call of the wrapped scheduler. Forwards every
/// trait method, the defaulted ones included, so the inner scheduler's
/// own overrides stay in force.
pub struct TimedScheduler(pub Box<dyn Scheduler>);

impl Scheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn place_reduce(&self, ctx: &PlacementCtx<'_>) -> Vec<f64> {
        timed(Layer::Place, || self.0.place_reduce(ctx))
    }

    fn migrate_input(&self, ctx: &PlacementCtx<'_>) -> Option<Vec<f64>> {
        timed(Layer::Migrate, || self.0.migrate_input(ctx))
    }

    fn place_reduce_from(
        &self,
        source: &mut dyn BandwidthSource,
        sim: &mut NetSim,
        out_gb: &[f64],
        compute_s_per_gb: f64,
    ) -> Vec<f64> {
        timed(Layer::Place, || self.0.place_reduce_from(source, sim, out_gb, compute_s_per_gb))
    }
}

/// Times every gauge of the wrapped bandwidth source.
pub struct TimedSource(pub Box<dyn BandwidthSource>);

impl BandwidthSource for TimedSource {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn gauge(&mut self, net: &mut NetSim) -> Result<BwMatrix, WanifyError> {
        timed(Layer::Gauge, || self.0.gauge(net))
    }
}

/// Times every epoch callback of the wrapped hook and forwards its wake
/// schedule: without `next_wake` the transfer loop would fall back to
/// one solve per epoch and the traced run would measure another program.
pub struct TimedHook<H>(pub H);

impl<H: EpochHook> EpochHook for TimedHook<H> {
    fn on_epoch(&mut self, ctx: &mut EpochCtx<'_>) {
        timed(Layer::OnEpoch, || self.0.on_epoch(ctx));
    }

    fn next_wake(&mut self, now_s: f64) -> Option<f64> {
        self.0.next_wake(now_s)
    }
}

/// Times every shard assignment of the wrapped policy.
pub struct TimedShards(pub Box<dyn ShardPolicy>);

impl ShardPolicy for TimedShards {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn shard_of(&self, idx: usize, job: &JobProfile, topo: &Topology, n_shards: usize) -> usize {
        timed(Layer::ShardOf, || self.0.shard_of(idx, job, topo, n_shards))
    }
}

/// Times every item pulled from the wrapped arrival iterator.
pub struct TimedIter<I>(pub I);

impl<I: Iterator> Iterator for TimedIter<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        timed(Layer::Arrivals, || self.0.next())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut iv = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(union_within(&mut iv, 2, 25), 1 + 7 + 5);
    }

    #[test]
    fn self_time_excludes_children() {
        let spans = [
            SpanRecord { id: 1, parent: 0, layer: Layer::RunStream, start_ns: 0, end_ns: 100 },
            SpanRecord { id: 2, parent: 1, layer: Layer::Gauge, start_ns: 10, end_ns: 40 },
            SpanRecord { id: 3, parent: 1, layer: Layer::Gauge, start_ns: 30, end_ns: 50 },
        ];
        let agg = aggregate(&spans);
        assert_eq!(agg[&Layer::RunStream].self_ns, 60);
        assert_eq!(agg[&Layer::Gauge].calls, 2);
        assert_eq!(agg[&Layer::Gauge].ns, 50);
    }
}

#[cfg(test)]
mod forwarding {
    use super::*;
    use crate::progress::Ticked;
    use wanify::StaticIndependent;
    use wanify_netsim::{paper_testbed_n, LinkModelParams, VmType};

    struct Waking;

    impl EpochHook for Waking {
        fn on_epoch(&mut self, _ctx: &mut EpochCtx<'_>) {}

        fn next_wake(&mut self, now_s: f64) -> Option<f64> {
            Some(now_s + 5.0)
        }
    }

    /// Overrides every defaulted method with a recognisable answer.
    struct Custom;

    impl Scheduler for Custom {
        fn name(&self) -> &str {
            "custom"
        }

        fn place_reduce(&self, ctx: &PlacementCtx<'_>) -> Vec<f64> {
            vec![1.0 / ctx.n() as f64; ctx.n()]
        }

        fn migrate_input(&self, ctx: &PlacementCtx<'_>) -> Option<Vec<f64>> {
            Some(vec![42.0; ctx.n()])
        }

        fn place_reduce_from(
            &self,
            _source: &mut dyn BandwidthSource,
            sim: &mut NetSim,
            _out_gb: &[f64],
            _compute_s_per_gb: f64,
        ) -> Vec<f64> {
            vec![7.0; sim.topology().len()]
        }
    }

    #[test]
    fn hook_forwards_its_wake_schedule() {
        assert_eq!(TimedHook(Waking).next_wake(10.0), Some(15.0));
    }

    #[test]
    fn schedulers_forward_defaulted_methods() {
        let mut sim =
            NetSim::new(paper_testbed_n(VmType::t2_medium(), 3), LinkModelParams::frozen(), 1);
        let bw = BwMatrix::filled(3, 100.0);
        let out = [1.0, 1.0, 1.0];
        let ctx =
            PlacementCtx { topo: sim.topology(), bw: &bw, out_gb: &out, compute_s_per_gb: 1.0 };
        let timed = TimedScheduler(Box::new(Custom));
        let ticked = Ticked(Box::new(Custom));
        assert_eq!(timed.migrate_input(&ctx), Some(vec![42.0; 3]));
        assert_eq!(ticked.migrate_input(&ctx), Some(vec![42.0; 3]));
        let mut source = TimedSource(Box::new(StaticIndependent::new()));
        assert_eq!(timed.place_reduce_from(&mut source, &mut sim, &out, 1.0), vec![7.0; 3]);
        assert_eq!(timed.name(), "custom");
        assert_eq!(ticked.place_reduce_from(&mut source, &mut sim, &out, 1.0), vec![7.0; 3]);
        assert_eq!(ticked.name(), "custom");
    }
}
