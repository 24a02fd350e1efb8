//! The WANify simulator's benchmark: one command, three workloads,
//! end-to-end metrics by name and unit, correctness gates, and a traced
//! mode that times each layer from outside through its public calls.
//!
//! ```text
//! perfbench --workload <fleet-hier-64dc|wanify-pipeline-8dc|gateway-overload-8dc>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; earlier lines record
//! the run (seed, threads, commit, compiler) and, traced, a per-layer
//! table. Any failed check exits nonzero. See `perfbench/README.md`.

mod fleet;
mod gateway;
mod host;
mod pipeline;
mod probes;
mod progress;
mod trace;

use std::collections::{BTreeMap, VecDeque};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use wanify::WanPredictionModel;

/// Simulated end-to-end metrics of one episode (deterministic).
#[derive(Debug, Clone, Copy)]
pub struct Metrics {
    pub latency_p50_s: f64,
    pub latency_p99_s: f64,
    pub goodput_per_sim_s: f64,
    pub egress_usd_per_job: f64,
    pub wan_min_bw_mbps: f64,
    pub served_share: f64,
}

/// What one episode of a workload produced.
pub struct Episode {
    /// Queries that ran to completion.
    pub completed: usize,
    /// Queries offered to the system.
    pub offered: usize,
    /// Queries aborted or errored.
    pub failed: usize,
    pub metrics: Metrics,
    /// Bit-exact text of every simulated output; equal digests mean the
    /// same simulated run.
    pub digest: String,
    /// Simulated per-layer counts.
    pub counts: Vec<(&'static str, f64)>,
    /// Broken correctness checks.
    pub check: Vec<String>,
}

/// How much work one episode does. `queries` counts queries (or offered
/// requests); the training fields apply to workloads that predict.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub queries: usize,
    pub samples_per_size: usize,
    pub trees: usize,
}

/// Bit-exact rendering of a float for digests.
pub fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// SplitMix64: the benchmark's own seeded stream for input choices.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// End-to-end metrics (untraced runs), with units.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("jobs_per_ref_s", "1/ref_s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_s", "s"),
    ("latency_p99_s", "s"),
    ("goodput_per_sim_s", "1/s"),
    ("egress_usd_per_job", "usd"),
    ("wan_min_bw_mbps", "Mbps"),
    ("served_share", "ratio"),
];

/// Per-layer metrics (traced runs), with units. Span metrics are
/// `<layer>.calls`, `<layer>.ns` (total) and `<layer>.self_ns`.
const PER_LAYER: [(&str, &str); 46] = [
    ("netsim.fairness.fleet_call_ns", "ns"),
    ("netsim.fairness.solve_ns", "ns"),
    ("netsim.fairness.probe_call_ns", "ns"),
    ("netsim.fairness.probe_solve_ns", "ns"),
    ("gda.sharded.run_stream.ns", "ns"),
    ("gda.sharded.run_stream.self_ns", "ns"),
    ("gda.fleet.peak_tracked", "count"),
    ("gda.fleet.gauges", "count"),
    ("netsim.backbone.syncs", "count"),
    ("core.source.gauge.calls", "count"),
    ("core.source.gauge.ns", "ns"),
    ("netsim.probe.snapshot.ns", "ns"),
    ("core.predictor.predict_matrix.calls", "count"),
    ("core.predictor.predict_matrix.ns", "ns"),
    ("core.global.plan_matrix.ns", "ns"),
    ("mlforest.train.ns", "ns"),
    ("core.predictor.collect.ns", "ns"),
    ("core.predictor.accuracy_pct", "%"),
    ("netsim.sim.run_transfers.calls", "count"),
    ("netsim.sim.run_transfers.ns", "ns"),
    ("netsim.sim.run_transfers.solves", "count"),
    ("netsim.sim.run_transfers.epochs", "count"),
    ("netsim.sim.epochs_per_solve", "ratio"),
    ("netsim.sim.advance.ns", "ns"),
    ("gda.executor.jobrun.ns", "ns"),
    ("core.agent.on_epoch.calls", "count"),
    ("core.agent.on_epoch.ns", "ns"),
    ("gda.scheduler.place.calls", "count"),
    ("gda.scheduler.place.ns", "ns"),
    ("gda.sharded.shard_of.ns", "ns"),
    ("workloads.arrivals.ns", "ns"),
    ("gateway.offer.ns", "ns"),
    ("gateway.advance_to.ns", "ns"),
    ("gateway.served", "count"),
    ("gateway.rejected", "count"),
    ("gateway.shed", "count"),
    ("gateway.deadline_misses", "count"),
    ("gateway.good_per_offered", "ratio"),
    ("gateway.refused_share", "ratio"),
    ("gda.fleet.retries", "count"),
    ("gda.fleet.replacements", "count"),
    ("gda.fleet.stalled_flows", "count"),
    ("gda.fleet.failed_share", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.jobs_per_wall_s", "1/s"),
    ("bench.reference_s", "s"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Fleet,
    Pipeline,
    Gateway,
}

const WORKLOADS: [(&str, Workload); 3] = [
    ("fleet-hier-64dc", Workload::Fleet),
    ("wanify-pipeline-8dc", Workload::Pipeline),
    ("gateway-overload-8dc", Workload::Gateway),
];

/// The expensive, reusable part of set-up: the trained model where the
/// workload has one.
type Shared = Option<Arc<WanPredictionModel>>;

/// One episode's engines, ready to run. At most two are alive at once,
/// so the variants' size difference does not matter.
#[allow(clippy::large_enum_variant)]
enum Instance {
    Fleet(fleet::Prepared),
    Pipeline(pipeline::Prepared),
    Gateway(gateway::Prepared),
}

impl Workload {
    fn name(self) -> &'static str {
        WORKLOADS.iter().find(|(_, w)| *w == self).expect("listed").0
    }

    fn size(self) -> Size {
        match self {
            Workload::Fleet => fleet::FULL,
            Workload::Pipeline => pipeline::FULL,
            Workload::Gateway => gateway::FULL,
        }
    }

    /// Timed set-ups per run, and before each later episode; `setup_s`
    /// is the median of them all. The fleet's set-up takes milliseconds,
    /// so it samples ten before every episode; the predicting workloads
    /// set up three times, before the first episode and after the first
    /// and the second.
    fn setup_reps(self) -> (usize, usize) {
        match self {
            Workload::Fleet => (10, 10),
            Workload::Pipeline | Workload::Gateway => (3, 0),
        }
    }

    /// Runs `n` timed set-ups (at least one), appending their times, and
    /// keeps the last.
    fn timed_setups(self, seed: u64, size: Size, n: usize, times: &mut Vec<f64>) -> Instance {
        let mut last = None;
        for _ in 0..n.max(1) {
            drop(last.take());
            let t = Instant::now();
            let inst = self.setup(seed, size, false);
            times.push(t.elapsed().as_secs_f64());
            last = Some(inst);
        }
        last.expect("at least one set-up")
    }

    /// The complete set-up `setup_s` times: topology and engines, plus
    /// data collection and training where the workload predicts.
    fn setup(self, seed: u64, size: Size, traced: bool) -> Instance {
        match self {
            Workload::Fleet => Instance::Fleet(fleet::setup(seed, size, traced)),
            Workload::Pipeline => Instance::Pipeline(pipeline::setup(seed, size)),
            Workload::Gateway => Instance::Gateway(gateway::setup(seed, size, traced)),
        }
    }

    /// Fresh engines for another episode, reusing the trained model.
    fn again(self, seed: u64, size: Size, shared: &Shared, traced: bool) -> Instance {
        match (self, shared) {
            (Workload::Fleet, _) => Instance::Fleet(fleet::setup(seed, size, traced)),
            (Workload::Pipeline, Some(m)) => Instance::Pipeline(pipeline::again(seed, size, m)),
            (Workload::Gateway, Some(m)) => {
                Instance::Gateway(gateway::again(seed, size, m, traced))
            }
            _ => unreachable!("predicting workloads always share a model"),
        }
    }
}

impl Instance {
    fn shared(&self) -> Shared {
        match self {
            Instance::Fleet(_) => None,
            Instance::Pipeline(p) => Some(p.model().clone()),
            Instance::Gateway(p) => Some(p.model().clone()),
        }
    }

    fn run(self, traced: bool) -> Episode {
        match self {
            Instance::Fleet(p) => fleet::run(p, traced),
            Instance::Pipeline(p) => pipeline::run(p, traced),
            Instance::Gateway(p) => gateway::run(p, traced),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <fleet-hier-64dc|wanify-pipeline-8dc|\
                     gateway-overload-8dc> [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(n, _)| *n == value)
                        .map(|(_, w)| *w)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds > 0.0 && f64::is_finite(seconds)) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's commit, read from `.git` without leaving it.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(c) = std::fs::read_to_string(format!(".git/{reference}")) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "none".into())
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool construction")
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// Work a run does besides its timed episodes. It is interleaved with
/// them, one chore after each episode, so the timed samples spread over
/// the whole run: a shared host's speed drifts on a scale of tens of
/// seconds.
enum Chore {
    /// Another timed set-up for `setup_s`.
    Setup,
    /// Set-up of the thread-count check, inside an `nproc`-thread pool.
    CheckSetup,
    /// The thread-count check's episode, inside an `nproc`-thread pool.
    CheckRun,
}

/// Runs episode `turn` pinned to the turn's core, after timing the
/// reference kernel there. Returns the reference second and `f`'s
/// result.
fn on_turn<R>(turn: usize, f: impl FnOnce() -> R) -> (f64, R) {
    host::pin(Some(turn));
    let ref_s = host::reference_s();
    let r = f();
    host::pin(None);
    (ref_s, r)
}

/// The set-up times of turn `k`.
fn turn(times: &mut Vec<Vec<f64>>, k: usize) -> &mut Vec<f64> {
    if times.len() <= k {
        times.resize(k + 1, Vec::new());
    }
    &mut times[k]
}

fn untraced(args: &Args, nproc: usize) -> Outcome {
    let (wl, seed) = (args.workload, args.seed);
    let size = wl.size();
    // Set-ups and episodes are timed in one thread. The rayon shim
    // spawns a crew of OS threads for every parallel call, and on a few
    // shared cores their start and join would measure the scheduler,
    // not the program; the thread-count check runs at `nproc`.
    let timed_pool = pool(1);
    let (setups, episode_setups) = wl.setup_reps();
    // Set-ups that are not needed before an episode become chores.
    let first_setups = if episode_setups == 0 { 1 } else { setups };
    let mut chores: VecDeque<Chore> = VecDeque::new();
    chores.extend((first_setups..setups).map(|_| Chore::Setup));
    chores.extend([Chore::CheckSetup, Chore::CheckRun]);

    // Set-up times by the turn, and so the core, they ran on (see
    // `host`).
    let mut setup_times: Vec<Vec<f64>> = Vec::new();
    host::pin(Some(0));
    let first =
        timed_pool.install(|| wl.timed_setups(seed, size, first_setups, turn(&mut setup_times, 0)));
    host::pin(None);
    let shared = first.shared();
    let mut instance = Some(first);
    let (mut check, mut check_ep, mut first_ep) = (None, None, None::<Episode>);
    let (mut walls, mut segments, mut refs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rss, mut repeatable) = (0.0, true);
    let (mut attempted, mut failed) = (0, 0);
    loop {
        let k = walls.len();
        let (ref_s, (wall, segs, ep)) = on_turn(k, || {
            let inst = instance.take().unwrap_or_else(|| {
                timed_pool.install(|| match episode_setups {
                    0 => wl.again(seed, size, &shared, false),
                    n => wl.timed_setups(seed, size, n, turn(&mut setup_times, k)),
                })
            });
            progress::start();
            let t = Instant::now();
            let ep = timed_pool.install(|| inst.run(false));
            (t.elapsed().as_secs_f64(), progress::finish(), ep)
        });
        refs.push(ref_s);
        walls.push(wall);
        segments.push(segs);
        attempted += ep.offered;
        failed += ep.failed;
        match &first_ep {
            Some(f) => repeatable &= f.digest == ep.digest,
            None => {
                // The workload's own footprint: nothing else is alive yet.
                rss = peak_rss_mb();
                first_ep = Some(ep);
            }
        }
        // Stop before an episode that would overrun the budget; one chore
        // after each episode, the rest once the episodes are done.
        let last = walls.last().copied().unwrap_or(0.0);
        let done = walls.iter().sum::<f64>() + last > args.seconds;
        let n = if done { chores.len() } else { chores.len().min(1) };
        for chore in chores.drain(..n) {
            match chore {
                Chore::Setup => {
                    // In the next turn: the first set-up ran in the
                    // first.
                    let times = turn(&mut setup_times, walls.len());
                    host::pin(Some(walls.len()));
                    drop(timed_pool.install(|| wl.timed_setups(seed, size, 1, times)));
                    host::pin(None);
                }
                Chore::CheckSetup => {
                    check = Some(pool(nproc).install(|| wl.setup(seed, size, false)));
                }
                Chore::CheckRun => {
                    let inst: Instance = check.take().expect("the check's set-up precedes its run");
                    check_ep = Some(pool(nproc).install(|| inst.run(false)));
                }
            }
        }
        if done {
            break;
        }
    }
    let ep = first_ep.expect("at least one episode");
    let mut problems = Vec::new();
    if !repeatable {
        problems.push("episodes of one seed disagree: the simulation is not deterministic".into());
    }
    // The digest must not depend on the thread count.
    if check_ep.map(|c: Episode| c.digest) != Some(ep.digest.clone()) {
        problems.push(format!("digest differs at 1 thread and {nproc} threads"));
    }
    problems.extend(ep.check.iter().cloned());
    // The median set-up of the fastest turn: a core slowed by another
    // tenant stays slow for seconds, longer than a turn's set-ups take.
    let setup_s = setup_times
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| median(t))
        .fold(f64::INFINITY, f64::min);
    // Host seconds per episode: the fastest repetition of each segment,
    // summed (see `progress`); in reference seconds at the host's
    // fastest during the run, which is when those repetitions ran.
    let host_s = progress::undisturbed_s(&segments).unwrap_or_else(|| {
        problems.push("episodes of one seed reached different progress marks".into());
        median(&walls)
    });
    let ref_s = refs.iter().copied().fold(f64::INFINITY, f64::min);
    let jobs_per_ref_s = ep.completed as f64 * ref_s / host_s;
    println!(
        "episodes: {} x {} completed of {} offered, wall s {:?}, {} segments each, \
         undisturbed {host_s:.3} s, reference second {ref_s:.3} s; {} set-ups",
        walls.len(),
        ep.completed,
        ep.offered,
        walls.iter().map(|w| (w * 1e3).round() / 1e3).collect::<Vec<_>>(),
        segments[0].len(),
        setup_times.iter().map(Vec::len).sum::<usize>(),
    );
    println!("digest: {:016x}", fingerprint(&ep.digest));
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let m = ep.metrics;
    let values = [
        setup_s,
        jobs_per_ref_s,
        rss,
        m.latency_p50_s,
        m.latency_p99_s,
        m.goodput_per_sim_s,
        m.egress_usd_per_job,
        m.wan_min_bw_mbps,
        m.served_share,
    ];
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect(),
    }
}

fn traced(args: &Args) -> Outcome {
    let wl = args.workload;
    let size = wl.size();
    let mut problems = Vec::new();
    // One thread, as in the untraced run.
    let pool = pool(1);
    trace::enable();
    let first = pool.install(|| wl.setup(args.seed, size, true));
    let mut spans = trace::disable();
    let shared = first.shared();
    // Alternate untraced and traced episodes; spans come from the first
    // traced one, overhead from the medians.
    let phase = Instant::now();
    let (mut walls_u, mut walls_t, mut refs) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_ep: Option<Episode> = None;
    let mut first = Some(first);
    let (mut attempted, mut failed) = (0, 0);
    loop {
        let (ref_s, (ep_u, ep_t, episode_spans)) = on_turn(walls_u.len(), || {
            let u = pool.install(|| wl.again(args.seed, size, &shared, false));
            let t = Instant::now();
            let ep_u = pool.install(|| u.run(false));
            walls_u.push(t.elapsed().as_secs_f64());
            let inst = first
                .take()
                .unwrap_or_else(|| pool.install(|| wl.again(args.seed, size, &shared, true)));
            trace::enable();
            let t = Instant::now();
            let ep_t = pool.install(|| inst.run(true));
            walls_t.push(t.elapsed().as_secs_f64());
            (ep_u, ep_t, trace::disable())
        });
        refs.push(ref_s);
        attempted += ep_u.offered + ep_t.offered;
        failed += ep_u.failed + ep_t.failed;
        if ep_u.digest != ep_t.digest {
            problems.push("traced and untraced runs give different simulated digests".to_string());
        }
        problems.extend(ep_t.check.iter().cloned());
        if traced_ep.is_none() {
            spans.extend(episode_spans);
            traced_ep = Some(ep_t);
        }
        let pair = walls_u.last().copied().unwrap_or(0.0) + walls_t.last().copied().unwrap_or(0.0);
        if phase.elapsed().as_secs_f64() + pair > args.seconds {
            break;
        }
    }
    problems.dedup();
    let ep = traced_ep.expect("at least one traced episode");
    let overhead_pct = 100.0 * (median(&walls_t) / median(&walls_u) - 1.0);

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for (layer, t) in trace::aggregate(&spans) {
        values.insert(format!("{}.calls", layer.label()), t.calls as f64);
        values.insert(format!("{}.ns", layer.label()), t.ns as f64);
        values.insert(format!("{}.self_ns", layer.label()), t.self_ns as f64);
    }
    for &(name, v) in &ep.counts {
        values.insert(name.to_string(), v);
    }
    match probes::run(args.seed) {
        Ok(p) => {
            values.insert("netsim.fairness.fleet_call_ns".into(), p.fleet_call_ns);
            values.insert("netsim.fairness.solve_ns".into(), p.fleet_solve_ns);
            values.insert("netsim.fairness.probe_call_ns".into(), p.probe_call_ns);
            values.insert("netsim.fairness.probe_solve_ns".into(), p.probe_solve_ns);
        }
        Err(e) => problems.push(e),
    }
    if let Some(model) = &shared {
        values.insert(
            "core.predictor.accuracy_pct".into(),
            pipeline::held_out_accuracy(model, args.seed),
        );
    }
    values.insert("bench.trace_overhead_pct".into(), overhead_pct);
    values.insert("bench.jobs_per_wall_s".into(), ep.completed as f64 / median(&walls_u));
    values.insert("bench.reference_s".into(), refs.iter().copied().fold(f64::INFINITY, f64::min));

    println!(
        "traced: {} episode pairs, wall s untraced {:?} traced {:?}, overhead {overhead_pct:.2} %",
        walls_u.len(),
        walls_u.iter().map(|w| (w * 1e3).round() / 1e3).collect::<Vec<_>>(),
        walls_t.iter().map(|w| (w * 1e3).round() / 1e3).collect::<Vec<_>>(),
    );
    println!("digest: {:016x}", fingerprint(&ep.digest));
    println!("{:<40} {:>16}", "layer metric", "value");
    for (name, v) in &values {
        println!("{name:<40} {v:>16.1}");
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, values.get(n).copied().unwrap_or(0.0)))
            .collect(),
    }
}

/// FNV-1a 64 over a digest: a compact fingerprint for the run record.
fn fingerprint(digest: &str) -> u64 {
    digest
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "run: {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": \
         {nproc}, \"rayon_threads\": 1, \"check_threads\": {nproc}, \"git_commit\": \"{}\", \"rustc\": \"{}\", \
         \"gateway_rate_per_s\": {}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit(),
        env!("PERFBENCH_RUSTC"),
        gateway::RATE_PER_S,
    );
    let mut out = if args.trace { traced(&args) } else { untraced(&args, nproc) };
    let mut metrics = Vec::new();
    for &(name, unit, mut v) in &out.metrics {
        if !v.is_finite() {
            println!("CHECK FAILED: {name} is {v}");
            out.correct = false;
            v = 0.0;
        }
        metrics.push(format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small episodes of every workload, for tests.
    const SMOKE: [(Workload, Size); 3] = [
        (Workload::Fleet, Size { queries: 40, samples_per_size: 0, trees: 0 }),
        (Workload::Pipeline, Size { queries: 30, samples_per_size: 10, trees: 10 }),
        (Workload::Gateway, Size { queries: 400, samples_per_size: 10, trees: 10 }),
    ];

    #[test]
    fn traced_and_untraced_runs_give_identical_digests() {
        for (wl, size) in SMOKE {
            let plain = wl.setup(7, size, false).run(false);
            trace::enable();
            let traced = wl.setup(7, size, true).run(true);
            let spans = trace::disable();
            assert!(plain.check.is_empty(), "{}: {:?}", wl.name(), plain.check);
            assert_eq!(
                plain.digest,
                traced.digest,
                "{}: tracing changed the simulation",
                wl.name()
            );
            assert!(!spans.is_empty(), "{}: the traced run recorded no spans", wl.name());
        }
    }

    #[test]
    fn digests_do_not_depend_on_the_thread_count() {
        for (wl, size) in SMOKE {
            let one = pool(1).install(|| wl.setup(3, size, false).run(false));
            let two = pool(2).install(|| wl.setup(3, size, false).run(false));
            assert_eq!(one.digest, two.digest, "{}", wl.name());
        }
    }

    #[test]
    fn metric_tables_have_unique_names() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
