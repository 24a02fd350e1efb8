//! `wanify-pipeline-8dc`: the paper's own loop (§3), closed loop with one
//! client. Sequential TPC-DS queries run on the 8-DC testbed under live
//! OU dynamics; each one takes a snapshot probe, predicts the runtime
//! matrix with the Random Forest, plans connections, spawns the AIMD
//! agents and executes the job with the agents as the transfer hook.

use std::sync::Arc;

use wanify::{
    BandwidthAnalyzer, BandwidthSource, Pregauged, WanPredictionModel, Wanify, WanifyConfig,
};
use wanify_forest::Dataset;
use wanify_gda::{
    run_job, JobProfile, JobRun, JobStep, Kimchi, QueryReport, Scheduler, TransferOptions,
};
use wanify_netsim::{
    paper_testbed_n, ConnMatrix, DcId, GroupId, GroupReport, LinkModelParams, NetSim, VmType,
};
use wanify_workloads::TpcDsQuery;

use crate::progress;
use crate::trace::{timed, Layer, TimedHook, TimedIter, TimedScheduler};
use crate::{bits, Episode, Metrics, Size, SplitMix};

pub const N_DCS: usize = 8;
/// 1000 queries. The model has the paper's 100 trees, trained on 25
/// samples per cluster size (the repository's quick effort), which keeps
/// set-up near a second so a run spends its time in timed episodes.
pub const FULL: Size = Size { queries: 1000, samples_per_size: 25, trees: 100 };
/// Samples per size of the held-out accuracy dataset.
pub const HELD_OUT_SAMPLES: usize = 20;

/// Collects training data over cluster sizes 2..=8 and trains the model
/// — the set-up cost the pipeline and gateway workloads share.
pub fn train_model(seed: u64, size: Size) -> Arc<WanPredictionModel> {
    let data = timed(Layer::Collect, || collect(size.samples_per_size, seed ^ 0xA5A5));
    Arc::new(timed(Layer::Train, || WanPredictionModel::train(&data, size.trees, seed ^ 0x5A5A)))
}

fn collect(samples_per_size: usize, seed: u64) -> Dataset {
    let analyzer = BandwidthAnalyzer {
        vm: VmType::t2_medium(),
        params: LinkModelParams::default(),
        samples_per_size,
    };
    analyzer.collect(&(2..=8).collect::<Vec<_>>(), seed)
}

/// Training accuracy on a held-out dataset collected with its own seed.
pub fn held_out_accuracy(model: &WanPredictionModel, seed: u64) -> f64 {
    model.training_accuracy(&collect(HELD_OUT_SAMPLES, seed ^ 0x0DD5_EED5))
}

pub struct Prepared {
    seed: u64,
    size: Size,
    model: Arc<WanPredictionModel>,
    sim: NetSim,
}

pub fn setup(seed: u64, size: Size) -> Prepared {
    again(seed, size, &train_model(seed, size))
}

/// A fresh simulator for an episode on an already trained model.
pub fn again(seed: u64, size: Size, model: &Arc<WanPredictionModel>) -> Prepared {
    let sim =
        NetSim::new(paper_testbed_n(VmType::t2_medium(), N_DCS), LinkModelParams::default(), seed);
    Prepared { seed, size, model: model.clone(), sim }
}

impl Prepared {
    pub fn model(&self) -> &Arc<WanPredictionModel> {
        &self.model
    }
}

/// The query stream: a seeded mix of the four evaluated TPC-DS queries.
fn queries(seed: u64, n: usize) -> impl Iterator<Item = JobProfile> {
    let mut rng = SplitMix(seed ^ 0x7C0D_E5EE);
    (0..n).map(move |_| {
        let q = TpcDsQuery::all()[(rng.next_u64() % 4) as usize];
        q.paper_job(N_DCS)
    })
}

pub fn run(prepared: Prepared, traced: bool) -> Episode {
    let Prepared { seed, size, model, mut sim } = prepared;
    let scheduler: Box<dyn Scheduler> = Box::new(Kimchi::new());
    let scheduler: Box<dyn Scheduler> =
        if traced { Box::new(TimedScheduler(scheduler)) } else { scheduler };
    let wanify = Wanify::new(WanifyConfig::default());
    let single = ConnMatrix::filled(N_DCS, 1);
    let mut reports = Vec::with_capacity(size.queries);
    let (mut solves, mut epochs, mut transfers) = (0u64, 0u64, 0u64);
    let start_s = sim.time_s();
    let jobs: Box<dyn Iterator<Item = JobProfile>> = if traced {
        Box::new(TimedIter(queries(seed, size.queries)))
    } else {
        Box::new(queries(seed, size.queries))
    };
    for job in jobs {
        let snapshot = timed(Layer::Snapshot, || sim.snapshot(&single));
        let predicted = timed(Layer::Predict, || model.predict_matrix(&snapshot, sim.topology()))
            .expect("the model matches the testbed");
        let plan = timed(Layer::Plan, || wanify.plan_matrix(&predicted));
        sim.clear_throttles();
        for (i, j, cap) in plan.initial_throttles.iter_pairs() {
            if cap.is_finite() {
                sim.set_throttle(DcId(i), DcId(j), cap);
            }
        }
        let mut belief = Pregauged::named(plan.feasible_achievable_bw(), "wanify(predicted)");
        let conns = plan.initial_conns().clone();
        let agent = wanify.agent(&plan);
        let report = if traced {
            let mut stats = (0, 0, 0);
            let r =
                drive(&mut sim, &job, scheduler.as_ref(), &mut belief, &conns, agent, &mut stats);
            solves += stats.0;
            epochs += stats.1;
            transfers += stats.2;
            r
        } else {
            let mut agent = agent;
            let opts = TransferOptions { conns: Some(&conns), hook: Some(&mut agent) };
            run_job(&mut sim, &job, scheduler.as_ref(), &mut belief, opts)
                .expect("the job matches the testbed")
        };
        sim.clear_throttles();
        reports.push(report);
        progress::tick();
    }
    episode(&reports, size.queries, sim.time_s() - start_s, [solves, epochs, transfers])
}

/// `run_job`, step by step: the same public calls in the same order, so
/// the simulator and the job state machine can be timed separately.
fn drive(
    sim: &mut NetSim,
    job: &JobProfile,
    scheduler: &dyn Scheduler,
    belief: &mut Pregauged,
    conns: &ConnMatrix,
    agent: wanify::WanifyAgent,
    stats: &mut (u64, u64, u64),
) -> QueryReport {
    let mut hook = TimedHook(agent);
    let bw = belief.gauge(sim).expect("a pregauged belief always gauges");
    let mut run = timed(Layer::JobRun, || {
        JobRun::new(job.clone(), bw, belief.name(), scheduler, sim.topology(), Some(conns.clone()))
    })
    .expect("the job matches the testbed");
    let mut step = timed(Layer::JobRun, || run.start(scheduler, sim.topology()));
    loop {
        step = match step {
            JobStep::Compute { seconds } => {
                timed(Layer::Advance, || sim.advance(seconds));
                timed(Layer::JobRun, || run.on_compute_done(scheduler, sim.topology()))
            }
            JobStep::Shuffle { transfers, conns, migration } => {
                let tr = timed(Layer::RunTransfers, || {
                    let hook: Option<&mut dyn wanify_netsim::EpochHook> =
                        if migration { None } else { Some(&mut hook) };
                    sim.run_transfers(&transfers, &conns, hook)
                });
                let rs = sim.last_run_stats();
                stats.0 += rs.solves;
                stats.1 += rs.epochs;
                stats.2 += 1;
                let group = GroupReport {
                    group: GroupId(0),
                    submitted_s: 0.0,
                    completed_s: 0.0,
                    makespan_s: tr.makespan_s,
                    min_pair_bw_mbps: tr.min_pair_bw_mbps,
                    egress_gigabits: tr.egress_gigabits,
                };
                timed(Layer::JobRun, || run.on_shuffle_done(&group, sim.topology()))
            }
            JobStep::Done(report) | JobStep::Failed(report) => return *report,
        };
    }
}

fn episode(
    reports: &[QueryReport],
    queries: usize,
    sim_s: f64,
    [solves, epochs, transfers]: [u64; 3],
) -> Episode {
    let latencies: Vec<f64> = reports.iter().map(|r| r.latency_s).collect();
    let lat = wanify_gda::Percentiles::of(&latencies);
    let n = reports.len() as f64;
    let metrics = Metrics {
        latency_p50_s: lat.p50,
        latency_p99_s: lat.p99,
        goodput_per_sim_s: n / sim_s,
        egress_usd_per_job: reports.iter().map(|r| r.cost.network_usd).sum::<f64>() / n,
        wan_min_bw_mbps: reports.iter().map(|r| r.min_bw_mbps).sum::<f64>() / n,
        served_share: n / queries as f64,
    };
    let mut digest = String::new();
    for r in reports {
        digest.push_str(&format!(
            "{} lat={} cost={}/{}/{} bw={} shuffle={} stages={}\n",
            r.job,
            bits(r.latency_s),
            bits(r.cost.compute_usd),
            bits(r.cost.network_usd),
            bits(r.cost.storage_usd),
            bits(r.min_bw_mbps),
            bits(r.shuffle_gb),
            r.stage_latencies_s.iter().map(|&s| bits(s)).collect::<Vec<_>>().join(","),
        ));
    }
    digest.push_str(&format!("sim_s={}\n", bits(sim_s)));
    let mut check = Vec::new();
    if reports.len() != queries {
        check.push(format!("pipeline completed {} of {queries} queries", reports.len()));
    }
    let mut counts = vec![];
    if transfers > 0 {
        counts.extend([
            ("netsim.sim.run_transfers.solves", solves as f64),
            ("netsim.sim.run_transfers.epochs", epochs as f64),
            ("netsim.sim.epochs_per_solve", epochs as f64 / solves.max(1) as f64),
        ]);
    }
    Episode {
        completed: reports.len(),
        offered: queries,
        failed: 0,
        metrics,
        digest,
        counts,
        check,
    }
}
