//! `fleet-hier-64dc`: the `bench_scale` shape at a size that takes
//! seconds — a streamed, hierarchically-sharded fleet on a tiled 64-DC
//! WAN. Open loop: Poisson arrivals at [`RATE_PER_S`] jobs per simulated
//! second from a lazy trace, round-robin over [`SHARDS`] shards coupled
//! by a two-tier backbone, `StaticIndependent` belief per shard.
//!
//! Unlike `bench_scale`, the run retains every outcome: exact
//! arrival-to-completion percentiles need each one, and the fleet's
//! streaming sketches track queue wait and makespan separately, not
//! their sum. At this size the retained outcomes are a few hundred KB.

use wanify_gda::{
    poisson_times_iter, FleetConfig, FleetEngine, Percentiles, RoundRobinShards, ShardPolicy,
    ShardedFleetEngine, ShardedFleetReport, Tetrium,
};
use wanify_netsim::{paper_testbed_tiled, BackboneHierarchy, LinkModelParams, NetSim, VmType};
use wanify_workloads::{trace_iter, TraceConfig};

use crate::progress::Ticked;
use crate::trace::{Layer, Span, TimedIter, TimedScheduler, TimedShards, TimedSource};
use crate::{bits, Episode, Metrics, Size};

/// 1000 queries: p99 has ten completions beyond it.
pub const FULL: Size = Size { queries: 1000, samples_per_size: 0, trees: 0 };

pub const N_DCS: usize = 64;
pub const SHARDS: usize = 8;
pub const MAX_CONCURRENT: usize = 8;
pub const RATE_PER_S: f64 = 0.5;
/// A tenth of the per-job input `trace_iter` draws (`bench_scale` uses
/// 0.25): an episode then takes about 4 s on one thread, so a 30 s run
/// repeats it five to seven times.
pub const TRACE_SCALE: f64 = 0.1;

/// Everything built before the timed phase: the shard engines and the
/// backbone hierarchy over one tiled topology.
pub struct Prepared {
    seed: u64,
    size: Size,
    shards: Vec<FleetEngine>,
    hierarchy: BackboneHierarchy,
}

fn shard_engine(traced: bool) -> FleetEngine {
    let scheduler: Box<dyn wanify_gda::Scheduler> = Box::new(Tetrium::new());
    let source: Box<dyn wanify::BandwidthSource> = Box::new(wanify::StaticIndependent::new());
    let (scheduler, source): (Box<dyn wanify_gda::Scheduler>, Box<dyn wanify::BandwidthSource>) =
        if traced {
            (Box::new(TimedScheduler(scheduler)), Box::new(TimedSource(source)))
        } else {
            (Box::new(Ticked(scheduler)), source)
        };
    FleetEngine::new(
        NetSim::new(paper_testbed_tiled(VmType::t2_medium(), N_DCS), LinkModelParams::frozen(), 11),
        scheduler,
        source,
        FleetConfig {
            max_concurrent: MAX_CONCURRENT,
            regauge_every_s: 3600.0,
            ..FleetConfig::default()
        },
    )
}

pub fn setup(seed: u64, size: Size, traced: bool) -> Prepared {
    let topo = paper_testbed_tiled(VmType::t2_medium(), N_DCS);
    // Regional trunks exchange every 30 simulated seconds, continental
    // trunks every 90 (the bench_scale hierarchy).
    let hierarchy = BackboneHierarchy::regional_continental(&topo, 4000.0, 8000.0, 30.0, 90.0);
    let shards = (0..SHARDS).map(|_| shard_engine(traced)).collect();
    Prepared { seed, size, shards, hierarchy }
}

pub fn run(prepared: Prepared, traced: bool) -> Episode {
    let Prepared { seed, size, shards, hierarchy } = prepared;
    let queries = size.queries;
    let times = poisson_times_iter(RATE_PER_S, seed).expect("positive rate");
    let jobs = trace_iter(&TraceConfig::new(N_DCS, queries, seed).scaled(TRACE_SCALE));
    let stream: Box<dyn Iterator<Item = _> + Send> =
        if traced { Box::new(TimedIter(times.zip(jobs))) } else { Box::new(times.zip(jobs)) };
    let policy: Box<dyn ShardPolicy> = Box::new(RoundRobinShards::new());
    let policy: Box<dyn ShardPolicy> = if traced { Box::new(TimedShards(policy)) } else { policy };
    let engine = ShardedFleetEngine::new(shards, policy, None).with_hierarchy(hierarchy);
    let report = {
        let _span = Span::root(Layer::RunStream);
        engine.run_stream(queries, stream, usize::MAX)
    }
    .expect("the fleet trace matches its topology");
    episode(&report, queries)
}

fn episode(report: &ShardedFleetReport, queries: usize) -> Episode {
    let fleet = &report.fleet;
    let completed = fleet.completed();
    let failed = fleet.failed_jobs();
    let latency: Vec<f64> = fleet.outcomes.iter().map(|o| o.completed_s - o.arrived_s).collect();
    let latency = Percentiles::of(&latency);
    let n = fleet.outcomes.len() as f64;
    let metrics = Metrics {
        latency_p50_s: latency.p50,
        latency_p99_s: latency.p99,
        goodput_per_sim_s: completed as f64 / fleet.duration_s,
        egress_usd_per_job: fleet.network_cost_usd() / completed as f64,
        wan_min_bw_mbps: fleet.outcomes.iter().map(|o| o.report.min_bw_mbps).sum::<f64>() / n,
        served_share: (completed - failed) as f64 / queries as f64,
    };
    let mut digest = String::new();
    for o in &fleet.outcomes {
        digest.push_str(&format!(
            "{} {} lat={} arr={} adm={} done={} bw={} failed={}\n",
            o.job_idx,
            o.report.job,
            bits(o.report.latency_s),
            bits(o.arrived_s),
            bits(o.admitted_s),
            bits(o.completed_s),
            bits(o.report.min_bw_mbps),
            o.failed,
        ));
    }
    digest.push_str(&format!(
        "completed={completed} failed={failed} duration={} egress={} cost={} net={} gauges={} \
         syncs={} peak={}\n",
        bits(fleet.duration_s),
        bits(fleet.total_egress_gb()),
        bits(fleet.total_cost_usd()),
        bits(fleet.network_cost_usd()),
        fleet.gauges,
        report.backbone_syncs,
        report.peak_tracked,
    ));
    let mut check = Vec::new();
    if completed != queries {
        check.push(format!("fleet completed {completed} of {queries} queries"));
    }
    if failed != 0 {
        check.push(format!("fleet failed {failed} queries"));
    }
    Episode {
        completed,
        offered: queries,
        failed,
        metrics,
        digest,
        counts: vec![
            ("gda.fleet.peak_tracked", report.peak_tracked as f64),
            ("gda.fleet.gauges", fleet.gauges as f64),
            ("netsim.backbone.syncs", report.backbone_syncs as f64),
            ("gda.fleet.retries", fleet.faults.retries as f64),
            ("gda.fleet.replacements", fleet.faults.replacements as f64),
            ("gda.fleet.stalled_flows", fleet.faults.stalled_flows as f64),
            ("gda.fleet.failed_share", failed as f64 / queries as f64),
        ],
        check,
    }
}
