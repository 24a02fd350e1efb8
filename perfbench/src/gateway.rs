//! `gateway-overload-8dc`: an open loop in simulated time. The
//! `offered_load_iter` mix arrives at a fixed rate about twice the
//! gateway's saturation rate and is fed through `Gateway::offer` /
//! `advance_to` in front of one 8-DC fleet: bounded queue under
//! `Reject`, deadline slack, a rarely re-gauged `PredictedRuntime`
//! belief, live OU dynamics, a repeating link flap and the default
//! fault policy.
//!
//! The fleet keeps every outcome (`retain_outcomes` uncapped), as
//! `bench_gateway` and the gateway scenarios do: `Gateway::finish`
//! reads verdicts from the fleet's retained outcomes and panics when a
//! cap truncated them (see the benchmark's README).

use std::sync::Arc;

use wanify::{BandwidthSource, PredictedRuntime, WanPredictionModel};
use wanify_gateway::{Disposition, Gateway, GatewayConfig, GatewayRequest, OverloadPolicy};
use wanify_gda::{FaultPolicy, FleetConfig, FleetEngine, Scheduler, Tetrium};
use wanify_netsim::{paper_testbed_n, DcId, FaultSchedule, LinkModelParams, NetSim, VmType};
use wanify_workloads::{offered_load_iter, LoadSpec};

use crate::pipeline::train_model;
use crate::progress;
use crate::trace::{timed, Layer, TimedIter, TimedScheduler, TimedSource};
use crate::{bits, Episode, Metrics, Size};

pub const N_DCS: usize = 8;
/// 36 000 offered requests (about 12 000 served): enough that the
/// queueing-driven median latency repeats within a few percent across
/// seeds. The model trains as in the pipeline workload.
pub const FULL: Size = Size { queries: 36_000, samples_per_size: 25, trees: 100 };
pub const SCALE: f64 = 0.5;
pub const MAX_CONCURRENT: usize = 4;
pub const QUEUE_DEPTH: usize = 8;
pub const REGAUGE_EVERY_S: f64 = 600.0;
/// Saturation rate, requests per simulated second, calibrated once from
/// an unloaded run of this mix (admission slots over the unloaded mean
/// makespan; see the README). A constant, so the offered load stays
/// fixed when the program's makespans change.
pub const SATURATION_PER_S: f64 = 1.516;
/// Offered rate: twice saturation.
pub const RATE_PER_S: f64 = 2.0 * SATURATION_PER_S;
/// Deadline slack granted to every request, simulated seconds (four
/// unloaded mean makespans at calibration).
pub const SLACK_S: f64 = 10.5;
/// The flapping pair goes dark for half of every period, over the
/// whole offered span.
pub const FLAP_PERIOD_S: f64 = 120.0;

pub struct Prepared {
    seed: u64,
    size: Size,
    model: Arc<WanPredictionModel>,
    gateway: Gateway,
}

fn gateway(seed: u64, size: Size, model: &Arc<WanPredictionModel>, traced: bool) -> Gateway {
    let cycles = (size.queries as f64 / RATE_PER_S / FLAP_PERIOD_S).ceil() as usize + 2;
    gateway_with(seed, model, traced, cycles)
}

fn gateway_with(
    seed: u64,
    model: &Arc<WanPredictionModel>,
    traced: bool,
    cycles: usize,
) -> Gateway {
    let mut sim =
        NetSim::new(paper_testbed_n(VmType::t2_medium(), N_DCS), LinkModelParams::default(), seed);
    sim.set_fault_schedule(
        FaultSchedule::new()
            .link_flap(DcId(0), DcId(3), 0.0, 60.0, FLAP_PERIOD_S, cycles)
            .link_flap(DcId(3), DcId(0), 0.0, 60.0, FLAP_PERIOD_S, cycles),
    );
    let scheduler: Box<dyn Scheduler> = Box::new(Tetrium::new());
    let source: Box<dyn BandwidthSource> = Box::new(PredictedRuntime::new(model.clone()));
    let (scheduler, source): (Box<dyn Scheduler>, Box<dyn BandwidthSource>) = if traced {
        (Box::new(TimedScheduler(scheduler)), Box::new(TimedSource(source)))
    } else {
        (scheduler, source)
    };
    let engine = FleetEngine::new(
        sim,
        scheduler,
        source,
        FleetConfig {
            max_concurrent: MAX_CONCURRENT,
            regauge_every_s: REGAUGE_EVERY_S,
            faults: Some(FaultPolicy::default()),
            ..FleetConfig::default()
        },
    );
    Gateway::new(
        engine,
        GatewayConfig {
            queue_depth: QUEUE_DEPTH,
            overload: OverloadPolicy::Reject,
            ..GatewayConfig::default()
        },
    )
}

pub fn setup(seed: u64, size: Size, traced: bool) -> Prepared {
    again(seed, size, &train_model(seed, size), traced)
}

/// A fresh gateway and fleet for an episode on an already trained model.
pub fn again(seed: u64, size: Size, model: &Arc<WanPredictionModel>, traced: bool) -> Prepared {
    Prepared { seed, size, model: model.clone(), gateway: gateway(seed, size, model, traced) }
}

impl Prepared {
    pub fn model(&self) -> &Arc<WanPredictionModel> {
        &self.model
    }
}

pub fn spec(seed: u64, offered: usize) -> LoadSpec {
    LoadSpec::new(N_DCS, offered, seed, RATE_PER_S).scaled(SCALE).with_deadline_slack(SLACK_S)
}

pub fn run(prepared: Prepared, traced: bool) -> Episode {
    let Prepared { seed, size, mut gateway, .. } = prepared;
    let load = offered_load_iter(&spec(seed, size.queries));
    let load: Box<dyn Iterator<Item = _>> =
        if traced { Box::new(TimedIter(load)) } else { Box::new(load) };
    for (i, o) in load.enumerate() {
        timed(Layer::AdvanceTo, || gateway.advance_to(o.arrival_s))
            .expect("the fleet serves its own topology");
        let req = GatewayRequest { job: o.job, arrival_s: o.arrival_s, deadline_s: o.deadline_s };
        timed(Layer::Offer, || gateway.offer(req));
        if (i + 1) % progress::GATEWAY_EVERY == 0 {
            progress::tick();
        }
    }
    timed(Layer::Drain, || gateway.drain()).expect("the fleet drains");
    let report = gateway.finish();
    let s = report.fleet.serving;
    let served = report.served();
    let good = report.good();
    let failed = report.fleet.failed_jobs();
    let refused = s.rejected + s.quota_rejected + s.shed_jobs;
    let metrics = Metrics {
        latency_p50_s: report.latency.p50,
        latency_p99_s: report.latency.p99,
        goodput_per_sim_s: good as f64 / report.fleet.duration_s,
        egress_usd_per_job: report.fleet.network_cost_usd() / served as f64,
        wan_min_bw_mbps: report.fleet.outcomes.iter().map(|o| o.report.min_bw_mbps).sum::<f64>()
            / report.fleet.outcomes.len() as f64,
        served_share: (served - failed) as f64 / s.offered as f64,
    };
    let mut digest = String::new();
    for d in &report.dispositions {
        let line = match *d {
            Disposition::Served { completed_s, met_deadline, failed } => {
                format!("served {} {met_deadline} {failed}\n", bits(completed_s))
            }
            other => format!("{other:?}\n"),
        };
        digest.push_str(&line);
    }
    for o in &report.fleet.outcomes {
        digest.push_str(&format!(
            "{} {} lat={} adm={} done={} cost={}\n",
            o.job_idx,
            o.report.job,
            bits(o.report.latency_s),
            bits(o.admitted_s),
            bits(o.completed_s),
            bits(o.report.cost.total_usd()),
        ));
    }
    digest.push_str(&format!(
        "{s:?} duration={} gauges={} faults={:?}\n",
        bits(report.fleet.duration_s),
        report.fleet.gauges,
        report.fleet.faults,
    ));
    let mut check = Vec::new();
    if s.offered != size.queries as u64 {
        check.push(format!("gateway offered {} of {} requests", s.offered, size.queries));
    }
    if s.offered != served as u64 + refused {
        check.push(format!(
            "gateway accounting: offered {} != served {served} + rejected {} + quota_rejected \
             {} + shed {}",
            s.offered, s.rejected, s.quota_rejected, s.shed_jobs
        ));
    }
    let offered = s.offered as f64;
    Episode {
        completed: served,
        offered: size.queries,
        failed,
        metrics,
        digest,
        counts: vec![
            ("gateway.served", served as f64),
            ("gateway.rejected", s.rejected as f64),
            ("gateway.shed", s.shed_jobs as f64),
            ("gateway.deadline_misses", s.deadline_misses as f64),
            ("gateway.good_per_offered", good as f64 / offered),
            ("gateway.refused_share", refused as f64 / offered),
            ("gda.fleet.gauges", report.fleet.gauges as f64),
            ("gda.fleet.retries", report.fleet.faults.retries as f64),
            ("gda.fleet.replacements", report.fleet.faults.replacements as f64),
            ("gda.fleet.stalled_flows", report.fleet.faults.stalled_flows as f64),
            ("gda.fleet.failed_share", failed as f64 / offered),
        ],
        check,
    }
}

#[cfg(test)]
mod calibration {
    use super::*;
    use wanify_workloads::offered_load;

    /// Derives [`SATURATION_PER_S`] and [`SLACK_S`]: the same mix trickled
    /// far below saturation, with no deadlines and no flaps, gives the
    /// unloaded mean makespan. Run with `-- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn calibrate() {
        let model = train_model(1, FULL);
        let requests = offered_load(&LoadSpec::new(N_DCS, 400, 1, 1e-3).scaled(SCALE))
            .into_iter()
            .map(|o| GatewayRequest { job: o.job, arrival_s: o.arrival_s, deadline_s: None })
            .collect();
        let report = gateway_with(1, &model, false, 0).serve(requests).expect("calibration run");
        let mean = report.fleet.makespan().mean;
        println!(
            "unloaded mean makespan {mean:.3} s: saturation {:.3} req/s, slack {:.2} s",
            MAX_CONCURRENT as f64 / mean,
            4.0 * mean
        );
    }
}
