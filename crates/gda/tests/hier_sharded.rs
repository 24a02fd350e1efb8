//! Hierarchical backbone coupling and window-streamed sharded serving:
//! completion, determinism across repeats and thread counts, coupling
//! pressure, and equivalence between the materialized and streamed
//! drivers.

use wanify_gda::{
    poisson_arrival_times, Arrivals, FleetConfig, FleetEngine, RoundRobinShards,
    ShardedFleetEngine, ShardedFleetReport, Tetrium,
};
use wanify_netsim::{paper_testbed_n, BackboneHierarchy, LinkModelParams, NetSim, VmType};
use wanify_workloads::{mixed_trace, trace_iter, TraceConfig};

const N_DCS: usize = 8;

fn shard_engine(seed: u64, max_concurrent: usize) -> FleetEngine {
    FleetEngine::new(
        NetSim::new(paper_testbed_n(VmType::t2_medium(), N_DCS), LinkModelParams::frozen(), seed),
        Box::new(Tetrium::new()),
        Box::new(wanify::StaticIndependent::new()),
        FleetConfig { max_concurrent, regauge_every_s: 300.0, ..FleetConfig::default() },
    )
}

/// 8 one-DC regions under a 2-tier coupling: regional trunks exchanged
/// every 2 s, continental trunks every 6 s (ratio 3).
fn hierarchy(regional_mbps: f64, continental_mbps: f64) -> BackboneHierarchy {
    let topo = paper_testbed_n(VmType::t2_medium(), N_DCS);
    BackboneHierarchy::regional_continental(&topo, regional_mbps, continental_mbps, 2.0, 6.0)
}

fn hier_sharded(n_shards: usize, regional_mbps: f64, continental_mbps: f64) -> ShardedFleetEngine {
    ShardedFleetEngine::new(
        (0..n_shards).map(|_| shard_engine(11, 16)).collect(),
        Box::new(RoundRobinShards::new()),
        None,
    )
    .with_hierarchy(hierarchy(regional_mbps, continental_mbps))
}

fn run_key(report: &ShardedFleetReport) -> Vec<(String, u64, u64, u64)> {
    report
        .fleet
        .outcomes
        .iter()
        .map(|o| {
            (
                o.report.job.clone(),
                o.report.latency_s.to_bits(),
                o.completed_s.to_bits(),
                o.admitted_s.to_bits(),
            )
        })
        .collect()
}

#[test]
fn hierarchical_fleet_completes_and_exchanges_both_tiers() {
    let trace = mixed_trace(&TraceConfig::new(N_DCS, 12, 5).scaled(0.5));
    let report = hier_sharded(3, 3000.0, 6000.0)
        .run(&trace, &Arrivals::Closed { clients: 4, think_s: 0.0 })
        .unwrap();
    assert_eq!(report.fleet.completed(), 12);
    assert_eq!(report.shards(), 3);
    // The fine tier exchanges every window, the coarse tier every third:
    // more exchanges than windows, fewer than two per window.
    assert!(report.backbone_syncs > 0);
    for pair in report.fleet.outcomes.windows(2) {
        assert!(pair[0].completed_s <= pair[1].completed_s);
    }
}

#[test]
fn hierarchical_runs_are_bit_identical_across_repeats_and_threads() {
    let trace = mixed_trace(&TraceConfig::new(N_DCS, 10, 9).scaled(0.5));
    let run_with = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
            hier_sharded(4, 2500.0, 5000.0)
                .run(&trace, &Arrivals::Poisson { rate_per_s: 0.05, seed: 3 })
                .unwrap()
        })
    };
    let a = run_with(1);
    let b = run_with(1);
    let c = run_with(4);
    assert_eq!(run_key(&a), run_key(&b), "repeats must be bit-identical");
    assert_eq!(run_key(&a), run_key(&c), "thread count must not change results");
    assert_eq!(a.fleet.duration_s.to_bits(), c.fleet.duration_s.to_bits());
    assert_eq!(a.backbone_syncs, c.backbone_syncs);
}

#[test]
fn tight_continental_tier_slows_the_fleet() {
    // Shuffles big enough to outlive several sync windows. The regional
    // tier is wide in both runs; only the continental trunks narrow.
    let trace = mixed_trace(&TraceConfig::new(N_DCS, 8, 7).scaled(2.0));
    let arrivals = Arrivals::Closed { clients: 4, think_s: 0.0 };
    let wide = hier_sharded(2, f64::INFINITY, f64::INFINITY).run(&trace, &arrivals).unwrap();
    let narrow = hier_sharded(2, f64::INFINITY, 50.0).run(&trace, &arrivals).unwrap();
    assert!(
        narrow.fleet.makespan().mean > wide.fleet.makespan().mean,
        "a 50 Mbps continental tier must hurt: narrow {:.0}s vs wide {:.0}s",
        narrow.fleet.makespan().mean,
        wide.fleet.makespan().mean
    );
}

#[test]
fn streamed_sharded_run_matches_materialized() {
    // Same trace, same thinned Poisson schedule, same hierarchy: the
    // window-streamed driver must reproduce the materialized one.
    let cfg = TraceConfig::new(N_DCS, 16, 6).scaled(0.5);
    let trace = mixed_trace(&cfg);
    let times = poisson_arrival_times(16, 0.08, 21).unwrap();

    let materialized = hier_sharded(3, 3000.0, 6000.0)
        .run(&trace, &Arrivals::Scheduled { times: times.clone() })
        .unwrap();
    let streamed = hier_sharded(3, 3000.0, 6000.0)
        .run_stream(16, Box::new(times.into_iter().zip(trace_iter(&cfg))), usize::MAX)
        .unwrap();

    assert_eq!(run_key(&materialized), run_key(&streamed));
    assert_eq!(materialized.fleet.duration_s.to_bits(), streamed.fleet.duration_s.to_bits());
    assert_eq!(materialized.fleet.gauges, streamed.fleet.gauges);
    assert_eq!(materialized.backbone_syncs, streamed.backbone_syncs);
    assert!(!streamed.fleet.sketched(), "uncapped streamed run stays exact");
}

#[test]
fn streamed_sharded_run_caps_outcomes_without_losing_totals() {
    let cfg = TraceConfig::new(N_DCS, 24, 6).scaled(0.5);
    let times = poisson_arrival_times(24, 0.08, 21).unwrap();
    let exact = hier_sharded(3, 3000.0, 6000.0)
        .run(&mixed_trace(&cfg), &Arrivals::Scheduled { times: times.clone() })
        .unwrap();
    let capped = hier_sharded(3, 3000.0, 6000.0)
        .run_stream(24, Box::new(times.into_iter().zip(trace_iter(&cfg))), 6)
        .unwrap();

    assert!(capped.fleet.sketched());
    assert_eq!(capped.fleet.outcomes.len(), 6);
    assert_eq!(capped.fleet.completed(), 24);
    assert_eq!(capped.shard_sizes().iter().sum::<usize>(), 24);
    assert_eq!(capped.fleet.failed_jobs(), exact.fleet.failed_jobs());
    assert_eq!(
        capped.fleet.total_egress_gb().to_bits(),
        exact.fleet.total_egress_gb().to_bits(),
        "sums absorb in the same global order"
    );
    assert_eq!(capped.fleet.total_cost_usd().to_bits(), exact.fleet.total_cost_usd().to_bits());
    assert_eq!(capped.fleet.duration_s.to_bits(), exact.fleet.duration_s.to_bits());
}

#[test]
fn streamed_sharded_run_holds_no_undrained_completions() {
    // Sparse arrivals spread the run over many 2 s sync windows; the
    // driver drains every shard each window, so no shard keeps an
    // outcome and the fleet never holds more than a few windows' worth.
    let cfg = TraceConfig::new(N_DCS, 48, 6).scaled(0.5);
    let times = poisson_arrival_times(48, 0.02, 21).unwrap();
    let capped = hier_sharded(3, 3000.0, 6000.0)
        .run_stream(48, Box::new(times.into_iter().zip(trace_iter(&cfg))), 4)
        .unwrap();

    assert_eq!(capped.fleet.completed(), 48);
    assert_eq!(capped.fleet.outcomes.len(), 4);
    assert!(capped.per_shard.iter().all(|r| r.outcomes.is_empty()), "shards retain nothing");
    assert!(capped.peak_tracked <= 4 + 12, "peak {}", capped.peak_tracked);
}

#[test]
fn streamed_sharded_run_is_thread_count_invariant() {
    let cfg = TraceConfig::new(N_DCS, 12, 2).scaled(0.5);
    let run_with = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
            let times = poisson_arrival_times(12, 0.08, 4).unwrap();
            hier_sharded(4, 2500.0, 5000.0)
                .run_stream(12, Box::new(times.into_iter().zip(trace_iter(&cfg))), 4)
                .unwrap()
        })
    };
    let serial = run_with(1);
    let parallel = run_with(4);
    assert_eq!(run_key(&serial), run_key(&parallel));
    assert_eq!(serial.fleet.duration_s.to_bits(), parallel.fleet.duration_s.to_bits());
    assert_eq!(serial.fleet.total_cost_usd().to_bits(), parallel.fleet.total_cost_usd().to_bits());
}

#[test]
fn streamed_stream_that_runs_dry_errors() {
    let cfg = TraceConfig::new(N_DCS, 4, 6).scaled(0.5);
    let times = poisson_arrival_times(4, 0.08, 21).unwrap();
    let err = hier_sharded(2, 3000.0, 6000.0)
        .run_stream(9, Box::new(times.into_iter().zip(trace_iter(&cfg))), usize::MAX)
        .unwrap_err();
    assert!(format!("{err}").contains("ran dry"), "{err}");
}
