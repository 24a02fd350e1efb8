//! Fairness-layer probes on the 64-DC tiled topology: per-call cost of
//! `NetSim::allocate_rates_with` and of `FairnessWorkspace::solve` on the
//! same problem, for a fleet-sized flow set and for the single-flow shape
//! a probing gauge solves 4032 times. Build cost is call minus solve.
//!
//! The solve-only problem is rebuilt here from public link-model
//! accessors in the simulator's resource order; the probe checks that it
//! yields bit-identical rates, so both timings measure one problem.

use std::time::Instant;

use wanify_netsim::{
    paper_testbed_tiled, DcId, FairnessProblem, FairnessWorkspace, FlowSpec, LinkModelParams,
    NetSim, RateScratch, ResourceKind, VmType,
};

use crate::SplitMix;

pub const N_DCS: usize = 64;
/// A fleet-sized flow set: eight concurrent shuffles, each all-to-all
/// over its own 13 DCs — 1248 flows, the size of the fleet workload's
/// problems.
pub const FLEET_JOBS: usize = 8;
pub const JOB_DCS: usize = 13;
pub const FLEET_CALLS: usize = 200;

pub struct Probe {
    pub fleet_call_ns: f64,
    pub fleet_solve_ns: f64,
    pub probe_call_ns: f64,
    pub probe_solve_ns: f64,
}

/// The fairness problem `allocate_rates_with` builds for `flows`
/// (every flow crosses the WAN; no throttles, faults or backbone caps).
fn problem(sim: &NetSim, flows: &[FlowSpec]) -> FairnessProblem {
    let topo = sim.topology();
    let params = sim.params();
    let n = topo.len();
    let mut p = FairnessProblem::new();
    let mut host_conns = vec![0u32; n];
    for f in flows {
        let dist = topo.distance_miles(f.src, f.dst);
        p.add_flow(f64::from(f.conns) * params.conn_weight(dist), sim.unreserved_ceiling_mbps(f));
        host_conns[f.src.0] += f.conns;
        host_conns[f.dst.0] += f.conns;
    }
    // Members in the simulator's order: by (src, dst) key, then input
    // order, for egress and paths; by destination, then input order, for
    // ingress.
    let mut by_key: Vec<usize> = (0..flows.len()).collect();
    by_key.sort_by_key(|&i| (flows[i].src.0 * n + flows[i].dst.0, i));
    let mut by_dst: Vec<usize> = (0..flows.len()).collect();
    by_dst.sort_by_key(|&i| (flows[i].dst.0, i));
    for (dc, &conns) in host_conns.iter().enumerate() {
        let d = topo.dc(DcId(dc));
        let divisor = params.congestion_divisor(conns, d.conn_budget());
        let egress: Vec<usize> = by_key.iter().copied().filter(|&i| flows[i].src.0 == dc).collect();
        if !egress.is_empty() {
            p.add_resource(ResourceKind::Egress(dc), d.egress_cap_mbps() / divisor, &egress);
        }
        let ingress: Vec<usize> =
            by_dst.iter().copied().filter(|&i| flows[i].dst.0 == dc).collect();
        if !ingress.is_empty() {
            p.add_resource(ResourceKind::Ingress(dc), d.ingress_cap_mbps() / divisor, &ingress);
        }
    }
    let mut start = 0;
    while start < by_key.len() {
        let key = |i: usize| (flows[i].src.0, flows[i].dst.0);
        let (src, dst) = key(by_key[start]);
        let end = start + by_key[start..].iter().take_while(|&&i| key(i) == (src, dst)).count();
        let cap = params.path_cap_mbps * sim.dynamics().multiplier(src, dst);
        p.add_resource(ResourceKind::Path(src, dst), cap, &by_key[start..end]);
        start = end;
    }
    p
}

/// Mean ns per call of `allocate_rates_with` and of `solve` over the flow
/// sets; errors if the rebuilt problem disagrees with the simulator.
fn time_sets(sim: &NetSim, sets: &[Vec<FlowSpec>]) -> Result<(f64, f64), String> {
    let problems: Vec<FairnessProblem> = sets.iter().map(|f| problem(sim, f)).collect();
    let mut scratch = RateScratch::default();
    let mut ws = FairnessWorkspace::new();
    for (flows, p) in sets.iter().zip(&problems) {
        let a = sim.allocate_rates_with(flows, &mut scratch).to_vec();
        let b = ws.solve(p);
        if a.len() != b.len() || a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits()) {
            return Err("fairness probe: rebuilt problem disagrees with allocate_rates_with".into());
        }
    }
    let t = Instant::now();
    for flows in sets {
        std::hint::black_box(sim.allocate_rates_with(flows, &mut scratch));
    }
    let call_ns = t.elapsed().as_nanos() as f64 / sets.len() as f64;
    let t = Instant::now();
    for p in &problems {
        std::hint::black_box(ws.solve(p));
    }
    let solve_ns = t.elapsed().as_nanos() as f64 / sets.len() as f64;
    Ok((call_ns, solve_ns))
}

pub fn run(seed: u64) -> Result<Probe, String> {
    let sim = NetSim::new(
        paper_testbed_tiled(VmType::t2_medium(), N_DCS),
        LinkModelParams::frozen(),
        seed,
    );
    let mut rng = SplitMix(seed ^ 0xFA1E);
    let mut fleet_sets: Vec<Vec<FlowSpec>> = Vec::with_capacity(FLEET_CALLS);
    for _ in 0..FLEET_CALLS {
        let mut flows = Vec::with_capacity(FLEET_JOBS * JOB_DCS * (JOB_DCS - 1));
        for _ in 0..FLEET_JOBS {
            // A partial Fisher-Yates shuffle picks the job's DCs.
            let mut dcs: Vec<usize> = (0..N_DCS).collect();
            for k in 0..JOB_DCS {
                let j = k + (rng.next_u64() % (N_DCS - k) as u64) as usize;
                dcs.swap(k, j);
            }
            for &src in &dcs[..JOB_DCS] {
                for &dst in &dcs[..JOB_DCS] {
                    if src != dst {
                        flows.push(FlowSpec::new(DcId(src), DcId(dst), 1));
                    }
                }
            }
        }
        fleet_sets.push(flows);
    }
    let probe_sets: Vec<Vec<FlowSpec>> = (0..N_DCS)
        .flat_map(|i| (0..N_DCS).filter(move |&j| j != i).map(move |j| (i, j)))
        .map(|(i, j)| vec![FlowSpec::new(DcId(i), DcId(j), 1)])
        .collect();
    let (fleet_call_ns, fleet_solve_ns) = time_sets(&sim, &fleet_sets)?;
    let (probe_call_ns, probe_solve_ns) = time_sets(&sim, &probe_sets)?;
    Ok(Probe { fleet_call_ns, fleet_solve_ns, probe_call_ns, probe_solve_ns })
}
