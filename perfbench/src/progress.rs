//! Progress marks that cut a timed episode into segments of identical
//! work.
//!
//! Episodes of one seed repeat the same simulation, so the work between
//! the i-th and the (i+1)-th mark is the same in every episode. On a
//! shared host, interference from other tenants comes in bursts of
//! milliseconds to seconds that land on different segments in different
//! episodes; the fastest repetition of each segment is the program's
//! own cost, and their sum is an episode's host time with the bursts
//! taken out ([`undisturbed_s`]).
//!
//! Marks come from the workload code at points the simulation reaches
//! in a fixed order: each pipeline query, every [`GATEWAY_EVERY`]
//! offered requests, and every placement the fleet's schedulers make
//! ([`Ticked`]). Episodes are timed in one thread, so the fleet's shards
//! step, and place, in a fixed order too.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use wanify::BandwidthSource;
use wanify_gda::{PlacementCtx, Scheduler};
use wanify_netsim::NetSim;

/// Offered requests between two marks of the gateway workload.
pub const GATEWAY_EVERY: usize = 100;

static ON: AtomicBool = AtomicBool::new(false);
static MARKS: Mutex<Vec<Instant>> = Mutex::new(Vec::new());

/// Starts an episode's marks.
pub fn start() {
    *MARKS.lock().expect("mark store") = vec![Instant::now()];
    ON.store(true, Ordering::Release);
}

/// Marks a point of progress; inert outside [`start`]..[`finish`].
pub fn tick() {
    if ON.load(Ordering::Acquire) {
        MARKS.lock().expect("mark store").push(Instant::now());
    }
}

/// Ends the episode: the host seconds of each segment, in order.
pub fn finish() -> Vec<f64> {
    ON.store(false, Ordering::Release);
    let mut marks = std::mem::take(&mut *MARKS.lock().expect("mark store"));
    marks.push(Instant::now());
    marks.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect()
}

/// The sum over segments of each segment's fastest repetition. `None`
/// when the episodes were not cut into the same number of segments,
/// which means they did not repeat the same work.
pub fn undisturbed_s(episodes: &[Vec<f64>]) -> Option<f64> {
    let first = episodes.first()?;
    if episodes.iter().any(|e| e.len() != first.len()) {
        return None;
    }
    let fastest = |i: usize| episodes.iter().map(|e| e[i]).fold(f64::INFINITY, f64::min);
    Some((0..first.len()).map(fastest).sum())
}

/// Marks every placement of the wrapped scheduler. Forwards every trait
/// method, the defaulted ones included, so the inner scheduler's own
/// overrides stay in force.
pub struct Ticked(pub Box<dyn Scheduler>);

impl Scheduler for Ticked {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn place_reduce(&self, ctx: &PlacementCtx<'_>) -> Vec<f64> {
        tick();
        self.0.place_reduce(ctx)
    }

    fn migrate_input(&self, ctx: &PlacementCtx<'_>) -> Option<Vec<f64>> {
        self.0.migrate_input(ctx)
    }

    fn place_reduce_from(
        &self,
        source: &mut dyn BandwidthSource,
        sim: &mut NetSim,
        out_gb: &[f64],
        compute_s_per_gb: f64,
    ) -> Vec<f64> {
        tick();
        self.0.place_reduce_from(source, sim, out_gb, compute_s_per_gb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undisturbed_time_takes_each_segments_fastest_repetition() {
        let eps = [vec![1.0, 5.0, 2.0], vec![3.0, 1.0, 2.5]];
        assert_eq!(undisturbed_s(&eps), Some(1.0 + 1.0 + 2.0));
        assert_eq!(undisturbed_s(&[vec![1.0], vec![1.0, 2.0]]), None);
        assert_eq!(undisturbed_s(&[]), None);
    }
}
