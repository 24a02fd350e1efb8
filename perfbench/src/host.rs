//! The host the benchmark runs on: which core a timed thread uses, and
//! how fast the host is at the moment.
//!
//! On a host shared with other tenants the speed of a core changes by
//! up to half, one core at a time for seconds and the whole host for
//! minutes. Two things take that out of the throughput metric. Episodes
//! take turns on the cores ([`pin`]), so the fastest repetition of each
//! segment (see `progress`) finds a fast core. And a fixed reference
//! kernel, which no change to the program touches, is timed before
//! every episode on the core it runs on ([`reference_s`]); throughput is
//! reported per reference second, so a host that is slower for minutes
//! slows the program and the reference alike, and the ratio stays.

use std::time::Instant;

/// `cpu_set_t`: 1024 bits.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the process started on, as a mask and a list; `None` where
/// they cannot be read.
#[cfg(target_os = "linux")]
fn allowed() -> Option<&'static (CpuSet, Vec<usize>)> {
    use std::sync::OnceLock;
    static ALLOWED: OnceLock<Option<(CpuSet, Vec<usize>)>> = OnceLock::new();
    ALLOWED
        .get_or_init(|| {
            let mut mask: CpuSet = [0; 16];
            // SAFETY: `mask` is a writable `cpu_set_t` of the size passed;
            // pid 0 is the calling thread.
            let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } == 0;
            let cpus: Vec<usize> =
                (0..1024).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect();
            (ok && !cpus.is_empty()).then_some((mask, cpus))
        })
        .as_ref()
}

/// Pins the calling thread to the core of turn `t` (the `t`-th allowed
/// CPU, wrapping around), or with `None` lets it run on every CPU the
/// process started with. The scheduler does not move a busy thread off
/// a slow core, so without turns a whole run can sit on one. Pinning is
/// Linux-only; elsewhere, and where the kernel refuses it, threads stay
/// where they are: only steadiness suffers, not the measurement.
pub fn pin(turn: Option<usize>) {
    #[cfg(target_os = "linux")]
    if let Some((all, cpus)) = allowed() {
        let mask = match turn {
            Some(t) => {
                let cpu = cpus[t % cpus.len()];
                let mut one: CpuSet = [0; 16];
                one[cpu / 64] = 1 << (cpu % 64);
                one
            }
            None => *all,
        };
        // SAFETY: `mask` is a readable `cpu_set_t` of the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
    }
    #[cfg(not(target_os = "linux"))]
    let _ = turn;
}

/// Passes of the reference kernel that make one reference second: about
/// one host second on a 2-vCPU Intel Xeon virtual machine.
pub const PASSES_PER_REF_S: f64 = 730.0;

/// Timed passes per [`reference_s`] call; the fastest counts.
const SAMPLES: usize = 20;

/// One node of the reference kernel's trees; a leaf has no children.
struct Node {
    feature: usize,
    threshold: f64,
    children: Option<(usize, usize)>,
}

/// The reference kernel's input: 64 complete binary trees of 1023
/// nodes (about 2 MB) and 400 rows of 8 features, from a fixed seed.
/// Walking them is the work the program's forest inference and
/// fairness loops do: data-dependent branches and float compares over a
/// working set that fits the second-level cache.
struct Kernel {
    trees: Vec<Vec<Node>>,
    rows: Vec<[f64; 8]>,
}

impl Kernel {
    fn new() -> Self {
        let mut rng = crate::SplitMix(0x5EED_F00D);
        let mut unit = move || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        const NODES: usize = 1023;
        let trees = (0..64)
            .map(|_| {
                (0..NODES)
                    .map(|i| Node {
                        feature: (unit() * 8.0) as usize,
                        threshold: unit(),
                        children: (2 * i + 2 < NODES).then_some((2 * i + 1, 2 * i + 2)),
                    })
                    .collect()
            })
            .collect();
        let rows = (0..400).map(|_| std::array::from_fn(|_| unit())).collect();
        Self { trees, rows }
    }

    /// One pass: every row down every tree.
    fn pass(&self) -> f64 {
        let mut sum = 0.0;
        for row in &self.rows {
            for tree in &self.trees {
                let mut i = 0;
                while let Some((left, right)) = tree[i].children {
                    let node = &tree[i];
                    i = if row[node.feature] < node.threshold { left } else { right };
                }
                sum += tree[i].threshold;
            }
        }
        sum
    }
}

/// Seconds in one reference second at the host's current speed on the
/// calling thread's core: the fastest of [`SAMPLES`] timed passes of the
/// reference kernel, times [`PASSES_PER_REF_S`].
pub fn reference_s() -> f64 {
    use std::sync::OnceLock;
    static KERNEL: OnceLock<Kernel> = OnceLock::new();
    let kernel = KERNEL.get_or_init(Kernel::new);
    let fastest = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(kernel.pass());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    fastest * PASSES_PER_REF_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_kernel_is_fixed() {
        let (a, b) = (Kernel::new(), Kernel::new());
        assert_eq!(a.pass().to_bits(), b.pass().to_bits());
        assert!(reference_s() > 0.0);
    }
}
