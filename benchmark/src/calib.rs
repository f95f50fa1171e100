//! Fixed calibration loops, run before and after a workload. They measure
//! the machine, not the program: if the same loop takes 10 % longer after
//! the workload than before it, a neighbour on the box changed the clock
//! under the measurement and the run is labelled *noisy*.

use std::hint::black_box;
use std::time::Instant;

const SPIN_ITERS: u64 = 200_000_000;
/// 8 Mi × 8 B = 64 MiB: larger than any cache on the boxes this runs on.
const WALK_SLOTS: usize = 8 << 20;
const WALK_STEPS: usize = 2_000_000;

/// Drift between two readings of one loop that marks a run noisy.
pub const DRIFT_LIMIT: f64 = 0.10;

/// Compute-bound: a dependent multiply-add chain that stays in registers.
pub fn spin_ms() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..SPIN_ITERS {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// The first reading of a run. A core that has just been handed a new
/// process runs its first tenth of a second at up to half speed on the
/// boxes this was written on; spin until two readings in a row agree.
pub fn warm_spin_ms() -> f64 {
    let mut last = spin_ms();
    for _ in 0..8 {
        let next = spin_ms();
        if drift(last, next) < 0.03 {
            return next;
        }
        last = next;
    }
    last
}

/// Memory-bound: a dependent random walk over a 64 MiB single-cycle
/// permutation, so every step is a cache miss. Only traced runs use it — the
/// buffer would set the floor of `peak_rss_mb` on the small workloads.
pub struct MemWalk {
    next: Vec<u32>,
}

impl MemWalk {
    pub fn new() -> MemWalk {
        // Sattolo's algorithm: a uniformly random permutation with one cycle.
        let mut next: Vec<u32> = (0..WALK_SLOTS as u32).collect();
        let mut state = 0x5EED_CA11_B0A7_0001u64;
        for i in (1..WALK_SLOTS).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = ((state >> 33) as usize) % i;
            next.swap(i, j);
        }
        MemWalk { next }
    }

    pub fn walk_ms(&self) -> f64 {
        let t = Instant::now();
        let mut at = 0u32;
        for _ in 0..WALK_STEPS {
            at = self.next[at as usize];
        }
        black_box(at);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// `|after − before| / before`.
pub fn drift(before: f64, after: f64) -> f64 {
    (after - before).abs() / before
}
