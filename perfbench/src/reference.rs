//! The reference clock: every end-to-end timing is read in *reference
//! seconds*, thread CPU time scaled by how fast the host runs a fixed
//! piece of work at that moment.
//!
//! On a shared host the speed of a core moves by up to 2× over tens of
//! seconds (other tenants on the same core, cache and memory bandwidth,
//! clock frequency). Thread CPU time leaves out the time the thread
//! waited for a core but not that. So the clock interleaves short slices
//! of a reference kernel with the program, about every [`SLICE_EVERY`]
//! of wall time, each timed in CPU time. The kernel is written here and
//! shares no code with the store: a miniature of the simulator's inner
//! loop (pop the earliest event from a binary heap, update a node's
//! ordered map, allocate and free payloads, push the next event), so the
//! host slows it about as it slows the store. Program CPU time between
//! two slices is multiplied by the host's speed, [`NOMINAL_SLICE_S`] over
//! the recent slices' CPU time: the host's speed cancels and the
//! program's stays, because the kernel never changes with the program.
//!
//! The kernel allocates with the counting allocator's accounting off, so
//! `peak_heap_mib` never sees it; slice time is left out of every
//! reading.

use crate::alloc::uncounted;
use crate::clock::thread_cpu_s;
use crate::inputs::Rng;
use crate::spans::{Layer, Tracer};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::{Duration, Instant};

/// Nodes of the miniature.
const NODES: u64 = 256;
/// Keys a node's map holds at most.
const CAP: usize = 32;
/// Events a slice runs untimed first, to bring the kernel's own data
/// back into cache after the program ran: the timed part then measures
/// the host, not how much of the cache the program took.
const WARM_EVENTS: usize = 1_000;
/// Events a slice times.
const SLICE_EVENTS: usize = 3_000;
/// CPU seconds the timed part of a slice takes on a host of reference
/// speed: a fixed unit. On the 2-vCPU Xeon VM the benchmark was tuned on
/// it took about 0.65 ms (a host speed of about 1.2).
pub const NOMINAL_SLICE_S: f64 = 0.000_8;
/// Wall time between two slices.
pub const SLICE_EVERY: Duration = Duration::from_millis(20);
/// Weight of the newest slice in the speed estimate (an exponential
/// average, so one slice's timer noise moves it little).
const SPEED_WEIGHT: f64 = 0.25;

/// The kernel's state; it lives from one slice to the next.
#[derive(Default)]
struct Kernel {
    rng: Option<Rng>,
    nodes: Vec<BTreeMap<u64, Vec<u8>>>,
    queue: BinaryHeap<Reverse<(u64, u32, u64)>>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut rng = Rng::new(0x5EED, 0x4EF);
        let queue =
            (0..NODES).map(|i| Reverse((rng.below(64), i as u32, rng.next_u64()))).collect();
        Kernel { rng: Some(rng), nodes: vec![BTreeMap::new(); NODES as usize], queue }
    }

    /// Processes `events` events; returns a checksum of what it did.
    fn run(&mut self, events: usize) -> u64 {
        let rng = self.rng.as_mut().expect("a built kernel");
        let mut sum = 0u64;
        for _ in 0..events {
            let Reverse((at, node, key)) = self.queue.pop().expect("the queue never empties");
            let map = &mut self.nodes[node as usize];
            let payload = map.entry(key % 512).or_insert_with(|| vec![node as u8; 48]);
            payload[(key % 48) as usize] ^= 1;
            sum = sum.wrapping_add(payload[0] as u64);
            if map.len() > CAP {
                map.pop_first();
            }
            let to = rng.below(NODES) as u32;
            self.queue.push(Reverse((at + 1 + rng.below(16), to, rng.next_u64())));
        }
        sum
    }
}

/// A reading of the clock.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Reference seconds of program time.
    pub ref_s: f64,
    /// Thread CPU seconds of program time.
    pub cpu_s: f64,
    /// Wall time (slices included).
    pub wall: Instant,
}

impl Reading {
    /// Reference seconds from `self` to `later`.
    pub fn ref_to(&self, later: &Reading) -> f64 {
        later.ref_s - self.ref_s
    }
}

/// The reference clock. One per run; not `Send` (it reads the calling
/// thread's CPU time).
pub struct RefClock {
    kernel: Kernel,
    /// Reference and CPU seconds of program time up to `mark`.
    ref_s: f64,
    cpu_s: f64,
    /// Thread CPU time when the last slice ended.
    mark: f64,
    /// The host's speed: [`NOMINAL_SLICE_S`] over recent slices' CPU time.
    speed: f64,
    /// When the next slice is due.
    due: Instant,
}

impl RefClock {
    /// A clock whose kernel has reached its steady state.
    pub fn new() -> RefClock {
        let mut c = RefClock {
            kernel: uncounted(Kernel::new),
            ref_s: 0.0,
            cpu_s: 0.0,
            mark: thread_cpu_s(),
            speed: 0.0,
            due: Instant::now(),
        };
        for _ in 0..32 {
            c.slice();
        }
        c.ref_s = 0.0;
        c.cpu_s = 0.0;
        c
    }

    /// Runs one slice now: closes the program time since the last one at
    /// the current speed, then updates the speed from this slice.
    pub fn slice(&mut self) {
        let t0 = thread_cpu_s();
        let program = t0 - self.mark;
        self.ref_s += program * self.speed;
        self.cpu_s += program;
        let kernel = &mut self.kernel;
        std::hint::black_box(uncounted(|| kernel.run(WARM_EVENTS)));
        let warm = thread_cpu_s();
        std::hint::black_box(uncounted(|| kernel.run(SLICE_EVENTS)));
        let t1 = thread_cpu_s();
        let speed = NOMINAL_SLICE_S / (t1 - warm).max(1e-9);
        self.speed = if self.speed == 0.0 {
            speed
        } else {
            self.speed + SPEED_WEIGHT * (speed - self.speed)
        };
        self.mark = t1;
        self.due = Instant::now() + SLICE_EVERY;
    }

    /// Runs a slice, under a span, when one is due. Call it between the
    /// program calls a loop makes.
    #[inline]
    pub fn poll(&mut self, tr: &mut Tracer) {
        if Instant::now() >= self.due {
            tr.open(Layer::RefSlice);
            self.slice();
            tr.close();
        }
    }

    /// The current reading.
    pub fn now(&self) -> Reading {
        let t = thread_cpu_s();
        let program = t - self.mark;
        Reading {
            ref_s: self.ref_s + program * self.speed,
            cpu_s: self.cpu_s + program,
            wall: Instant::now(),
        }
    }
}

impl Drop for RefClock {
    fn drop(&mut self) {
        // The kernel's memory was allocated uncounted; free it so too.
        let kernel = std::mem::take(&mut self.kernel);
        uncounted(|| drop(kernel));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        let (mut a, mut b) = (Kernel::new(), Kernel::new());
        assert_eq!(a.run(10_000), b.run(10_000));
    }

    #[test]
    fn readings_leave_slices_out_and_scale_cpu_time_by_the_speed() {
        let mut c = RefClock::new();
        let r0 = c.now();
        c.slice();
        c.slice();
        let r1 = c.now();
        assert!(r1.cpu_s - r0.cpu_s < 0.5 * NOMINAL_SLICE_S, "slices are not program time");
        let t = thread_cpu_s();
        while thread_cpu_s() - t < 0.01 {
            std::hint::black_box(t);
        }
        let r2 = c.now();
        let (cpu, refs) = (r2.cpu_s - r1.cpu_s, r1.ref_to(&r2));
        assert!(cpu >= 0.01);
        assert!((refs / cpu - c.speed).abs() < 1e-9 * c.speed.max(1.0));
    }
}
