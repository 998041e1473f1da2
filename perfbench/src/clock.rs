//! Thread CPU time, the raw clock under the reference clock. The store
//! runs on one thread, so on an idle core this equals wall time; on a
//! shared host it leaves out the time the thread waited for a core.

/// Seconds of CPU time this thread has used.
#[cfg(target_os = "linux")]
pub fn thread_cpu_s() -> f64 {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `long`s on
    // Linux) and the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere the wall clock stands in for it.
#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_s() -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static T0: OnceLock<Instant> = OnceLock::new();
    T0.get_or_init(Instant::now).elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn cpu_time_advances_with_work_and_never_outruns_the_wall() {
        let (cpu0, wall0) = (thread_cpu_s(), Instant::now());
        let mut x = 0u64;
        while wall0.elapsed().as_secs_f64() < 0.05 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let (cpu, wall) = (thread_cpu_s() - cpu0, wall0.elapsed().as_secs_f64());
        assert!(cpu > 0.0, "a busy loop uses CPU time");
        assert!(cpu <= wall + 0.01, "cpu {cpu} s > wall {wall} s");
    }
}
