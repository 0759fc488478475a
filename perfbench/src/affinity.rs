//! Moving a single-threaded op across the CPUs this process may use.
//!
//! On a shared host each virtual CPU runs at the speed its physical core
//! has left over, and the two CPUs of the guest this was tuned on
//! differed by up to 1.7× for minutes at a time. The kernel keeps a
//! lone busy thread on one CPU, so a single-threaded op timed in one
//! process measured whichever CPU it landed on. Rotating the thread
//! through the allowed CPUs, one op each, makes every run see every CPU.

use std::os::raw::c_int;

/// `cpu_set_t` as glibc defines it: 1,024 bits.
const MASK_WORDS: usize = 16;
type Mask = [u64; MASK_WORDS];

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut Mask) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const Mask) -> c_int;
}

/// Pins the calling thread to one allowed CPU after another; restores
/// the thread's original CPU set when dropped.
pub struct CpuRotation {
    original: Mask,
    cpus: Vec<usize>,
}

impl CpuRotation {
    /// `None` when the CPU set cannot be read or holds a single CPU.
    pub fn new() -> Option<CpuRotation> {
        let mut original = [0u64; MASK_WORDS];
        // SAFETY: `original` is a writable buffer of the size passed; pid 0
        // is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), &mut original) };
        let cpus: Vec<usize> =
            (0..MASK_WORDS * 64).filter(|&c| original[c / 64] >> (c % 64) & 1 == 1).collect();
        (rc == 0 && cpus.len() > 1).then_some(CpuRotation { original, cpus })
    }

    /// Pins the calling thread to the `i`-th allowed CPU, round robin.
    pub fn pin(&self, i: u64) {
        let cpu = self.cpus[(i % self.cpus.len() as u64) as usize];
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        set(&mask);
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        set(&self.original);
    }
}

/// Sets the calling thread's CPU set. A failure leaves the thread where
/// it was, which only costs the rotation its effect.
fn set(mask: &Mask) {
    // SAFETY: `mask` is a readable buffer of the size passed; pid 0 is the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask) };
}
