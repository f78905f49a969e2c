//! Pinning the calling thread to one CPU, so that a single-threaded set-up
//! is timed on every CPU of the host in turn, not only on whichever one the
//! scheduler picked. On a shared 2-vCPU VM, the same set-up took 1.9 ms on
//! one CPU and 1.3 ms on the other, run after run.

use std::mem::size_of;

/// glibc's `cpu_set_t`: a mask of 1024 CPUs.
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

const MAX_CPUS: usize = 64 * 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// A CPU mask of the calling thread.
pub struct Affinity(CpuSet);

impl Affinity {
    /// The calling thread's mask, or `None` when the kernel does not give it.
    pub fn current() -> Option<Affinity> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `set` is a writable buffer of exactly the size passed, laid
        // out as glibc's `cpu_set_t`; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(Affinity(set))
    }

    /// The CPUs in the mask, in order.
    pub fn cpus(&self) -> Vec<usize> {
        (0..MAX_CPUS)
            .filter(|&c| (self.0 .0[c / 64] >> (c % 64)) & 1 == 1)
            .collect()
    }

    /// The mask holding only `cpu`.
    pub fn only(cpu: usize) -> Affinity {
        assert!(cpu < MAX_CPUS, "cpu {cpu} is outside cpu_set_t");
        let mut set = CpuSet([0; 16]);
        set.0[cpu / 64] = 1 << (cpu % 64);
        Affinity(set)
    }

    /// Applies the mask to the calling thread; false when the kernel
    /// refused it.
    pub fn apply(&self) -> bool {
        // SAFETY: `self.0` is a readable buffer of exactly the size passed,
        // laid out as glibc's `cpu_set_t`; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &self.0) == 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_to_each_allowed_cpu_and_restores_the_mask() {
        let Some(original) = Affinity::current() else {
            return;
        };
        let cpus = original.cpus();
        assert!(!cpus.is_empty());
        for &cpu in &cpus {
            assert!(Affinity::only(cpu).apply(), "pin to cpu {cpu}");
            let now = Affinity::current().expect("mask readable");
            assert_eq!(now.cpus(), vec![cpu]);
        }
        assert!(original.apply());
        assert_eq!(Affinity::current().expect("mask readable").cpus(), cpus);
    }
}
