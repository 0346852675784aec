//! CPU pinning and hermeticity.
//!
//! Unpinned, `matmul` spawns scoped threads per call (it asks
//! `available_parallelism`), and on a shared 2-core host that makes one
//! step read 259 ms in one run and 413 ms in the next. Pinned to one CPU
//! the same step repeats to a few percent, so every workload runs pinned
//! and multi-core time is reported only by the ungated `mt.*` probe.

use std::io;

/// Words of the affinity mask handed to the kernel: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

// std links libc already; these are the only two foreign calls the
// benchmark makes.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A set of CPUs a thread may run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuMask([u64; MASK_WORDS]);

impl CpuMask {
    /// The calling thread's affinity mask.
    pub fn current() -> io::Result<CpuMask> {
        let mut words = [0u64; MASK_WORDS];
        // SAFETY: `words` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&words), words.as_mut_ptr()) };
        if rc == 0 {
            Ok(CpuMask(words))
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Restrict the calling thread (and every thread it spawns later) to
    /// this mask.
    pub fn apply(&self) -> io::Result<()> {
        // SAFETY: `self.0` is a live buffer of exactly the size passed and
        // the kernel only reads it; pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Number of CPUs in the mask.
    pub fn count(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Lowest CPU index in the mask.
    pub fn first(&self) -> Option<usize> {
        self.0
            .iter()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
    }

    /// The mask holding only `cpu`.
    pub fn only(cpu: usize) -> CpuMask {
        let mut words = [0u64; MASK_WORDS];
        words[cpu / 64] = 1 << (cpu % 64);
        CpuMask(words)
    }
}

/// What [`pin_to_first_cpu`] did: the mask the process was started with
/// (restored by the `mt.*` probe) and the CPU now in use.
#[derive(Debug, Clone, Copy)]
pub struct Pinned {
    pub saved: CpuMask,
    pub cpu: usize,
}

impl Pinned {
    /// Pin the calling thread to the chosen CPU again (after
    /// [`Pinned::saved`] was applied for the multi-core probe).
    pub fn repin(&self) -> Result<(), String> {
        CpuMask::only(self.cpu)
            .apply()
            .map_err(|e| format!("sched_setaffinity: {e}"))?;
        assert_single_cpu()
    }
}

fn assert_single_cpu() -> Result<(), String> {
    match std::thread::available_parallelism() {
        Ok(n) if n.get() == 1 => Ok(()),
        other => Err(format!(
            "pinned to one CPU but available_parallelism() reports {other:?}; \
             timings would include per-call thread spawns"
        )),
    }
}

/// Pin the calling thread to the first CPU of its affinity mask. Must run
/// before any library call and before any thread is spawned, so that all
/// of them inherit the mask.
pub fn pin_to_first_cpu() -> Result<Pinned, String> {
    let saved = CpuMask::current().map_err(|e| format!("sched_getaffinity: {e}"))?;
    let cpu = saved.first().ok_or("empty affinity mask")?;
    let pinned = Pinned { saved, cpu };
    pinned.repin()?;
    Ok(pinned)
}

/// Names of the `SKIPPER_*` variables set in the environment. Any of them
/// changes what the library does (worker count, gateway knobs, sinks), so
/// the benchmark refuses to start with one set.
pub fn skipper_env_vars() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SKIPPER_"))
        .collect();
    names.sort();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_arithmetic() {
        let m = CpuMask::only(67);
        assert_eq!(m.count(), 1);
        assert_eq!(m.first(), Some(67));
        assert_eq!(CpuMask([0; MASK_WORDS]).first(), None);
    }

    #[test]
    fn pinning_leaves_one_cpu_and_can_be_undone() {
        // Runs on its own test thread, so other tests keep their mask.
        let pinned = pin_to_first_cpu().expect("pin");
        assert_eq!(CpuMask::current().unwrap().count(), 1);
        assert_eq!(CpuMask::current().unwrap().first(), Some(pinned.cpu));
        pinned.saved.apply().expect("restore");
        assert_eq!(CpuMask::current().unwrap(), pinned.saved);
    }
}
