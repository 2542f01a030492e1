//! Pinning a thread, and the threads it starts, to one CPU.
//!
//! The two endpoints of a `node-session` take turns: in a lockstep
//! session one endpoint works while the other waits on the socket. Left
//! to the scheduler, each socket round trip wakes a thread on the other
//! CPU, and on a shared virtual machine that wake-up waits until the
//! host runs the other virtual CPU. Sessions of the same code then took
//! 0.8 s to 5 s depending on the host's load. On one CPU a round trip is
//! two context switches, which is the program's own cost.

use std::io;
use std::mem::size_of;

/// glibc's `cpu_set_t`: a mask of 1 024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The calling thread's affinity mask.
fn affinity() -> io::Result<CpuSet> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable `cpu_set_t` of the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut mask) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(mask)
}

/// Set the calling thread's affinity mask.
fn set_affinity(mask: &CpuSet) -> io::Result<()> {
    // SAFETY: `mask` is a `cpu_set_t` of the size passed, and pid 0
    // names the calling thread.
    if unsafe { sched_setaffinity(0, size_of::<CpuSet>(), mask) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// The calling thread runs on one CPU until this is dropped, when its
/// earlier mask comes back. Threads it starts meanwhile inherit the one
/// CPU and keep it.
pub struct Pinned {
    /// The CPU the thread runs on.
    pub cpu: usize,
    saved: CpuSet,
}

impl Pinned {
    /// Pin the calling thread to the highest CPU it may run on (device
    /// interrupts usually go to CPU 0).
    pub fn highest() -> io::Result<Pinned> {
        let saved = affinity()?;
        let cpu = (0..size_of::<CpuSet>() * 8)
            .rev()
            .find(|&c| saved[c / 64] >> (c % 64) & 1 == 1)
            .ok_or_else(|| io::Error::other("empty affinity mask"))?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&one)?;
        Ok(Pinned { cpu, saved })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // Restoring a mask the thread already had cannot fail in a way
        // worth reporting here.
        let _ = set_affinity(&self.saved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_this_thread_and_its_children_then_restores() {
        let before = affinity().unwrap();
        let pin = Pinned::highest().unwrap();
        let one = |m: &CpuSet| m.iter().map(|w| w.count_ones()).sum::<u32>() == 1;
        assert!(one(&affinity().unwrap()));
        let child = std::thread::spawn(affinity).join().unwrap().unwrap();
        assert!(one(&child));
        assert_eq!(child[pin.cpu / 64] >> (pin.cpu % 64) & 1, 1);
        drop(pin);
        assert_eq!(affinity().unwrap(), before);
    }
}
