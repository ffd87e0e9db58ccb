//! Host-speed calibration: a fixed kernel of the benchmark's own, timed
//! between repetitions, so that a timing can be reported at a reference
//! host speed.
//!
//! The hosts this runs on alternate, in stretches of seconds to minutes,
//! between an uncontended state and states 20–100 % slower (neighbours on
//! the same cores). Whatever a repetition measures then says as much about
//! the host's state as about the program. The kernel below — hashing,
//! random access into a few MB, a sort — slows down with the host much as
//! the program does, so `time × REFERENCE_MS ÷ kernel time` cancels most of
//! it: over a 170 s recording of `batch-d1d` repetitions with the kernel
//! run before and after each, 15-repetition medians of the raw time ranged
//! over 26 % of their median, those of the normalised time over 5 %.
//!
//! The kernel shares no code with the program under test, so a change to
//! the program moves a normalised timing exactly as it moves the raw one.
//!
//! It is applied to set-ups and to the batch pipeline, which are one busy
//! thread like the kernel. A serve round trip is not: most of it is socket
//! writes, reads and thread wake-ups, and this kernel's time does not follow
//! it from one host state to the next (recorded twice an hour apart, the
//! same `serve-entity` round trip read 22 µs and 17 µs once divided by it).
//! The serve workloads are therefore timed against a second kernel,
//! [`Echo`], which pays what a request pays outside the program: with the
//! process on one CPU (`fixture::pin`) and one connection, a repetition's
//! median round trip follows the echo round trip read before and after it
//! (r = 0.55–0.85 per repetition on a busy host), and ten 15 s runs of each
//! serve workload spread over 2–4 % of their median once scaled by it,
//! against 3–9 % raw. Before the process was pinned nothing of the kind
//! held: this kernel on two threads, a TCP echo and a request/response twin
//! with fixed work were each timed around every repetition of two
//! connections on two cores, and none correlated with the repetition's
//! latency (r = 0.0–0.35) — where the scheduler placed the four threads
//! decided it.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// The kernel's time on the recording host in its uncontended state, ms.
/// Only fixes the unit: normalised timings read as that host's.
pub const REFERENCE_MS: f64 = 11.0;

/// Fills a 200k-entry hash map, sorts 400k words, probes the map with every
/// third of them. Deterministic; allocates ~10 MB.
fn kernel() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, u32> = HashMap::with_capacity(1 << 18);
    for i in 0..200_000u32 {
        map.insert(next() >> 20, i);
    }
    let mut words: Vec<u64> = (0..400_000).map(|_| next()).collect();
    words.sort_unstable();
    let hits: u64 =
        words.iter().step_by(3).filter_map(|w| map.get(&(w >> 20))).map(|i| u64::from(*i)).sum();
    hits + words[words.len() / 2]
}

/// How much slower than the reference the host runs right now: the
/// kernel's time over [`REFERENCE_MS`].
pub fn slowdown() -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_secs_f64() * 1e3 / REFERENCE_MS
}

/// One round trip of the echo kernel on the recording host in its
/// uncontended state, µs. Like [`REFERENCE_MS`] it only fixes the unit.
pub const ECHO_REFERENCE_US: f64 = 4.0;

/// Round trips per [`Echo::slowdown`] reading.
const ECHO_ROUND_TRIPS: usize = 300;

/// Bytes each way per echo round trip.
const ECHO_FRAME: usize = 64;

/// The serve workloads' calibration kernel: a loopback TCP connection to an
/// echo thread of the benchmark's own, ping-ponging fixed frames. It shares
/// no code with the program under test; it pays what a served request pays
/// outside the program — two socket writes, two reads, two thread wake-ups.
pub struct Echo {
    stream: TcpStream,
    thread: Option<JoinHandle<()>>,
}

impl Echo {
    /// Starts the echo thread and connects to it. The thread inherits the
    /// caller's CPU affinity.
    pub fn start() -> Result<Echo, String> {
        let io = |e: std::io::Error| format!("echo kernel: {e}");
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(io)?;
        let addr = listener.local_addr().map_err(io)?;
        let thread = std::thread::spawn(move || {
            let Ok((mut peer, _)) = listener.accept() else { return };
            let _ = peer.set_nodelay(true);
            let mut frame = [0u8; ECHO_FRAME];
            while peer.read_exact(&mut frame).is_ok() && peer.write_all(&frame).is_ok() {}
        });
        let stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        Ok(Echo { stream, thread: Some(thread) })
    }

    /// How much slower than the reference a socket round trip is right now:
    /// the median of [`ECHO_ROUND_TRIPS`] over [`ECHO_REFERENCE_US`].
    pub fn slowdown(&mut self) -> Result<f64, String> {
        let mut frame = [0x5Au8; ECHO_FRAME];
        let mut us = Vec::with_capacity(ECHO_ROUND_TRIPS);
        for _ in 0..ECHO_ROUND_TRIPS {
            let start = Instant::now();
            self.stream.write_all(&frame).map_err(|e| format!("echo kernel: {e}"))?;
            self.stream.read_exact(&mut frame).map_err(|e| format!("echo kernel: {e}"))?;
            us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        Ok(crate::stats::median(&us) / ECHO_REFERENCE_US)
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The kernel a workload's repetitions are timed against.
pub enum Kernel {
    /// [`slowdown`]: one busy thread (the batch pipeline).
    Cpu,
    /// [`Echo::slowdown`]: socket round trips (the serve workloads).
    Echo(Echo),
}

impl Kernel {
    /// One reading of the kernel, as a multiple of its reference time.
    pub fn slowdown(&mut self) -> Result<f64, String> {
        match self {
            Kernel::Cpu => Ok(slowdown()),
            Kernel::Echo(echo) => echo.slowdown(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_slowdown_positive() {
        assert_eq!(kernel(), kernel());
        assert!(slowdown() > 0.0);
    }

    #[test]
    fn echo_kernel_reads_and_stops() {
        let mut kernel = Kernel::Echo(Echo::start().expect("an echo thread"));
        assert!(kernel.slowdown().expect("a reading") > 0.0);
        // Dropping it joins the echo thread.
    }
}
