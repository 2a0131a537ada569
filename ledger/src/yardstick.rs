//! The yardstick: a fixed piece of work, owned by the benchmark, that is timed
//! beside every rep so that timings can be reported at one machine speed.
//!
//! The box this benchmark runs on is shared. Its arithmetic speed is steady,
//! but everything past the first-level cache is not: a pointer chase over
//! 256 KiB and one over 256 MiB slow down and speed up *together*, by 20–30%,
//! in eras that last from ten seconds to minutes, and the workloads' reps
//! follow them (0.58 → 0.82 s per `sim-hotspot` rep inside one minute, CPU
//! time moving with wall time, system time nil). No statistic over the reps of
//! one run removes that — a whole run sits inside one era — so ten runs of the
//! same code spread by 15–30%, more than any bound the contract allows.
//!
//! What does remove it is a ruler that stretches the same way. One pass of the
//! yardstick is a breadth-first search over a synthetic graph that does, per
//! node, what the engines do per state or step: read a stored record back,
//! derive successors with integer mixing, sort a short array, intern the
//! result in a hash map, append to a growing pool, and touch a few entries of
//! a large array. Timed against the seven workloads over many eras, the ratio
//! *rep time / adjacent pass time* spreads a half to a ninth as widely as the
//! rep time itself (see README.md, "Machine speed"). The pass is benchmark
//! code: no change to the crates under test can move it.
//!
//! Every timing the benchmark reports is therefore
//! `measured × NOMINAL_S / pass`, `pass` being the mean of the passes timed
//! just before and just after the measured interval: seconds on a box on
//! which one pass takes [`NOMINAL_S`], which is this box at its quietest.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

use crate::sys;

/// What one pass takes on the reference machine, in seconds: the fastest
/// single-lane pass seen on the box the benchmark was defined on.
pub const NOMINAL_S: f64 = 0.1;

/// Nodes of the synthetic graph; nearly all are reached.
const NODES: u64 = 120_000;
/// Successors derived per node.
const FANOUT: u64 = 4;
/// `u16` words of the record stored per node.
const WORDS: usize = 16;
/// Entries of the large array of which a few are touched per node (2 MiB).
const PARKED: usize = 1 << 18;

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// One thread's share of the yardstick: its own graph search over its own
/// memory (≈ 11 MiB), allocated once and reused by every pass.
struct Lane {
    seen: HashMap<u64, u32>,
    pool: Vec<u16>,
    queue: Vec<u64>,
    parked: Vec<u64>,
}

impl Lane {
    fn new() -> Lane {
        Lane {
            seen: HashMap::with_capacity(NODES as usize),
            pool: Vec::with_capacity(NODES as usize * WORDS),
            queue: Vec::with_capacity(NODES as usize),
            parked: vec![0; PARKED],
        }
    }

    /// Searches the graph from node 1 and returns `(nodes reached, checksum)`,
    /// the same on every pass.
    fn pass(&mut self) -> (usize, u64) {
        self.seen.clear();
        self.pool.clear();
        self.queue.clear();
        self.parked.fill(0);
        self.seen.insert(1, 0);
        self.pool.extend_from_slice(&[0; WORDS]);
        self.queue.push(1);
        let mut sum = 0u64;
        let mut head = 0;
        while head < self.queue.len() {
            let node = self.queue[head];
            head += 1;
            // Decode: the node's record, read back from the pool.
            let at = self.seen[&node] as usize * WORDS;
            let mut record = [0u16; WORDS];
            record.copy_from_slice(&self.pool[at..at + WORDS]);
            for j in 0..FANOUT {
                let next = mix(node * FANOUT + j) % NODES;
                // Apply and canonicalise: the successor's record, sorted.
                let mut words = record;
                let mut h = next;
                for w in &mut words {
                    h = mix(h);
                    *w = w.wrapping_add(h as u16) & 0x3ff;
                }
                words.sort_unstable();
                sum = sum.wrapping_add(u64::from(words[WORDS / 2]));
                // Intern.
                let fresh = self.seen.len() as u32;
                if let Entry::Vacant(slot) = self.seen.entry(next) {
                    slot.insert(fresh);
                    self.pool.extend_from_slice(&words);
                    self.queue.push(next);
                }
            }
            // Step: a few scattered entries of a large array.
            for k in 0..8 {
                let i = (mix(node ^ k) % PARKED as u64) as usize;
                self.parked[i] = self.parked[i].wrapping_add(sum);
            }
        }
        let folded = self.parked.iter().fold(sum, |a, p| a.wrapping_add(*p));
        (self.queue.len(), folded)
    }
}

/// The yardstick of one run: one lane per thread the workload uses, so that a
/// two-thread workload is measured against a two-thread pass.
pub struct Yardstick {
    lanes: Vec<Lane>,
    resident_bytes: u64,
}

impl Yardstick {
    /// Allocates `threads` lanes and makes one untimed pass, which touches
    /// every page a later pass will.
    pub fn new(threads: usize) -> Yardstick {
        let before = sys::rss_bytes();
        let mut yardstick = Yardstick {
            lanes: (0..threads.max(1)).map(|_| Lane::new()).collect(),
            resident_bytes: 0,
        };
        yardstick.pass_s();
        yardstick.resident_bytes = sys::rss_bytes().saturating_sub(before);
        yardstick
    }

    /// Resident bytes the lanes added to the process, to be taken off its
    /// peak: they stay resident from here to the end of the run.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Times one pass, all lanes at once, in seconds.
    pub fn pass_s(&mut self) -> f64 {
        let start = Instant::now();
        match self.lanes.as_mut_slice() {
            [only] => {
                std::hint::black_box(only.pass());
            }
            lanes => std::thread::scope(|scope| {
                for lane in lanes {
                    scope.spawn(|| std::hint::black_box(lane.pass()));
                }
            }),
        }
        start.elapsed().as_secs_f64()
    }
}

/// The machine's speed over an interval, from the passes timed just before
/// and just after it: 1 on the reference machine, below 1 in a slow era.
/// Multiplying a measured time by it gives reference seconds.
pub fn speed(pass_before_s: f64, pass_after_s: f64) -> f64 {
    NOMINAL_S / ((pass_before_s + pass_after_s) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pass_does_the_same_work() {
        let (mut a, mut b) = (Lane::new(), Lane::new());
        let first = a.pass();
        assert_eq!(first, a.pass());
        assert_eq!(first, b.pass());
        assert!(first.0 as u64 > NODES * 9 / 10, "{} nodes", first.0);
    }

    #[test]
    fn a_pass_takes_time_and_its_memory_is_accounted_for() {
        let mut one = Yardstick::new(1);
        assert!(one.pass_s() > 0.0);
        // Pool, queue and parked array alone are 6.8 MiB per lane.
        assert!(one.resident_bytes() > 4 << 20, "{}", one.resident_bytes());
        assert!(Yardstick::new(2).pass_s() > 0.0);
    }

    #[test]
    fn speed_cancels_a_slow_era() {
        assert_eq!(speed(NOMINAL_S, NOMINAL_S), 1.0);
        // A rep and the passes around it all take 30% longer: same result.
        let quiet = 0.5 * speed(0.1, 0.1);
        let slow = 0.65 * speed(0.13, 0.13);
        assert!((quiet - slow).abs() < 1e-12);
    }
}
