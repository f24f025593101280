//! The host's speed, measured beside the work: a fixed reference kernel
//! run between the timed pieces of a run.
//!
//! The benchmark runs on a few cores of a shared host whose speed is not
//! constant: the same binary on the same input ran between 1× and 2.5×
//! its fastest time within one hour, in phases of seconds to minutes, and
//! CPU time moved with wall time (README, *Host noise*). No statistic of
//! wall-clock samples alone survives that. So every timed piece — a TE
//! interval, a set-up, a chunk of store calls — is bracketed by a few
//! passes of the kernel below, which is the benchmark's own code and never
//! changes, and its time is divided by the *slowdown* those passes show:
//! their median time over [`NOMINAL_PASS_US`], to the power
//! [`SENSITIVITY`]. A timing metric therefore reads "milliseconds at the
//! reference host's quiet speed". The raw wall-clock figures and the
//! slowdown are printed beside it.
//!
//! One pass is shaped like one round of the program's own work — build
//! sparse rows, factor a dense block, a sparse forward solve, a pricing
//! scan — so that contention for the core and its caches slows it about
//! as much as it slows the simplex and the update planner. It touches
//! about 0.5 MB and takes a quarter of a millisecond.

use std::time::Instant;

/// Time of one pass in the reference host's fastest phases, µs. Only a
/// unit conversion: it cancels in every comparison between two runs.
pub const NOMINAL_PASS_US: f64 = 240.0;

/// How much of the kernel's slowdown the program feels, as an exponent.
/// The kernel is the more sensitive of the two: when its passes take
/// twice as long, intervals and set-ups take about 1.7 times as long.
/// Over four sets of ten seeds per workload taken across three hours, the
/// largest difference between two set medians of one metric was 13 % with
/// 0.7 or 0.8 here (17 % for `setup_s`), 13 % (25 %) with 1, 19 % with 0.5
/// and 40 % (52 %) with 0, which is raw wall-clock time.
pub const SENSITIVITY: f64 = 0.75;

/// Share of a timed piece's duration spent sampling after it …
const SHARE: f64 = 0.04;
/// … but never fewer passes than this, so their median means something.
const MIN_PASSES: usize = 5;

const DENSE: usize = 96;
const COLS: usize = 4096;
const NNZ_PER_COL: usize = 8;
const ROWS_BUILT: usize = 256;
const ROW_LEN: usize = 12;

/// The reference kernel and what it measured last.
pub struct HostRef {
    dense: Vec<f64>,
    col_ptr: Vec<u32>,
    row: Vec<u32>,
    val: Vec<f64>,
    x: Vec<f64>,
    cost: Vec<f64>,
    /// Slowdown of the latest sample.
    last: f64,
}

impl Default for HostRef {
    fn default() -> Self {
        HostRef::new()
    }
}

impl HostRef {
    /// Builds the kernel's fixed data and takes a first sample.
    pub fn new() -> Self {
        let mut s = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let dense = (0..DENSE * DENSE)
            .map(|_| (next() % 1000) as f64 / 1000.0 + 0.5)
            .collect();
        // A sparse lower-triangular matrix by columns, like an L factor.
        let mut col_ptr = vec![0u32];
        let mut row = Vec::with_capacity(COLS * NNZ_PER_COL);
        let mut val = Vec::with_capacity(COLS * NNZ_PER_COL);
        for j in 0..COLS {
            for _ in 0..NNZ_PER_COL {
                let below = COLS - j - 1;
                let r = if below > 0 {
                    j + 1 + next() as usize % below
                } else {
                    j
                };
                row.push(r as u32);
                val.push(((next() % 2000) as f64 / 1000.0 - 1.0) * 0.1);
            }
            col_ptr.push(row.len() as u32);
        }
        let mut host = HostRef {
            dense,
            col_ptr,
            row,
            val,
            x: (0..COLS).map(|i| 1.0 + (i % 7) as f64).collect(),
            cost: (0..COLS).map(|i| ((i * 37) % 101) as f64 - 50.0).collect(),
            last: 1.0,
        };
        // Two passes to fault the buffers in, then the first sample.
        host.pass();
        host.pass();
        host.sample(0.0);
        host
    }

    /// One pass of the kernel; returns its duration in seconds.
    fn pass(&mut self) -> f64 {
        let t0 = Instant::now();
        // Build: short rows of (index, value) pairs allocated, sorted, summed.
        let mut rows: Vec<Vec<(u32, f64)>> = Vec::with_capacity(ROWS_BUILT);
        for r in 0..ROWS_BUILT {
            let mut v = Vec::new();
            for k in 0..ROW_LEN {
                let at = (r * ROW_LEN + k) % self.row.len();
                v.push((self.row[at], self.val[at]));
            }
            v.sort_by_key(|e| e.0);
            rows.push(v);
        }
        let built: f64 = rows.iter().flatten().map(|e| e.1).sum();
        // Factor: in-place elimination of a dense block.
        let mut m = self.dense.clone();
        for k in 0..DENSE {
            let pivot = m[k * DENSE + k] + DENSE as f64;
            for i in (k + 1)..DENSE {
                let f = m[i * DENSE + k] / pivot;
                for j in k..DENSE {
                    m[i * DENSE + j] -= f * m[k * DENSE + j];
                }
            }
        }
        // Solve: sparse forward substitution, a dependent scatter.
        let mut x = self.x.clone();
        for j in 0..COLS {
            let xj = x[j] * 0.5;
            if xj.abs() > 1e-12 {
                for k in self.col_ptr[j] as usize..self.col_ptr[j + 1] as usize {
                    x[self.row[k] as usize] -= self.val[k] * xj;
                }
            }
        }
        // Price: reduced costs by sparse column dots, and their arg-max.
        let mut best = (0usize, 0.0f64);
        for j in 0..COLS {
            let mut d = self.cost[j];
            for k in self.col_ptr[j] as usize..self.col_ptr[j + 1] as usize {
                d -= self.val[k] * x[self.row[k] as usize];
            }
            if d.abs() > best.1 {
                best = (j, d.abs());
            }
        }
        std::hint::black_box((built, &m, best));
        t0.elapsed().as_secs_f64()
    }

    /// Samples the host now: passes for [`SHARE`] of `elapsed_s` (at least
    /// [`MIN_PASSES`]); returns and remembers the slowdown they show.
    fn sample(&mut self, elapsed_s: f64) -> f64 {
        let mut secs = Vec::with_capacity(MIN_PASSES);
        let mut total = 0.0;
        while secs.len() < MIN_PASSES || total < SHARE * elapsed_s {
            let s = self.pass();
            total += s;
            secs.push(s);
        }
        secs.sort_by(f64::total_cmp);
        self.last = (secs[secs.len() / 2] * 1e6 / NOMINAL_PASS_US).powf(SENSITIVITY);
        self.last
    }

    /// A timed stretch starts now: takes a fresh sample for the next
    /// [`HostRef::around`] to use as its "before".
    pub fn mark(&mut self) {
        self.sample(0.0);
    }

    /// The host's slowdown around a piece of work that took `elapsed_s`
    /// and has just ended: the mean of the sample taken before it (the
    /// previous call's) and of one taken now.
    pub fn around(&mut self, elapsed_s: f64) -> f64 {
        let before = self.last;
        0.5 * (before + self.sample(elapsed_s))
    }
}
