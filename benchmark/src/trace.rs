//! In-memory span recorder for the traced run.
//!
//! One span per call into a layer: name, start, end, the span that
//! caused it, and the interval index all spans of one TE interval share.
//! Spans are kept in memory and written out once, when the run ends.
//! A *shadow* span times a pure re-execution of work that happens inside
//! another layer's call (update planning inside the rollout, encoding
//! inside a checkpoint write); it is the only way to split those from
//! outside the program, and its time is taken back out of the traced
//! wall clock before the tracing overhead is computed.
//!
//! Every span also carries the host's *slowdown* measured around it (see
//! [`crate::hostref`]), set once the stretch of spans it belongs to has
//! ended. The sums and lists below are of host-normalised durations —
//! raw duration over slowdown — and the span log keeps both.

use std::time::Instant;

/// One recorded span. Times are microseconds since the trace began.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`crate.module.call`).
    pub name: &'static str,
    /// Start, µs since [`Trace::new`].
    pub start_us: f64,
    /// End, µs since [`Trace::new`].
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The TE interval (or store record batch) this span belongs to.
    pub interval: usize,
    /// Whether this span re-executes work already inside another span.
    pub shadow: bool,
    /// Host slowdown measured around this span (1 until settled).
    pub slowdown: f64,
}

impl Span {
    /// Raw duration in milliseconds.
    pub fn raw_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }

    /// Host-normalised duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.raw_ms() / self.slowdown
    }
}

/// The span log of one traced run.
#[derive(Debug)]
pub struct Trace {
    t0: Instant,
    /// Every span, in open order.
    pub spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, interval: usize) -> usize {
        let now = self.now_us();
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent,
            interval,
            shadow: false,
            slowdown: 1.0,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Trace::open`]; returns its raw duration
    /// in ms.
    pub fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_us = self.now_us();
        self.spans[id].raw_ms()
    }

    /// Sets the host slowdown of every span from index `from` on: the
    /// stretch of work they cover has ended and the host was sampled.
    pub fn settle(&mut self, from: usize, slowdown: f64) {
        for s in &mut self.spans[from..] {
            s.slowdown = slowdown;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        interval: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, interval);
        let out = f();
        self.close(id);
        out
    }

    /// Runs `f` inside a shadow span.
    pub fn shadow<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        interval: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, interval);
        self.spans[id].shadow = true;
        let out = f();
        self.close(id);
        out
    }

    /// Normalised durations (ms) of every span called `name`, in open
    /// order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Summed normalised duration (ms) of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        // `+ 0.0`: an empty float sum is -0.0, which would print as such.
        self.durations_ms(name).iter().sum::<f64>() + 0.0
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Summed normalised duration (ms) of the direct children, shadow ones included,
    /// of spans called `name` — what self time subtracts.
    pub fn children_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == name))
            .map(Span::ms)
            .sum::<f64>()
            + 0.0
    }

    /// Summed normalised duration (ms) of all shadow spans.
    pub fn shadow_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.shadow)
            .map(Span::ms)
            .sum::<f64>()
            + 0.0
    }

    /// The span log as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \
                 \"parent\": {parent}, \"interval\": {}, \"shadow\": {}, \"slowdown\": {:.4}}}{}\n",
                s.name,
                s.start_us,
                s.end_us,
                s.interval,
                s.shadow,
                s.slowdown,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}
