//! Spans recorded by the traced run, from the benchmark's side of every
//! call into a crate.
//!
//! A span is one phase of a probe: a name, the layer (crate) it belongs to,
//! start and end, and the span that caused it. Calls made inside hot loops
//! are not spans of their own — a probe sums them per layer and attaches the
//! `(count, busy)` pair to the enclosing span with [`Tracer::calls`]. Spans
//! stay in memory until the probe ends.

use std::time::Instant;

use genoc_campaign::json::Json;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

struct Span {
    name: &'static str,
    layer: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
    /// `(name, layer, count, busy_ns)` of calls summed inside this span.
    calls: Vec<(&'static str, &'static str, u64, u64)>,
}

/// The in-memory span store of one traced workload.
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty store; span times are relative to now.
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            parent,
            start_ns,
            end_ns: start_ns,
            calls: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.seconds(id)
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, layer, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Attaches `count` calls that kept `layer` busy for `busy_ns` in total
    /// to span `id`. They count as children when self time is taken.
    pub fn calls(
        &mut self,
        id: SpanId,
        name: &'static str,
        layer: &'static str,
        count: u64,
        busy_ns: u64,
    ) {
        self.spans[id].calls.push((name, layer, count, busy_ns));
    }

    /// Duration of a closed span in seconds.
    pub fn seconds(&self, id: SpanId) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e9
    }

    /// A span's duration minus what its child spans and summed calls cover.
    pub fn self_seconds(&self, id: SpanId) -> f64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let calls: u64 = self.spans[id].calls.iter().map(|c| c.3).sum();
        let own = self.spans[id].end_ns - self.spans[id].start_ns;
        own.saturating_sub(children + calls) as f64 / 1e9
    }

    /// Every span as a JSON array, in opening order.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::U64(id as u64)),
                        ("workload", Json::str(self.workload)),
                        ("name", Json::str(s.name)),
                        ("layer", Json::str(s.layer)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        ),
                        ("start_ns", Json::U64(s.start_ns)),
                        ("end_ns", Json::U64(s.end_ns)),
                        ("self_ns", Json::U64((self.self_seconds(id) * 1e9) as u64)),
                        (
                            "calls",
                            Json::Arr(
                                s.calls
                                    .iter()
                                    .map(|&(name, layer, count, busy_ns)| {
                                        Json::obj([
                                            ("name", Json::str(name)),
                                            ("layer", Json::str(layer)),
                                            ("count", Json::U64(count)),
                                            ("busy_ns", Json::U64(busy_ns)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// A stopwatch for hot loops: one clock read per phase boundary, time
/// summed per phase, nothing allocated.
pub struct Laps<const N: usize> {
    last: Instant,
    /// Nanoseconds accumulated per phase.
    pub busy_ns: [u64; N],
    /// Laps recorded per phase.
    pub count: [u64; N],
}

impl<const N: usize> Laps<N> {
    /// A stopped stopwatch; call [`start`](Laps::start) before the first lap.
    pub fn new() -> Laps<N> {
        Laps {
            last: Instant::now(),
            busy_ns: [0; N],
            count: [0; N],
        }
    }

    /// Restarts the clock without charging the time since the last lap to
    /// any phase.
    pub fn start(&mut self) {
        self.last = Instant::now();
    }

    /// Charges the time since the previous boundary to `phase`.
    pub fn lap(&mut self, phase: usize) {
        let now = Instant::now();
        self.busy_ns[phase] += (now - self.last).as_nanos() as u64;
        self.count[phase] += 1;
        self.last = now;
    }

    /// Seconds accumulated in `phase`.
    pub fn seconds(&self, phase: usize) -> f64 {
        self.busy_ns[phase] as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_children_and_calls() {
        let mut t = Tracer::new("w");
        let root = t.open("root", "sim", None);
        let child = t.open("child", "core", Some(root));
        t.close(child);
        t.close(root);
        // Fix the clock so the arithmetic is exact.
        t.spans[root].start_ns = 0;
        t.spans[root].end_ns = 1_000;
        t.spans[child].start_ns = 100;
        t.spans[child].end_ns = 400;
        t.calls(root, "step", "core", 7, 250);
        assert_eq!(t.seconds(root), 1e-6);
        assert_eq!(t.self_seconds(root), 450e-9);
        assert_eq!(t.self_seconds(child), 300e-9);
        let json = t.to_json().render();
        assert!(json.contains("\"parent\":0") && json.contains("\"busy_ns\":250"));
    }

    #[test]
    fn laps_charge_each_boundary_to_one_phase() {
        let mut laps = Laps::<2>::new();
        laps.start();
        laps.lap(0);
        laps.lap(1);
        laps.lap(0);
        assert_eq!(laps.count, [2, 1]);
        assert!(laps.seconds(0) >= 0.0);
    }
}
