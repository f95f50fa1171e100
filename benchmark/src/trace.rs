//! Harness-side spans: one around every call the benchmark makes into a
//! layer. Spans stay in memory and are written once, at exit, by the traced
//! run; the untraced run keeps the recorder disabled, which turns `open` /
//! `close` into a pair of clock reads.
//!
//! Tracing inside the program is a later issue — this file records only what
//! can be seen from the benchmark's own side of the public API.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// At most this many spans are written out in full; the per-name totals
/// always cover all of them.
const MAX_SPANS_WRITTEN: usize = 20_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<u32>,
    /// Operation id: the rep or request this span belongs to.
    pub op: u64,
}

/// An open span; hand it back to [`Recorder::close`].
#[must_use = "close the span"]
pub struct Open {
    start: Instant,
    slot: Option<u32>,
}

pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder::with_epoch(enabled, Instant::now())
    }

    /// A recorder on another one's clock, for a client thread; merge it back
    /// with [`Recorder::absorb`].
    pub fn with_epoch(enabled: bool, epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(
            self.stack.is_empty(),
            "toggle tracing between operations only"
        );
        self.enabled = enabled;
    }

    pub fn open(&mut self, name: &'static str, op: u64) -> Open {
        let start = Instant::now();
        let slot = self.enabled.then(|| {
            let slot = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_us: (start - self.epoch).as_secs_f64() * 1e6,
                end_us: f64::NAN,
                parent: self.stack.last().copied(),
                op,
            });
            self.stack.push(slot);
            slot
        });
        Open { start, slot }
    }

    /// Close the innermost open span and return how long it was open.
    pub fn close(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(slot) = open.slot {
            assert_eq!(self.stack.pop(), Some(slot), "spans close innermost first");
            self.spans[slot as usize].end_us = (end - self.epoch).as_secs_f64() * 1e6;
        }
        end - open.start
    }

    /// Time one call into a layer as a leaf span.
    pub fn call<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.open(name, op);
        let out = f();
        (out, self.close(open))
    }

    /// Append another recorder's finished spans (a client thread's).
    pub fn absorb(&mut self, other: Recorder) {
        assert!(other.stack.is_empty(), "absorbed recorder has open spans");
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span name: how many, their total time, and their *self* time —
    /// the span minus the part its direct children cover.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p as usize] += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_us) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_us += s.end_us - s.start_us;
            t.self_us += s.end_us - s.start_us - children;
        }
        out
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let by_name = self
            .by_name()
            .into_iter()
            .map(|(name, t)| {
                Json::obj([
                    ("name", Json::str(name)),
                    ("count", Json::Num(t.count as f64)),
                    ("total_ms", Json::Num(t.total_us / 1e3)),
                    ("self_ms", Json::Num(t.self_us / 1e3)),
                ])
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .take(MAX_SPANS_WRITTEN)
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_us", Json::Num(s.start_us)),
                    ("end_us", Json::Num(s.end_us)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op", Json::Num(s.op as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("spans_recorded", Json::Num(self.spans.len() as f64)),
            (
                "spans_written",
                Json::Num(self.spans.len().min(MAX_SPANS_WRITTEN) as f64),
            ),
            ("by_name", Json::Arr(by_name)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut rec = Recorder::new(true);
        let outer = rec.open("outer", 7);
        let (_, a) = rec.call("inner", 7, || std::thread::sleep(Duration::from_millis(2)));
        let (_, b) = rec.call("inner", 7, || std::thread::sleep(Duration::from_millis(2)));
        let total = rec.close(outer);
        let by = rec.by_name();
        assert_eq!(by["inner"].count, 2);
        assert_eq!(by["outer"].count, 1);
        let children = (a + b).as_secs_f64() * 1e6;
        assert!((by["inner"].total_us - children).abs() < 50.0);
        assert!((by["outer"].self_us - (total.as_secs_f64() * 1e6 - children)).abs() < 50.0);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[1].op, 7);
    }

    #[test]
    fn disabled_recorder_still_times_but_stores_nothing() {
        let mut rec = Recorder::new(false);
        let (v, d) = rec.call("x", 0, || 41 + 1);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
        assert!(rec.by_name().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut main = Recorder::new(true);
        main.call("a", 0, || ());
        let mut thread = Recorder::with_epoch(true, main.epoch());
        let o = thread.open("req", 1);
        thread.call("query", 1, || ());
        thread.close(o);
        main.absorb(thread);
        assert_eq!(main.spans[2].parent, Some(1));
        assert_eq!(main.by_name()["req"].count, 1);
    }
}
