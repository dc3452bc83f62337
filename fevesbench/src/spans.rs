//! In-memory spans for the traced run. Each span wraps one call the
//! benchmark makes into a layer; spans are kept in memory, per-layer
//! metrics are computed from them, and the whole set is written out once
//! when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Sequential id within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// `layer.operation`, e.g. `codec.me`.
    pub name: &'static str,
    /// Start, µs since the recorder was created.
    pub start_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
}

/// Span recorder.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// Empty recorder; time zero is now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Time `f` as span `name` under `parent`; returns its result and the
    /// span id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        self.push(name, parent, start, start.elapsed().as_secs_f64() * 1e6);
        (out, self.spans.len() as u64 - 1)
    }

    /// Record a span measured elsewhere; returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        dur_us: f64,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_us: start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us,
        });
        id
    }

    /// Durations of every span named `name`, ms.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us / 1e3)
            .collect()
    }

    /// Sum of the durations of `name` spans whose parent is `parent`, ms.
    pub fn child_ms(&self, parent: u64, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(|s| s.dur_us / 1e3)
            .sum()
    }

    /// All spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.1},\"dur_us\":{:.1}}}",
                s.id, s.name, s.start_us, s.dur_us
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregate() {
        let mut s = Spans::new();
        let ((), frame) = s.time("core.frame", None, || {});
        s.time("codec.me", Some(frame), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.time("codec.me", Some(frame), || {});
        assert_eq!(s.ms("codec.me").len(), 2);
        assert!(s.child_ms(frame, "codec.me") >= 2.0);
        let text = s.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }
}
