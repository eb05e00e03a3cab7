//! Host-time spans around the benchmark's calls into the program.
//!
//! A span names one public call (`KvService::submit_as`,
//! `System::run`, ...), its host start and end relative to the
//! tracer's epoch, the batch it served and the pass span that caused
//! it. Spans stay in memory while the run measures and are written
//! out as JSON lines when it ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Shared by every span of one request batch (`0` outside batches).
    pub batch: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans when enabled; a disabled tracer only runs the call.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    next_id: u64,
    /// The span new spans are children of (a pass, or `0`).
    parent: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            next_id: 1,
            parent: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; spans already recorded are kept.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn call<T>(&mut self, name: &'static str, batch: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent: self.parent,
            name,
            batch,
            start_ns,
            end_ns,
        });
        out
    }

    /// Opens a pass span; calls recorded until [`Tracer::end_pass`]
    /// are its children.
    pub fn begin_pass(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.parent = id;
        if self.enabled {
            self.spans.push(Span {
                id,
                parent: 0,
                name: "pass",
                batch: 0,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
        }
        id
    }

    pub fn end_pass(&mut self, id: u64) {
        let now = self.now_ns();
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.end_ns = now;
        }
        self.parent = 0;
    }

    /// Mean host microseconds of the spans named `name` whose batch id
    /// is at least `min_batch`.
    pub fn mean_us_from(&self, name: &str, min_batch: u64) -> f64 {
        let (n, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.batch >= min_batch)
            .fold((0u64, 0u64), |(n, t), s| {
                (n + 1, t + (s.end_ns - s.start_ns))
            });
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e3
        }
    }

    /// Every span as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"batch\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.batch, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_and_still_calls() {
        let mut t = Tracer::new(false);
        assert_eq!(t.call("x", 1, || 7), 7);
        assert!(t.to_json_lines().is_empty());
    }

    #[test]
    fn spans_nest_under_their_pass_and_share_batch_ids() {
        let mut t = Tracer::new(true);
        let pass = t.begin_pass();
        t.call("KvService::submit_as", 3, || ());
        t.call("KvService::submit_as", 3, || ());
        t.end_pass(pass);
        let lines = t.to_json_lines();
        assert_eq!(lines.lines().count(), 3);
        assert_eq!(lines.matches(&format!("\"parent\":{pass}")).count(), 2);
        assert_eq!(lines.matches("\"batch\":3").count(), 2);
        assert!(t.mean_us_from("KvService::submit_as", 3) >= 0.0);
        assert_eq!(t.mean_us_from("KvService::submit_as", 4), 0.0);
    }
}
