//! The benchmark's own span recorder: one span around every call the
//! benchmark makes into a layer of the program. Spans stay in memory and
//! are summarised (and optionally written out) when the run ends. Nothing
//! here reaches inside the crates — spans inside the program are a later
//! change.

use std::io::Write;
use std::time::Instant;

use crate::stats;

/// "No span": the parent of a root span, and what a disabled recorder
/// hands out.
pub const NONE: u32 = u32::MAX;

/// One recorded interval.
pub struct Span {
    /// Which boundary: `"<layer>.<call>"`.
    pub name: &'static str,
    /// Start, ns since the recorder was made.
    pub start_ns: u64,
    /// End, ns since the recorder was made.
    pub end_ns: u64,
    /// The span that caused this one, or [`NONE`].
    pub parent: u32,
    /// The session the work was for, or [`NONE`] when it is shared.
    pub session: u32,
}

/// In-memory span store. While disabled, `begin`/`end` read no clock and
/// store nothing, so traced and untraced rounds run the same code.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Whether spans are being recorded right now.
    pub enabled: bool,
}

/// Per-name roll-up of the recorded spans.
pub struct SpanSummary {
    /// Span name.
    pub name: &'static str,
    /// How many were recorded.
    pub count: usize,
    /// Summed duration, µs.
    pub total_us: f64,
    /// Summed duration minus the part child spans cover, µs.
    pub self_us: f64,
    /// Median duration, µs.
    pub p50_us: f64,
    /// 99th-percentile duration, µs.
    pub p99_us: f64,
}

impl Recorder {
    /// A recorder, initially disabled.
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new(), enabled: false }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id for [`end`](Self::end) and for use as
    /// a child's `parent`.
    pub fn begin(&mut self, name: &'static str, parent: u32, session: u32) -> u32 {
        if !self.enabled {
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, session });
        (self.spans.len() - 1) as u32
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, id: u32) {
        if id != NONE {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Names the session a span turned out to be for (a `poll` learns it
    /// only from its return value).
    pub fn set_session(&mut self, id: u32, session: u32) {
        if id != NONE {
            self.spans[id as usize].session = session;
        }
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Roll-up per span name, in first-seen order. A span's self time is
    /// its duration minus the part of it its child spans cover.
    pub fn summary(&self) -> Vec<SpanSummary> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                let mut durations = Vec::new();
                let mut self_ns = 0u64;
                for (s, &covered) in self.spans.iter().zip(&child_ns) {
                    if s.name == name {
                        let d = s.end_ns - s.start_ns;
                        durations.push(d as f64 / 1e3);
                        self_ns += d.saturating_sub(covered);
                    }
                }
                stats::sort(&mut durations);
                SpanSummary {
                    name,
                    count: durations.len(),
                    total_us: durations.iter().sum(),
                    self_us: self_ns as f64 / 1e3,
                    p50_us: stats::percentile(&durations, 50.0),
                    p99_us: stats::percentile(&durations, 99.0),
                }
            })
            .collect()
    }

    /// Writes every span as one tab-separated line:
    /// `id name start_ns end_ns parent session` (`-` for none).
    pub fn write_tsv(&self, out: &mut dyn Write) -> std::io::Result<()> {
        let opt = |v: u32| if v == NONE { "-".to_string() } else { v.to_string() };
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tsession")?;
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.session)
            )?;
        }
        Ok(())
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut rec = Recorder::new();
        let id = rec.begin("x", NONE, NONE);
        rec.end(id);
        assert_eq!(id, NONE);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new();
        rec.enabled = true;
        let wave = rec.begin("wave", NONE, NONE);
        let poll = rec.begin("poll", wave, NONE);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.set_session(poll, 7);
        rec.end(poll);
        rec.end(wave);
        let sum = rec.summary();
        assert_eq!(sum[0].name, "wave");
        assert_eq!(sum[1].name, "poll");
        assert!(sum[1].total_us >= 2_000.0);
        assert!(sum[0].self_us <= sum[0].total_us - sum[1].total_us + 1.0);
        assert_eq!(rec.spans()[1].session, 7);
        let mut tsv = Vec::new();
        rec.write_tsv(&mut tsv).unwrap();
        assert_eq!(String::from_utf8(tsv).unwrap().lines().count(), 3);
    }
}
