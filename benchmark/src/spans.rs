//! Benchmark-side spans: one around every call into a layer's public
//! function, recorded from this crate (the engine is not touched). Kept in
//! memory during the run and written out at exit. A layer's self time is
//! its spans' durations minus the part their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub round: u32,
    pub step: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    pub recording: bool,
    pub round: u32,
    pub step: u32,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            recording: false,
            round: 0,
            step: 0,
        }
    }

    /// Runs `f` inside a span (when recording) and returns its result and
    /// wall time in seconds. The timing itself is the same two
    /// `Instant::now` calls whether or not a span is kept.
    pub fn call<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut SpanLog) -> R,
    ) -> (R, f64) {
        let id = self.recording.then(|| {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                layer,
                parent: self.stack.last().copied(),
                start_ns: 0,
                end_ns: 0,
                round: self.round,
                step: self.step,
            });
            self.stack.push(id);
            id
        });
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        if let Some(id) = id {
            self.stack.pop();
            let span = &mut self.spans[id as usize];
            span.start_ns = (start - self.epoch).as_nanos() as u64;
            span.end_ns = (end - self.epoch).as_nanos() as u64;
        }
        (out, (end - start).as_secs_f64())
    }

    /// Durations in milliseconds of every recorded span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time per layer in milliseconds, summed over all recorded spans.
    pub fn layer_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"layer\": \"{}\", \"round\": {}, \
                 \"step\": {}, \"start\": {}, \"end\": {}}}{comma}",
                s.name, s.layer, s.round, s.step, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}
