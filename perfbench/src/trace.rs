//! In-memory spans recorded around the calls into each layer, written out
//! when the run ends.  A span's self time is its duration minus the part
//! its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Per-name totals: count, total ms, self ms.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        op: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose end is filled in by [`close`](Self::close), so
    /// children can name it as their parent while it runs.
    pub fn open(&mut self, name: &'static str, parent: u32, op: u64) -> u32 {
        let now = Instant::now();
        self.record(name, now, now, parent, op)
    }

    pub fn close(&mut self, id: u32) {
        let end = self.ns(Instant::now());
        self.spans[id as usize].end_ns = end;
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, start, Instant::now(), parent, op);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ms[s.parent as usize] += s.ms();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ms) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ms += s.ms();
            t.self_ms += s.ms() - c;
        }
        out
    }

    /// Writes one tab-separated line per span: id, name, start, end,
    /// parent (-1 for none), op.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\top")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let ms = |x: u64| t0 + Duration::from_millis(x);
        let mut tr = Tracer::new(t0);
        let root = tr.record("solve", ms(0), ms(10), NO_PARENT, 1);
        tr.record("reduce", ms(0), ms(3), root, 1);
        tr.record("alg2", ms(3), ms(8), root, 1);
        let t = tr.totals();
        assert_eq!(t["solve"].count, 1);
        assert!((t["solve"].total_ms - 10.0).abs() < 1e-9);
        assert!((t["solve"].self_ms - 2.0).abs() < 1e-9);
        assert!((t["alg2"].self_ms - 5.0).abs() < 1e-9);
        assert_eq!(tr.durations("reduce").len(), 1);
    }
}
