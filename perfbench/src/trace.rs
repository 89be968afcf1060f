//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, start and end (ns since the tracer's epoch), the
//! span that caused it, and the request it belongs to. Spans stay in
//! memory while the load runs and are written out once at the end. A
//! disabled tracer records nothing and never reads the clock, which is
//! what the untraced end-to-end runs use.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds of `at` since the epoch.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index (usable as a
    /// parent); `ROOT` when disabled.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        request: u64,
    ) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span buffers, rebasing parent indices.
pub fn merge(buffers: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::with_capacity(buffers.iter().map(Vec::len).sum());
    for buf in buffers {
        let base = all.len() as u32;
        all.extend(buf.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }
    all
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover (overlapping children count once,
/// parts of a child outside the parent not at all).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Writes spans as tab-separated lines with their self time.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "index\trequest\tname\tstart_ns\tend_ns\tparent\tself_ns"
    )?;
    for (i, (s, own)) in spans.iter().zip(&selfs).enumerate() {
        let parent = if s.parent == ROOT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{}\t{parent}\t{own}",
            s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 100, ROOT),
            span("a", 10, 30, 0),
            span("b", 20, 50, 0),  // overlaps a: union 10..50 = 40
            span("c", 90, 120, 0), // sticks out of the parent: counts 10
            span("leaf", 12, 18, 1),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, false);
        assert_eq!(t.record("x", epoch, epoch, ROOT, 1), ROOT);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![span("r", 0, 10, ROOT), span("c", 1, 2, 0)];
        let b = vec![span("r", 0, 10, ROOT), span("c", 1, 2, 0)];
        let all = merge(vec![a, b]);
        assert_eq!(all[3].parent, 2);
        assert_eq!(all[2].parent, ROOT);
    }
}
