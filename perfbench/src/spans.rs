//! The traced run's span log: the benchmark's own spans around each
//! call it makes into a layer, kept in memory and written out once at
//! the end (JSON lines, one span per line).
//!
//! A span has a name, a start and an end (nanoseconds since the log's
//! epoch), the span that caused it (`parent`, 0 for roots) and the
//! id of the trial or request it belongs to (`trace`). A span's *self
//! time* is its duration minus the part of it that its children cover.

use std::io::{self, Write};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run (never 0).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Trial or request this span belongs to.
    pub trace: u64,
    /// Layer call the span brackets, e.g. `ring.build`.
    pub name: &'static str,
    /// Start, ns since the log epoch.
    pub start_ns: u64,
    /// End, ns since the log epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer. Ids are `thread << 40 | counter`, so the
/// buffers of several threads merge without collisions.
pub struct SpanLog {
    epoch: Instant,
    next: u64,
    spans: Vec<Span>,
}

/// Handle of an open span (index into the log).
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

impl SpanLog {
    /// An empty buffer for worker `thread`, timing against `epoch`.
    pub fn new(epoch: Instant, thread: u64) -> Self {
        SpanLog {
            epoch,
            next: (thread << 40) + 1,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: u64, trace: u64) -> Open {
        let id = self.next;
        self.next += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Open(self.spans.len() - 1)
    }

    /// Id of an open span (to parent its children).
    pub fn id(&self, open: Open) -> u64 {
        self.spans[open.0].id
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[open.0];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Records a span measured elsewhere (e.g. a client round trip).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        trace: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.next;
        self.next += 1;
        let ns = |t: Instant| u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(0);
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, index-aligned with `spans`: its duration
/// minus the union of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut by_id: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_id.insert(s.id, i);
    }
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = by_id.get(&s.parent) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered.min(span.duration_ns())
        })
        .collect()
}

/// Writes the spans as JSON lines with their self times.
pub fn write_jsonl(w: &mut dyn Write, spans: &[Span]) -> io::Result<()> {
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            span.id, span.parent, span.trace, span.name, span.start_ns, span.end_ns, self_ns
        )?;
    }
    Ok(())
}

/// Per-name totals: `(name, count, total ns, self ns)`, sorted by self
/// time, largest first.
pub fn summary(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        match rows.iter_mut().find(|r| r.0 == span.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += span.duration_ns();
                row.3 += self_ns;
            }
            None => rows.push((span.name, 1, span.duration_ns(), self_ns)),
        }
    }
    rows.sort_by_key(|r| std::cmp::Reverse(r.3));
    rows
}

/// Durations (ms) of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_on_a_hand_built_tree() {
        // root [0, 100) with children [10, 30) and [25, 60) (overlapping:
        // union is [10, 60) = 50) and a child sticking out past the root
        // [90, 120) (clipped to 10); grandchild [12, 20) under the first
        // child only.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 25, 60),
            span(4, 1, 90, 120),
            span(5, 2, 12, 20),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 20 - 8, 35, 30, 8]);
    }

    #[test]
    fn spans_of_two_threads_do_not_collide() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch, 0);
        let mut b = SpanLog::new(epoch, 1);
        let root = a.begin("root", 0, 7);
        let child = a.begin("child", a.id(root), 7);
        a.end(child);
        a.end(root);
        let other = b.begin("root", 0, 8);
        b.end(other);
        let mut spans = a.into_spans();
        spans.extend(b.into_spans());
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
        assert_eq!(spans[1].parent, spans[0].id);
        let mut out = Vec::new();
        write_jsonl(&mut out, &spans).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }
}
