//! Message-sequence traces, rendered like the paper's Figure 1 ("A sample
//! execution of the discovery and update algorithm"): one column per node,
//! one row per message, arrows between columns.

use crate::message::SimTime;
use crate::session::SessionId;
use p2p_topology::NodeId;
use std::fmt::Write as _;

/// One traced message delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Delivery time.
    pub(crate) at: SimTime,
    /// Sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Message kind (e.g. `requestNodes`, `Query`, `Answer`).
    pub(crate) kind: &'static str,
    /// The update session the message belonged to (`None` for session-less
    /// control traffic) — the attribution multi-session drivers report from.
    pub session: Option<SessionId>,
}

/// A bounded in-memory trace. Disabled (capacity 0) by default in the
/// runtimes; experiments that need a Figure-1 diagram enable it.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    capacity: usize,
    overflowed: bool,
}

impl Trace {
    /// A trace retaining at most `capacity` entries; later entries are
    /// counted but discarded.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Trace {
            entries: Vec::new(),
            capacity,
            overflowed: false,
        }
    }

    /// True iff tracing is active.
    pub(crate) fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records an entry (no-op when disabled or full).
    pub(crate) fn record(&mut self, entry: TraceEntry) {
        if !self.enabled() {
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
        } else {
            self.overflowed = true;
        }
    }

    /// Recorded entries, in delivery order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Whether entries were discarded.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Renders a Figure-1 style sequence diagram over the given columns.
    /// Nodes not listed are skipped (their messages are omitted).
    pub fn render_sequence_diagram(&self, columns: &[NodeId]) -> String {
        const COL_WIDTH: usize = 16;
        let mut out = String::new();
        // Header: `:A              :B              :C …`
        for n in columns {
            let label = format!(":{}", n.letter());
            let _ = write!(out, "{label:<COL_WIDTH$}");
        }
        out.push('\n');
        for _ in columns {
            let _ = write!(out, "{:<COL_WIDTH$}", "|");
        }
        out.push('\n');

        let pos = |n: NodeId| columns.iter().position(|c| *c == n);
        for e in &self.entries {
            let (Some(a), Some(b)) = (pos(e.from), pos(e.to)) else {
                continue;
            };
            let (lo, hi) = (a.min(b), a.max(b));
            let right = b >= a;
            // Build one text row: pipes in every column, an arrow spanning
            // lo..hi labelled with the kind.
            let mut row = vec![b' '; COL_WIDTH * columns.len()];
            for (i, _) in columns.iter().enumerate() {
                row[i * COL_WIDTH] = b'|';
            }
            let start = lo * COL_WIDTH;
            let end = hi * COL_WIDTH;
            if start == end {
                // Self-message: mark with `o`.
                row[start] = b'o';
            } else {
                for cell in row.iter_mut().take(end).skip(start + 1) {
                    *cell = b'-';
                }
                if right {
                    row[end] = b'>';
                    row[start] = b'|';
                } else {
                    row[start] = b'<';
                    row[end] = b'|';
                }
            }
            let mut line = String::from_utf8(row).expect("ascii");
            // Splice the kind into the middle of the arrow.
            let label = e.kind;
            let span = end.saturating_sub(start);
            if span > label.len() + 2 {
                let at = start + 1 + (span - label.len()) / 2;
                line.replace_range(at..at + label.len(), label);
            } else {
                let _ = write!(line, "  {label}");
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        if self.overflowed {
            let _ = writeln!(out, "... (trace truncated)");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(from: u32, to: u32, kind: &'static str) -> TraceEntry {
        TraceEntry {
            at: SimTime(0),
            from: NodeId(from),
            to: NodeId(to),
            kind,
            session: None,
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::default();
        assert!(!t.enabled());
        t.record(entry(0, 1, "Query"));
        assert!(t.entries().is_empty());
    }

    #[test]
    fn capacity_limits_and_flags_overflow() {
        let mut t = Trace::with_capacity(2);
        t.record(entry(0, 1, "a"));
        t.record(entry(1, 0, "b"));
        t.record(entry(0, 1, "c"));
        assert_eq!(t.entries().len(), 2);
        assert!(t.overflowed());
    }

    #[test]
    fn diagram_has_header_and_arrows() {
        let mut t = Trace::with_capacity(16);
        t.record(entry(0, 1, "requestNodes"));
        t.record(entry(1, 0, "Answer"));
        let d = t.render_sequence_diagram(&[NodeId(0), NodeId(1)]);
        assert!(d.starts_with(":A"));
        assert!(d.contains(":B"));
        assert!(d.contains("requestNodes"));
        assert!(d.contains("Answer"));
        assert!(d.contains('>'));
        assert!(d.contains('<'));
    }

    #[test]
    fn messages_to_unlisted_nodes_are_skipped() {
        let mut t = Trace::with_capacity(16);
        t.record(entry(0, 9, "x"));
        let d = t.render_sequence_diagram(&[NodeId(0), NodeId(1)]);
        assert!(!d.contains('x'));
    }

    #[test]
    fn long_span_centers_label() {
        let mut t = Trace::with_capacity(4);
        t.record(entry(0, 3, "Query"));
        let d = t.render_sequence_diagram(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert!(d.contains("Query"));
        assert!(d.contains("--"));
    }
}
