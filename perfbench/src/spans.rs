//! In-memory span recording around the benchmark's calls into the
//! workspace, and the self-time ledger built from the spans.
//!
//! A span is one timed call: a name (`"<layer>::<call>"`), a label (the
//! predictor, spec or request it ran), a start and end on the run's clock,
//! and the span that was open when it started. Spans are kept in memory and
//! written out when the run ends. A span's self time is its duration minus
//! the part its children cover; the self time of a root span (one timed
//! pass) is time no layer accounts for.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `"<layer>::<call>"`, or `"pass::<path>"` for a timed pass.
    pub name: &'static str,
    /// What the call ran (predictor, spec, request).
    pub label: String,
    /// The recording thread's index.
    pub thread: u32,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer the span belongs to: the name up to the first `::`.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split("::").next().unwrap_or(self.name)
    }
}

/// A span recorder for one thread. When disabled, [`Recorder::span`] only
/// runs its closure: no clock reads, nothing stored.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder on `origin`'s clock; `enabled` selects the traced run.
    #[must_use]
    pub fn new(enabled: bool, origin: Instant, thread: u32) -> Self {
        Self {
            enabled,
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, labelled by `label()` (only
    /// evaluated when recording).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        label: impl FnOnce() -> String,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            label: label(),
            thread: self.thread,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// The spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends spans another thread recorded on the same clock.
    pub fn absorb(&mut self, more: Vec<Span>) {
        merge(&mut self.spans, more);
    }

    /// Hands over the recorded spans, leaving the recorder empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Appends `more` to `all`, shifting parent indices to their new places.
pub fn merge(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let c = &spans[k];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Where a set of timed passes spent its time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    /// Total duration of the pass (root) spans: the end-to-end time.
    pub e2e_ns: u64,
    /// Self time per layer, over every span below a pass root.
    pub layers: BTreeMap<&'static str, u64>,
    /// Self time of the pass roots themselves: time no layer accounts for.
    pub unattributed_ns: u64,
}

impl Ledger {
    /// The ledger of the pass roots named `root` and everything below them.
    #[must_use]
    pub fn of(spans: &[Span], root: &str) -> Self {
        let selfs = self_times(spans);
        let mut under = vec![false; spans.len()];
        let mut ledger = Self::default();
        for (i, s) in spans.iter().enumerate() {
            // Parents precede children, so one forward sweep marks every
            // descendant of a matching root.
            under[i] = match s.parent {
                None => s.name == root,
                Some(p) => under[p],
            };
            if !under[i] {
                continue;
            }
            if s.parent.is_none() {
                ledger.e2e_ns += s.duration_ns();
                ledger.unattributed_ns += selfs[i];
            } else {
                *ledger.layers.entry(s.layer()).or_default() += selfs[i];
            }
        }
        ledger
    }

    /// Layer self times plus the unattributed remainder.
    #[cfg(test)]
    #[must_use]
    pub fn accounted_ns(&self) -> u64 {
        self.layers.values().sum::<u64>() + self.unattributed_ns
    }
}

/// Total duration and count of the spans named `name`, per label.
#[must_use]
pub fn by_label(spans: &[Span], name: &str) -> BTreeMap<String, (u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        let e = out.entry(s.label.clone()).or_default();
        e.0 += s.duration_ns();
        e.1 += 1;
    }
    out
}

/// Total duration of the spans named `name`.
#[must_use]
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// Renders spans as tab-separated lines (`id parent thread name label
/// start_ns end_ns`), the format written when a traced run ends.
#[must_use]
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\tthread\tname\tlabel\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
            s.thread, s.name, s.label, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, thread: u32, a: u64, b: u64) -> Span {
        Span {
            name,
            label: String::new(),
            thread,
            parent,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("pass::x", None, 0, 0, 100),
            span("replay::a", Some(0), 0, 10, 40),
            span("sim::b", Some(0), 0, 30, 60), // overlaps the first child
            span("bptrace::c", Some(1), 0, 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 30, 5]);
    }

    #[test]
    fn layer_self_times_and_unattributed_add_up_to_e2e() {
        // Two pass roots on two threads, nested calls, and a span outside
        // any pass that must not be counted.
        let spans = vec![
            span("pass::serve", None, 0, 0, 1_000),
            span("serve::round_trip", Some(0), 0, 100, 400),
            span("serve::round_trip", Some(0), 0, 450, 900),
            span("pass::serve", None, 1, 5, 990),
            span("serve::round_trip", Some(3), 1, 10, 980),
            span("store::get", Some(4), 1, 20, 30),
            span("setup::bind", None, 0, 2_000, 2_500),
        ];
        let ledger = Ledger::of(&spans, "pass::serve");
        assert_eq!(ledger.e2e_ns, 1_000 + 985);
        assert_eq!(ledger.accounted_ns(), ledger.e2e_ns);
        assert_eq!(ledger.unattributed_ns, 250 + 15);
        assert_eq!(ledger.layers["store"], 10);
        assert_eq!(ledger.layers["serve"], 300 + 450 + 960);
    }

    #[test]
    fn recorder_nests_and_merge_shifts_parents() {
        let origin = Instant::now();
        let mut rec = Recorder::new(true, origin, 0);
        rec.span("pass::t", String::new, |r| {
            r.span("replay::a", || "x".into(), |_| {});
        });
        let first = rec.take();
        assert_eq!(first[1].parent, Some(0));
        let mut all = vec![span("pass::u", None, 1, 0, 1)];
        merge(&mut all, first);
        assert_eq!(all[2].parent, Some(1));
        assert_eq!(all[2].label, "x");
        let ledger = Ledger::of(&all, "pass::t");
        assert_eq!(ledger.accounted_ns(), ledger.e2e_ns);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false, Instant::now(), 0);
        let v = rec.span("replay::a", || unreachable!(), |_| 7);
        assert_eq!(v, 7);
        assert!(rec.take().is_empty());
    }
}
