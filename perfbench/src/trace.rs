//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name (the layer entry point), a tag (the kernel), the
//! recording thread, its parent span, and start and end offsets from one
//! shared epoch. Spans stay in memory and are written once, at exit. No
//! span is recorded inside the program under test.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub tag: &'static str,
    pub thread: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span recorder. While off, `begin`/`end` record nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording; only between spans, so every span closes in
    /// the state it opened in.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracer switched inside a span");
        self.on = on;
    }

    pub fn begin(&mut self, name: &'static str, tag: &'static str) {
        if !self.on {
            return;
        }
        let now = self.now();
        self.spans.push(Span {
            name,
            tag,
            thread: self.thread,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now();
        let idx = self.open.pop().expect("span end without a begin");
        self.spans[idx].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, tag: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name, tag);
        let out = f();
        self.end();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "tracer dropped with open spans");
        self.spans
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Concatenates per-thread span lists, rebasing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals clipped to it.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Largest gap tolerated between an invoke's wall time and the sum of
/// the self times beneath it: 1 µs or 0.1% of the wall time.
pub fn sum_tolerance_ns(wall_ns: u64) -> u64 {
    (wall_ns / 1000).max(1_000)
}

/// Checks the trace: each span ends after it starts, lies inside its
/// parent on the parent's thread, and does not overlap its siblings;
/// every self time is non-negative; and for each root span named
/// `root`, the self times of it and all its descendants sum to its wall
/// time within [`sum_tolerance_ns`].
pub fn check(spans: &[Span], root: &str) -> Result<(), String> {
    let mut kids: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} `{}` ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let ps = spans.get(p).ok_or(format!("span {i} has no parent {p}"))?;
            if p >= i || ps.thread != s.thread {
                return Err(format!("span {i} `{}` has a foreign parent", s.name));
            }
            if s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                return Err(format!(
                    "span {i} `{}` leaves its parent `{}`",
                    s.name, ps.name
                ));
            }
            kids[p].push(i);
        }
    }
    for (p, list) in kids.iter().enumerate() {
        let mut list = list.clone();
        list.sort_by_key(|&i| spans[i].start_ns);
        for w in list.windows(2) {
            if spans[w[1]].start_ns < spans[w[0]].end_ns {
                return Err(format!("children of span {p} overlap"));
            }
        }
    }
    let selfs = self_ns(spans);
    // Sum of self times over each span's subtree, children before parents.
    let mut subtree: Vec<u64> = selfs.clone();
    for i in (0..spans.len()).rev() {
        if let Some(p) = spans[i].parent {
            subtree[p] += subtree[i];
        }
    }
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() && s.name == root {
            let gap = s.dur_ns().abs_diff(subtree[i]);
            if gap > sum_tolerance_ns(s.dur_ns()) {
                return Err(format!(
                    "span {i} `{root}`: self times sum to {} ns, wall is {} ns",
                    subtree[i],
                    s.dur_ns()
                ));
            }
        }
    }
    Ok(())
}

/// Per span name: (count, summed self time ns).
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
    }
    out
}

/// Durations in ms of the spans named `name`, grouped by tag.
pub fn durations_by_tag(spans: &[Span], name: &str) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        out.entry(s.tag).or_default().push(s.dur_ns() as f64 / 1e6);
    }
    out
}

/// Summed duration in ms of the spans named `name`.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .sum()
}

/// The span file: one JSON object per span, ids are array positions.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"tag\":\"{}\",\"thread\":{},\
             \"start_ns\":{},\"end_ns\":{}}}{}",
            s.name,
            s.tag,
            s.thread,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            tag: "k",
            thread: 0,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("invoke", None, 0, 10_000),
            span("exec.run", Some(0), 1_000, 7_000),
            span("check", Some(0), 7_000, 9_000),
        ];
        assert_eq!(self_ns(&spans), vec![2_000, 6_000, 2_000]);
        assert_eq!(check(&spans, "invoke"), Ok(()));
        let by = self_by_name(&spans);
        assert_eq!(by["exec.run"], (1, 6_000));
    }

    #[test]
    fn check_rejects_bad_nesting() {
        let escapes = vec![span("invoke", None, 0, 10), span("x", Some(0), 5, 20)];
        assert!(check(&escapes, "invoke").is_err());
        let overlap = vec![
            span("invoke", None, 0, 100),
            span("a", Some(0), 0, 60),
            span("b", Some(0), 50, 90),
        ];
        assert!(check(&overlap, "invoke").is_err());
    }

    #[test]
    fn recorder_nests_and_toggles() {
        let mut t = Tracer::new(true, Instant::now(), 3);
        t.span("invoke", "gemm", || {});
        t.begin("invoke", "gemm");
        t.span("exec.run", "gemm", || std::hint::black_box(1 + 1));
        t.end();
        t.set_on(false);
        t.span("invoke", "gemm", || {});
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].thread, 3);
        assert_eq!(check(&spans, "invoke"), Ok(()));
        let merged = merge(vec![spans.clone(), spans]);
        assert_eq!(merged[5].parent, Some(4));
        assert!(to_json(&merged).contains("\"parent\":4"));
    }
}
