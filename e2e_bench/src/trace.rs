//! In-memory spans around calls the benchmark makes into each layer.
//!
//! A span has a name, an id, the id of the span that was open when it
//! began (its parent), and start/end offsets from the tracer's epoch.
//! Spans are printed as `S` lines when they close, so a parent process
//! keeps every finished span of a child that later crashes. Self time
//! is a span's duration minus the durations of its direct children.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub id: u64,
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }

    /// The wire form: `S <name> <id> <parent|-> <start_ns> <end_ns>`.
    pub fn line(&self) -> String {
        let parent = self.parent.map_or("-".to_string(), |p| p.to_string());
        format!(
            "S {} {} {} {} {}",
            self.name, self.id, parent, self.start_ns, self.end_ns
        )
    }

    /// Parse the wire form (without checking the leading tag's position
    /// in a larger stream).
    pub fn parse(line: &str) -> Option<Span> {
        let mut it = line.split(' ');
        if it.next()? != "S" {
            return None;
        }
        let name = it.next()?.to_string();
        let id = it.next()?.parse().ok()?;
        let parent = match it.next()? {
            "-" => None,
            p => Some(p.parse().ok()?),
        };
        let start_ns = it.next()?.parse().ok()?;
        let end_ns = it.next()?.parse().ok()?;
        Some(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        })
    }
}

/// A single-threaded span recorder. `begin` nests under the innermost
/// open span; `end` closes it and, when `emit` is set, prints its line.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    open: Vec<(u64, &'static str, u64)>,
    closed: Vec<Span>,
    emit: bool,
}

impl Tracer {
    pub fn new(emit: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: 1,
            open: Vec::new(),
            closed: Vec::new(),
            emit,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        let id = self.next_id;
        self.next_id += 1;
        let start = self.now_ns();
        self.open.push((id, name, start));
    }

    /// Close the innermost open span and return its duration in seconds.
    pub fn end(&mut self) -> f64 {
        let end_ns = self.now_ns();
        let Some((id, name, start_ns)) = self.open.pop() else {
            return 0.0;
        };
        let span = Span {
            name: name.to_string(),
            id,
            parent: self.open.last().map(|o| o.0),
            start_ns,
            end_ns,
        };
        if self.emit {
            let out = std::io::stdout();
            let mut out = out.lock();
            let _ = writeln!(out, "{}", span.line());
            let _ = out.flush();
        }
        let secs = span.secs();
        self.closed.push(span);
        secs
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }
}

/// Per span name: (count, total seconds, self seconds).
pub fn summarize(spans: &[Span]) -> BTreeMap<String, (u64, f64, f64)> {
    let mut child_secs: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_secs.entry(p).or_default() += s.secs();
        }
    }
    let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += s.secs();
        e.2 += (s.secs() - child_secs.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let spans = vec![
            Span {
                name: "outer".into(),
                id: 1,
                parent: None,
                start_ns: 0,
                end_ns: 1_000_000_000,
            },
            Span {
                name: "inner".into(),
                id: 2,
                parent: Some(1),
                start_ns: 100_000_000,
                end_ns: 400_000_000,
            },
        ];
        let s = summarize(&spans);
        assert_eq!(s["outer"].0, 1);
        assert!((s["outer"].2 - 0.7).abs() < 1e-9);
        assert!((s["inner"].2 - 0.3).abs() < 1e-9);
    }

    #[test]
    fn span_lines_round_trip() {
        let s = Span {
            name: "thermal.solve".into(),
            id: 7,
            parent: Some(3),
            start_ns: 10,
            end_ns: 25,
        };
        assert_eq!(Span::parse(&s.line()), Some(s.clone()));
        let root = Span { parent: None, ..s };
        assert_eq!(Span::parse(&root.line()), Some(root));
    }

    #[test]
    fn nested_begin_end_records_parents() {
        let mut t = Tracer::new(false);
        t.begin("a");
        t.time("b", || ());
        t.end();
        let spans = &t.closed;
        assert_eq!(spans[0].name, "b");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[1].parent, None);
    }
}
