//! In-memory spans around the benchmark's calls into each layer.
//!
//! A disabled tracer runs the wrapped closure and records nothing, so the
//! traced and untraced runs execute the same code. Spans nest through the
//! closure argument: a span opened inside another becomes its child. A
//! layer's self time is its span's duration minus the time its children
//! cover (children of one span never overlap — the benchmark is
//! single-threaded at the span level).

use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or phase name.
    pub name: &'static str,
    /// Start, seconds since the tracer was created.
    pub start: f64,
    /// End, seconds since the tracer was created.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (round, arrival or request) this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recorder; `on == false` makes every call a plain pass-through.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: crate::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn clock(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.clock();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.clock();
        out
    }

    /// Records a child of the innermost open span that ended now and
    /// lasted `seconds` — time measured by someone else (the daemon's
    /// handler time reported in its response).
    pub fn reported(&mut self, name: &'static str, seconds: f64) {
        if !self.on {
            return;
        }
        let end = self.clock();
        self.spans.push(Span {
            name,
            start: end - seconds,
            end,
            parent: self.open.last().copied(),
            op: self.op,
        });
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration();
            }
        }
        own
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Durations of every span called `name` inside a span called `root`.
    pub fn durations_in(&self, name: &str, root: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && self.has_ancestor(s, root))
            .map(Span::duration)
            .collect()
    }

    /// For each span called `root`, the total self time of its
    /// descendants called `name` (0 where it has none).
    pub fn self_time_per_root(&self, name: &str, root: &str) -> Vec<f64> {
        let own = self.self_times();
        let mut per_root: Vec<(usize, f64)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(i, _)| (i, 0.0))
            .collect();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            let mut cur = s.parent;
            while let Some(p) = cur {
                if self.spans[p].name == root {
                    if let Ok(k) = per_root.binary_search_by_key(&p, |&(r, _)| r) {
                        per_root[k].1 += own[i];
                    }
                    break;
                }
                cur = self.spans[p].parent;
            }
        }
        per_root.into_iter().map(|(_, v)| v).collect()
    }

    fn has_ancestor(&self, span: &Span, root: &str) -> bool {
        let mut cur = span.parent;
        while let Some(p) = cur {
            if self.spans[p].name == root {
                return true;
            }
            cur = self.spans[p].parent;
        }
        false
    }

    /// Share of the total duration of `root` spans that the self times of
    /// their descendants account for (1.0 means the children cover the
    /// whole root; the rest is untraced glue).
    pub fn accounted_share(&self, root: &str) -> f64 {
        let own = self.self_times();
        let total: f64 = self
            .spans
            .iter()
            .filter(|s| s.name == root)
            .map(Span::duration)
            .sum();
        let covered: f64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| self.has_ancestor(s, root))
            .map(|(i, _)| own[i])
            .sum();
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }

    /// Writes the spans as JSON lines.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            )?;
        }
        out.flush()
    }
}

/// Writes a traced run's spans to `<args.spans>/<workload>-<seed>.jsonl`.
pub fn save(tracer: &Tracer, args: &crate::Args) -> Result<(), String> {
    let Some(dir) = &args.spans else {
        return Ok(());
    };
    let path = std::path::Path::new(dir).join(format!("{}-{}.jsonl", args.workload, args.seed));
    tracer
        .write_to(&path)
        .map_err(|e| format!("writing spans to {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("round", |t| {
            t.span("a", |t| t.reported("inner", 0.0));
            t.span("b", |_| ());
        });
        let own = t.self_times();
        let total: f64 = own.iter().sum();
        assert!((total - t.spans()[0].duration()).abs() < 1e-9);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(1));
        assert!(t.accounted_share("round") <= 1.0 + 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", |t| t.span("y", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
