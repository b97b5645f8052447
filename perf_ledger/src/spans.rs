//! The benchmark's own spans, recorded around its calls into the program.
//!
//! Spans stay in memory while a pass runs and are written out once it has
//! ended. Only the traced pass records them; in an untraced pass `begin`
//! returns at once and nothing is stored, so end-to-end numbers carry no
//! tracing cost.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Spans of one request (or one rep) share `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of a span that has begun; pass it back to [`Spans::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u32,
    parent: Option<u32>,
    request: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// The id child spans name as their parent.
    pub fn id(&self) -> Option<u32> {
        (self.id != 0).then_some(self.id)
    }
}

pub struct Spans {
    enabled: bool,
    origin: Instant,
    /// Last id handed out; ids start at 1 so that 0 can mean "not recorded".
    last_id: AtomicU32,
    done: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            last_id: AtomicU32::new(0),
            done: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &'static str, parent: Option<u32>, request: u64) -> Open {
        let mut open = Open {
            id: 0,
            parent,
            request,
            name,
            start_ns: 0,
        };
        if self.enabled {
            // Relaxed: the id only has to be unique.
            open.id = self.last_id.fetch_add(1, Ordering::Relaxed) + 1;
            open.start_ns = self.now_ns();
        }
        open
    }

    pub fn end(&self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.done.lock().expect("span store poisoned").push(Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Time `f` as a span.
    pub fn within<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, parent, request);
        let out = f();
        self.end(open);
        out
    }

    pub fn finished(&self) -> Vec<Span> {
        self.done.lock().expect("span store poisoned").clone()
    }

    /// One JSON object per line: name, start, end, parent, request id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.finished() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per span name: how many there were and their summed self time in
/// nanoseconds. A span's self time is its duration minus the part of its
/// interval that its child spans cover; overlapping children (two clients
/// under one pass) are counted once.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        let entry = out.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_child_cover() {
        let spans = [
            span(1, None, "request", 0, 100),
            span(2, Some(1), "post", 10, 40),
            span(3, Some(2), "connect", 10, 15),
            span(4, Some(2), "write", 15, 20),
            span(5, Some(1), "poll", 50, 70),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"], (1, 50));
        assert_eq!(t["post"], (1, 20));
        assert_eq!(t["connect"], (1, 5));
        assert_eq!(t["poll"], (1, 20));
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = [
            span(1, None, "window", 0, 100),
            span(2, Some(1), "request", 0, 60),
            span(3, Some(1), "request", 40, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t["window"], (1, 10));
        assert_eq!(t["request"], (2, 110));
    }

    #[test]
    fn child_outside_its_parent_is_clipped() {
        let spans = [span(1, None, "rep", 10, 20), span(2, Some(1), "run", 5, 30)];
        assert_eq!(self_times(&spans)["rep"], (1, 0));
    }

    #[test]
    fn disabled_store_records_nothing() {
        let spans = Spans::new(false);
        let open = spans.begin("rep", None, 0);
        assert_eq!(open.id(), None);
        spans.end(open);
        assert!(spans.finished().is_empty());
    }

    #[test]
    fn enabled_store_links_parent_and_child() {
        let spans = Spans::new(true);
        let rep = spans.begin("rep", None, 3);
        spans.within("build", rep.id(), 3, || ());
        spans.end(rep);
        let done = spans.finished();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].name, "build");
        assert_eq!(done[0].parent, Some(done[1].id));
        assert!(done[1].end_ns >= done[0].end_ns);
    }
}
