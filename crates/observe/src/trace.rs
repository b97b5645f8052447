//! Per-task causal tracing: a compact [`TraceCtx`] that travels with a task
//! through every layer, and a [`CriticalPath`] aggregator that rolls the
//! per-task hop timelines into the paper's Fig. 7-style per-stage residency
//! decomposition.
//!
//! A `TraceCtx` is the task's uid plus an append-only list of hops, each a
//! `(component, state, t_ns)` triple stamped when the task crosses a
//! component boundary (Enqueue → pending queue → Emgr → RTS submit → agent
//! execute → callback → Dequeue → Sync). It rides along as a broker message
//! header ([`TRACE_HEADER`]) and as a field on RTS unit documents, so any
//! single task can answer "where did my time go" without correlating the
//! global event stream.
//!
//! All hop timestamps are nanoseconds on the owning [`crate::Recorder`]'s
//! clock (`Recorder::now_ns`), the same clock the event stream uses — which
//! is what makes the aggregate cross-checkable against
//! `OverheadReport::from_trace`.

use std::fmt::Write as _;

/// Broker message header key carrying an encoded [`TraceCtx`].
pub const TRACE_HEADER: &str = "entk-trace";

/// Canonical hop state names, one per pipeline boundary, centralized so
/// every layer (entk-core, rp-rts) agrees on spelling and the
/// [`CriticalPath`] segments line up across runs.
pub mod hops {
    /// Enqueue tagged the task and published it to the Pending queue.
    pub const ENQUEUE: &str = "enqueue";
    /// The Emgr pulled the task's message off the Pending queue.
    pub const EMGR_DEQUEUE: &str = "emgr_dequeue";
    /// The Emgr handed the task's unit to the RTS (`submit_units`).
    pub const RTS_SUBMIT: &str = "rts_submit";
    /// The agent started executing the unit.
    pub const AGENT_START: &str = "agent_start";
    /// The unit reached a terminal state on the agent.
    pub const AGENT_END: &str = "agent_end";
    /// The RTS Callback thread received the terminal callback.
    pub const CALLBACK: &str = "callback";
    /// Dequeue took up the attempt's outcome (on the RTS Callback thread,
    /// right after the callback hop).
    pub const DEQUEUE: &str = "dequeue";
    /// The Synchronizer applied the attempt's settling transition.
    pub const SYNCED: &str = "synced";

    // Wire-side hops, stamped before the task pipeline begins. The gateway
    // and service prepend these to every task timeline of a submission, so
    // the CriticalPath decomposition extends from the client's TCP write to
    // the synced state while the consecutive-pair stage sum still equals
    // first-hop → last-hop by construction.

    /// The gateway read the request head off the socket.
    pub const WIRE_RECV: &str = "wire_recv";
    /// The gateway finished decoding the submit body into a WorkflowSpec.
    pub const PARSED: &str = "parsed";
    /// The service's admission control accepted the submission.
    pub const ADMITTED: &str = "admitted";
    /// The service's admission control rejected the submission (saturated /
    /// draining). Terminal for the wire trace — no task hops follow.
    pub const SHED: &str = "shed";
    /// The durable submissions journal appended (and flushed) the record.
    pub const JOURNAL_APPENDED: &str = "journal_appended";
}

/// Parse a W3C `traceparent` header, returning the 32-hex-digit trace id.
///
/// Accepts `<2 hex version>-<32 hex trace-id>-<16 hex parent-id>-<2 hex
/// flags>`; rejects the all-zero trace id, the reserved version `ff`, and
/// anything structurally off. Uppercase hex is rejected per spec.
pub fn parse_traceparent(header: &str) -> Option<String> {
    fn lower_hex(s: &str) -> bool {
        !s.is_empty()
            && s.bytes()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    }
    let mut parts = header.trim().split('-');
    let (version, trace_id, parent_id, flags) =
        (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
    if version.len() != 2 || !lower_hex(version) || version == "ff" {
        return None;
    }
    // Version 00 has exactly four fields; future versions may append more.
    if version == "00" && parts.next().is_some() {
        return None;
    }
    if trace_id.len() != 32 || !lower_hex(trace_id) || trace_id.bytes().all(|b| b == b'0') {
        return None;
    }
    if parent_id.len() != 16 || !lower_hex(parent_id) || parent_id.bytes().all(|b| b == b'0') {
        return None;
    }
    if flags.len() != 2 || !lower_hex(flags) {
        return None;
    }
    Some(trace_id.to_string())
}

/// Render a version-00 `traceparent` for `trace_id` (32 lowercase hex
/// digits), with a parent span id derived from the trace id. Used to echo
/// the accepted trace back to the client.
pub fn format_traceparent(trace_id: &str) -> String {
    // Derive a non-zero parent id by hashing the trace id; the exact value
    // only needs to be well-formed, not coordinated.
    let span = splitmix64(fnv64(trace_id.as_bytes())).max(1);
    format!("00-{trace_id}-{span:016x}-01")
}

/// Generate a fresh 32-hex-digit trace id. Deterministically mixes the
/// caller's seed (e.g. a submission counter) with wall-clock nanoseconds,
/// so concurrent gateways produce distinct ids without a rand dependency.
pub fn generate_trace_id(seed: u64) -> String {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let hi = splitmix64(now ^ seed.rotate_left(32));
    let mut lo = splitmix64(hi ^ seed);
    if hi == 0 && lo == 0 {
        lo = 1; // the all-zero trace id is invalid per spec
    }
    format!("{hi:016x}{lo:016x}")
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One boundary crossing: which component, which boundary, when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// Component that stamped the hop (see [`crate::components`]).
    pub component: String,
    /// Boundary name (see [`hops`]).
    pub state: String,
    /// Nanoseconds on the run's trace clock.
    pub t_ns: u64,
}

/// Compact causal trace of one task attempt.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// Task uid the trace belongs to.
    pub uid: String,
    /// Distributed trace id (32 lowercase hex digits) when the task belongs
    /// to a wire-submitted workflow; `None` for in-process submissions.
    /// Every task of one submission shares the submission's trace id.
    pub trace_id: Option<String>,
    /// Boundary crossings in stamp order.
    pub hops: Vec<Hop>,
}

/// Escape the wire-format delimiters (`%`, `|`, `;`, `:`, `@`) in a field.
fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            '|' => out.push_str("%7C"),
            ';' => out.push_str("%3B"),
            ':' => out.push_str("%3A"),
            '@' => out.push_str("%40"),
            _ => out.push(c),
        }
    }
}

/// Undo [`escape`]. Invalid escapes pass through verbatim.
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() + 1 && i + 3 <= bytes.len() {
            match &s[i + 1..i + 3] {
                "25" => out.push('%'),
                "7C" => out.push('|'),
                "3B" => out.push(';'),
                "3A" => out.push(':'),
                "40" => out.push('@'),
                _ => {
                    out.push('%');
                    i += 1;
                    continue;
                }
            }
            i += 3;
        } else {
            out.push(s.as_bytes()[i] as char);
            i += 1;
        }
    }
    out
}

impl TraceCtx {
    /// Fresh trace for one task attempt.
    pub fn new(uid: impl Into<String>) -> Self {
        TraceCtx {
            uid: uid.into(),
            trace_id: None,
            hops: Vec::new(),
        }
    }

    /// Attach the distributed trace id, builder-style.
    pub fn with_trace_id(mut self, trace_id: impl Into<String>) -> Self {
        self.trace_id = Some(trace_id.into());
        self
    }

    /// Seed a per-task trace from a submission-level wire trace: the new
    /// trace takes `uid`, inherits the base's trace id, and starts with a
    /// copy of the base's hops (wire_recv → … → journal_appended), so the
    /// task timeline extends from the client's TCP write and its
    /// consecutive-pair stage sum still equals first-hop → last-hop.
    pub fn from_base(uid: impl Into<String>, base: &TraceCtx) -> Self {
        TraceCtx {
            uid: uid.into(),
            trace_id: base.trace_id.clone(),
            hops: base.hops.clone(),
        }
    }

    /// Append a boundary crossing.
    pub fn hop(&mut self, component: &str, state: &str, t_ns: u64) {
        self.hops.push(Hop {
            component: component.to_string(),
            state: state.to_string(),
            t_ns,
        });
    }

    /// Builder-style [`TraceCtx::hop`].
    pub fn with_hop(mut self, component: &str, state: &str, t_ns: u64) -> Self {
        self.hop(component, state, t_ns);
        self
    }

    /// Timestamp of the first hop with the given boundary name.
    pub fn hop_t(&self, state: &str) -> Option<u64> {
        self.hops.iter().find(|h| h.state == state).map(|h| h.t_ns)
    }

    /// Nanoseconds from first to last hop (0 with fewer than two hops).
    pub fn total_ns(&self) -> u64 {
        match (self.hops.first(), self.hops.last()) {
            (Some(a), Some(b)) => b.t_ns.saturating_sub(a.t_ns),
            _ => 0,
        }
    }

    /// Wire format: `uid[@trace_id]|comp:state:t_ns;comp:state:t_ns;...`
    /// with the delimiters percent-escaped inside fields. Compact enough for
    /// a message header and stable across journal round-trips; the optional
    /// `@trace_id` segment keeps pre-existing encodings decodable.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(16 + self.hops.len() * 24);
        escape(&self.uid, &mut out);
        if let Some(id) = &self.trace_id {
            out.push('@');
            escape(id, &mut out);
        }
        out.push('|');
        for (i, h) in self.hops.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            escape(&h.component, &mut out);
            out.push(':');
            escape(&h.state, &mut out);
            let _ = write!(out, ":{}", h.t_ns);
        }
        out
    }

    /// Parse the wire format; `None` on malformed input.
    pub fn decode(s: &str) -> Option<TraceCtx> {
        let (head, rest) = s.split_once('|')?;
        let mut ctx = match head.split_once('@') {
            Some((uid, id)) => TraceCtx::new(unescape(uid)).with_trace_id(unescape(id)),
            None => TraceCtx::new(unescape(head)),
        };
        if rest.is_empty() {
            return Some(ctx);
        }
        for hop in rest.split(';') {
            let mut parts = hop.splitn(3, ':');
            let component = parts.next()?;
            let state = parts.next()?;
            let t_ns: u64 = parts.next()?.parse().ok()?;
            ctx.hops.push(Hop {
                component: unescape(component),
                state: unescape(state),
                t_ns,
            });
        }
        Some(ctx)
    }
}

/// Aggregated residency of one pipeline segment (the span between two
/// consecutive hops) across all tasks fed to a [`CriticalPath`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageResidency {
    /// Segment label, `"<from>-><to>"` in hop-state names.
    pub stage: String,
    /// Sum of the segment's per-task durations, nanoseconds.
    pub total_ns: u64,
    /// How many tasks contributed.
    pub count: u64,
    /// Largest single-task duration seen, nanoseconds.
    pub max_ns: u64,
}

impl StageResidency {
    /// Mean per-task residency in seconds.
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total_ns as f64 / self.count as f64 / 1e9
    }

    /// Total residency in seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// Rolls per-task hop timelines into a per-stage residency decomposition —
/// the Fig. 7 "where did the time go" answer, derived from the tasks
/// themselves instead of the global event stream.
///
/// Segments are labeled by their bounding hop states (first-seen order, i.e.
/// pipeline order). Per-state first/last timestamps are kept so windows like
/// *first agent_start → last agent_end* (the trace report's task-execution
/// makespan) can be compared against `OverheadReport::from_trace`.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    stages: Vec<StageResidency>,
    /// (state, min t_ns, max t_ns) over every hop with that state.
    state_bounds: Vec<(String, u64, u64)>,
    tasks: u64,
    total_ns: u64,
}

impl CriticalPath {
    /// Empty aggregate.
    pub fn new() -> Self {
        CriticalPath::default()
    }

    /// Fold one task's hop timeline in. Out-of-order stamps (clock skew
    /// between threads) contribute a zero-width segment rather than
    /// corrupting the totals.
    pub fn add(&mut self, ctx: &TraceCtx) {
        if ctx.hops.is_empty() {
            return;
        }
        self.tasks += 1;
        self.total_ns += ctx.total_ns();
        for h in &ctx.hops {
            match self.state_bounds.iter_mut().find(|(s, _, _)| *s == h.state) {
                Some((_, lo, hi)) => {
                    *lo = (*lo).min(h.t_ns);
                    *hi = (*hi).max(h.t_ns);
                }
                None => self.state_bounds.push((h.state.clone(), h.t_ns, h.t_ns)),
            }
        }
        for pair in ctx.hops.windows(2) {
            let label = format!("{}->{}", pair[0].state, pair[1].state);
            let d = pair[1].t_ns.saturating_sub(pair[0].t_ns);
            match self.stages.iter_mut().find(|s| s.stage == label) {
                Some(s) => {
                    s.total_ns += d;
                    s.count += 1;
                    s.max_ns = s.max_ns.max(d);
                }
                None => self.stages.push(StageResidency {
                    stage: label,
                    total_ns: d,
                    count: 1,
                    max_ns: d,
                }),
            }
        }
    }

    /// Merge another aggregate in (e.g. per-run aggregates into a
    /// service-lifetime one).
    pub fn merge(&mut self, other: &CriticalPath) {
        self.tasks += other.tasks;
        self.total_ns += other.total_ns;
        for (state, lo, hi) in &other.state_bounds {
            match self.state_bounds.iter_mut().find(|(s, _, _)| s == state) {
                Some((_, l, h)) => {
                    *l = (*l).min(*lo);
                    *h = (*h).max(*hi);
                }
                None => self.state_bounds.push((state.clone(), *lo, *hi)),
            }
        }
        for o in &other.stages {
            match self.stages.iter_mut().find(|s| s.stage == o.stage) {
                Some(s) => {
                    s.total_ns += o.total_ns;
                    s.count += o.count;
                    s.max_ns = s.max_ns.max(o.max_ns);
                }
                None => self.stages.push(o.clone()),
            }
        }
    }

    /// Number of hop timelines folded in.
    pub fn tasks(&self) -> u64 {
        self.tasks
    }

    /// Sum over tasks of first-hop → last-hop nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Segments in pipeline (first-seen) order.
    pub fn stages(&self) -> &[StageResidency] {
        &self.stages
    }

    /// One segment by label (`"enqueue->emgr_dequeue"` etc.).
    pub fn stage(&self, label: &str) -> Option<&StageResidency> {
        self.stages.iter().find(|s| s.stage == label)
    }

    /// Wall window in seconds from the earliest hop with state `from` to the
    /// latest hop with state `to` — e.g.
    /// `window_secs(hops::AGENT_START, hops::AGENT_END)` is the task
    /// execution makespan, directly comparable to the trace report's.
    pub fn window_secs(&self, from: &str, to: &str) -> Option<f64> {
        let lo = self
            .state_bounds
            .iter()
            .find(|(s, _, _)| s == from)
            .map(|(_, lo, _)| *lo)?;
        let hi = self
            .state_bounds
            .iter()
            .find(|(s, _, _)| s == to)
            .map(|(_, _, hi)| *hi)?;
        Some(hi.saturating_sub(lo) as f64 / 1e9)
    }

    /// Human-readable residency table.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "critical path over {} task timeline(s):", self.tasks);
        for s in &self.stages {
            let _ = writeln!(
                out,
                "  {:<28} total {:>12.6}s  mean {:>12.9}s  max {:>12.9}s  n={}",
                s.stage,
                s.total_secs(),
                s.mean_secs(),
                s.max_ns as f64 / 1e9,
                s.count
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let ctx = TraceCtx::new("task.0001")
            .with_hop("enq", hops::ENQUEUE, 10)
            .with_hop("emgr", hops::EMGR_DEQUEUE, 25)
            .with_hop("rts", hops::AGENT_START, 100);
        let enc = ctx.encode();
        assert_eq!(TraceCtx::decode(&enc), Some(ctx));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(TraceCtx::decode(""), None);
        assert_eq!(TraceCtx::decode("uid-without-bar"), None);
        assert_eq!(TraceCtx::decode("u|comp:state:notanumber"), None);
        assert_eq!(TraceCtx::decode("u|comp:state"), None);
    }

    #[test]
    fn empty_hops_roundtrip() {
        let ctx = TraceCtx::new("task.0002");
        assert_eq!(TraceCtx::decode(&ctx.encode()), Some(ctx));
    }

    #[test]
    fn delimiters_in_uid_survive() {
        let ctx = TraceCtx::new("weird|uid;with:stuff%").with_hop("c", "s", 1);
        let back = TraceCtx::decode(&ctx.encode()).expect("decodes");
        assert_eq!(back.uid, "weird|uid;with:stuff%");
        assert_eq!(back.hops, ctx.hops);
    }

    #[test]
    fn hop_queries() {
        let ctx = TraceCtx::new("t")
            .with_hop("a", "x", 5)
            .with_hop("b", "y", 17)
            .with_hop("c", "x", 40);
        assert_eq!(ctx.hop_t("x"), Some(5), "first match wins");
        assert_eq!(ctx.hop_t("y"), Some(17));
        assert_eq!(ctx.hop_t("nope"), None);
        assert_eq!(ctx.total_ns(), 35);
    }

    #[test]
    fn critical_path_aggregates_segments() {
        let mut cp = CriticalPath::new();
        for (base, exec) in [(0u64, 100u64), (50, 300)] {
            cp.add(
                &TraceCtx::new("t")
                    .with_hop("enq", hops::ENQUEUE, base)
                    .with_hop("rts", hops::AGENT_START, base + 10)
                    .with_hop("rts", hops::AGENT_END, base + 10 + exec),
            );
        }
        assert_eq!(cp.tasks(), 2);
        let seg = cp.stage("agent_start->agent_end").unwrap();
        assert_eq!(seg.count, 2);
        assert_eq!(seg.total_ns, 400);
        assert_eq!(seg.max_ns, 300);
        // Window: earliest start (10) to latest end (360).
        let w = cp.window_secs(hops::AGENT_START, hops::AGENT_END).unwrap();
        assert!((w - 350e-9).abs() < 1e-15);
        // Stage totals sum to the per-task end-to-end total.
        let sum: u64 = cp.stages().iter().map(|s| s.total_ns).sum();
        assert_eq!(sum, cp.total_ns());
    }

    #[test]
    fn critical_path_merge_combines() {
        let mut a = CriticalPath::new();
        a.add(
            &TraceCtx::new("t1")
                .with_hop("x", "s1", 0)
                .with_hop("y", "s2", 10),
        );
        let mut b = CriticalPath::new();
        b.add(
            &TraceCtx::new("t2")
                .with_hop("x", "s1", 5)
                .with_hop("y", "s2", 25),
        );
        a.merge(&b);
        assert_eq!(a.tasks(), 2);
        assert_eq!(a.stage("s1->s2").unwrap().total_ns, 30);
        assert_eq!(a.window_secs("s1", "s2"), Some(25e-9));
    }

    #[test]
    fn out_of_order_stamps_are_zero_width() {
        let mut cp = CriticalPath::new();
        cp.add(
            &TraceCtx::new("t")
                .with_hop("a", "s1", 100)
                .with_hop("b", "s2", 40),
        );
        assert_eq!(cp.stage("s1->s2").unwrap().total_ns, 0);
    }

    #[test]
    fn trace_id_roundtrips_and_legacy_encodings_decode() {
        let ctx = TraceCtx::new("task.0001")
            .with_trace_id("4bf92f3577b34da6a3ce929d0e0e4736")
            .with_hop("gw", hops::WIRE_RECV, 5)
            .with_hop("enq", hops::ENQUEUE, 10);
        let back = TraceCtx::decode(&ctx.encode()).expect("decodes");
        assert_eq!(back, ctx);
        // Pre-trace-id encodings (no '@' segment) still decode.
        let legacy = TraceCtx::decode("task.0002|enq:enqueue:7").unwrap();
        assert_eq!(legacy.trace_id, None);
        assert_eq!(legacy.uid, "task.0002");
        // A literal '@' in the uid survives via escaping.
        let weird = TraceCtx::new("u@x").with_hop("c", "s", 1);
        assert_eq!(TraceCtx::decode(&weird.encode()).unwrap().uid, "u@x");
    }

    #[test]
    fn from_base_prepends_wire_hops_and_inherits_trace_id() {
        let base = TraceCtx::new("sub.00001")
            .with_trace_id("4bf92f3577b34da6a3ce929d0e0e4736")
            .with_hop("gateway", hops::WIRE_RECV, 1)
            .with_hop("service", hops::ADMITTED, 4);
        let task = TraceCtx::from_base("task.0007", &base).with_hop("enq", hops::ENQUEUE, 9);
        assert_eq!(task.uid, "task.0007");
        assert_eq!(
            task.trace_id.as_deref(),
            Some("4bf92f3577b34da6a3ce929d0e0e4736")
        );
        assert_eq!(task.hops.len(), 3);
        assert_eq!(task.hops[0].state, hops::WIRE_RECV);
        // The stage sum over consecutive pairs still equals end-to-end.
        let mut cp = CriticalPath::new();
        cp.add(&task);
        let sum: u64 = cp.stages().iter().map(|s| s.total_ns).sum();
        assert_eq!(sum, task.total_ns());
    }

    #[test]
    fn traceparent_parses_valid_and_rejects_malformed() {
        let id = "4bf92f3577b34da6a3ce929d0e0e4736";
        let header = format!("00-{id}-00f067aa0ba902b7-01");
        assert_eq!(parse_traceparent(&header).as_deref(), Some(id));
        for bad in [
            "",
            "00-short-00f067aa0ba902b7-01",
            &format!("00-{}-00f067aa0ba902b7-01", "0".repeat(32)),
            &format!("00-{id}-0000000000000000-01"),
            &format!("ff-{id}-00f067aa0ba902b7-01"),
            &format!("00-{}-00f067aa0ba902b7-01", id.to_uppercase()),
            &format!("00-{id}-00f067aa0ba902b7-01-extra"),
            &format!("00-{id}-00f067aa0ba902b7"),
        ] {
            assert_eq!(parse_traceparent(bad), None, "accepted {bad:?}");
        }
        // Future versions may carry extra fields.
        assert_eq!(
            parse_traceparent(&format!("cc-{id}-00f067aa0ba902b7-01-what-ever")).as_deref(),
            Some(id)
        );
    }

    #[test]
    fn generated_trace_ids_are_valid_and_distinct() {
        let a = generate_trace_id(1);
        let b = generate_trace_id(2);
        assert_ne!(a, b);
        for id in [&a, &b] {
            assert_eq!(id.len(), 32);
            assert_eq!(
                parse_traceparent(&format_traceparent(id)).as_deref(),
                Some(id.as_str())
            );
        }
    }

    #[test]
    fn report_lists_stages() {
        let mut cp = CriticalPath::new();
        cp.add(
            &TraceCtx::new("t")
                .with_hop("enq", hops::ENQUEUE, 0)
                .with_hop("deq", hops::DEQUEUE, 1000),
        );
        let r = cp.report();
        assert!(r.contains("enqueue->dequeue"));
        assert!(r.contains("1 task timeline"));
    }
}
