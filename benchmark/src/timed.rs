//! Layer timing from outside the program: every agent of a traced world sits
//! inside a [`Timed`] shim that brackets `Agent::handle` with a monotonic
//! clock, and the drive loop brackets its own steps (world build,
//! `run_until`, harvest). Spans are kept in memory and written out when the
//! run ends; self times per layer are folded from them.

use std::any::Any;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use mpw_sim::{Agent, Ctx, Event};

/// What a span covers. Agent kinds first, then the harness steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// A client `mpw_mptcp::Host`.
    ClientHost,
    /// A server `mpw_mptcp::Host`.
    ServerHost,
    /// A foreground `mpw_link::LinkAgent`.
    Link,
    /// Cross traffic: `mpw_link::OnOffSource` and the `NullSink` it drains to.
    Background,
    /// A fan-out `mpw_sim::Switch`.
    Switch,
    /// The fleet drive loop's clock-advance agent.
    Ticker,
    /// One `World::run_until` call.
    RunUntil,
    /// Assembling the world.
    Build,
    /// Reading results out of the finished world.
    Harvest,
    /// One download or fleet world, end to end.
    Op,
}

impl Kind {
    /// Agent kinds, in report order.
    pub const AGENTS: [Kind; 6] = [
        Kind::ClientHost,
        Kind::ServerHost,
        Kind::Link,
        Kind::Background,
        Kind::Switch,
        Kind::Ticker,
    ];
    const COUNT: usize = 10;

    /// Span name, keyed by the module that implements the layer.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ClientHost => "core.host.client",
            Kind::ServerHost => "core.host.server",
            Kind::Link => "link",
            Kind::Background => "link.background",
            Kind::Switch => "sim.switch",
            Kind::Ticker => "fleet.ticker",
            Kind::RunUntil => "sim.engine.run_until",
            Kind::Build => "build",
            Kind::Harvest => "harvest",
            Kind::Op => "op",
        }
    }
}

/// One timed interval. Times are nanoseconds since the recorder's epoch;
/// `parent` indexes the enclosing span of the same op (`u32::MAX` = none).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What it covers.
    pub kind: Kind,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span within the op.
    pub parent: u32,
    /// The download or world the span belongs to.
    pub op: u32,
}

const NO_PARENT: u32 = u32::MAX;

/// Span store plus per-kind totals. One recorder serves one traced run.
pub struct Recorder {
    epoch: Instant,
    op: u32,
    /// Spans of the op in progress.
    spans: Vec<Span>,
    /// Open span stack (indices into `spans`).
    open: Vec<u32>,
    /// Spans of finished ops kept for the trace file, up to `keep`.
    kept: Vec<Span>,
    keep: usize,
    /// Per kind: spans, total duration, and total time covered by children.
    count: [u64; Kind::COUNT],
    total_ns: [u64; Kind::COUNT],
    child_ns: [u64; Kind::COUNT],
}

/// Shared handle the shims record into.
pub type SharedRecorder = Rc<RefCell<Recorder>>;

impl Recorder {
    /// A recorder that keeps at most `keep` spans for the trace file.
    pub fn shared(keep: usize) -> SharedRecorder {
        Rc::new(RefCell::new(Recorder {
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
            kept: Vec::new(),
            keep,
            count: [0; Kind::COUNT],
            total_ns: [0; Kind::COUNT],
            child_ns: [0; Kind::COUNT],
        }))
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a harness span (op, build, run_until, harvest).
    pub fn begin(&mut self, kind: Kind) {
        let start = self.now();
        self.push(kind, start, start);
        self.open.push((self.spans.len() - 1) as u32);
    }

    /// Close the innermost harness span.
    pub fn end(&mut self) {
        let idx = self.open.pop().expect("end without begin") as usize;
        self.spans[idx].end = self.now();
        if self.spans[idx].kind == Kind::Op {
            self.finish_op();
        }
    }

    /// Record a closed agent span under the innermost open span.
    fn agent(&mut self, kind: Kind, start: Instant, end: Instant) {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        let (s, e) = (ns(start), ns(end));
        self.push(kind, s, e);
    }

    fn push(&mut self, kind: Kind, start: u64, end: u64) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            kind,
            start,
            end,
            parent,
            op: self.op,
        });
    }

    /// Fold the finished op's spans into the totals and the kept set.
    fn finish_op(&mut self) {
        for s in &self.spans {
            let d = s.end - s.start;
            self.count[s.kind as usize] += 1;
            self.total_ns[s.kind as usize] += d;
            if s.parent != NO_PARENT {
                let parent = self.spans[s.parent as usize].kind;
                self.child_ns[parent as usize] += d;
            }
        }
        let room = self.keep.saturating_sub(self.kept.len());
        self.kept.extend(self.spans.iter().take(room));
        self.spans.clear();
        self.op += 1;
    }

    /// Spans recorded for `kind` over finished ops.
    pub fn count(&self, kind: Kind) -> u64 {
        self.count[kind as usize]
    }

    /// Self time of `kind`: its spans' total minus the time their children
    /// cover.
    pub fn self_ns(&self, kind: Kind) -> u64 {
        self.total_ns[kind as usize] - self.child_ns[kind as usize]
    }

    /// Total duration of `kind`'s spans.
    pub fn total_ns(&self, kind: Kind) -> u64 {
        self.total_ns[kind as usize]
    }

    /// The kept spans as tab-separated text, one span per line.
    pub fn spans_tsv(&self) -> String {
        let mut out = String::from("op\tspan\tname\tparent\tstart_ns\tend_ns\n");
        let mut first = 0usize;
        for (i, s) in self.kept.iter().enumerate() {
            if i > 0 && s.op != self.kept[i - 1].op {
                first = i;
            }
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                (first + s.parent as usize).to_string()
            };
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.op,
                i,
                s.kind.name(),
                parent,
                s.start,
                s.end
            );
        }
        out
    }
}

/// An agent whose `handle` is timed into a [`Recorder`]. Downcasts see
/// through it, so `World::agent::<Host>` still finds the wrapped host.
pub struct Timed<A> {
    inner: A,
    kind: Kind,
    rec: SharedRecorder,
}

impl<A: Agent> Timed<A> {
    /// Wrap `inner` as an agent of `kind`.
    pub fn boxed(inner: A, kind: Kind, rec: &SharedRecorder) -> Box<dyn Agent> {
        Box::new(Timed {
            inner,
            kind,
            rec: rec.clone(),
        })
    }
}

impl<A: Agent> Agent for Timed<A> {
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        let start = Instant::now();
        self.inner.handle(ev, ctx);
        let end = Instant::now();
        self.rec.borrow_mut().agent(self.kind, start, end);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpw_link::NullSink;
    use mpw_sim::trace::TraceLevel;
    use mpw_sim::{Frame, SimTime, World};

    #[test]
    fn shim_forwards_downcasts_and_nests_spans() {
        let rec = Recorder::shared(100);
        let mut w = World::new(1, TraceLevel::Off);
        let sink = w.add_agent(Timed::boxed(NullSink::default(), Kind::Background, &rec));
        for i in 0..3u64 {
            w.schedule(
                SimTime::from_millis(i),
                sink,
                Event::Frame {
                    port: 0,
                    frame: Frame::new(bytes_of(10)),
                },
            );
        }
        rec.borrow_mut().begin(Kind::Op);
        rec.borrow_mut().begin(Kind::RunUntil);
        w.run_until(SimTime::from_secs(1));
        rec.borrow_mut().end();
        rec.borrow_mut().end();
        assert_eq!(
            w.agent::<NullSink>(sink)
                .expect("downcast through shim")
                .frames,
            3
        );
        let r = rec.borrow();
        // Start event plus three frames.
        assert_eq!(r.count(Kind::Background), 4);
        assert_eq!(r.count(Kind::RunUntil), 1);
        // Self times partition the op exactly.
        let parts = r.self_ns(Kind::Background) + r.self_ns(Kind::RunUntil) + r.self_ns(Kind::Op);
        assert_eq!(parts, r.total_ns(Kind::Op));
        let tsv = r.spans_tsv();
        assert_eq!(tsv.lines().count(), 1 + 6);
        assert!(tsv
            .lines()
            .nth(3)
            .expect("agent span")
            .contains("link.background\t1\t"));
    }

    fn bytes_of(n: usize) -> bytes::Bytes {
        bytes::Bytes::from(vec![0u8; n])
    }
}
