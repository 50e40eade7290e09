//! Per-layer accounting shared by the traced workloads: exact counters read
//! from the finished worlds, the wire replay, and the metric set every
//! traced run prints (the same names on every workload).

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use mpw_capture::{CaptureHub, SharedHub};
use mpw_link::{LinkAgent, LinkTap};
use mpw_mptcp::{Host, Transport};
use mpw_sim::tap::{FrameObserver, TapDir};
use mpw_sim::trace::DropReason;
use mpw_sim::{AgentId, SimTime, World};
use mpw_tcp::{encode_packet, parse_packet_shared, SocketStats};

use serde_json::Value;

use crate::report::{Metric, Outcome};
use crate::timed::{Kind, Recorder, SharedRecorder};

/// Foreground frames a traced run keeps for the wire replay.
pub const REPLAY_FRAMES: usize = 20_000;
/// Spans a traced run keeps for its span file.
pub const SPANS_KEPT: usize = 200_000;

/// Exact counts over a traced workload's reference set of operations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Downloads simulated (fleet flows count one each).
    pub downloads: u64,
    /// Events the engine delivered.
    pub events: u64,
    /// Tombstoned timers discarded.
    pub stale_timer_pops: u64,
    /// Heap compactions.
    pub compactions: u64,
    /// Data segments sent, retransmissions included, over every socket.
    pub data_segs: u64,
    /// Retransmitted data segments.
    pub rexmit_segs: u64,
    /// Retransmission timeouts.
    pub rtos: u64,
    /// Duplicate ACKs observed.
    pub dupacks: u64,
    /// Frames dropped at a full drop-tail queue.
    pub dropped_overflow: u64,
    /// Frames lost on the channel.
    pub dropped_channel: u64,
    /// Largest queue occupancy of any foreground link, bytes.
    pub peak_queue_bytes: u64,
    /// Frames a fan-out switch forwarded.
    pub switch_frames: u64,
}

impl Counts {
    /// Add the engine counters of a finished world.
    pub fn add_world(&mut self, world: &World) {
        let st = world.stats();
        self.events += world.events_processed();
        self.stale_timer_pops += st.stale_timer_pops;
        self.compactions += st.compactions;
    }

    /// Add every socket of `host` (all slots, all subflows).
    pub fn add_host(&mut self, host: &Host) {
        for slot in 0..host.slot_count() {
            match host.transport(slot) {
                Some(Transport::Mp(c)) => {
                    for sf in &c.subflows {
                        self.add_socket(&sf.sock.stats());
                    }
                }
                Some(Transport::Sp(s)) => self.add_socket(&s.stats()),
                None => {}
            }
        }
    }

    fn add_socket(&mut self, st: &SocketStats) {
        self.data_segs += st.data_segs_sent;
        self.rexmit_segs += st.rexmit_segs;
        self.rtos += st.rtos;
        self.dupacks += st.dupacks;
    }

    /// Add a foreground link's counters.
    pub fn add_link(&mut self, world: &World, link: AgentId) {
        let st = world.agent::<LinkAgent>(link).expect("link agent").stats();
        self.dropped_overflow += st.dropped_overflow;
        self.dropped_channel += st.dropped_channel;
        self.peak_queue_bytes = self.peak_queue_bytes.max(st.peak_queue_bytes);
    }
}

/// A frame observer that hands the first `left` foreground frames to a
/// capture hub and ignores the rest, bounding the memory a traced run
/// spends on held frames.
pub struct CappedTap {
    hub: SharedHub,
    iface: u32,
    left: usize,
}

impl CappedTap {
    /// A tap feeding a fresh hub at most `cap` frames.
    pub fn shared(cap: usize) -> Rc<RefCell<CappedTap>> {
        let hub = CaptureHub::shared();
        let iface = hub.borrow_mut().add_iface("replay");
        Rc::new(RefCell::new(CappedTap {
            hub,
            iface,
            left: cap,
        }))
    }

    /// Observe frames entering `link` (as transmitted; no drops).
    pub fn attach(tap: &Rc<RefCell<CappedTap>>, world: &mut World, link: AgentId) {
        let iface = tap.borrow().iface;
        world
            .agent_mut::<LinkAgent>(link)
            .expect("link agent")
            .set_tap(LinkTap {
                observer: tap.clone(),
                ingress: Some(iface),
                egress: None,
                drops: None,
                background: false,
            });
    }

    /// The captured frames.
    pub fn frames(&self) -> Vec<Bytes> {
        self.hub
            .borrow()
            .records()
            .iter()
            .map(|r| r.bytes.clone())
            .collect()
    }
}

impl FrameObserver for CappedTap {
    fn frame(&mut self, at: SimTime, iface: u32, dir: TapDir, bytes: &Bytes) {
        if self.left > 0 {
            self.left -= 1;
            self.hub.borrow_mut().frame(at, iface, dir, bytes);
        }
    }

    fn dropped(&mut self, _: SimTime, _: u32, _: DropReason, _: &Bytes) {}
}

/// Cost of the public wire codec replayed over a run's own frames.
#[derive(Clone, Copy, Debug, Default)]
struct WireReplay {
    /// TCP frames replayed (pings are skipped).
    pub frames: u64,
    /// Mean `parse_packet_shared` time per frame.
    pub parse_ns_per_frame: f64,
    /// Mean `encode_packet` time per parsed segment.
    pub encode_ns_per_seg: f64,
    /// Frames whose encode → parse did not give back the parsed segment.
    pub mismatches: u64,
}

/// Replay the codec the hosts run on every frame — `parse_packet_shared`
/// (zero-copy payload) and `encode_packet` — over `frames` until at least
/// `min_ns` of parsing has been timed (at least one pass).
fn replay_wire(frames: &[Bytes], min_ns: u64) -> WireReplay {
    let parsed: Vec<_> = frames
        .iter()
        .filter_map(|f| Some((f, parse_packet_shared(f).ok()?)))
        .collect();
    if parsed.is_empty() {
        return WireReplay::default();
    }
    let mismatches = parsed
        .iter()
        .filter(|(_, (ip, seg))| {
            parse_packet_shared(&encode_packet(ip, seg))
                .map_or(true, |back| back != (*ip, seg.clone()))
        })
        .count() as u64;
    let (mut parse_ns, mut encode_ns, mut passes) = (0u64, 0u64, 0u64);
    while passes == 0 || parse_ns < min_ns {
        let t = Instant::now();
        for (f, _) in &parsed {
            std::hint::black_box(parse_packet_shared(std::hint::black_box(f)).ok());
        }
        parse_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        for (_, (ip, seg)) in &parsed {
            std::hint::black_box(encode_packet(std::hint::black_box(ip), seg));
        }
        encode_ns += t.elapsed().as_nanos() as u64;
        passes += 1;
    }
    let n = (parsed.len() as u64 * passes) as f64;
    WireReplay {
        frames: parsed.len() as u64,
        parse_ns_per_frame: parse_ns as f64 / n,
        encode_ns_per_seg: encode_ns as f64 / n,
        mismatches,
    }
}

/// One operation that passed the replica guard.
pub struct Guarded {
    /// Untraced time of the operation through the public entry point, s.
    pub public_s: f64,
    /// Whether the operation succeeded (every byte arrived).
    pub ok: bool,
}

/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_trace";

/// The traced run shared by every workload: pass the `ops` operations of
/// the reference set through `guard` (which records into `rec` and `tap`),
/// `reps` times over, then replay the wire, write the
/// spans and assemble the per-layer outcome. The exact counts of every
/// repetition must equal the first's. A run whose replica diverged, whose
/// counts changed or whose wire round trip failed is not correct and
/// publishes no layer numbers: they would describe a different program.
pub fn traced_run(
    workload: &str,
    seed: u64,
    reps: u64,
    ops: usize,
    rec: &SharedRecorder,
    tap: &Rc<RefCell<CappedTap>>,
    mut guard: impl FnMut(usize, &mut Counts) -> Result<Guarded, String>,
) -> Outcome {
    let reps = reps.max(1);
    let (mut attempted, mut failed, mut diverged) = (0u64, 0u64, 0u64);
    let mut untraced_s = 0.0f64;
    let mut first: Option<Counts> = None;
    for _ in 0..reps {
        let mut counts = Counts::default();
        for i in 0..ops {
            attempted += 1;
            match guard(i, &mut counts) {
                Ok(g) => {
                    untraced_s += g.public_s;
                    failed += u64::from(!g.ok);
                }
                Err(e) => {
                    eprintln!("{e}");
                    diverged += 1;
                }
            }
        }
        match &first {
            None => first = Some(counts),
            Some(c) if *c != counts => {
                eprintln!("counts changed between repetitions: {c:?} vs {counts:?}");
                diverged += 1;
            }
            Some(_) => {}
        }
    }
    let counts = first.expect("one repetition");
    let wire = replay_wire(&tap.borrow().frames(), 200_000_000);
    diverged += wire.mismatches;

    let rec = rec.borrow();
    println!("{}", breakdown(&rec));
    let spans_file = format!("{TRACE_DIR}/{workload}-seed{seed}.tsv");
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&spans_file, rec.spans_tsv()));
    if let Err(e) = written {
        eprintln!("warning: spans not written to {spans_file}: {e}");
    }
    let correct = diverged == 0;
    let metrics = if correct {
        metrics(&rec, &counts, &wire, reps, untraced_s)
    } else {
        Vec::new()
    };
    Outcome {
        attempted,
        failed: failed + diverged,
        correct,
        metrics,
        manifest: vec![
            ("repetitions", Value::U64(reps)),
            ("ops_per_repetition", Value::U64(ops as u64)),
            ("counts", Value::Str(format!("{counts:?}"))),
            ("replay_frames", Value::U64(wire.frames)),
            ("wire_roundtrip_mismatches", Value::U64(wire.mismatches)),
            ("spans_file", Value::Str(spans_file)),
        ],
    }
}

/// Per-layer metric names with units, in the order they are printed.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("sim.engine.events_per_download", "count"),
    ("sim.engine.stale_timer_pops", "count"),
    ("sim.engine.compactions", "count"),
    ("sim.engine.self_ns_per_event", "ns"),
    ("core.host.client_self_ns_per_event", "ns"),
    ("core.host.server_self_ns_per_event", "ns"),
    ("core.host.events_per_data_seg", "events/seg"),
    ("tcp.wire.parse_ns_per_frame", "ns"),
    ("tcp.wire.encode_ns_per_seg", "ns"),
    ("tcp.rexmit_segs", "count"),
    ("tcp.rtos", "count"),
    ("tcp.dupacks", "count"),
    ("link.self_ns_per_event", "ns"),
    ("link.events", "count"),
    ("link.background.self_ns_per_event", "ns"),
    ("link.background.events", "count"),
    ("link.dropped_overflow", "count"),
    ("link.dropped_channel", "count"),
    ("link.peak_queue_bytes", "bytes"),
    ("sim.switch.self_share_pct", "%"),
    ("sim.switch.frames", "count"),
    ("harness.self_share_pct", "%"),
    ("world.build_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Assemble the per-layer metrics in [`PER_LAYER`] order. Times are over
/// all `reps` repetitions; counts are per repetition of the reference set.
fn metrics(
    rec: &Recorder,
    c: &Counts,
    wire: &WireReplay,
    reps: u64,
    untraced_s: f64,
) -> Vec<Metric> {
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let self_per_event = |k: Kind| per(rec.self_ns(k) as f64, rec.count(k));
    let events_per_rep = |k: Kind| rec.count(k) / reps;
    let all_events: u64 = Kind::AGENTS.iter().map(|&k| rec.count(k)).sum();
    let loop_ns = rec.total_ns(Kind::RunUntil) as f64;
    let harness_ns = rec.self_ns(Kind::Op) as f64;
    let traced_s = rec.total_ns(Kind::Op) as f64 / 1e9;
    let host_events = events_per_rep(Kind::ClientHost) + events_per_rep(Kind::ServerHost);
    let values = [
        per(c.events as f64, c.downloads),
        c.stale_timer_pops as f64,
        c.compactions as f64,
        per(rec.self_ns(Kind::RunUntil) as f64, all_events),
        self_per_event(Kind::ClientHost),
        self_per_event(Kind::ServerHost),
        per(host_events as f64, c.data_segs),
        wire.parse_ns_per_frame,
        wire.encode_ns_per_seg,
        c.rexmit_segs as f64,
        c.rtos as f64,
        c.dupacks as f64,
        self_per_event(Kind::Link),
        events_per_rep(Kind::Link) as f64,
        self_per_event(Kind::Background),
        events_per_rep(Kind::Background) as f64,
        c.dropped_overflow as f64,
        c.dropped_channel as f64,
        c.peak_queue_bytes as f64,
        100.0 * rec.self_ns(Kind::Switch) as f64 / loop_ns,
        c.switch_frames as f64,
        100.0 * harness_ns / (harness_ns + loop_ns),
        per(
            rec.total_ns(Kind::Build) as f64 / 1e3,
            rec.count(Kind::Build),
        ),
        100.0 * (traced_s - untraced_s) / untraced_s,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}

/// The layer breakdown of the traced `run_until` wall time: per agent kind
/// self time plus the engine residual, which add up to the whole.
fn breakdown(rec: &Recorder) -> String {
    let wall = rec.total_ns(Kind::RunUntil);
    let mut out = String::new();
    let _ = writeln!(out, "layer breakdown of traced run_until wall time");
    let _ = writeln!(
        out,
        "  {:<22} {:>10} {:>12} {:>7}",
        "layer", "events", "self_ms", "share"
    );
    let mut sum = 0u64;
    let rows = Kind::AGENTS
        .iter()
        .map(|&k| (k.name(), rec.count(k), rec.self_ns(k)));
    let engine = ("sim.engine (residual)", 0, rec.self_ns(Kind::RunUntil));
    for (name, events, ns) in rows.chain(std::iter::once(engine)) {
        sum += ns;
        let _ = writeln!(
            out,
            "  {:<22} {:>10} {:>12.3} {:>6.2}%",
            name,
            events,
            ns as f64 / 1e6,
            100.0 * ns as f64 / wall.max(1) as f64
        );
    }
    let _ = writeln!(
        out,
        "  {:<22} {:>10} {:>12.3}  (sum {:.3} ms: {})",
        "run_until wall",
        "",
        wall as f64 / 1e6,
        sum as f64 / 1e6,
        if sum == wall {
            "adds up"
        } else {
            "DOES NOT ADD UP"
        }
    );
    out
}
