//! Micro-benchmarks of the simulation and protocol hot paths, plus the
//! allocation-regression gate: a counting global allocator measures heap
//! activity inside a steady-state window of a loss-free MPTCP download and
//! fails the run if it exceeds the checked-in budgets (zero for the plain
//! data path). `MPW_ALLOC_GATE_ONLY=1` runs just the gate (CI's
//! alloc-regression job); a full run also records the counts in
//! `BENCH_engine.json`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use criterion::{BatchSize, Criterion, Throughput};
use mpw_experiments::{
    run_lossfree_download_windowed, run_measurement, FlowConfig, Scenario, WifiKind,
};
use mpw_link::{Carrier, DayPeriod};
use mpw_mptcp::Coupling;
use mpw_sim::trace::TraceLevel;
use mpw_sim::{Agent, Ctx, Event, Frame, SimDuration, SimTime, TimerHandle, World};
use mpw_tcp::buf::Assembler;
use mpw_tcp::wire::{self, tcp_flags, DssMapping, MptcpOption, TcpOption, TcpSegment};
use mpw_tcp::SeqNum;

/// Heap-operation counter wrapping the system allocator. Counts every
/// `alloc`/`alloc_zeroed`/`realloc` (frees are not interesting to the
/// gate); one relaxed fetch_add per operation, cheap enough to leave on for
/// the timing benches too.
struct CountingAlloc;

static ALLOC_OPS: AtomicU64 = AtomicU64::new(0);
/// Debug aid: when armed (MPW_ALLOC_PANIC=N, counts down inside the
/// window), the N-th heap op panics with a backtrace pointing at the
/// offender. The swap-to-zero disarms before panicking so the panic
/// machinery's own allocations don't recurse.
static PANIC_AFTER: AtomicU64 = AtomicU64::new(0);

/// Debug aid: when MPW_ALLOC_SIZES is set, bucket window allocations by
/// requested size (log2 buckets) to identify offenders without backtraces.
static SIZE_HIST: [AtomicU64; 32] = [const { AtomicU64::new(0) }; 32];
static HIST_ON: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

static PANIC_SIZE_MIN: AtomicU64 = AtomicU64::new(0);
static PANIC_SIZE_MAX: AtomicU64 = AtomicU64::new(u64::MAX);

fn count_op_sized(size: usize) {
    ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
    if HIST_ON.load(Ordering::Relaxed) {
        let b = (usize::BITS - size.max(1).leading_zeros() - 1).min(31) as usize;
        SIZE_HIST[b].fetch_add(1, Ordering::Relaxed);
    }
    if PANIC_AFTER.load(Ordering::Relaxed) > 0
        && (size as u64) >= PANIC_SIZE_MIN.load(Ordering::Relaxed)
        && (size as u64) <= PANIC_SIZE_MAX.load(Ordering::Relaxed)
        && PANIC_AFTER.fetch_sub(1, Ordering::Relaxed) == 1
    {
        panic!("heap operation of {size} bytes inside the steady-state window (run with RUST_BACKTRACE=1)");
    }
}

// The counting allocator is the one deliberate unsafe island in
// first-party code: GlobalAlloc is an unsafe trait and every method
// merely counts, then delegates verbatim to std's System allocator.
unsafe impl GlobalAlloc for CountingAlloc { // lint: allow-unsafe(GlobalAlloc is an unsafe trait)
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 { // lint: allow-unsafe(GlobalAlloc method signature)
        count_op_sized(layout.size());
        unsafe { System.alloc(layout) } // lint: allow-unsafe(delegates to System)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 { // lint: allow-unsafe(GlobalAlloc method signature)
        count_op_sized(layout.size());
        unsafe { System.alloc_zeroed(layout) } // lint: allow-unsafe(delegates to System)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 { // lint: allow-unsafe(GlobalAlloc method signature)
        count_op_sized(new_size);
        unsafe { System.realloc(ptr, layout, new_size) } // lint: allow-unsafe(delegates to System)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) { // lint: allow-unsafe(GlobalAlloc method signature)
        unsafe { System.dealloc(ptr, layout) } // lint: allow-unsafe(delegates to System)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_ops() -> u64 {
    ALLOC_OPS.load(Ordering::Relaxed)
}

/// One allocation-gate measurement.
struct AllocRow {
    id: &'static str,
    allocs_in_window: u64,
    window_segments: u64,
}

/// Steady-state observation window: by 300 ms the handshake, MP_JOIN and
/// the slow-start ramp to the 512 KiB send-buffer cap are over; the 4 MiB
/// download over two 20 Mbit/s loss-free paths completes around 950 ms, so
/// [300 ms, 600 ms] is pure mid-transfer steady state.
const ALLOC_PROBE_SIZE: u64 = 4 << 20;
// Window start leaves ample room past the handshake, the slow-start ramp,
// and the coupled-CC climb to the pinned 64 KiB per-subflow in-flight cap
// (reached ~250-350 ms in): only once in-flight has plateaued do the frame
// pool and every queue stop growing.
const ALLOC_WINDOW_MS: (u64, u64) = (400, 700);

fn alloc_probe(capture: bool, seed: u64) -> (u64, u64) {
    let window = (
        SimTime::from_millis(ALLOC_WINDOW_MS.0),
        SimTime::from_millis(ALLOC_WINDOW_MS.1),
    );
    let mut snaps = [0u64; 2];
    // Environment reads happen out here: `std::env::var` allocates, and the
    // mark closure runs *inside* the measured window.
    let env_u64 = |k: &str, d: u64| {
        std::env::var(k)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(d)
    };
    let armed = env_u64("MPW_ALLOC_PANIC", 0);
    let size_min = env_u64("MPW_ALLOC_PANIC_MIN", 0);
    let size_max = env_u64("MPW_ALLOC_PANIC_MAX", u64::MAX);
    let sizes_on = std::env::var_os("MPW_ALLOC_SIZES").is_some();
    PANIC_SIZE_MIN.store(size_min, Ordering::Relaxed);
    PANIC_SIZE_MAX.store(size_max, Ordering::Relaxed);
    let probe = run_lossfree_download_windowed(
        ALLOC_PROBE_SIZE,
        seed,
        window,
        capture,
        &mut |phase| {
            snaps[usize::from(phase)] = alloc_ops();
            PANIC_AFTER.store(if phase == 0 { armed } else { 0 }, Ordering::Relaxed);
            if sizes_on {
                HIST_ON.store(phase == 0, Ordering::Relaxed);
                if phase == 1 {
                    for (b, c) in SIZE_HIST.iter().enumerate() {
                        let n = c.swap(0, Ordering::Relaxed);
                        if n > 0 {
                            eprintln!(
                                "  alloc size 2^{b} ({}..{}): {n}",
                                1usize << b,
                                (1usize << b) * 2 - 1
                            );
                        }
                    }
                }
            }
        },
    );
    assert_eq!(probe.bytes, ALLOC_PROBE_SIZE, "probe download must complete");
    assert_eq!(probe.rexmit_segs, 0, "probe must be loss-free");
    assert!(probe.window_segments > 0, "window saw no data segments");
    (snaps[1] - snaps[0], probe.window_segments)
}

/// Steady-state fleet pump probe: a 20-client mixed fleet mid-transfer.
/// Arrivals are done by 1 s and the 4 MB downloads are nowhere near
/// finished inside the window, so [2 s, 3 s] measures the many-flow pump
/// (shared-link multiplexing, switch fan-out, per-tick sampling) with no
/// handshake or harvest edges. The denominator is events processed over
/// the whole run — the fleet has no single-flow segment counter — so the
/// per-"segment" ratio in the JSON reads as allocs per event.
fn fleet_alloc_probe(seed: u64) -> (u64, u64) {
    let mut spec = mpw_fleet::FleetSpec::smoke(20, seed);
    spec.workload = mpw_fleet::FleetWorkload::Download { size: 4 << 20 };
    spec.arrival = mpw_fleet::Arrival::Staggered { gap_ms: 50 };
    spec.horizon_ms = 3_200;
    let window = (SimTime::from_millis(2_000), SimTime::from_millis(3_000));
    let mut snaps = [0u64; 2];
    let run = mpw_fleet::run_fleet_windowed(&spec, Some(window), &mut |phase| {
        snaps[usize::from(phase)] = alloc_ops();
    });
    assert!(snaps[1] >= snaps[0], "window marks fired out of order");
    assert!(run.report.bytes > 0, "fleet probe moved no bytes");
    (snaps[1] - snaps[0], run.world.events_processed())
}

/// Run the allocation probes: one warm-up pass per configuration populates
/// the thread-local buffer pool and grows every ring and queue to
/// steady-state capacity, then the measured pass counts heap operations
/// inside the window. Same seed both passes — the measured run is
/// event-identical to the warm-up.
fn run_alloc_probes() -> Vec<AllocRow> {
    let mut rows = Vec::new();
    for (id, capture) in [
        ("alloc/steady_state_segment_allocs", false),
        ("alloc/capture_path_allocs", true),
    ] {
        let _ = alloc_probe(capture, 7);
        let (allocs, segs) = alloc_probe(capture, 7);
        eprintln!(
            "{id}: {allocs} heap ops over {segs} segments in the {}..{} ms window",
            ALLOC_WINDOW_MS.0, ALLOC_WINDOW_MS.1
        );
        rows.push(AllocRow { id, allocs_in_window: allocs, window_segments: segs });
    }
    {
        let _ = fleet_alloc_probe(7);
        let (allocs, events) = fleet_alloc_probe(7);
        eprintln!("alloc/fleet_pump_allocs: {allocs} heap ops over {events} events in the 2000..3000 ms window");
        rows.push(AllocRow {
            id: "alloc/fleet_pump_allocs",
            allocs_in_window: allocs,
            window_segments: events,
        });
    }
    rows
}

/// Read a budget value out of `ALLOC_budgets.json` (flat `"key": number`
/// pairs; no JSON dependency needed for that).
fn budget_for(budgets: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\"");
    let at = budgets.find(&needle).unwrap_or_else(|| panic!("ALLOC_budgets.json lacks {key}"));
    let rest = &budgets[at + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':').expect("budget key not followed by ':'");
    let digits: String = rest.trim_start().chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or_else(|_| panic!("budget for {key} is not an integer"))
}

/// The regression gate: every probe must stay within its checked-in budget.
fn check_alloc_budgets(rows: &[AllocRow]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ALLOC_budgets.json");
    let budgets = std::fs::read_to_string(path).expect("read ALLOC_budgets.json");
    let mut bad = false;
    for row in rows {
        let key = row.id.rsplit('/').next().unwrap_or(row.id);
        let budget = budget_for(&budgets, key);
        if row.allocs_in_window > budget {
            eprintln!(
                "ALLOC REGRESSION: {} = {} heap ops in the steady-state window, budget {}",
                row.id, row.allocs_in_window, budget
            );
            bad = true;
        } else {
            eprintln!("{}: {} heap ops <= budget {}", row.id, row.allocs_in_window, budget);
        }
    }
    if bad {
        std::process::exit(1);
    }
}

/// A pair of agents ping-ponging a timer — pure engine overhead.
struct PingPong {
    peer: u32,
    remaining: u32,
}

impl Agent for PingPong {
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        match ev {
            Event::Start => {}
            Event::Timer { .. } | Event::Frame { .. } => {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    ctx.send_frame(
                        self.peer,
                        0,
                        SimDuration::from_micros(10),
                        mpw_sim::Frame::new(Bytes::new()),
                    );
                }
            }
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    const EVENTS: u64 = 100_000;
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("event_loop_100k", |b| {
        b.iter(|| {
            let mut w = World::new(1, TraceLevel::Off);
            let a = w.add_agent(Box::new(PingPong { peer: 1, remaining: EVENTS as u32 / 2 }));
            let bb = w.add_agent(Box::new(PingPong { peer: a, remaining: EVENTS as u32 / 2 }));
            w.schedule(SimTime::ZERO, bb, Event::Timer { token: 0 });
            w.run_until_idle();
            assert!(w.events_processed() >= EVENTS);
        })
    });
    g.finish();
}

/// Arm/cancel churn mimicking per-segment RTO management: every firing
/// arms a fan of timers, immediately cancels all but one, and pulls the
/// survivor in — the pattern a TCP socket generates per ACK burst.
struct TimerChurn {
    remaining: u32,
}

/// Timers armed + cancelled + moved (cancel + arm) + fired per
/// `TimerChurn` round.
const TIMER_OPS_PER_ROUND: u64 = 8 + 7 + 1 + 1;

impl Agent for TimerChurn {
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        match ev {
            Event::Start | Event::Frame { .. } => {}
            Event::Timer { .. } => {
                if self.remaining == 0 {
                    return;
                }
                self.remaining -= 1;
                let mut keep = None;
                for i in 0..8u64 {
                    let h = ctx.arm_timer(SimDuration::from_millis(200), i);
                    if i == 0 {
                        keep = Some(h);
                    } else {
                        ctx.cancel_timer(h);
                    }
                }
                if let Some(h) = keep {
                    ctx.cancel_timer(h);
                    ctx.arm_timer(SimDuration::from_micros(50), 0);
                }
            }
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn bench_timer_wheel(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    const ROUNDS: u64 = 10_000;
    g.throughput(Throughput::Elements(ROUNDS * TIMER_OPS_PER_ROUND));
    g.bench_function("timer_wheel_churn", |b| {
        b.iter(|| {
            let mut w = World::new(1, TraceLevel::Off);
            let a = w.add_agent(Box::new(TimerChurn { remaining: ROUNDS as u32 }));
            w.schedule(SimTime::ZERO, a, Event::Timer { token: 0 });
            w.run_until_idle();
            assert!(w.events_processed() >= ROUNDS);
        })
    });
    g.finish();
}

/// The socket hot path in miniature: every inbound frame answers with one
/// frame and re-arms a timeout, cancelling the previous one. Under a
/// generation-token scheme every re-arm leaves a stale heap entry behind;
/// with cancellable handles the heap stays at O(live timers).
struct FrameChurn {
    peer: u32,
    remaining: u32,
    timeout: Option<TimerHandle>,
}

impl Agent for FrameChurn {
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        match ev {
            Event::Start => {}
            // Token 0 is the kick-off; any other timer is the timeout firing.
            Event::Timer { token: 0 } => {
                ctx.send_frame(
                    self.peer,
                    0,
                    SimDuration::from_micros(10),
                    Frame::new(Bytes::new()),
                );
            }
            Event::Timer { .. } => {
                self.timeout = None;
            }
            Event::Frame { .. } => {
                if self.remaining == 0 {
                    return;
                }
                self.remaining -= 1;
                if let Some(h) = self.timeout.take() {
                    ctx.cancel_timer(h);
                }
                self.timeout = Some(ctx.arm_timer(SimDuration::from_millis(300), 1));
                ctx.send_frame(
                    self.peer,
                    0,
                    SimDuration::from_micros(10),
                    Frame::new(Bytes::new()),
                );
            }
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn bench_event_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    const EVENTS: u64 = 100_000;
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("event_churn_100k", |b| {
        b.iter(|| {
            let mut w = World::new(1, TraceLevel::Off);
            let a = w.add_agent(Box::new(FrameChurn {
                peer: 1,
                remaining: EVENTS as u32 / 2,
                timeout: None,
            }));
            let bb = w.add_agent(Box::new(FrameChurn {
                peer: a,
                remaining: EVENTS as u32 / 2,
                timeout: None,
            }));
            w.schedule(SimTime::ZERO, bb, Event::Timer { token: 0 });
            w.run_until_idle();
            assert!(w.events_processed() >= EVENTS);
        })
    });
    g.finish();
}

fn data_segment() -> TcpSegment {
    let mut seg = TcpSegment::bare(8080, 40000, SeqNum(12345), SeqNum(999), tcp_flags::ACK);
    seg.window = 5000;
    seg.payload = Bytes::from(vec![0x5a; 1400]);
    seg.options = [TcpOption::Mptcp(MptcpOption::Dss {
        data_ack: Some(1 << 33),
        mapping: Some(DssMapping {
            dseq: 1 << 32,
            subflow_seq: SeqNum(12345),
            len: 1400,
        }),
        data_fin: false,
    })]
    .into();
    seg
}

fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    let ip = wire::IpHeader {
        src: wire::Addr::new(10, 0, 1, 2),
        dst: wire::Addr::new(192, 168, 1, 1),
        protocol: wire::PROTO_TCP,
        ttl: 64,
    };
    let seg = data_segment();
    g.throughput(Throughput::Bytes(1452));
    g.bench_function("encode_data_segment", |b| {
        b.iter(|| wire::encode_packet(&ip, &seg))
    });
    let bytes = wire::encode_packet(&ip, &seg);
    g.bench_function("parse_data_segment", |b| {
        b.iter(|| wire::parse_packet(&bytes).expect("valid"))
    });
    g.finish();
}

fn bench_assembler(c: &mut Criterion) {
    let mut g = c.benchmark_group("assembler");
    // Worst-ish case: interleaved two-source arrival with a lagging source.
    g.bench_function("interleaved_insert_1000", |b| {
        b.iter_batched(
            || Assembler::new(0, true),
            |mut a| {
                let mut t = SimTime::ZERO;
                for i in 0..500u64 {
                    t += SimDuration::from_micros(100);
                    // Fast source: in-order block far ahead.
                    a.insert(700_000 + i * 1400, Bytes::from(vec![0u8; 1400]), t);
                    // Slow source: fills the head.
                    a.insert(i * 1400, Bytes::from(vec![0u8; 1400]), t);
                    while a.pop_ready().is_some() {}
                }
                a
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Capture overhead: the same MPTCP download with taps detached vs
/// attached at all four per-path vantages. Detached cost is one `Option`
/// branch per frame and must stay in the noise; attached cost is the
/// observer dispatch, record accumulation, and final pcapng serialization.
fn bench_capture_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("capture_overhead");
    g.sample_size(10);
    let scenario = Scenario {
        wifi: WifiKind::Home,
        carrier: Carrier::Att,
        flow: FlowConfig::mp2(Coupling::Coupled),
        size: 1 << 20,
        period: DayPeriod::Night,
        warmup: true,
    };
    g.throughput(Throughput::Bytes(1 << 20));
    g.bench_function("mptcp_1mb_taps_off", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let m = run_measurement(&scenario, seed);
            assert_eq!(m.bytes, 1 << 20);
            m
        })
    });
    g.bench_function("mptcp_1mb_taps_on", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let (m, _pcap) = mpw_experiments::run_measurement_captured(&scenario, seed);
            assert_eq!(m.bytes, 1 << 20);
            m
        })
    });
    g.finish();
}

fn bench_full_transfer(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    let scenario = Scenario {
        wifi: WifiKind::Home,
        carrier: Carrier::Att,
        flow: FlowConfig::mp2(Coupling::Coupled),
        size: 1 << 20,
        period: DayPeriod::Night,
        warmup: true,
    };
    g.throughput(Throughput::Bytes(1 << 20));
    g.bench_function("mptcp_1mb_download_sim", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let m = run_measurement(&scenario, seed);
            assert_eq!(m.bytes, 1 << 20);
            m
        })
    });
    g.finish();
}

/// Fleet scaling rows: wall-clock flows/sec and events/sec for a full
/// mixed-population fleet run (build + drive + harvest) at N=100 and
/// N=1000. Timed directly — one fleet run is far too coarse for
/// criterion's iteration model — with the fastest of `reps` runs, and the
/// flow/event counts read from the (deterministic) run itself.
fn bench_fleet_scale() -> Vec<String> {
    let mut rows = Vec::new();
    for (n, reps) in [(100u32, 3u32), (1000, 2)] {
        let spec = mpw_fleet::FleetSpec::smoke(n, 1);
        let mut best_ns = u64::MAX;
        let mut flows = 0u64;
        let mut events = 0u64;
        for _ in 0..reps {
            let t0 = std::time::Instant::now();
            let run = mpw_fleet::run_fleet(&spec);
            let dt = t0.elapsed().as_nanos() as u64;
            best_ns = best_ns.min(dt);
            flows = run.report.flows_started;
            events = run.world.events_processed();
        }
        let secs = best_ns as f64 / 1e9;
        let flows_per_sec = flows as f64 / secs;
        let events_per_sec = events as f64 / secs;
        eprintln!(
            "bench fleet/scale_n{n}: {flows} flows, {events} events in {secs:.2}s \
             ({flows_per_sec:.0} flows/s, {events_per_sec:.0} events/s)"
        );
        rows.push(format!(
            "  {{\"id\": \"fleet/scale_n{n}\", \"ns_per_iter\": {best_ns}, \"iters\": {reps}, \
             \"flows\": {flows}, \"events\": {events}, \"flows_per_second\": {flows_per_sec:.1}, \
             \"events_per_second\": {events_per_sec:.1}}}"
        ));
    }
    rows
}

/// Export machine-readable results at the workspace root so CI and the
/// docs can track engine throughput across changes. Allocation-gate rows
/// ride along after the timing rows.
fn write_summary(c: &Criterion, alloc_rows: &[AllocRow], extra_rows: &[String]) {
    let mut rows: Vec<String> = c
        .results()
        .iter()
        .map(|r| {
            let per_second = r
                .per_second()
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "null".into());
            format!(
                "  {{\"id\": \"{}\", \"ns_per_iter\": {:.1}, \"iters\": {}, \"per_second\": {per_second}}}",
                r.id, r.ns_per_iter, r.iters
            )
        })
        .collect();
    rows.extend(extra_rows.iter().cloned());
    for a in alloc_rows {
        let per_seg = a.allocs_in_window as f64 / a.window_segments.max(1) as f64;
        rows.push(format!(
            "  {{\"id\": \"{}\", \"allocs_in_window\": {}, \"window_segments\": {}, \"allocs_per_segment\": {per_seg:.4}}}",
            a.id, a.allocs_in_window, a.window_segments
        ));
    }
    let out = format!("[\n{}\n]\n", rows.join(",\n"));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, out).expect("write BENCH_engine.json");
    eprintln!("wrote {path}");
}

fn main() {
    // The allocation gate runs first: it is the cheap, binary pass/fail
    // part, and CI's alloc-regression job stops after it.
    let alloc_rows = run_alloc_probes();
    check_alloc_budgets(&alloc_rows);
    if std::env::var_os("MPW_ALLOC_GATE_ONLY").is_some() {
        return;
    }
    let mut criterion = Criterion::default();
    bench_event_queue(&mut criterion);
    bench_timer_wheel(&mut criterion);
    bench_event_churn(&mut criterion);
    bench_wire(&mut criterion);
    bench_assembler(&mut criterion);
    bench_full_transfer(&mut criterion);
    bench_capture_overhead(&mut criterion);
    let fleet_rows = bench_fleet_scale();
    write_summary(&criterion, &alloc_rows, &fleet_rows);
}
