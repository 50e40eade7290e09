//! `single-flow`: the paper's §3.2 method. One download at a time through
//! `run_measurement`, closed loop, in one thread. Small downloads (8 and
//! 64 KB) stress connection set-up, cross traffic and engine dispatch;
//! large ones (2, 8 and 32 MB) stress the Host's steady-state data path.
//!
//! Inputs are stratified so that every run does the same mix of work and
//! only the order and the simulation seeds depend on `--seed`: a small
//! cycle is every flow × carrier × period × small size once (120
//! downloads), a large cycle every flow × carrier × large size once (45
//! downloads) with periods that rotate from cycle to cycle, so every four
//! large cycles cover every period once.
//!
//! The work of a run is fixed by `--seed` and `--seconds` alone, never by
//! how fast the host happens to be: two runs with the same arguments make
//! the same downloads and get the same results.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use mpw_experiments::{
    run_measurement, FlowConfig, Scenario, Testbed, TestbedSpec, WifiKind, CLIENT_ADDRS,
    SERVER_ADDRS, SERVER_PORT,
};
use mpw_http::{HttpServer, Wget};
use mpw_link::{Carrier, DayPeriod, LinkAgent, NullSink, OnOffSource, PathSpec};
use mpw_mptcp::{Coupling, Host, MptcpConfig, OpenRequest, TransportSpec};
use mpw_sim::{AgentId, Event, RunOutcome, SimDuration, SimTime, World};
use mpw_tcp::{Addr, CcConfig, Endpoint};
use serde_json::Value;

use crate::layers::{self, CappedTap, Counts, Guarded, REPLAY_FRAMES, SPANS_KEPT};
use crate::report::Outcome;
use crate::stats::{self, Digest, SplitMix};
use crate::timed::{Kind, Recorder, SharedRecorder, Timed};

/// Transport configurations drawn from.
fn flows() -> [FlowConfig; 5] {
    [
        FlowConfig::SpWifi,
        FlowConfig::SpCellular,
        FlowConfig::mp2(Coupling::Coupled),
        FlowConfig::mp2(Coupling::Olia),
        FlowConfig::mp4(Coupling::Coupled),
    ]
}

const SMALL: [u64; 2] = [8 << 10, 64 << 10];
const LARGE: [u64; 3] = [2 << 20, 8 << 20, 32 << 20];

/// Requested seconds per round. A round is one large cycle with one small
/// cycle after each of its downloads (45 large and 5,400 small downloads),
/// which takes about 5 s on a 2-core host, half of it in each class.
const ROUND_S: u64 = 5;
/// Set-up repetitions whose median is `setup_s`.
const SETUPS: usize = 5;
/// Simulation seed of the set-up downloads.
const SETUP_SEED: u64 = 1;
/// Requested seconds per repetition of the traced run's reference set
/// (165 downloads, each run three times), about 9 s on a 2-core host.
const TRACED_REP_S: u64 = 9;

/// One planned download.
#[derive(Clone, Debug)]
pub struct Download {
    /// What to download, over which paths.
    pub scenario: Scenario,
    /// Simulation seed.
    pub seed: u64,
}

fn scenario(flow: FlowConfig, carrier: Carrier, period: DayPeriod, size: u64) -> Scenario {
    Scenario {
        wifi: WifiKind::Home,
        carrier,
        flow,
        size,
        period,
        warmup: true,
    }
}

/// Small cycle `k` of the run seeded `seed`.
pub fn small_cycle(seed: u64, k: u64) -> Vec<Download> {
    let mut rng = SplitMix::new(seed, 2 * k);
    let mut v = Vec::new();
    for flow in flows() {
        for carrier in Carrier::ALL {
            for period in DayPeriod::ALL {
                for size in SMALL {
                    v.push(scenario(flow, carrier, period, size));
                }
            }
        }
    }
    seeded(v, &mut rng)
}

/// Large cycle `k` of the run seeded `seed`. Each flow × carrier × size
/// starts at a seeded period and moves on by one period per cycle.
pub fn large_cycle(seed: u64, k: u64) -> Vec<Download> {
    let mut offsets = SplitMix::new(seed, u64::MAX);
    let mut v = Vec::new();
    for flow in flows() {
        for carrier in Carrier::ALL {
            for size in LARGE {
                let n = DayPeriod::ALL.len();
                let period = DayPeriod::ALL[(offsets.below(n) + k as usize) % n];
                v.push(scenario(flow, carrier, period, size));
            }
        }
    }
    seeded(v, &mut SplitMix::new(seed, 2 * k + 1))
}

fn seeded(mut v: Vec<Scenario>, rng: &mut SplitMix) -> Vec<Download> {
    rng.shuffle(&mut v);
    v.into_iter()
        .map(|scenario| Download {
            scenario,
            seed: rng.next_u64() >> 1,
        })
        .collect()
}

/// Whether a download delivered exactly its size within the horizon. A
/// download that did not is a failed operation, not a wrong output: the
/// simulated network may lose a connection.
fn delivered(m: &mpw_experiments::Measurement, size: u64) -> bool {
    m.bytes == size && m.download_time_s.is_some()
}

/// Whether a measurement is self-consistent: never more than the object,
/// and a completion time exactly when every byte arrived.
fn consistent(m: &mpw_experiments::Measurement, size: u64) -> bool {
    m.bytes <= size && m.download_time_s.is_some() == (m.bytes == size)
}

/// Counters and the result digest of the untraced run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    inconsistent: u64,
    digest: Digest,
}

impl Tally {
    /// Time one download through `run_measurement` and check it. Returns
    /// the host seconds and the bytes delivered (0 when it failed).
    fn download(&mut self, d: &Download, in_digest: bool) -> (f64, u64) {
        let t = Instant::now();
        let m = run_measurement(&d.scenario, d.seed);
        let secs = t.elapsed().as_secs_f64();
        self.attempted += 1;
        self.inconsistent += u64::from(!consistent(&m, d.scenario.size));
        let ok = delivered(&m, d.scenario.size);
        if !ok {
            self.failed += 1;
            eprintln!(
                "failed: {:?} seed {}: delivered {} of {} bytes, download time {:?}",
                d.scenario, d.seed, m.bytes, d.scenario.size, m.download_time_s
            );
        }
        if in_digest {
            let json = serde_json::to_string(&m).expect("measurement serializes");
            self.digest.update(json.as_bytes());
        }
        (secs, if ok { m.bytes } else { 0 })
    }
}

/// Set-up: warm up with one download of every flow × carrier at 8 KB,
/// 2 MB and 8 MB. The downloads are the same for every `--seed`, so only
/// the program moves `setup_s`.
fn setup() {
    for flow in flows() {
        for carrier in Carrier::ALL {
            for size in [SMALL[0], LARGE[0], LARGE[1]] {
                let sc = scenario(flow, carrier, DayPeriod::Evening, size);
                std::hint::black_box(run_measurement(&sc, SETUP_SEED));
            }
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run_e2e(seed: u64, seconds: u64) -> Outcome {
    let process_start = Instant::now();
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        setup();
        setups.push(t.elapsed().as_secs_f64());
    }
    let to_first_op = process_start.elapsed().as_secs_f64();

    let rounds = seconds.div_ceil(ROUND_S);
    let start = Instant::now();
    let mut tally = Tally::default();
    let (mut small_ms, mut small_s) = (Vec::new(), 0.0f64);
    let (mut large_n, mut large_s, mut large_bytes) = (0u64, 0.0f64, 0u64);
    let mut next_small = 0u64;
    // One small cycle after each large download, so machine noise falls on
    // both classes alike.
    for k in 0..rounds {
        for d in large_cycle(seed, k) {
            let (secs, bytes) = tally.download(&d, k == 0);
            large_n += 1;
            large_s += secs;
            large_bytes += bytes;
            for d in small_cycle(seed, next_small) {
                let (secs, _) = tally.download(&d, next_small == 0);
                small_s += secs;
                small_ms.push(secs * 1e3);
            }
            next_small += 1;
        }
    }
    let sorted = stats::sorted(&small_ms);
    let tail_p = stats::tail_percentile(sorted.len()).expect("5,400 small downloads a round");
    let rss = stats::peak_rss_mb().unwrap_or(0.0);
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.inconsistent == 0,
        metrics: crate::e2e_metrics(
            stats::median(&setups),
            rss,
            stats::percentile(&sorted, 50.0),
            stats::percentile(&sorted, tail_p),
            small_ms.len() as f64 / small_s,
            large_bytes as f64 / 1e6 / large_s,
        ),
        manifest: vec![
            ("small_downloads", Value::U64(small_ms.len() as u64)),
            ("large_downloads", Value::U64(large_n)),
            ("small_cycles", Value::U64(next_small)),
            ("large_cycles", Value::U64(rounds)),
            (
                "op",
                Value::Str("one small download (8 or 64 KB) via run_measurement".into()),
            ),
            ("tail_percentile", Value::F64(tail_p)),
            ("setup_samples", Value::U64(SETUPS as u64)),
            ("process_start_to_first_op_s", Value::F64(to_first_op)),
            ("measured_s", Value::F64(start.elapsed().as_secs_f64())),
            ("sim_digest", Value::Str(tally.digest.hex())),
            (
                "digest_covers",
                Value::Str("Measurement JSON of small and large cycle 0".into()),
            ),
        ],
    }
}

/// `run_measurement`'s testbed spec, transport and horizon for `sc`, in
/// campaign mode (exact per-sample recording off).
fn measurement_spec(sc: &Scenario, seed: u64) -> (TestbedSpec, TransportSpec, SimTime) {
    let wifi = sc.wifi.spec(sc.period);
    let cellular = sc.carrier.preset();
    let horizon = horizon_for(sc, &wifi, &cellular);
    let mut spec = TestbedSpec::two_path(seed, wifi, cellular);
    spec.dual_homed_server = sc.flow.needs_dual_homed_server();
    let mut transport = sc.flow.transport();
    if let TransportSpec::Mptcp(cfg) = &transport {
        spec.server_mptcp = MptcpConfig {
            max_subflows: 8,
            ..cfg.clone()
        };
    }
    spec.server_mptcp.tcp.record_rtt_samples = false;
    spec.server_mptcp.record_ofo_samples = false;
    spec.server_tcp.record_rtt_samples = false;
    match &mut transport {
        TransportSpec::Plain { tcp, .. } => tcp.record_rtt_samples = false,
        TransportSpec::Mptcp(cfg) => {
            cfg.tcp.record_rtt_samples = false;
            cfg.record_ofo_samples = false;
        }
    }
    (spec, transport, horizon)
}

// `run_measurement`'s private horizon rule, restated. A drift that
// changed a run would show as a replica-guard divergence.
fn path_budget_bps(path: &PathSpec) -> f64 {
    let raw = path.down.rate.mean_rate();
    let bg: f64 = path.bg_down.iter().map(|s| s.mean_load_bps()).sum();
    let fair = raw / (1.0 + path.bg_down.len() as f64);
    fair.min(raw - bg).max(raw * 0.02)
}

fn horizon_for(sc: &Scenario, wifi: &PathSpec, cellular: &PathSpec) -> SimTime {
    let budget = match sc.flow {
        FlowConfig::SpWifi => path_budget_bps(wifi),
        FlowConfig::SpCellular => path_budget_bps(cellular),
        FlowConfig::Mp { .. } => path_budget_bps(wifi).min(path_budget_bps(cellular)),
    };
    let eff = (budget * 0.25).max(64_000.0);
    let secs = 30.0 + sc.size as f64 * 8.0 / eff;
    SimTime::from_secs((secs as u64).min(7_200))
}

/// Queue the download the way `Testbed::download` does; returns its slot.
fn queue_download(
    world: &mut World,
    client: AgentId,
    transport: TransportSpec,
    sc: &Scenario,
) -> usize {
    let at = SimTime::from_millis(100);
    let host = world.agent_mut::<Host>(client).expect("client host");
    let slot = host.slot_count() + host.pending_open_count();
    host.queue_open(OpenRequest {
        at,
        spec: transport,
        remote: Endpoint::new(SERVER_ADDRS[0], SERVER_PORT),
        app: Box::new(Wget::new(sc.size, false)),
        warmup_pings: if sc.warmup { 2 } else { 0 },
        warmup_if: 1,
    });
    world.schedule(
        at,
        client,
        Event::Timer {
            token: Host::open_token(),
        },
    );
    slot
}

/// `run_measurement`'s drive loop: 5 s slices until the download is done,
/// the world idles, or the horizon passes. Each slice is a span when traced.
fn drive(
    world: &mut World,
    client: AgentId,
    slot: usize,
    horizon: SimTime,
    rec: Option<&SharedRecorder>,
) {
    let slice = SimDuration::from_secs(5);
    loop {
        let next = (world.now() + slice).min(horizon);
        if let Some(r) = rec {
            r.borrow_mut().begin(Kind::RunUntil);
        }
        let outcome = world.run_until(next);
        if let Some(r) = rec {
            r.borrow_mut().end();
        }
        let done = world
            .agent::<Host>(client)
            .and_then(|h| h.app::<Wget>(slot))
            .is_some_and(|w| w.result.download_time().is_some());
        if done || outcome == RunOutcome::Idle || next >= horizon {
            break;
        }
    }
}

/// What the replica guard compares.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fingerprint {
    /// Events the engine processed.
    pub events: u64,
    /// Final simulated clock, ns.
    pub clock_ns: u64,
    /// Bytes the client application received.
    pub bytes: u64,
    /// Download time as the client application measured it, ns.
    pub download_ns: Option<u64>,
}

fn fingerprint(world: &World, client: AgentId, slot: usize) -> Fingerprint {
    let result = world
        .agent::<Host>(client)
        .and_then(|h| h.app::<Wget>(slot))
        .map(|w| w.result)
        .unwrap_or_default();
    Fingerprint {
        events: world.events_processed(),
        clock_ns: world.now().as_nanos(),
        bytes: result.bytes,
        download_ns: result.download_time().map(|d| d.as_nanos()),
    }
}

/// The download through the public `Testbed`, untraced.
fn public_run(d: &Download) -> Fingerprint {
    let (spec, transport, horizon) = measurement_spec(&d.scenario, d.seed);
    let mut tb = Testbed::build(spec);
    let slot = tb.download(
        transport,
        d.scenario.size,
        SimTime::from_millis(100),
        d.scenario.warmup,
    );
    drive(&mut tb.world, tb.client, slot, horizon, None);
    fingerprint(&tb.world, tb.client, slot)
}

/// A replica of `Testbed::build` from public constructors, with every agent
/// inside a [`Timed`] shim. Agent ids and RNG streams follow the same order,
/// so the world is event-for-event the one `Testbed` builds.
struct Replica {
    world: World,
    client: AgentId,
    server: AgentId,
    links: Vec<AgentId>,
}

fn build_replica(spec: TestbedSpec, rec: &SharedRecorder) -> Replica {
    assert!(
        !spec.strip_mptcp_on_path0 && spec.capture.is_none(),
        "unsupported spec"
    );
    let mut world = World::new(spec.seed, spec.trace);
    let client_addrs: Vec<Addr> = CLIENT_ADDRS[..spec.paths.len()].to_vec();
    let server_addrs: Vec<Addr> =
        SERVER_ADDRS[..if spec.dual_homed_server { 2 } else { 1 }].to_vec();
    let c_rng = world.rng().stream("host.client");
    let s_rng = world.rng().stream("host.server");
    let client_host = Host::new(client_addrs.clone(), 0, true, c_rng);
    let client = world.add_agent(Timed::boxed(client_host, Kind::ClientHost, rec));
    let server_host = Host::new(server_addrs, 1 << 16, false, s_rng);
    let server = world.add_agent(Timed::boxed(server_host, Kind::ServerHost, rec));
    let mut links = Vec::new();
    for (i, p) in spec.paths.iter().enumerate() {
        let ends = ((client, i as u16), (server, i as u16));
        let (up, down) = replica_path(&mut world, p, ends.0, ends.1, &format!("path{i}"), rec);
        links.push(up);
        links.push(down);
    }
    {
        let host = world.agent_mut::<Host>(client).expect("client host");
        for i in 0..spec.paths.len() {
            host.set_iface_link(i, links[2 * i]);
        }
    }
    let host = world.agent_mut::<Host>(server).expect("server host");
    host.set_iface_link(0, links[1]);
    for (i, addr) in client_addrs.iter().enumerate() {
        host.add_route(*addr, links[2 * i + 1]);
    }
    host.listen(
        SERVER_PORT,
        spec.server_mptcp.clone(),
        (spec.server_tcp.clone(), CcConfig::default()),
        Box::new(|_conn_id| Box::new(HttpServer::new())),
    );
    Replica {
        world,
        client,
        server,
        links,
    }
}

/// `mpw_link::build_path` with timed agents; returns (uplink, downlink).
pub fn replica_path(
    world: &mut World,
    spec: &PathSpec,
    client: (AgentId, u16),
    server: (AgentId, u16),
    label: &str,
    rec: &SharedRecorder,
) -> (AgentId, AgentId) {
    let bg_sink = world.add_agent(Timed::boxed(NullSink::default(), Kind::Background, rec));
    let mut up = LinkAgent::new(
        spec.up.clone(),
        world.rng().stream(&format!("{label}.up")),
        server,
    );
    up.set_sink((bg_sink, 0));
    let uplink = world.add_agent(Timed::boxed(up, Kind::Link, rec));
    let mut down = LinkAgent::new(
        spec.down.clone(),
        world.rng().stream(&format!("{label}.down")),
        client,
    );
    down.set_sink((bg_sink, 0));
    let downlink = world.add_agent(Timed::boxed(down, Kind::Link, rec));
    for (j, bg) in spec.bg_down.iter().enumerate() {
        let rng = world.rng().stream(&format!("{label}.bg_down.{j}"));
        let src = OnOffSource::new(bg.clone(), rng, (downlink, 0));
        world.add_agent(Timed::boxed(src, Kind::Background, rec));
    }
    for (j, bg) in spec.bg_up.iter().enumerate() {
        let rng = world.rng().stream(&format!("{label}.bg_up.{j}"));
        let src = OnOffSource::new(bg.clone(), rng, (uplink, 0));
        world.add_agent(Timed::boxed(src, Kind::Background, rec));
    }
    (uplink, downlink)
}

/// The traced replica of one download: fingerprint plus exact counts.
fn replica_run(
    d: &Download,
    rec: &SharedRecorder,
    tap: &Rc<RefCell<CappedTap>>,
    counts: &mut Counts,
) -> Fingerprint {
    rec.borrow_mut().begin(Kind::Op);
    rec.borrow_mut().begin(Kind::Build);
    let (spec, transport, horizon) = measurement_spec(&d.scenario, d.seed);
    let mut r = build_replica(spec, rec);
    for &l in &r.links {
        CappedTap::attach(tap, &mut r.world, l);
    }
    let slot = queue_download(&mut r.world, r.client, transport, &d.scenario);
    rec.borrow_mut().end();
    drive(&mut r.world, r.client, slot, horizon, Some(rec));
    rec.borrow_mut().begin(Kind::Harvest);
    let fp = fingerprint(&r.world, r.client, slot);
    counts.downloads += 1;
    counts.add_world(&r.world);
    for id in [r.client, r.server] {
        counts.add_host(r.world.agent::<Host>(id).expect("host"));
    }
    for &l in &r.links {
        counts.add_link(&r.world, l);
    }
    rec.borrow_mut().end();
    rec.borrow_mut().end();
    fp
}

/// Check one download three ways: the traced replica against the public
/// `Testbed` world (events, clock, bytes) and against `run_measurement`
/// (bytes, download time). Errs with a description of any divergence.
pub fn guard(
    d: &Download,
    rec: &SharedRecorder,
    tap: &Rc<RefCell<CappedTap>>,
    counts: &mut Counts,
) -> Result<Guarded, String> {
    let t = Instant::now();
    let m = run_measurement(&d.scenario, d.seed);
    let public_s = t.elapsed().as_secs_f64();
    let public = public_run(d);
    let replica = replica_run(d, rec, tap, counts);
    let public_time_s = public
        .download_ns
        .map(|ns| SimDuration::from_nanos(ns).as_secs_f64());
    let same_measurement = m.bytes == public.bytes && m.download_time_s == public_time_s;
    if replica != public || !same_measurement {
        return Err(format!(
            "diverged: {:?} size {} seed {}: replica {replica:?}, Testbed {public:?}, \
             run_measurement bytes {} time {:?}",
            d.scenario.flow, d.scenario.size, d.seed, m.bytes, m.download_time_s
        ));
    }
    Ok(Guarded {
        public_s,
        ok: delivered(&m, d.scenario.size),
    })
}

/// The traced run: the reference set (small and large cycle 0) through the
/// replica guard; per-layer metrics.
pub fn run_traced(seed: u64, seconds: u64) -> Outcome {
    let set: Vec<Download> = small_cycle(seed, 0)
        .into_iter()
        .chain(large_cycle(seed, 0))
        .collect();
    let rec = Recorder::shared(SPANS_KEPT);
    let tap = CappedTap::shared(REPLAY_FRAMES);
    layers::traced_run(
        "single-flow",
        seed,
        (seconds / TRACED_REP_S).max(1),
        set.len(),
        &rec,
        &tap,
        |i, counts| guard(&set[i], &rec, &tap, counts),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_are_stratified_and_seeded() {
        let a = small_cycle(1, 0);
        assert_eq!(a.len(), 120);
        assert_eq!(large_cycle(1, 0).len(), 45);
        let sizes = |c: &[Download]| {
            let mut v: Vec<u64> = c.iter().map(|d| d.scenario.size).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sizes(&a), sizes(&small_cycle(2, 5)));
        let seeds = |c: &[Download]| c.iter().map(|d| d.seed).collect::<Vec<_>>();
        assert_eq!(seeds(&a), seeds(&small_cycle(1, 0)));
        assert_ne!(seeds(&a), seeds(&small_cycle(2, 0)));
        assert_ne!(seeds(&a), seeds(&small_cycle(1, 1)));
    }

    #[test]
    fn four_large_cycles_cover_every_period_once() {
        let mut seen = std::collections::BTreeMap::new();
        for k in 0..4 {
            for d in large_cycle(3, k) {
                let sc = &d.scenario;
                let key = format!("{:?} {:?} {}", sc.flow, sc.carrier, sc.size);
                seen.entry(key)
                    .or_insert_with(Vec::new)
                    .push(sc.period as usize);
            }
        }
        assert_eq!(seen.len(), 45);
        for periods in seen.values_mut() {
            periods.sort_unstable();
            assert_eq!(periods, &[0, 1, 2, 3]);
        }
    }

    #[test]
    fn replica_guard_holds_at_8kb() {
        let rec = Recorder::shared(0);
        let tap = CappedTap::shared(100);
        let mut counts = Counts::default();
        for flow in flows() {
            let d = Download {
                scenario: scenario(flow, Carrier::Att, DayPeriod::Evening, 8 << 10),
                seed: 11,
            };
            guard(&d, &rec, &tap, &mut counts).expect("replica matches the public testbed");
        }
        assert_eq!(counts.downloads, 5);
        assert!(rec.borrow().count(Kind::ClientHost) > 0);
        assert!(!tap.borrow().frames().is_empty());
    }
}
