//! `fleet-hotspot`: `run_fleet` worlds of 3,000 mixed clients on the
//! coffee-shop hotspot WiFi plus the AT&T sector, each client opening one
//! staggered 64 KB download (open loop on the simulated clock). A run
//! derives twelve world seeds from `--seed` and runs the worlds round
//! robin, back to back, for a number of rounds fixed by `--seconds`; every
//! rerun of a world must reproduce its first report exactly. Twelve worlds, not one, because the client mix is drawn
//! per world and one world's cost varies by several percent with its seed.
//!
//! This is the only workload where one Host serves thousands of concurrent
//! connections, where a Switch fans out every downlink frame, where the
//! shared drop-tail queues drive retransmission, and where the drive loop
//! scans every client each tick.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use mpw_fleet::{run_fleet, Arrival, ClientClass, FleetSpec, FleetWifi, FleetWorkload};
use mpw_http::{HttpServer, StreamingClient, Wget};
use mpw_link::{wifi_home, wifi_hotspot, PathSpec};
use mpw_metrics::{to_json, FleetReport, FlowRecord};
use mpw_mptcp::{Host, MptcpConfig, OpenRequest, Transport, TransportSpec};
use mpw_sim::trace::TraceLevel;
use mpw_sim::{Agent, AgentId, Ctx, Event, Frame, SimDuration, SimTime, Switch, World};
use mpw_tcp::{peek_ip_dst, Addr, CcConfig, Endpoint, TcpConfig};
use serde_json::Value;

use crate::layers::{self, CappedTap, Counts, Guarded, REPLAY_FRAMES, SPANS_KEPT};
use crate::report::Outcome;
use crate::single_flow::replica_path;
use crate::stats::{self, Digest, SplitMix};
use crate::timed::{Kind, Recorder, SharedRecorder, Timed};

/// Clients in the benchmark world.
pub const CLIENTS: u32 = 3_000;
/// Clients in each set-up warm-up world.
const SETUP_CLIENTS: u32 = 1_000;
/// Set-up repetitions whose median is `setup_s`.
const SETUPS: usize = 5;
/// World seed of the set-up world.
const SETUP_SEED: u64 = 1;
/// Distinct worlds per run.
const WORLDS: u64 = 12;
/// Rounds over the worlds a run makes at least: every world is rerun,
/// and 24 samples define the tail percentile.
const MIN_ROUNDS: u64 = 2;
/// Requested seconds per round of the untraced run: twelve worlds take
/// about 13 s on a 2-core host.
const ROUND_S: u64 = 13;
/// Requested seconds per repetition of the traced run (twelve worlds, each
/// run three times), about 32 s on a 2-core host.
const TRACED_REP_S: u64 = 32;

/// Arrival gap. At 20 ms (the fleet smoke default) the hotspot is so
/// overloaded that some flows never finish; at 60 ms the shared queues
/// still overflow and drive retransmission, and every flow completes.
const GAP_MS: u64 = 60;

/// The benchmark world for `seed` with `n` clients: the fleet smoke mix
/// (5/3/2 WiFi-only/LTE-only/multipath) on the 15-customer hotspot, 64 KB
/// downloads [`GAP_MS`] apart, and a horizon 90 s past the last arrival.
pub fn spec(seed: u64, n: u32) -> FleetSpec {
    let mut s = FleetSpec::smoke(n, seed);
    s.wifi = FleetWifi::Hotspot(15);
    s.arrival = Arrival::Staggered { gap_ms: GAP_MS };
    s.horizon_ms = 90_000 + GAP_MS * u64::from(n);
    s
}

/// The specs of the run seeded `seed`.
pub fn worlds(seed: u64) -> Vec<FleetSpec> {
    (0..WORLDS)
        .map(|j| spec(SplitMix::new(seed, j).next_u64() >> 1, CLIENTS))
        .collect()
}

/// Set-up: build the spec and run one small warm-up world. The world is
/// the same for every `--seed`, so only the program moves `setup_s`.
fn setup() {
    std::hint::black_box(run_fleet(&spec(SETUP_SEED, SETUP_CLIENTS)).report);
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

    let specs = worlds(seed);
    let rounds = (seconds / ROUND_S).max(MIN_ROUNDS);
    let start = Instant::now();
    let (mut world_ms, mut flows, mut bytes, mut failed) = (Vec::new(), 0u64, 0u64, 0u64);
    let mut first: Vec<String> = Vec::new();
    let mut mismatched = 0u64;
    // Whole rounds only, so every world weighs the same.
    for round in 0..rounds {
        for (j, spec) in specs.iter().enumerate() {
            let t = Instant::now();
            let run = run_fleet(spec);
            world_ms.push(t.elapsed().as_secs_f64() * 1e3);
            flows += run.records.len() as u64;
            bytes += run.report.bytes;
            let json = to_json(&run.report);
            let complete = every_flow_completed(&run.report);
            if round == 0 {
                first.push(json.clone());
            }
            let same = first[j] == json;
            if !complete || !same {
                eprintln!(
                    "failed: fleet world seed {}: {} of {} flows completed, report {} its first run",
                    spec.seed,
                    run.report.flows_completed,
                    run.report.flows_started,
                    if same { "matches" } else { "DIFFERS FROM" }
                );
            }
            mismatched += u64::from(!same);
            failed += u64::from(!complete || !same);
        }
    }
    let host_s: f64 = world_ms.iter().sum::<f64>() / 1e3;
    let sorted = stats::sorted(&world_ms);
    let tail_p = stats::tail_percentile(sorted.len()).expect("at least 24 worlds");
    let mut digest = Digest::default();
    for json in &first {
        digest.update(json.as_bytes());
    }
    Outcome {
        attempted: world_ms.len() as u64,
        failed,
        correct: mismatched == 0,
        metrics: crate::e2e_metrics(
            stats::median(&setups),
            stats::peak_rss_mb().unwrap_or(0.0),
            stats::percentile(&sorted, 50.0),
            stats::percentile(&sorted, tail_p),
            flows as f64 / host_s,
            bytes as f64 / 1e6 / host_s,
        ),
        manifest: vec![
            ("worlds", Value::U64(world_ms.len() as u64)),
            ("rounds", Value::U64(rounds)),
            (
                "world_ms",
                Value::Seq(world_ms.iter().map(|&ms| Value::F64(ms)).collect()),
            ),
            ("distinct_worlds", Value::U64(WORLDS)),
            ("flows", Value::U64(flows)),
            (
                "op",
                Value::Str(format!("one run_fleet world of {CLIENTS} clients")),
            ),
            ("tail_percentile", Value::F64(tail_p)),
            ("setup_samples", Value::U64(SETUPS as u64)),
            ("process_start_to_first_op_s", Value::F64(to_first_op)),
            ("measured_s", Value::F64(start.elapsed().as_secs_f64())),
            ("sim_digest", Value::Str(digest.hex())),
            (
                "digest_covers",
                Value::Str("FleetReport JSON of each world".into()),
            ),
        ],
    }
}

/// Whether every flow the world started finished by the horizon.
fn every_flow_completed(report: &FleetReport) -> bool {
    report.flows_completed == report.flows_started
}

// ---- replica of `run_fleet` ------------------------------------------------

const SERVER_ADDR: Addr = Addr::new(192, 168, 1, 1);
const SERVER_PORT: u16 = 8080;

fn classify_dst(frame: &Frame) -> Option<u64> {
    peek_ip_dst(&frame.bytes).map(|a| u64::from(a.0))
}

fn wifi_addr(i: u32) -> Addr {
    Addr::new(10, 0, (i >> 8) as u8, (i & 0xff) as u8)
}

fn cell_addr(i: u32) -> Addr {
    Addr::new(10, 1, (i >> 8) as u8, (i & 0xff) as u8)
}

/// The drive loop's clock-advance agent: handles a timer and does nothing.
struct Ticker;

impl Agent for Ticker {
    fn handle(&mut self, _ev: Event, _ctx: &mut Ctx<'_>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn client_tcp() -> TcpConfig {
    TcpConfig {
        record_rtt_samples: false,
        ..TcpConfig::default()
    }
}

fn transport_for(class: ClientClass) -> TransportSpec {
    match class {
        ClientClass::WifiOnly | ClientClass::LteOnly => TransportSpec::Plain {
            tcp: client_tcp(),
            cc: CcConfig::default(),
            if_index: 0,
        },
        ClientClass::Multipath => TransportSpec::Mptcp(MptcpConfig {
            tcp: client_tcp(),
            max_subflows: 2,
            record_ofo_samples: false,
            ..MptcpConfig::default()
        }),
    }
}

fn wifi_spec(spec: &FleetSpec) -> PathSpec {
    match spec.wifi {
        FleetWifi::Home => wifi_home(spec.period.wifi_load()),
        FleetWifi::Hotspot(n) => wifi_hotspot(n),
    }
}

fn finished(host: &Host, slot: usize) -> Option<SimTime> {
    host.app::<Wget>(slot).and_then(|w| w.result.finished_at)
}

struct Client {
    agent: AgentId,
    class: ClientClass,
    opens: u32,
}

/// What the replica guard compares, plus the report itself.
#[derive(Clone, Debug, PartialEq)]
pub struct WorldResult {
    /// Events the engine processed.
    pub events: u64,
    /// Final simulated clock, ns.
    pub clock_ns: u64,
    /// Bytes delivered to all clients.
    pub bytes: u64,
    /// The full report, as JSON.
    pub report_json: String,
}

/// Rebuild and drive `run_fleet`'s world from public constructors with
/// every agent timed. Supports the benchmark's spec shape: staggered
/// arrivals, downloads, no mobility.
fn replica(
    spec: &FleetSpec,
    rec: &SharedRecorder,
    tap: &Rc<RefCell<CappedTap>>,
    counts: &mut Counts,
) -> WorldResult {
    let gap_ms = match spec.arrival {
        Arrival::Staggered { gap_ms } => gap_ms,
        _ => panic!("the replica drives staggered arrivals only"),
    };
    let FleetWorkload::Download { size } = spec.workload else {
        panic!("the replica drives downloads only");
    };
    assert!(
        spec.mobility.is_none(),
        "the replica drives fixed paths only"
    );

    rec.borrow_mut().begin(Kind::Op);
    rec.borrow_mut().begin(Kind::Build);
    let mut world = World::new(spec.seed, TraceLevel::Off);
    let s_rng = world.rng().stream("fleet.server");
    let server_host = Host::new(vec![SERVER_ADDR], 1 << 16, false, s_rng);
    let server = world.add_agent(Timed::boxed(server_host, Kind::ServerHost, rec));
    let wifi_sw = world.add_agent(Timed::boxed(Switch::new(classify_dst), Kind::Switch, rec));
    let cell_sw = world.add_agent(Timed::boxed(Switch::new(classify_dst), Kind::Switch, rec));
    let (wifi_up, wifi_down) = replica_path(
        &mut world,
        &wifi_spec(spec),
        (wifi_sw, 0),
        (server, 0),
        "fleet.wifi",
        rec,
    );
    let (cell_up, cell_down) = replica_path(
        &mut world,
        &spec.carrier.preset(),
        (cell_sw, 0),
        (server, 0),
        "fleet.cell",
        rec,
    );
    let links = [wifi_up, wifi_down, cell_up, cell_down];
    for l in links {
        CappedTap::attach(tap, &mut world, l);
    }

    let mut mix_rng = world.rng().stream("fleet.mix");
    let mut clients = Vec::with_capacity(spec.n_clients as usize);
    for i in 0..spec.n_clients {
        let class = spec.mix.draw(&mut mix_rng);
        let addrs = match class {
            ClientClass::WifiOnly => vec![wifi_addr(i)],
            ClientClass::LteOnly => vec![cell_addr(i)],
            ClientClass::Multipath => vec![wifi_addr(i), cell_addr(i)],
        };
        let rng = world.rng().substream("fleet.client", u64::from(i));
        let host = Host::new(addrs, i * 256, true, rng);
        let agent = world.add_agent(Timed::boxed(host, Kind::ClientHost, rec));
        {
            let host = world.agent_mut::<Host>(agent).expect("client host");
            match class {
                ClientClass::WifiOnly => host.set_iface_link(0, wifi_up),
                ClientClass::LteOnly => host.set_iface_link(0, cell_up),
                ClientClass::Multipath => {
                    host.set_iface_link(0, wifi_up);
                    host.set_iface_link(1, cell_up);
                }
            }
        }
        let route = |world: &mut World, sw: AgentId, addr: Addr, down: AgentId| {
            let switch = world.agent_mut::<Switch>(sw).expect("switch");
            switch.add_route(u64::from(addr.0), (agent, 0));
            world
                .agent_mut::<Host>(server)
                .expect("server host")
                .add_route(addr, down);
        };
        if class != ClientClass::LteOnly {
            route(&mut world, wifi_sw, wifi_addr(i), wifi_down);
        }
        if class != ClientClass::WifiOnly {
            route(&mut world, cell_sw, cell_addr(i), cell_down);
        }
        clients.push(Client {
            agent,
            class,
            opens: 0,
        });
    }
    {
        let host = world.agent_mut::<Host>(server).expect("server host");
        host.set_iface_link(0, wifi_down);
        host.listen(
            SERVER_PORT,
            MptcpConfig {
                tcp: client_tcp(),
                max_subflows: 8,
                record_ofo_samples: false,
                ..MptcpConfig::default()
            },
            (client_tcp(), CcConfig::default()),
            Box::new(|_conn_id| Box::new(HttpServer::new())),
        );
    }
    let horizon = SimTime::from_millis(spec.horizon_ms);
    for (i, c) in clients.iter_mut().enumerate() {
        let at = SimTime::from_millis(i as u64 * gap_ms);
        if at >= horizon {
            continue;
        }
        world
            .agent_mut::<Host>(c.agent)
            .expect("client host")
            .queue_open(OpenRequest {
                at,
                spec: transport_for(c.class),
                remote: Endpoint::new(SERVER_ADDR, SERVER_PORT),
                app: Box::new(Wget::new(size, false)),
                warmup_pings: 0,
                warmup_if: 0,
            });
        world.schedule(
            at,
            c.agent,
            Event::Timer {
                token: Host::open_token(),
            },
        );
        c.opens = 1;
    }
    let ticker = world.add_agent(Timed::boxed(Ticker, Kind::Ticker, rec));
    let tick = SimDuration::from_millis(spec.goodput_bucket_ms.max(1));
    let mut report = FleetReport::new(spec.goodput_bucket_ms);
    report.clients = u64::from(spec.n_clients);
    rec.borrow_mut().end();

    let mut delivered_cum = 0u64;
    loop {
        let stop = (world.now() + tick).min(horizon);
        world.schedule(stop, ticker, Event::Timer { token: 0 });
        rec.borrow_mut().begin(Kind::RunUntil);
        world.run_until(stop);
        rec.borrow_mut().end();
        let now = world.now();
        let (mut total, mut all_done) = (0u64, true);
        for c in &clients {
            let host = world.agent::<Host>(c.agent).expect("client host");
            for slot in 0..host.slot_count() {
                if let Some(t) = host.transport(slot) {
                    total += t.delivered_offset();
                }
            }
            if host.slot_count() < c.opens as usize
                || (0..host.slot_count()).any(|s| finished(host, s).is_none())
            {
                all_done = false;
            }
        }
        if total > delivered_cum {
            report.absorb_goodput(now.as_nanos() / 1_000_000, total - delivered_cum);
            delivered_cum = total;
        }
        if now >= horizon || all_done {
            break;
        }
    }

    rec.borrow_mut().begin(Kind::Harvest);
    let mut records = Vec::new();
    for c in &clients {
        let host = world.agent::<Host>(c.agent).expect("client host");
        for slot in 0..host.slot_count() {
            records.push(harvest_flow(host, c, slot));
        }
        counts.add_host(host);
    }
    for r in &records {
        report.absorb(r);
    }
    counts.downloads += records.len() as u64;
    counts.add_world(&world);
    counts.add_host(world.agent::<Host>(server).expect("server host"));
    for l in links {
        counts.add_link(&world, l);
    }
    for sw in [wifi_sw, cell_sw] {
        counts.switch_frames += world.agent::<Switch>(sw).expect("switch").forwarded;
    }
    let result = WorldResult {
        events: world.events_processed(),
        clock_ns: world.now().as_nanos(),
        bytes: report.bytes,
        report_json: to_json(&report),
    };
    rec.borrow_mut().end();
    rec.borrow_mut().end();
    result
}

fn harvest_flow(host: &Host, c: &Client, slot: usize) -> FlowRecord {
    let transport = host.transport(slot).expect("live slot");
    let started = transport.opened_at();
    let finished = finished(host, slot);
    let bytes = transport.delivered_offset();
    let (mut wifi_bytes, mut cell_bytes) = (0u64, 0u64);
    match transport {
        Transport::Mp(conn) => {
            let per_sf = conn.stats().per_subflow_delivered;
            for (i, sf) in conn.subflows.iter().enumerate() {
                let b = per_sf.get(i).copied().unwrap_or(0);
                if sf.if_index == 0 {
                    wifi_bytes += b;
                } else {
                    cell_bytes += b;
                }
            }
        }
        Transport::Sp(_) => match c.class {
            ClientClass::LteOnly => cell_bytes = bytes,
            _ => wifi_bytes = bytes,
        },
    }
    let fct_us = finished
        .map(|f| f.saturating_since(started).as_nanos() / 1_000)
        .unwrap_or(0);
    let late_blocks = host
        .app::<StreamingClient>(slot)
        .map(|s| u64::from(s.late_blocks))
        .unwrap_or(0);
    FlowRecord {
        client: host.conn_id(slot).unwrap_or(0) / 256,
        class: c.class.label().to_string(),
        started_ms: started.as_nanos() / 1_000_000,
        completed: finished.is_some(),
        fct_us,
        bytes,
        wifi_bytes,
        cell_bytes,
        rate_kbps: if finished.is_some() {
            (bytes * 8_000).checked_div(fct_us).unwrap_or(0)
        } else {
            0
        },
        late_blocks,
    }
}

/// Check the traced replica of `spec` against `run_fleet`: events, clock,
/// delivered bytes and the whole report. Errs with a description of any
/// divergence.
pub fn guard(
    spec: &FleetSpec,
    rec: &SharedRecorder,
    tap: &Rc<RefCell<CappedTap>>,
    counts: &mut Counts,
) -> Result<Guarded, String> {
    let t = Instant::now();
    let run = run_fleet(spec);
    let public_s = t.elapsed().as_secs_f64();
    let ok = every_flow_completed(&run.report);
    let public = WorldResult {
        events: run.world.events_processed(),
        clock_ns: run.world.now().as_nanos(),
        bytes: run.report.bytes,
        report_json: to_json(&run.report),
    };
    drop(run);
    let replica = replica(spec, rec, tap, counts);
    if replica != public {
        return Err(format!(
            "diverged: fleet seed {} N={}: replica events {} clock {} bytes {}, \
             run_fleet events {} clock {} bytes {}, reports equal: {}",
            spec.seed,
            spec.n_clients,
            replica.events,
            replica.clock_ns,
            replica.bytes,
            public.events,
            public.clock_ns,
            public.bytes,
            replica.report_json == public.report_json
        ));
    }
    Ok(Guarded { public_s, ok })
}

/// The traced run: the run's worlds through the replica guard; per-layer
/// metrics.
pub fn run_traced(seed: u64, seconds: u64) -> Outcome {
    let specs = worlds(seed);
    let rec = Recorder::shared(SPANS_KEPT);
    let tap = CappedTap::shared(REPLAY_FRAMES);
    layers::traced_run(
        "fleet-hotspot",
        seed,
        (seconds / TRACED_REP_S).max(1),
        specs.len(),
        &rec,
        &tap,
        |i, counts| guard(&specs[i], &rec, &tap, counts),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_guard_holds_at_n20() {
        let rec = Recorder::shared(0);
        let tap = CappedTap::shared(100);
        let mut counts = Counts::default();
        guard(&spec(5, 20), &rec, &tap, &mut counts).expect("replica matches run_fleet");
        assert_eq!(counts.downloads, 20);
        assert!(counts.switch_frames > 0);
        assert!(rec.borrow().count(Kind::Switch) > 0);
    }
}
