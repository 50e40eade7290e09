//! Building and driving one fleet world.
//!
//! Topology: one single-homed server behind two *shared* access networks
//! (WiFi and cellular), each a duplex `mpw-link` pair. Every client sends
//! into the shared uplink agent — so the drop-tail queue sees the sum of
//! their load — and the shared downlink's egress is an [`mpw_sim::Switch`]
//! fanning frames back out by destination IP ([`mpw_tcp::peek_ip_dst`]).
//! Queueing delay, bufferbloat, and loss are therefore emergent properties
//! of the population, exactly the effect the contention artifacts sweep.

use mpw_http::{HttpServer, StreamingClient, Wget};
use mpw_link::{build_shared_access, wifi_home, wifi_hotspot, BuiltPath, PathSpec};
use mpw_metrics::{FleetReport, FlowRecord};
use mpw_mptcp::{Host, MptcpConfig, OpenRequest, Transport, TransportSpec};
use mpw_scenario::{compile, PathBinding, ScenarioDriver};
use mpw_sim::trace::TraceLevel;
use mpw_sim::{Agent, AgentId, Ctx, Event, Frame, SimDuration, SimRng, SimTime, Switch, World};
use std::any::Any;
use mpw_tcp::{peek_ip_dst, Addr, CcConfig, Endpoint, TcpConfig};

use crate::spec::{Arrival, ClientClass, FleetSpec, FleetWifi, FleetWorkload};

/// Server address/port for fleet worlds (one single-homed server; clients
/// join their second subflow against the same address, which the join
/// logic supports).
const SERVER_ADDR: Addr = Addr::new(192, 168, 1, 1);
const SERVER_PORT: u16 = 8080;

/// Destination-IP classifier handed to both access switches.
fn classify_dst(frame: &Frame) -> Option<u64> {
    peek_ip_dst(&frame.bytes).map(|a| u64::from(a.0))
}

/// WiFi-side address of client `i` (10.0.x.y); unique below
/// [`crate::MAX_CLIENTS`].
fn wifi_addr(i: u32) -> Addr {
    Addr::new(10, 0, (i >> 8) as u8, (i & 0xff) as u8)
}

/// Cellular-side address of client `i` (10.1.x.y); unique below
/// [`crate::MAX_CLIENTS`].
fn cell_addr(i: u32) -> Addr {
    Addr::new(10, 1, (i >> 8) as u8, (i & 0xff) as u8)
}

/// No-op agent the drive loop schedules a timer on at every tick boundary,
/// so `run_until(stop)` always advances the clock to `stop` even when the
/// event heap would otherwise drain early (`run_until` returns `Idle`
/// without touching `now`).
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

struct ClientState {
    agent: AgentId,
    class: ClientClass,
    /// Flows opened so far (slot indices are 0..opens on this host).
    opens: u32,
    /// Closed-loop think-time RNG (None for open-loop arrivals).
    think: Option<SimRng>,
    /// Whether a queued open is waiting to activate (closed loop).
    open_pending: bool,
    /// Closed loop only: the next think time would cross the horizon, so
    /// this client opens no further flows.
    done: bool,
}

/// A built, running fleet world plus its harvest state.
pub struct FleetRun {
    /// The simulation world (exposed for artifact-level inspection).
    pub world: World,
    /// Aggregate report (records already folded in).
    pub report: FleetReport,
    /// Per-flow records in deterministic (client, flow) order.
    pub records: Vec<FlowRecord>,
    /// Shared-path agent ids, for taps and assertions.
    pub wifi_path: BuiltPath,
    /// Cellular shared path.
    pub cell_path: BuiltPath,
    /// Server host agent id.
    pub server: AgentId,
}

fn wifi_spec(spec: &FleetSpec) -> PathSpec {
    match spec.wifi {
        FleetWifi::Home => wifi_home(spec.period.wifi_load()),
        FleetWifi::Hotspot(n) => wifi_hotspot(n),
    }
}

fn client_tcp() -> TcpConfig {
    // Fleets run with exact per-sample recording off: the constant-memory
    // summaries are enough for aggregate reports, and N×samples would
    // dominate memory at thousands of flows.
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

fn make_app(workload: &FleetWorkload) -> Box<dyn mpw_mptcp::App> {
    match workload {
        FleetWorkload::Download { size } => Box::new(Wget::new(*size, false)),
        FleetWorkload::Streaming { profile } => Box::new(StreamingClient::new(*profile)),
    }
}

/// First-arrival schedule: a pure function of the spec and seed.
fn arrival_schedule(spec: &FleetSpec, world: &World) -> Vec<SimTime> {
    match spec.arrival {
        Arrival::Staggered { gap_ms } => (0..spec.n_clients)
            .map(|i| SimTime::from_millis(u64::from(i) * gap_ms))
            .collect(),
        Arrival::Poisson { mean_gap_ms } => {
            let mut rng = world.rng().stream("fleet.arrivals");
            let mut t = 0.0f64;
            (0..spec.n_clients)
                .map(|_| {
                    t += rng.exponential(mean_gap_ms as f64);
                    SimTime::from_nanos((t * 1e6) as u64)
                })
                .collect()
        }
        Arrival::Closed { think_mean_ms } => (0..spec.n_clients)
            .map(|i| {
                let mut rng = world.rng().substream("fleet.think", u64::from(i));
                SimTime::from_nanos((rng.exponential(think_mean_ms as f64) * 1e6) as u64)
            })
            .collect(),
    }
}

/// Queue one flow open on a client host at `at`.
fn queue_flow(world: &mut World, client: AgentId, class: ClientClass, spec: &FleetSpec, at: SimTime) {
    let host = world.agent_mut::<Host>(client).expect("client host");
    host.queue_open(OpenRequest {
        at,
        spec: transport_for(class),
        remote: Endpoint::new(SERVER_ADDR, SERVER_PORT),
        app: make_app(&spec.workload),
        warmup_pings: 0,
        warmup_if: 0,
    });
    world.schedule(at, client, Event::Timer { token: Host::open_token() });
}

/// Whether slot `slot` on `host` finished its workload, and when.
fn flow_finished(host: &Host, slot: usize, workload: &FleetWorkload) -> Option<SimTime> {
    match workload {
        FleetWorkload::Download { .. } => host
            .app::<Wget>(slot)
            .and_then(|w| w.result.finished_at),
        FleetWorkload::Streaming { .. } => {
            host.app::<StreamingClient>(slot).and_then(|s| s.finished_at)
        }
    }
}

/// Build the world described by `spec`, run it to the horizon (or until
/// every open-loop flow completes), and harvest the aggregate report.
/// Panics with the error's message if the spec fails
/// [`FleetSpec::validate`].
pub fn run_fleet(spec: &FleetSpec) -> FleetRun {
    run_fleet_windowed(spec, None, &mut |_| {})
}

/// [`run_fleet`] with an observation window for the allocation gate: the
/// mark closure fires with `0` at the first sampling tick at or after
/// `window.0` and with `1` at the first tick at or after `window.1`, from
/// outside the event loop — the bench snapshots its heap-op counter there.
pub fn run_fleet_windowed(
    spec: &FleetSpec,
    window: Option<(SimTime, SimTime)>,
    mark: &mut dyn FnMut(u8),
) -> FleetRun {
    if let Err(e) = spec.validate() {
        panic!("{e}");
    }
    let mut world = World::new(spec.seed, TraceLevel::Off);

    // --- server -----------------------------------------------------------
    let s_rng = world.rng().stream("fleet.server");
    let server = world.add_agent(Box::new(Host::new(vec![SERVER_ADDR], 1 << 16, false, s_rng)));

    // --- shared access networks ------------------------------------------
    let wifi_sw = world.add_agent(Box::new(Switch::new(classify_dst)));
    let cell_sw = world.add_agent(Box::new(Switch::new(classify_dst)));
    let wifi_path = build_shared_access(
        &mut world,
        &wifi_spec(spec),
        (wifi_sw, 0),
        (server, 0),
        "fleet.wifi",
    );
    let cell_path = build_shared_access(
        &mut world,
        &spec.carrier.preset(),
        (cell_sw, 0),
        (server, 0),
        "fleet.cell",
    );

    // --- population -------------------------------------------------------
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
        // 256 conn ids per client keeps ids unique across the fleet even
        // under closed-loop churn.
        let agent = world.add_agent(Box::new(Host::new(addrs, i * 256, true, rng)));
        {
            let host = world.agent_mut::<Host>(agent).expect("client host");
            match class {
                ClientClass::WifiOnly => host.set_iface_link(0, wifi_path.uplink),
                ClientClass::LteOnly => host.set_iface_link(0, cell_path.uplink),
                ClientClass::Multipath => {
                    host.set_iface_link(0, wifi_path.uplink);
                    host.set_iface_link(1, cell_path.uplink);
                }
            }
        }
        // Downstream fan-out and server-side routing for each address.
        if class != ClientClass::LteOnly {
            world
                .agent_mut::<Switch>(wifi_sw)
                .expect("wifi switch")
                .add_route(u64::from(wifi_addr(i).0), (agent, 0));
            world
                .agent_mut::<Host>(server)
                .expect("server host")
                .add_route(wifi_addr(i), wifi_path.downlink);
        }
        if class != ClientClass::WifiOnly {
            world
                .agent_mut::<Switch>(cell_sw)
                .expect("cell switch")
                .add_route(u64::from(cell_addr(i).0), (agent, 0));
            world
                .agent_mut::<Host>(server)
                .expect("server host")
                .add_route(cell_addr(i), cell_path.downlink);
        }
        let think = match spec.arrival {
            Arrival::Closed { .. } => {
                Some(world.rng().substream("fleet.think", u64::from(i)))
            }
            _ => None,
        };
        clients.push(ClientState {
            agent,
            class,
            opens: 0,
            think,
            open_pending: false,
            done: false,
        });
    }
    {
        let host = world.agent_mut::<Host>(server).expect("server host");
        host.set_iface_link(0, wifi_path.downlink);
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

    // --- first arrivals ---------------------------------------------------
    let arrivals = arrival_schedule(spec, &world);
    let horizon = SimTime::from_millis(spec.horizon_ms);
    for (i, &at) in arrivals.iter().enumerate() {
        if at >= horizon {
            continue;
        }
        let c = &mut clients[i];
        queue_flow(&mut world, c.agent, c.class, spec, at);
        c.opens = 1;
        c.open_pending = true;
    }

    // --- mobility ---------------------------------------------------------
    let mut driver = spec
        .mobility
        .as_ref()
        .map(|s| ScenarioDriver::from_timeline(compile(s).expect("fleet scenario compiles")));
    let bindings = [PathBinding {
        uplink: wifi_path.uplink,
        downlink: wifi_path.downlink,
    }];

    // --- drive ------------------------------------------------------------
    let closed = matches!(spec.arrival, Arrival::Closed { .. });
    let think_mean_ms = match spec.arrival {
        Arrival::Closed { think_mean_ms } => think_mean_ms as f64,
        _ => 0.0,
    };
    let ticker = world.add_agent(Box::new(Ticker));
    let tick = SimDuration::from_millis(spec.goodput_bucket_ms.max(1));
    let mut report = FleetReport::new(spec.goodput_bucket_ms);
    report.clients = u64::from(spec.n_clients);
    let mut delivered_cum: u64 = 0;
    let mut marked = [false; 2];
    loop {
        let now = world.now();
        let mut stop = (now + tick).min(horizon);
        if let Some(d) = &driver {
            if let Some(at) = d.next_at() {
                stop = stop.min(at);
            }
        }
        // Guarantee the clock reaches `stop` even if the heap drains.
        world.schedule(stop, ticker, Event::Timer { token: 0 });
        world.run_until(stop);
        let now = world.now();
        if let Some((start, end)) = window {
            if !marked[0] && now >= start {
                marked[0] = true;
                mark(0);
            }
            if marked[0] && !marked[1] && now >= end {
                marked[1] = true;
                mark(1);
            }
        }
        if let Some(d) = &mut driver {
            d.apply_due(&mut world, &bindings, now)
                .expect("fleet scenario paths are bound");
        }

        // Aggregate goodput sample: fleet-wide delivered-byte delta.
        let mut total: u64 = 0;
        let mut all_done = true;
        for c in &clients {
            let host = world.agent::<Host>(c.agent).expect("client host");
            for slot in 0..host.slot_count() {
                if let Some(t) = host.transport(slot) {
                    total += t.delivered_offset();
                }
            }
            if host.slot_count() < c.opens as usize
                || (0..host.slot_count())
                    .any(|s| flow_finished(host, s, &spec.workload).is_none())
            {
                all_done = false;
            }
        }
        if total > delivered_cum {
            report.absorb_goodput(now.as_nanos() / 1_000_000, total - delivered_cum);
            delivered_cum = total;
        }

        // Closed loop: one think time after a client's latest flow
        // finishes, open the next one.
        if closed {
            for c in &mut clients {
                if c.done {
                    continue;
                }
                let host = world.agent::<Host>(c.agent).expect("client host");
                let opened_all = host.slot_count() >= c.opens as usize;
                let latest_done = c.opens > 0
                    && opened_all
                    && flow_finished(host, c.opens as usize - 1, &spec.workload).is_some();
                if latest_done && c.open_pending {
                    c.open_pending = false;
                }
                if latest_done && !c.open_pending {
                    // One think-time draw per completed flow. Think clocks
                    // start at the sampling tick where the completion is
                    // observed (≤ one bucket after the true finish time).
                    let think = c.think.as_mut().expect("closed loop has think RNG");
                    let gap = SimDuration::from_nanos(
                        (think.exponential(think_mean_ms) * 1e6) as u64,
                    );
                    let at = now + gap;
                    if at < horizon {
                        queue_flow(&mut world, c.agent, c.class, spec, at);
                        c.opens += 1;
                        c.open_pending = true;
                    } else {
                        // Horizon would cut the flow: this client is done.
                        c.done = true;
                    }
                }
                all_done = false;
            }
        }

        if now >= horizon || (!closed && all_done) {
            break;
        }
    }

    // --- harvest ----------------------------------------------------------
    let mut records = Vec::new();
    for c in &clients {
        let host = world.agent::<Host>(c.agent).expect("client host");
        for slot in 0..host.slot_count() {
            records.push(harvest_flow(host, c, slot, spec));
        }
    }
    for r in &records {
        report.absorb(r);
    }
    // `absorb` counted flows; clients was set up front.
    FleetRun {
        world,
        report,
        records,
        wifi_path,
        cell_path,
        server,
    }
}

fn harvest_flow(host: &Host, c: &ClientState, slot: usize, spec: &FleetSpec) -> FlowRecord {
    let transport = host.transport(slot).expect("live slot");
    let started = transport.opened_at();
    let finished = flow_finished(host, slot, &spec.workload);
    let bytes = transport.delivered_offset();
    let (mut wifi_bytes, mut cell_bytes) = (0u64, 0u64);
    match transport {
        Transport::Mp(conn) => {
            let per_sf = conn.stats().per_subflow_delivered;
            for (i, sf) in conn.subflows.iter().enumerate() {
                let b = per_sf.get(i).copied().unwrap_or(0);
                // Multipath fleet clients bind iface 0 to WiFi, 1 to cellular.
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
        client: (host.conn_id(slot).unwrap_or(0)) / 256,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PathMix;

    #[test]
    fn tiny_fleet_completes_downloads() {
        let mut spec = FleetSpec::smoke(6, 11);
        spec.workload = FleetWorkload::Download { size: 16 << 10 };
        spec.horizon_ms = 30_000;
        let run = run_fleet(&spec);
        assert_eq!(run.report.clients, 6);
        assert_eq!(run.report.flows_started, 6);
        assert_eq!(
            run.report.flows_completed, 6,
            "all small downloads should finish well before the horizon: {:?}",
            run.records
        );
        assert!(run.report.bytes >= 6 * (16 << 10));
        // The fan-out switches saw traffic and dropped nothing on the floor.
        let wifi_sw_forwarded: u64 = run.report.wifi_bytes;
        assert!(wifi_sw_forwarded > 0);
    }

    #[test]
    fn n1_multipath_uses_both_paths() {
        let mut spec = FleetSpec::smoke(1, 5);
        spec.mix = PathMix::all_multipath();
        spec.workload = FleetWorkload::Download { size: 2 << 20 };
        spec.horizon_ms = 120_000;
        let run = run_fleet(&spec);
        assert_eq!(run.report.flows_completed, 1);
        assert!(run.report.wifi_bytes > 0, "wifi carried nothing");
        assert!(run.report.cell_bytes > 0, "cellular carried nothing");
        assert_eq!(
            run.report.bytes,
            run.report.wifi_bytes + run.report.cell_bytes
        );
    }

    #[test]
    fn replay_is_byte_identical() {
        let spec = FleetSpec::smoke(12, 3);
        let a = run_fleet(&spec);
        let b = run_fleet(&spec);
        assert_eq!(
            mpw_metrics::to_json(&a.report),
            mpw_metrics::to_json(&b.report)
        );
    }

    #[test]
    fn closed_loop_reopens_flows() {
        let mut spec = FleetSpec::smoke(3, 9);
        spec.workload = FleetWorkload::Download { size: 8 << 10 };
        spec.arrival = Arrival::Closed { think_mean_ms: 500 };
        spec.horizon_ms = 20_000;
        let run = run_fleet(&spec);
        assert!(
            run.report.flows_started > 3,
            "closed loop should open repeat flows, got {}",
            run.report.flows_started
        );
    }
}
