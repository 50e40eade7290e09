//! Running one measurement and harvesting its metrics.
//!
//! Campaign runs keep memory flat: per-sample RTT/OFO vectors are disabled
//! and the constant-memory streaming summaries ([`DistSummary`]) carry the
//! distributions instead. Traced runs ([`run_measurement_traced`]) keep the
//! exact vectors on for tests that check individual samples.

use mpw_http::Wget;
use mpw_link::{LinkConfig, PathSpec, Technology};
use mpw_metrics::DistSummary;
use mpw_mptcp::{Host, Transport, TransportSpec};
use mpw_sim::trace::TraceLevel;
use mpw_sim::{RunOutcome, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::config::{FlowConfig, Scenario};
use crate::testbed::{Testbed, TestbedSpec};

/// Per-subflow (or per-path) measurement outputs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SubflowMeasurement {
    /// Which client interface carried it (0 = WiFi, 1 = cellular).
    pub if_index: u8,
    /// Access technology of that interface.
    pub technology: Technology,
    /// Payload bytes this subflow delivered to the receiver.
    pub delivered_bytes: u64,
    /// Data segments the server sent on this subflow.
    pub data_segs_sent: u64,
    /// Retransmitted segments (loss-rate numerator, §3.3).
    pub rexmit_segs: u64,
    /// Streaming summary of per-packet RTTs in milliseconds (server side,
    /// tcptrace rule). Always populated, regardless of exact recording.
    pub rtt: DistSummary,
    /// Exact per-packet RTT samples in milliseconds. Only populated in
    /// traced runs; campaigns leave it empty and use [`Self::rtt`].
    pub rtt_samples_ms: Vec<f64>,
    /// Whether the subflow ever established.
    pub established: bool,
}

impl SubflowMeasurement {
    /// The paper's per-subflow loss rate in percent.
    pub fn loss_pct(&self) -> f64 {
        if self.data_segs_sent == 0 {
            0.0
        } else {
            100.0 * self.rexmit_segs as f64 / self.data_segs_sent as f64
        }
    }

    /// Mean RTT in milliseconds.
    pub fn mean_rtt_ms(&self) -> Option<f64> {
        if self.rtt.count() == 0 {
            None
        } else {
            Some(self.rtt.mean())
        }
    }
}

/// Everything one measurement yields.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Measurement {
    /// The scenario measured.
    pub scenario: Scenario,
    /// Seed used.
    pub seed: u64,
    /// Download time in seconds (None if it never completed in the horizon).
    pub download_time_s: Option<f64>,
    /// Bytes delivered to the application.
    pub bytes: u64,
    /// Fraction of delivered traffic carried by the cellular path.
    pub cellular_share: f64,
    /// Per-path details (index 0 = WiFi path, 1 = cellular path; single-path
    /// runs have one entry).
    pub subflows: Vec<SubflowMeasurement>,
    /// Streaming summary of connection-level out-of-order delays in
    /// milliseconds. Always populated for MPTCP runs.
    pub ofo: DistSummary,
    /// Exact connection-level out-of-order delay samples in milliseconds.
    /// Only populated in traced runs; campaigns use [`Self::ofo`].
    pub ofo_samples_ms: Vec<f64>,
    /// Whether MPTCP fell back to plain TCP.
    pub fell_back: bool,
}

/// Downstream throughput budget (bits/s) a foreground flow can count on
/// over one path, from the preset's own rate process and background load.
///
/// With n on/off background sources at the bottleneck the fair share is
/// raw/(n+1); when the sources are mostly idle the residual raw − Σload is
/// the tighter bound, so take the smaller of the two. The 2% floor guards
/// against degenerate presets.
fn path_budget_bps(path: &PathSpec) -> f64 {
    let raw = path.down.rate.mean_rate();
    let bg: f64 = path.bg_down.iter().map(|s| s.mean_load_bps()).sum();
    let fair = raw / (1.0 + path.bg_down.len() as f64);
    fair.min(raw - bg).max(raw * 0.02)
}

/// Worst-case run horizon, derived from the scenario's actual presets
/// instead of a one-size-fits-all constant. A quarter of the contended
/// path budget absorbs slow start, protocol overhead and unlucky
/// rate-process excursions; Sprint EVDO lands at ~330 kbit/s effective,
/// which is the worst case the old hard-coded 320 kbit/s assumed for
/// *every* scenario. Multipath flows get at least the slower path's
/// budget. Completed downloads stop early, so a generous horizon only
/// costs wall-clock when a flow genuinely crawls.
fn horizon_for(scenario: &Scenario, wifi: &PathSpec, cellular: &PathSpec) -> SimTime {
    let budget = match scenario.flow {
        FlowConfig::SpWifi => path_budget_bps(wifi),
        FlowConfig::SpCellular => path_budget_bps(cellular),
        FlowConfig::Mp { .. } => path_budget_bps(wifi).min(path_budget_bps(cellular)),
    };
    let eff = (budget * 0.25).max(64_000.0);
    let secs = 30.0 + scenario.size as f64 * 8.0 / eff;
    SimTime::from_secs((secs as u64).min(7_200))
}

/// Run one measurement to completion (or horizon) and harvest metrics.
///
/// Campaign mode: exact per-sample recording is off, distributions come
/// from the streaming summaries, memory stays flat in download size.
pub fn run_measurement(scenario: &Scenario, seed: u64) -> Measurement {
    run_measurement_inner(scenario, seed, false, None).0
}

/// As [`run_measurement`], but with wire capture taps attached at the
/// paper's four tcpdump vantages per path. Returns the measurement plus the
/// serialized pcapng capture. The measurement is byte-identical to what
/// [`run_measurement`] yields for the same scenario and seed: taps observe
/// without drawing randomness or scheduling events.
pub fn run_measurement_captured(scenario: &Scenario, seed: u64) -> (Measurement, Vec<u8>) {
    let hub = mpw_capture::CaptureHub::shared();
    let (m, _tb) = run_measurement_inner(scenario, seed, false, Some(hub.clone()));
    let pcap = hub.borrow().to_pcapng();
    (m, pcap)
}

/// Result of a [`run_lossfree_download_windowed`] probe.
#[derive(Clone, Copy, Debug)]
pub struct LossfreeProbe {
    /// Bytes the application received (must equal the requested size).
    pub bytes: u64,
    /// Download completion time in seconds (None if the horizon expired).
    pub download_time_s: Option<f64>,
    /// Data segments the server sent inside the observation window.
    pub window_segments: u64,
    /// Retransmitted segments over the whole run — must be 0, or the run
    /// was not actually loss-free and the probe is invalid.
    pub rexmit_segs: u64,
    /// Size of the serialized pcapng capture (0 when capture was off).
    pub pcap_bytes: usize,
}

/// A loss-free wired access path: fixed 20 Mbit/s, 10 ms propagation, a
/// queue deeper than the 512 KiB default send buffer so drop-tail can never
/// fire, no jitter, no channel loss, no background sources. Two of these
/// form the steady-state testbed of the allocation-regression gate.
fn lossfree_path() -> PathSpec {
    PathSpec {
        name: "Loss-free wired".into(),
        technology: Technology::Wired,
        down: LinkConfig::wired(20_000_000, SimDuration::from_millis(10), 1 << 20),
        up: LinkConfig::wired(20_000_000, SimDuration::from_millis(10), 1 << 20),
        bg_down: vec![],
        bg_up: vec![],
    }
}

/// Run a two-path MPTCP download over loss-free wired paths, invoking
/// `mark(0)` when simulated time first reaches `window.0` and `mark(1)` at
/// `window.1`. By `window.0` the handshake, MP_JOIN and slow-start ramp are
/// over, so everything between the two marks is pure steady-state data
/// transfer: the allocation gate snapshots a counting allocator in the
/// marks and requires the delta to be zero. Both marks fire at exact
/// simulated times (the run loop slices `run_until` at the boundaries,
/// which preserves event order), so the window contents are deterministic.
///
/// Campaign-mode metrics recording (streaming summaries only) keeps the
/// measurement itself off the heap; segment counters are sampled *outside*
/// the marks so the harvesting does not pollute the window.
pub fn run_lossfree_download_windowed(
    size: u64,
    seed: u64,
    window: (SimTime, SimTime),
    capture: bool,
    mark: &mut dyn FnMut(u8),
) -> LossfreeProbe {
    let hub = if capture {
        Some(mpw_capture::CaptureHub::shared())
    } else {
        None
    };
    let mut spec = TestbedSpec::two_path(seed, lossfree_path(), lossfree_path());
    spec.trace = TraceLevel::Off;
    spec.capture = hub.clone();
    spec.server_mptcp.tcp.record_rtt_samples = false;
    spec.server_mptcp.record_ofo_samples = false;
    spec.server_tcp.record_rtt_samples = false;
    // Pin per-subflow in-flight at 64 KiB (> the 50 KB path BDP, so the
    // links stay saturated). An uncapped congestion-avoidance window grows
    // for the whole transfer, and growing in-flight means freshly allocated
    // frame buffers; capping it lets every queue and pool reach its
    // steady-state footprint before the measurement window opens.
    spec.server_mptcp.tcp.send_buffer = 64 * 1024;
    spec.server_mptcp.conn_send_buffer = 512 * 1024;
    spec.server_tcp.send_buffer = 64 * 1024;
    let mut transport = FlowConfig::mp2(mpw_mptcp::Coupling::Coupled).transport();
    if let TransportSpec::Mptcp(cfg) = &mut transport {
        cfg.tcp.record_rtt_samples = false;
        cfg.record_ofo_samples = false;
        cfg.tcp.send_buffer = 64 * 1024;
        cfg.conn_send_buffer = 512 * 1024;
    }
    let mut tb = Testbed::build(spec);
    let slot = tb.download(transport, size, SimTime::from_millis(100), false);

    let server_segs = |tb: &mut Testbed| -> (u64, u64) {
        let host = tb.world.agent_mut::<Host>(tb.server).expect("server");
        match host.transport_mut(0) {
            Some(Transport::Mp(c)) => c
                .subflows
                .iter_mut()
                .map(|sf| {
                    let st = sf.sock.stats();
                    (st.data_segs_sent, st.rexmit_segs)
                })
                .fold((0, 0), |(a, b), (c, d)| (a + c, b + d)),
            Some(Transport::Sp(s)) => {
                let st = s.stats();
                (st.data_segs_sent, st.rexmit_segs)
            }
            None => (0, 0),
        }
    };

    // Up to the window start: counters sampled *before* the mark so the
    // sampling itself stays outside the measured window.
    tb.world.run_until(window.0);
    let (segs_at_start, _) = server_segs(&mut tb);
    mark(0);
    tb.world.run_until(window.1);
    mark(1);
    let (segs_at_end, _) = server_segs(&mut tb);

    // On to completion (bounded, in slices, as in measurement runs).
    let horizon = tb.world.now() + SimDuration::from_secs(600);
    let slice = SimDuration::from_secs(5);
    loop {
        let next = (tb.world.now() + slice).min(horizon);
        let outcome = tb.world.run_until(next);
        let done = tb
            .world
            .agent::<Host>(tb.client)
            .and_then(|h| h.app::<Wget>(slot))
            .is_some_and(|w| w.result.download_time().is_some());
        if done || outcome == RunOutcome::Idle || next >= horizon {
            break;
        }
    }

    let (_, rexmit_segs) = server_segs(&mut tb);
    let result = tb
        .world
        .agent::<Host>(tb.client)
        .and_then(|h| h.app::<Wget>(slot))
        .map(|w| w.result)
        .unwrap_or_default();
    let pcap_bytes = hub.map(|h| h.borrow().to_pcapng().len()).unwrap_or(0);
    LossfreeProbe {
        bytes: result.bytes,
        download_time_s: result.download_time().map(|d| d.as_secs_f64()),
        window_segments: segs_at_end.saturating_sub(segs_at_start),
        rexmit_segs,
        pcap_bytes,
    }
}

/// As [`run_measurement`], but with exact per-sample recording on; returns
/// the testbed for callers that inspect the agents after the run.
pub fn run_measurement_traced(scenario: &Scenario, seed: u64) -> (Measurement, Testbed) {
    run_measurement_inner(scenario, seed, true, None)
}

fn run_measurement_inner(
    scenario: &Scenario,
    seed: u64,
    exact: bool,
    capture: Option<mpw_capture::SharedHub>,
) -> (Measurement, Testbed) {
    let wifi = scenario.wifi.spec(scenario.period);
    let cellular = scenario.carrier.preset();
    let horizon = horizon_for(scenario, &wifi, &cellular);
    let mut spec = TestbedSpec::two_path(seed, wifi, cellular);
    spec.capture = capture;
    spec.dual_homed_server = scenario.flow.needs_dual_homed_server();
    let mut transport = scenario.flow.transport();
    // The server (data sender) runs the scenario's congestion controller
    // and scheduler — the paper switched these at the server (§3.2).
    if let TransportSpec::Mptcp(cfg) = &transport {
        spec.server_mptcp = mpw_mptcp::MptcpConfig {
            max_subflows: 8,
            ..cfg.clone()
        };
    }
    if !exact {
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
    }
    let mut tb = Testbed::build(spec);
    let slot = tb.download(
        transport,
        scenario.size,
        SimTime::from_millis(100),
        scenario.warmup,
    );
    // Advance in short slices and stop as soon as the download completes:
    // the background sources never go idle, so running on to the worst-case
    // horizon would burn wall-clock simulating nothing but cross-traffic.
    // Slicing run_until() preserves the exact event order, so results are
    // identical to a single full-horizon run.
    let slice = SimDuration::from_secs(5);
    loop {
        let next = (tb.world.now() + slice).min(horizon);
        let outcome = tb.world.run_until(next);
        debug_assert_ne!(outcome, RunOutcome::EventBudgetExhausted);
        let done = tb
            .world
            .agent::<Host>(tb.client)
            .and_then(|h| h.app::<Wget>(slot))
            .is_some_and(|w| w.result.download_time().is_some());
        if done || outcome == RunOutcome::Idle || next >= horizon {
            break;
        }
    }

    let m = harvest(&mut tb, slot, scenario, seed);
    (m, tb)
}

fn harvest(tb: &mut Testbed, slot: usize, scenario: &Scenario, seed: u64) -> Measurement {
    let client_id = tb.client;
    let server_id = tb.server;

    // Client side: download result + delivered-byte shares + OFO delays.
    let (download_time_s, bytes, per_path_delivered, ofo, ofo_samples_ms, fell_back, sub_ifs) = {
        let host = tb.world.agent_mut::<Host>(client_id).expect("client");
        let result = host
            .app::<Wget>(slot)
            .map(|w| w.result)
            .unwrap_or_default();
        let (per_path, fell_back, sub_ifs, ofo, ofo_exact) = match host.transport_mut(slot) {
            Some(Transport::Mp(c)) => {
                let stats = c.stats();
                let ifs: Vec<u8> = c.subflows.iter().map(|s| s.if_index).collect();
                let ofo_exact: Vec<f64> = c
                    .take_ofo_samples()
                    .iter()
                    .map(|s| s.delay.as_secs_f64() * 1e3)
                    .collect();
                (
                    stats.per_subflow_delivered,
                    stats.fell_back,
                    ifs,
                    c.ofo_summary(),
                    ofo_exact,
                )
            }
            Some(Transport::Sp(s)) => {
                let if_index = s.if_index;
                (
                    vec![s.recv_offset()],
                    false,
                    vec![if_index],
                    DistSummary::new(),
                    Vec::new(),
                )
            }
            None => (Vec::new(), false, Vec::new(), DistSummary::new(), Vec::new()),
        };
        (
            result.download_time().map(|d| d.as_secs_f64()),
            result.bytes,
            per_path,
            ofo,
            ofo_exact,
            fell_back,
            sub_ifs,
        )
    };

    // Server side: the data sender's per-subflow loss and RTT samples.
    // The server's matching slot is its only accepted connection (slot 0).
    let mut subflows: Vec<SubflowMeasurement> = Vec::new();
    {
        let host = tb.world.agent_mut::<Host>(server_id).expect("server");
        if let Some(t) = host.transport_mut(0) {
            match t {
                Transport::Mp(c) => {
                    for (i, sf) in c.subflows.iter_mut().enumerate() {
                        let st = sf.sock.stats();
                        let rtt = sf.sock.rtt().summary().clone();
                        let rtts: Vec<f64> = sf
                            .sock
                            .take_rtt_samples()
                            .iter()
                            .map(|(_, d)| d.as_secs_f64() * 1e3)
                            .collect();
                        // Map the server subflow to the client interface via
                        // the *client's* address on the subflow.
                        let if_index = client_if_of(sf.remote.addr);
                        subflows.push(SubflowMeasurement {
                            if_index,
                            technology: tech_of(scenario, if_index),
                            delivered_bytes: per_path_delivered
                                .get(i)
                                .copied()
                                .unwrap_or_default(),
                            data_segs_sent: st.data_segs_sent,
                            rexmit_segs: st.rexmit_segs,
                            rtt,
                            rtt_samples_ms: rtts,
                            established: sf.sock.stats().established_at.is_some(),
                        });
                    }
                }
                Transport::Sp(s) => {
                    let st = s.stats();
                    let rtt = s.rtt().summary().clone();
                    let rtts: Vec<f64> = s
                        .take_rtt_samples()
                        .iter()
                        .map(|(_, d)| d.as_secs_f64() * 1e3)
                        .collect();
                    let if_index = client_if_of(s.remote().addr);
                    subflows.push(SubflowMeasurement {
                        if_index,
                        technology: tech_of(scenario, if_index),
                        delivered_bytes: bytes,
                        data_segs_sent: st.data_segs_sent,
                        rexmit_segs: st.rexmit_segs,
                        rtt,
                        rtt_samples_ms: rtts,
                        established: st.established_at.is_some(),
                    });
                }
            }
        }
        let _ = sub_ifs;
    }

    let total: u64 = subflows.iter().map(|s| s.delivered_bytes).sum();
    let cellular: u64 = subflows
        .iter()
        .filter(|s| s.if_index == 1)
        .map(|s| s.delivered_bytes)
        .sum();
    let cellular_share = if total > 0 {
        cellular as f64 / total as f64
    } else {
        0.0
    };

    Measurement {
        scenario: scenario.clone(),
        seed,
        download_time_s,
        bytes,
        cellular_share,
        subflows,
        ofo,
        ofo_samples_ms,
        fell_back,
    }
}

fn client_if_of(addr: mpw_tcp::Addr) -> u8 {
    crate::testbed::CLIENT_ADDRS
        .iter()
        .position(|a| *a == addr)
        .unwrap_or(0) as u8
}

fn tech_of(scenario: &Scenario, if_index: u8) -> Technology {
    if if_index == 0 {
        match scenario.wifi {
            crate::config::WifiKind::Home => Technology::WifiHome,
            crate::config::WifiKind::Hotspot(_) => Technology::WifiHotspot,
        }
    } else {
        scenario.carrier.technology()
    }
}
