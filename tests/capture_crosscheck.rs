//! The capture subsystem's end-to-end contract: a pcapng captured on the
//! wire, parsed back and analyzed tcptrace-style, must reproduce the
//! in-stack metrics within documented tolerance — and attaching the taps
//! must not perturb the run at all.

use mpwild::capture::{analyze, read_pcapng, IfaceRole, DROPS_IFACE};
use mpwild::experiments::{
    crosscheck, run_measurement, run_measurement_captured, sizes, FlowConfig, Scenario,
    Tolerances, WifiKind, SERVER_PORT,
};
use mpwild::link::{Carrier, DayPeriod};
use mpwild::mptcp::Coupling;

fn fig5_style(flow: FlowConfig, carrier: Carrier) -> Scenario {
    Scenario {
        wifi: WifiKind::Home,
        carrier,
        flow,
        size: sizes::S2M,
        period: DayPeriod::Night,
        warmup: true,
    }
}

#[test]
fn wire_analysis_matches_stack_metrics_mp() {
    // The Sprint run has the most out-of-order arrivals (§5.2).
    for (carrier, seed) in [(Carrier::Att, 11), (Carrier::Sprint, 7)] {
        let sc = fig5_style(FlowConfig::mp2(Coupling::Coupled), carrier);
        let (m, pcap) = run_measurement_captured(&sc, seed);
        let file = read_pcapng(&pcap).expect("capture parses back");
        // Four vantages per path; the drops interface is lazy.
        let roles: Vec<_> = file
            .interfaces
            .iter()
            .filter(|i| i.name != DROPS_IFACE)
            .map(|i| IfaceRole::parse(&i.name).expect("structured iface name"))
            .collect();
        assert_eq!(roles.len(), 8, "2 paths x 4 vantages");
        assert!(!file.packets.is_empty(), "capture saw traffic");

        let wa = analyze(&file, SERVER_PORT);
        let report = crosscheck(&m, &wa, &Tolerances::default());
        assert!(
            report.pass(),
            "{carrier:?} seed {seed}: wire analysis diverges from stack metrics:\n{}",
            report.render()
        );
        // The multipath handshake itself must be visible on the wire.
        let conn = &wa.connections[0];
        assert!(conn.client_key.is_some(), "MP_CAPABLE key recovered from wire");
        assert!(
            conn.subflows.iter().any(|s| s.join_token.is_some()),
            "MP_JOIN recovered from wire"
        );
    }
}

#[test]
fn wire_analysis_matches_stack_metrics_sp() {
    for (flow, seed) in [(FlowConfig::SpWifi, 3), (FlowConfig::SpCellular, 5)] {
        let sc = fig5_style(flow, Carrier::Att);
        let (m, pcap) = run_measurement_captured(&sc, seed);
        let file = read_pcapng(&pcap).expect("capture parses back");
        let wa = analyze(&file, SERVER_PORT);
        let report = crosscheck(&m, &wa, &Tolerances::default());
        assert!(
            report.pass(),
            "{flow:?} seed {seed}: wire analysis diverges from stack metrics:\n{}",
            report.render()
        );
    }
}

#[test]
fn capture_is_metrically_invisible() {
    // Taps must not perturb the simulation: the same seed with capture
    // enabled yields a byte-identical serialized measurement.
    let sc = fig5_style(FlowConfig::mp2(Coupling::Coupled), Carrier::Att);
    let plain = run_measurement(&sc, 7);
    let (captured, pcap) = run_measurement_captured(&sc, 7);
    assert!(!pcap.is_empty());
    assert_eq!(
        serde_json::to_string(&plain).expect("serialize"),
        serde_json::to_string(&captured).expect("serialize"),
        "capture perturbed the measurement"
    );
}
