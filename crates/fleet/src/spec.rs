//! The declarative fleet description: who the clients are, when they
//! arrive, and what they do.

use std::fmt;

use mpw_http::StreamingProfile;
use mpw_link::{Carrier, DayPeriod};
use mpw_scenario::Scenario;
use mpw_sim::SimRng;
use serde::{Deserialize, Serialize};

/// Path technology of one client — the population axes of the contention
/// study (WiFi-only and LTE-only single-path users vs 2-path MPTCP users).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClientClass {
    /// Plain TCP over the shared WiFi access network.
    WifiOnly,
    /// Plain TCP over the shared cellular access network.
    LteOnly,
    /// 2-path MPTCP across both shared networks.
    Multipath,
}

impl ClientClass {
    /// Stable label used in reports ("wifi" / "lte" / "mp2").
    pub fn label(self) -> &'static str {
        match self {
            ClientClass::WifiOnly => "wifi",
            ClientClass::LteOnly => "lte",
            ClientClass::Multipath => "mp2",
        }
    }
}

/// Seeded class-mix weights. Each client's class is one bounded draw from
/// the fleet's `fleet.mix` RNG stream, so the population is a pure function
/// of the seed (and stable under changes elsewhere in the build).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathMix {
    /// Relative weight of WiFi-only clients.
    pub wifi_only: u32,
    /// Relative weight of LTE-only clients.
    pub lte_only: u32,
    /// Relative weight of multipath clients.
    pub multipath: u32,
}

impl PathMix {
    /// Everyone runs 2-path MPTCP.
    pub fn all_multipath() -> Self {
        PathMix {
            wifi_only: 0,
            lte_only: 0,
            multipath: 1,
        }
    }

    /// The default mixed population: mostly single-path WiFi users, a
    /// smaller LTE share, a multipath minority.
    pub fn mixed() -> Self {
        PathMix {
            wifi_only: 5,
            lte_only: 3,
            multipath: 2,
        }
    }

    /// Draw one class (weights of zero never win; an all-zero mix falls
    /// back to multipath).
    pub fn draw(&self, rng: &mut SimRng) -> ClientClass {
        let total = u64::from(self.wifi_only) + u64::from(self.lte_only) + u64::from(self.multipath);
        if total == 0 {
            return ClientClass::Multipath;
        }
        let x = rng.range_u64(0, total);
        if x < u64::from(self.wifi_only) {
            ClientClass::WifiOnly
        } else if x < u64::from(self.wifi_only) + u64::from(self.lte_only) {
            ClientClass::LteOnly
        } else {
            ClientClass::Multipath
        }
    }
}

/// Which WiFi network the fleet shares (mirrors the experiment vocabulary;
/// duplicated here because `mpw-experiments` depends on this crate, not
/// the other way around).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FleetWifi {
    /// Residential backhaul; background load follows the day period.
    Home,
    /// Coffee-shop hotspot with the given number of customers.
    Hotspot(u32),
}

/// When each client's first flow opens. Every variant is a pure function
/// of the seed: the whole arrival schedule is computed up front from named
/// RNG streams, never from execution order.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Arrival {
    /// Client `i` starts at `i * gap_ms` (a deterministic ramp).
    Staggered {
        /// Gap between consecutive arrivals.
        gap_ms: u64,
    },
    /// Open-loop Poisson process: exponential inter-arrival times with the
    /// given mean, drawn by inversion from the `fleet.arrivals` stream.
    Poisson {
        /// Mean inter-arrival gap (ms).
        mean_gap_ms: u64,
    },
    /// Closed loop: every client starts after an exponential think time
    /// and opens a fresh flow one think time after each completion, until
    /// the horizon. Think draws come from the per-client
    /// `fleet.think.<i>` substream.
    Closed {
        /// Mean think time (ms).
        think_mean_ms: u64,
    },
}

/// What each client does per flow.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FleetWorkload {
    /// One HTTP download of `size` bytes (the paper's size ladder).
    Download {
        /// Object size in bytes.
        size: u64,
    },
    /// The §6 streaming session (prefetch + periodic blocks).
    Streaming {
        /// Block schedule (Table 7 profiles or the miniature test one).
        profile: StreamingProfile,
    },
}

/// The full declarative fleet description. `run_fleet` turns one of these
/// into a populated world; equality of specs (plus seed) implies byte
/// equality of reports.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Population size.
    pub n_clients: u32,
    /// Root world seed.
    pub seed: u64,
    /// Class-mix weights.
    pub mix: PathMix,
    /// Shared WiFi access network.
    pub wifi: FleetWifi,
    /// Shared cellular access network.
    pub carrier: Carrier,
    /// Day period (drives WiFi background load).
    pub period: DayPeriod,
    /// Arrival process.
    pub arrival: Arrival,
    /// Per-client workload.
    pub workload: FleetWorkload,
    /// Hard stop (sim ms); flows still open at the horizon are harvested
    /// as incomplete.
    pub horizon_ms: u64,
    /// Goodput-timeline bucket width and engine sampling tick (ms).
    pub goodput_bucket_ms: u64,
    /// Optional mobility script applied to the shared WiFi path (all
    /// clients fade together — the whole coffee shop walks out at once).
    pub mobility: Option<Scenario>,
}

/// Largest population the address plan holds: client `i` is 10.0.x.y on
/// WiFi and 10.1.x.y on cellular, with `x.y` the 16-bit index `i`.
pub const MAX_CLIENTS: u32 = 1 << 16;

/// Why a [`FleetSpec`] cannot be built into a world.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetSpecError {
    /// More clients than [`MAX_CLIENTS`]: client 65,536 would get client
    /// 0's addresses and silently take over its route.
    TooManyClients {
        /// The requested population.
        n_clients: u32,
    },
}

impl fmt::Display for FleetSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetSpecError::TooManyClients { n_clients } => write!(
                f,
                "fleet spec has {n_clients} clients; the address plan holds at most {MAX_CLIENTS}"
            ),
        }
    }
}

impl std::error::Error for FleetSpecError {}

impl FleetSpec {
    /// Check that the spec can be built into a world.
    pub fn validate(&self) -> Result<(), FleetSpecError> {
        if self.n_clients > MAX_CLIENTS {
            return Err(FleetSpecError::TooManyClients {
                n_clients: self.n_clients,
            });
        }
        Ok(())
    }

    /// A small mixed-population smoke spec: `n` clients, short downloads,
    /// staggered arrivals — the shape the CI fleet smoke runs.
    pub fn smoke(n: u32, seed: u64) -> FleetSpec {
        FleetSpec {
            n_clients: n,
            seed,
            mix: PathMix::mixed(),
            wifi: FleetWifi::Home,
            carrier: Carrier::Att,
            period: DayPeriod::Evening,
            arrival: Arrival::Staggered { gap_ms: 20 },
            workload: FleetWorkload::Download { size: 64 << 10 },
            horizon_ms: 60_000,
            goodput_bucket_ms: 250,
            mobility: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_draw_is_seed_deterministic_and_weight_respecting() {
        let mix = PathMix {
            wifi_only: 1,
            lte_only: 0,
            multipath: 1,
        };
        let draw = |seed| {
            let mut rng = SimRng::seeded(seed);
            (0..200).map(|_| mix.draw(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
        assert!(!a.contains(&ClientClass::LteOnly));
        assert!(a.contains(&ClientClass::WifiOnly));
        assert!(a.contains(&ClientClass::Multipath));
    }

    #[test]
    fn zero_mix_falls_back_to_multipath() {
        let mix = PathMix {
            wifi_only: 0,
            lte_only: 0,
            multipath: 0,
        };
        let mut rng = SimRng::seeded(1);
        assert_eq!(mix.draw(&mut rng), ClientClass::Multipath);
    }

    #[test]
    fn oversized_population_is_rejected_before_any_world_is_built() {
        assert_eq!(FleetSpec::smoke(MAX_CLIENTS, 1).validate(), Ok(()));
        let spec = FleetSpec::smoke(MAX_CLIENTS + 1, 1);
        let err = FleetSpecError::TooManyClients {
            n_clients: MAX_CLIENTS + 1,
        };
        assert_eq!(spec.validate(), Err(err));
        let Err(panic) = std::panic::catch_unwind(|| crate::run_fleet(&spec)) else {
            panic!("run_fleet must refuse the spec");
        };
        assert_eq!(panic.downcast_ref::<String>(), Some(&err.to_string()));
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = FleetSpec::smoke(50, 3);
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: FleetSpec = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.n_clients, 50);
        assert_eq!(back.seed, 3);
        assert_eq!(back.mix, spec.mix);
        assert_eq!(back.workload, spec.workload);
    }
}
