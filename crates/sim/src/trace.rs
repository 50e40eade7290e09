//! Drop accounting.
//!
//! Components report every frame they discard — channel corruption, queue
//! overflow, ARQ exhaustion, middleboxes, downed links, unmatched sockets —
//! through [`crate::Ctx::trace`]. The recorder counts drops at every level
//! and keeps the records themselves when asked to.
//!
//! Packet traces are not recorded here. The paper's tcpdump + tcptrace
//! method is reproduced by the wire capture (`mpw-capture`): pcapng taps at
//! the four vantages per path, analyzed offline from the captured bytes.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Why a component dropped a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DropReason {
    /// Random wireless corruption (the channel, not congestion).
    ChannelLoss,
    /// Drop-tail queue overflow (congestion / bufferbloat buffer full).
    QueueOverflow,
    /// Link-layer ARQ gave up after its retry budget.
    ArqExhausted,
    /// A middlebox rejected or filtered the frame.
    Middlebox,
    /// The link was administratively down (scenario `Down` event, e.g. the
    /// client walked out of WiFi range entirely).
    LinkDown,
    /// Destination had no matching socket.
    NoSocket,
}

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A component dropped a frame.
    Drop {
        /// Agent id of the dropping component.
        component: u32,
        /// Cause of the drop.
        reason: DropReason,
        /// Size of the dropped frame in bytes.
        bytes: u32,
    },
}

/// How much to record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// Keep no records (drop totals and the counters inside the stacks
    /// still work).
    Off,
    /// Keep every drop record.
    #[default]
    Drops,
}

/// In-memory drop recorder.
#[derive(Debug, Default)]
pub struct Trace {
    level: TraceLevel,
    records: Vec<(SimTime, TraceEvent)>,
    drops: u64,
}

impl Trace {
    /// Create a recorder at the given level.
    pub fn new(level: TraceLevel) -> Self {
        Trace {
            level,
            records: Vec::new(),
            drops: 0,
        }
    }

    /// Record an event, honoring the level. The drop total is maintained
    /// at every level.
    pub fn emit(&mut self, at: SimTime, ev: TraceEvent) {
        match &ev {
            TraceEvent::Drop { .. } => self.drops += 1,
        }
        if self.level == TraceLevel::Drops {
            self.records.push((at, ev));
        }
    }

    /// All kept records in chronological order.
    pub fn records(&self) -> &[(SimTime, TraceEvent)] {
        &self.records
    }

    /// Total frames dropped anywhere in the network (counted at all levels).
    pub fn total_drops(&self) -> u64 {
        self.drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drop_ev() -> TraceEvent {
        TraceEvent::Drop {
            component: 3,
            reason: DropReason::QueueOverflow,
            bytes: 1400,
        }
    }

    #[test]
    fn level_off_counts_but_does_not_store() {
        let mut t = Trace::new(TraceLevel::Off);
        t.emit(SimTime::ZERO, drop_ev());
        assert!(t.records().is_empty());
        assert_eq!(t.total_drops(), 1);
    }

    #[test]
    fn level_drops_stores_every_drop() {
        let mut t = Trace::new(TraceLevel::Drops);
        t.emit(SimTime::ZERO, drop_ev());
        t.emit(SimTime::from_millis(1), drop_ev());
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.total_drops(), 2);
    }
}
