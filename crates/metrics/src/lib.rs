//! # mpw-metrics — measurement analysis for the mpwild study
//!
//! The statistics and rendering the paper's tables and figures need:
//! sample mean ± standard error (Tables 2–7), box-and-whisker summaries
//! (the download-time figures), empirical CCDFs with log-spaced series
//! (Figures 12–13), aligned ASCII/CSV/JSON output, handover metrics
//! (stall time, recovery latency, per-epoch traffic shares) for the
//! mobility scenarios of §7 (DESIGN.md §5.11), fleet summaries, and the
//! worker pool campaigns run on ([`par_map`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ccdf;
pub mod fleet;
pub mod handover;
pub mod pool;
pub mod stats;
pub mod stream;
pub mod table;

pub use ccdf::Ccdf;
pub use fleet::{ExactDist, Fairness, FleetReport, FlowRecord, GoodputTimeline};
pub use handover::{
    bytes_in_transition, epoch_shares, stall_report, EpochShare, EpochSpan, HandoverReport,
    Outage, PathBytes, PathEvent, PathEventKind, StallReport, StallSpan,
};
pub use pool::par_map;
pub use stats::{quantile_sorted, BoxPlot, Summary};
pub use stream::{DistSummary, LogHistogram, P2Quantile, StreamingStats};
pub use table::{to_json, Table};
