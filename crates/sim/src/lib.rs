//! # mpw-sim — deterministic discrete-event simulation substrate
//!
//! This crate is the execution substrate for the `mpwild` reproduction of
//! *"A Measurement-based Study of MultiPath TCP Performance over Wireless
//! Networks"* (IMC 2013). It provides:
//!
//! - an integer-nanosecond simulated clock ([`SimTime`], [`SimDuration`]),
//! - a deterministic event queue and agent model ([`World`], [`Agent`]),
//! - named reproducible RNG streams ([`RngFactory`], [`SimRng`]),
//! - drop accounting ([`trace`]).
//!
//! The design follows the smoltcp idiom: protocol components are synchronous,
//! poll-able state machines; "the network" is an event queue. Determinism is
//! a hard requirement — the paper's methodology compares configurations
//! across repeated runs, which we reproduce with seeded Monte-Carlo
//! replications instead of wall-clock repetition.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
pub mod rng;
pub mod switch;
pub mod tap;
pub mod time;
pub mod trace;

pub use engine::{Agent, AgentId, Ctx, EngineStats, Event, Frame, RunOutcome, TimerHandle, World};
pub use rng::{RngFactory, SimRng};
pub use switch::{Classifier, Switch};
pub use time::{serialization_delay, SimDuration, SimTime};
