//! # sns-stream
//!
//! The *continuous tensor model* of SliceNStitch (Section IV of the paper)
//! plus the conventional discrete window model used by the baselines.
//!
//! A multi-aspect data stream is a chronological sequence of timestamped
//! tuples `(i₁,…,i_{M−1}, v, t)` ([`StreamTuple`]). Given a period `T` and
//! window size `W`, the *tensor window* `D(t, W)` concatenates the `W`
//! latest *tensor units*, each aggregating the tuples of one period — but
//! with unit boundaries anchored at the **current time** `t`, not at fixed
//! wall-clock multiples. Consequently every arriving tuple changes the
//! window immediately, and each tuple later crosses `W` unit boundaries as
//! time advances.
//!
//! [`ContinuousWindow`] implements the event-driven maintenance of
//! Algorithm 1: each tuple costs `O(MW)` spread over `W+1` events, each of
//! which changes at most two entries of the window. Every change is
//! reported as a [`Delta`] so that downstream CPD algorithms can react
//! per-event (Problem 2 of the paper).
//!
//! [`DiscreteWindow`] implements the conventional model (Section III):
//! units end at fixed multiples of `T`, the window only changes once per
//! period, and each completed period is reported as a [`PeriodUpdate`].

pub mod delta;
pub mod discrete;
pub mod scheduler;
pub mod tuple;
pub mod window;

pub use delta::{Delta, DeltaKind};
pub use discrete::{DiscreteWindow, DiscreteWindowState, PeriodUpdate};
pub use scheduler::{EventQueue, ScheduledEvent};
pub use sns_error::SnsError;
pub use tuple::{validate_tuple, StreamTuple};
pub use window::{window_from_log, ContinuousWindow, ContinuousWindowState};

/// Result alias for stream operations, carrying the workspace-wide
/// [`SnsError`].
pub type Result<T> = std::result::Result<T, SnsError>;
