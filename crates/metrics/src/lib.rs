//! Fairness and efficiency metrics for `gfair` experiments.
//!
//! * [`fairness`] — Jain's fairness index, min/max share ratios, deviation
//!   from ticket entitlements, and weighted water-filling (the capped
//!   max-min ideal against which achieved allocations are judged).
//! * [`jct`] — job-completion-time statistics (mean, percentiles, makespan).
//! * [`timeseries`] — per-window user shares extracted from simulator
//!   reports, for the paper-style "share over time" figures.
//! * [`table`] — minimal ASCII table rendering used by every experiment
//!   binary to print paper-style rows.
//! * [`csv`] — CSV rendering of share time series and per-job records, for
//!   plotting figures externally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod fairness;
pub mod jct;
pub mod table;
pub mod timeseries;

pub use csv::{jobs_csv, share_timeseries_csv};
pub use fairness::{gini, jain_index, max_min_ratio, normalized_shares, water_filling};
pub use jct::{mean_slowdown, slowdowns, JctStats};
pub use table::Table;
pub use timeseries::{user_share_series, SharePoint};
