//! Baseline schedulers for the comparison experiments.
//!
//! The paper positions Gandiva_fair between two poles:
//!
//! * schedulers that chase **efficiency without fairness** — represented by
//!   [`GandivaLike`], which time-slices and packs for utilization but gives
//!   users whatever their job count happens to claim;
//! * schedulers that enforce **fairness without efficiency** — represented
//!   by [`StaticPartition`], which hard-splits the cluster by tickets and
//!   lets a user's idle partition go to waste.
//!
//! [`Drf`] adapts Dominant Resource Fairness to time-sliced gangs over
//! heterogeneous GPU generations (fair per round, but heterogeneity-blind
//! and migration-free), [`Fifo`] is the classic run-to-completion queue that
//! HPC clusters default to, and [`LotteryGang`] is the randomized
//! proportional-share alternative used to show why the paper chose
//! deterministic stride (ablation A3).

#![forbid(unsafe_code)]

pub mod drf;
pub mod fifo;
pub mod gandiva_like;
pub mod lottery_gang;
pub mod static_partition;
mod util;

pub use drf::Drf;
pub use fifo::Fifo;
pub use gandiva_like::GandivaLike;
pub use lottery_gang::LotteryGang;
pub use static_partition::StaticPartition;
