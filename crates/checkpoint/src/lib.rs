//! # dice-checkpoint
//!
//! Copy-on-write fork accounting.
//!
//! The DiCE prototype checkpoints the BIRD daemon with `fork()`, so
//! checkpoints and exploration clones share memory pages with the live
//! process until they diverge; the paper's §4.1 reports the resulting
//! overhead as percentages of unique pages. This reproduction forks the
//! router's state structurally instead (copy-on-write RIB chunks behind
//! `Arc`s), and [`CowForkStats`] reports the same shape of number for such
//! a fork: of the units it comprises, how many are still shared with the
//! process it was forked from.
//!
//! ## Example
//!
//! ```
//! use dice_checkpoint::CowForkStats;
//!
//! // A fork of 200 units, 7 of which the live side has since written.
//! let stats = CowForkStats::from_sharing(193, 200);
//! assert_eq!(stats.units_copied(), 7);
//! assert!((stats.copied_fraction() - 0.035).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod stats;

pub use stats::CowForkStats;
