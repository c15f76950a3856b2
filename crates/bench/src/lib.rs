//! # tempriv-bench — figure regeneration and validation harness
//!
//! Shared machinery for the `figures` binary, which regenerates every
//! committed `results/*.csv` (checked byte for byte by the
//! `figures_reproduce` test), and the `perf_baseline` benches:
//!
//! * [`harness`] — the interleaved best-of-N timing loop and overhead
//!   ratios behind each row of `perf_baseline --bench overhead`,
//! * [`table`] — aligned-table printing and CSV export of result series,
//! * [`validation`] — the analytic-validation experiments (V1–V4 in
//!   DESIGN.md): bits-through-queues bound vs empirical MI, M/M/∞
//!   occupancy vs Poisson(ρ), drop-tail loss vs the Erlang formula, and
//!   Burke's theorem on simulated departures.
//!
//! The paper figures themselves (Figure 2a/2b, Figure 3) are produced by
//! the sweep functions in [`tempriv_core::experiment`]; this crate only
//! formats and records them.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod harness;
pub mod table;
pub mod validation;
