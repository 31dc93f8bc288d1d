//! # cafc-serve — the serving and load-generation layer
//!
//! The clustering pipeline organizes hidden-web sources; this crate puts
//! a query endpoint in front of the result and measures it, with nothing
//! beyond `std`:
//!
//! * [`Server`] — an HTTP/1.1 daemon over a [`cafc::SearchIndex`]
//!   (`GET /search`, `/metrics`, `/healthz`, `/shutdown`), one acceptor
//!   feeding a bounded pool of `std::thread` workers; overload is shed
//!   with `503`s instead of unbounded queueing. Serve a [`SharedIndex`]
//!   via [`Server::bind_shared`] and another thread can hot-swap rebuilt
//!   indexes under live traffic — the `cafc daemon` streaming mode.
//! * [`loadgen`] — a seeded open-loop generator: Zipf query mix drawn
//!   from the corpus's own vocabulary, Poisson arrivals at a configured
//!   rate, exact p50/p99/p999 latency plus cafc-obs histograms, and
//!   FNV-1a digests of the query stream and result sets so two runs with
//!   the same seed are byte-comparable.
//!
//! The split matters: the *server* is wall-clock, thread-schedule
//! territory; the *load report's digest fields* are pure functions of
//! `(corpus, seed, config)` and double as the retrieval-quality gate
//! (recall@10 of routed vs. brute-force search, postings scanned on both
//! sides).

#![warn(missing_docs)]

pub mod http;
pub mod json;
pub mod loadgen;
pub mod server;

pub use cafc_obs::Fnv;
pub use loadgen::{LoadgenConfig, LoadgenReport, QueryMix};
pub use server::{ServeOptions, Server, ServerHandle, SharedIndex};
