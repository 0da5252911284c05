//! Discrete-event system simulator for end-to-end private inference.
//!
//! The paper's evaluation (arrival rates, storage limits, device sweeps,
//! wireless slot allocation, future-optimization estimates) runs on a
//! system model calibrated with measured constants — this crate is that
//! model:
//!
//! * [`calib`] — the paper's measured anchors (18.2 KB/ReLU circuits,
//!   compute rates on Atom/i5/EPYC, HE times) with citations.
//! * [`devices`] — client/server profiles for the §5.5 sensitivity study.
//! * [`link`] — the TDD wireless model and the closed-form WSA optimum.
//! * [`cost`] — per-inference cost profiles (compute seconds, bytes,
//!   storage) for Server-Garbler and Client-Garbler on any zoo network.
//! * [`energy`] — the client's GC energy per inference and per battery
//!   under either garbler role (§5.1).
//! * [`engine`] — Poisson arrivals from one or many clients into a FIFO
//!   server, each client with a storage-bounded precompute buffer
//!   (sequential, LPHE or RLP offline scheduling).
//! * [`future`] — the §6 accumulating-optimizations waterfall.
//!
//! # Example
//!
//! ```
//! use pi_sim::cost::{Garbler, ProtocolCosts};
//! use pi_sim::devices::DeviceProfile;
//! use pi_sim::engine::{simulate, OfflineScheduling, SystemConfig, Workload};
//! use pi_nn::zoo::{Architecture, Dataset};
//!
//! let costs = ProtocolCosts::new(
//!     Architecture::ResNet18,
//!     Dataset::TinyImageNet,
//!     Garbler::Client,
//!     &DeviceProfile::atom(),
//!     &DeviceProfile::epyc(),
//! );
//! let sys = SystemConfig {
//!     scheduling: OfflineScheduling::Lphe,
//!     link: costs.wsa_link(1e9),
//!     client_storage_bytes: 16e9,
//! };
//! let wl = Workload { rate_per_min: 1.0 / 60.0, duration_s: 4.0 * 3600.0, runs: 3, seed: 7 };
//! let stats = simulate(&costs, &sys, &wl);
//! assert!(stats.mean_latency_s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod cost;
pub mod devices;
pub mod energy;
pub mod engine;
pub mod future;
pub mod link;

pub use cost::{Garbler, ProtocolCosts};
pub use devices::DeviceProfile;
pub use energy::ClientEnergy;
pub use engine::{simulate, simulate_clients, OfflineScheduling, SimStats, SystemConfig, Workload};
pub use future::{scenario_breakdown, FutureScenario, LatencyBreakdown};
pub use link::{optimal_upload_fraction, Link};
