//! # wsn-simnet
//!
//! A message-level simulator for the paper's *distributed* algorithms —
//! property P4 (local computability) made executable.
//!
//! The centralised builders in `wsn-core` compute what the network should
//! look like; this crate simulates how the nodes themselves build it:
//!
//! * [`engine`] — a synchronous-round message-passing engine over a radio
//!   graph, with per-node message accounting.
//! * [`election`] — distributed leader election on region cliques (the
//!   paper's `electLeader`, citing Singh '92 for complete networks).
//! * [`construct`] — the Fig. 7 construction protocol: region
//!   identification from GPS position, leader election, and `connect`
//!   handshakes, all through radio messages.
//! * [`route`] — the Fig. 9 routing algorithm with message-level
//!   accounting of probes and data forwarding.
//! * [`energy`] — a first-order radio energy model (`d^β` amplifier +
//!   per-message electronics) applied to the message log.
//! * [`fault`] — node-failure injection and rebuild/reroute analysis.
//! * [`churn`] — the epoch-driven lifetime simulation: traffic drains
//!   batteries, nodes die and join, and the topology is repaired in place
//!   (incrementally for the plain graphs, by rebuild for SENS).
//! * [`serve`] — the always-on topology service: a per-epoch snapshot
//!   broadcast so many reader threads query the graph while the churn
//!   repair splices the next epoch in place.
//!
//! The headline test (`construct::tests` and the cross-crate integration
//! tests) is that the distributed protocol reconstructs *exactly* the same
//! network as the centralised builder on the same deployment.

pub mod churn;
pub mod construct;
pub mod election;
pub mod energy;
pub mod engine;
pub mod fault;
pub mod route;
pub mod serve;

pub use churn::{
    simulate_lifetime_plain, simulate_lifetime_sens, ChurnConfig, ChurnConfigError, ChurnModel,
    EpochReport, LifetimeReport, RenewalPolicy, RepairMode, RoutePolicy, SensKind,
};
pub use construct::{distributed_build_udg, DistributedBuild, ShardAccounting};
pub use engine::{Engine, MsgStats};
pub use route::{route_packet, route_packet_with_path, SimRouteOutcome};
pub use serve::{
    run_replay, run_serve, RouteCache, ServeConfig, ServeConfigError, ServeReport, Snapshot,
};
