//! Multi-tenant transciphering service for the Fig. 1 cloud half.
//!
//! Earlier PRs serve one synchronous transciphering request at a time;
//! this crate productionizes that into a long-running service engineered
//! for failure first, in the near-network deployment model of DNA-HHE
//! and the thousands-of-edge-clients profile of HHEML:
//!
//! - [`server`] — the [`PastaServer`]: per-tenant key provisioning with
//!   noise-budget admission control, session establishment with replay
//!   protection and idle expiry, bounded queues with backpressure NACKs,
//!   deadline scheduling with oldest-deadline-first load shedding,
//!   worker-fault containment (panics caught, converted to typed NACKs),
//!   and cross-tenant slot multiplexing — same-FHE-domain tenants'
//!   blocks packed into shared SIMD bucket passes with deadline-driven
//!   flushing;
//! - [`session`] — the nonce-keyed session registry;
//! - [`loadgen`] — a seeded, fault-injected load generator that verifies
//!   every completed response by decryption and reports p50/p99 latency,
//!   throughput and shed/refused/retried counts;
//! - [`uplink`] — one edge camera's session over a lossy link
//!   (stop-and-wait ARQ, backoff, resolution degradation), verifying
//!   every delivered frame symmetrically or by transciphering it on a
//!   [`PastaServer`].
//!
//! The contract throughout: hostile or unlucky input (truncated frames,
//! flipped bits, replayed sessions, full queues, blown deadlines,
//! panicking workers) makes the service *refuse with a typed reason* —
//! never panic, never drop silently.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod loadgen;
pub mod server;
pub mod session;
pub mod uplink;

pub use loadgen::{run as run_loadgen, LoadReport, LoadgenConfig};
pub use server::{
    Completion, CompletionResult, MultiplexConfig, PastaServer, ServerConfig, ServerEvent,
    ServerStats, SlotAssignment, SubmitOutcome, TenantId, TenantProvision,
};
pub use session::SessionTable;
pub use uplink::{run_session, Downshift, SessionConfig, SessionReport};
