//! Networked event ingestion for the CPVR pipeline.
//!
//! The paper's architecture (Fig. 3) assumes the verifier receives a
//! *stream* of captured control-plane I/Os from every router — "most
//! commercial router platforms provide a mechanism for logging control
//! plane I/Os" (§4.2). The rest of this workspace drives that stream
//! through an in-process callback; this crate is the missing deployment
//! seam: routers ship their logs over TCP, and the collector turns the
//! per-router streams back into the globally ordered feed the
//! incremental verification machinery requires — surviving crashes on
//! the way.
//!
//! Six layers, bottom up:
//!
//! * [`codec`] — a versioned, CRC-protected wire format framing
//!   [`IoEvent`](cpvr_sim::IoEvent)s in the workspace's own JSON
//!   encoding, the `Hello` / `Watermark` / `Heartbeat` / `Bye` control
//!   frames (v2: sequence numbers, acks, and watermark frontiers), and
//!   a resynchronizing streaming [`Decoder`](codec::Decoder) that
//!   quarantines corrupt frames instead of poisoning the connection.
//! * [`wal`] — a segmented append-only write-ahead log whose records
//!   are exactly the wire frames, with configurable fsync policy and
//!   torn-tail detection on replay.
//! * [`pipeline`] + [`collector`] — the threaded TCP server: one reader
//!   thread per router connection, a bounded channel for backpressure,
//!   and a single merger thread (the [`shard`] coordinator) that
//!   deduplicates events by sequence number, applies frontier-gated
//!   watermark promises, runs per-source liveness leases (silent
//!   sources are marked lagging, then evicted from the watermark gate
//!   so the fold resumes), and has the shard plan's fold workers
//!   journal events to the WAL and fold them into
//!   [`HbgBuilder`](cpvr_core::builder::HbgBuilder)s and tracker
//!   slices only up to the minimum applied promise across all
//!   non-evicted sources — the merge point where the global
//!   `(time, id)` order is known. [`IngestPipeline`] is the monolithic
//!   reference fold the workers are checked against.
//! * [`client`] — [`SocketSink`], an
//!   [`EventSink`](cpvr_sim::EventSink) that ships a router's tap over
//!   a socket with a bounded replay buffer, ack-driven pruning, and
//!   reconnect with capped exponential backoff — so a simulation
//!   doubles as a load generator for a real collector process (see the
//!   `collectord` example).
//! * [`metrics`] — the collector's telemetry surface over
//!   [`cpvr_obs`]: every counter/gauge/histogram the ingest path
//!   publishes, declared in one place ([`CollectorMetrics`]), plus
//!   sampled event-flight spans tracing individual events from
//!   `received` through `journaled`/`acked` to `folded` and
//!   `snapshot-consistent`. Scraped live over the same TCP port via
//!   `Frame::MetricsReq` (Prometheus text or the workspace JSON), and
//!   dumped into the [`CollectorReport`] at shutdown.
//! * [`fault`] — a deterministic fault-injection harness: a seeded
//!   [`FaultPlan`](fault::FaultPlan) applied by a
//!   [`ChaosProxy`](fault::ChaosProxy) that sits between clients and
//!   the collector, dropping, corrupting, duplicating, delaying, and
//!   disconnecting the byte stream on a reproducible schedule.
//!
//! Crash recovery is the point of the WAL: a fold worker journals every
//! event before ingesting it and every global watermark before
//! advancing, so the log is always at least as complete as the
//! in-memory state. Replaying it (ingest everything, advance once to
//! the last logged watermark) reconstructs the pre-crash pipeline
//! *bit-identically* — the fold is deterministic in `(time, id)` order
//! no matter how the advances were batched. The `crash_recovery`
//! integration test kills a run at every record boundary and proves the
//! recovered state finishes the stream exactly like an uninterrupted
//! run; the `chaos` integration test does the same under injected
//! network faults, end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod collector;
pub mod fault;
pub mod federation;
pub mod group_commit;
pub mod metrics;
pub mod pipeline;
pub mod repair_journal;
pub mod shard;
pub mod wal;

pub use client::{dump_flight, scrape, scrape_snapshot, ReconnectPolicy, SinkMetrics, SocketSink};
pub use codec::{
    CodecVersion, DecodedMsg, Decoder, EventEncoder, Frame, Hello, PeerRepairProof, RawFrame,
    RepairRecord, RepairStage,
};
pub use collector::{
    Collector, CollectorConfig, CollectorHandle, CollectorReport, CollectorStats, LeaseConfig,
};
pub use fault::{ChaosProxy, FaultKind, FaultPlan};
pub use federation::{
    merge_members, CollectorRole, FederationConfig, MemberFold, PeerProofStatus, PeerSummary,
};
pub use group_commit::{GroupCommit, GroupCommitHandle};
pub use metrics::{source_state_code, CollectorMetrics};
pub use pipeline::{
    IngestPipeline, Offer, PipelineConfig, RecoveryReport, SourceState, SourceTable,
};
pub use repair_journal::{RepairEntry, RepairLedger};
pub use shard::{FoldReport, ShardedFold};
pub use wal::{FsyncPolicy, Wal, WalConfig, WalMetrics, WalReplay};
