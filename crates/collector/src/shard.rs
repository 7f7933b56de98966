//! The standalone collector's fold engine: a [`ShardPlan`] partitions
//! the pipeline across fold workers joined by a cross-shard digest
//! barrier.
//!
//! ## Topology
//!
//! The merger thread is a **coordinator** that keeps everything
//! connection- and protocol-shaped — the [`SourceTable`] (dedup,
//! promises, leases), the late-event gate, the wait-transition
//! accounting, and the flight recorder's fold-side hops — while the
//! plan's **fold workers** own the expensive per-event state:
//!
//! - with one shard (the default plan), a single [`RuleScope::All`]
//!   [`HbgBuilder`] over the whole stream; with more, a
//!   [`RuleScope::LocalOnly`] builder over the routers the shard owns
//!   (`ShardPlan::of_router`) plus a [`RuleScope::CrossOnly`] builder
//!   over the send/recv events of the *conversations* it owns
//!   (`ShardPlan::of_conv` — prefix range, with the addressee-router
//!   fallback for events that carry no prefix),
//! - a [`TrackerSlice`] over the owned router streams,
//! - its own WAL segment series (the unnumbered `wal-NNNNNNNN.seg`
//!   series for a one-shard plan, `wal-s<K>-NNNNNNNN.seg` otherwise),
//!   flushed per batch and fsynced by the shared group-commit thread,
//!   and
//! - the connections' ack sockets, so an ack is written strictly after
//!   the worker journaled the events it covers.
//!
//! A one-shard plan is the barrier's trivial composition: no digest
//! ever crosses a shard, and the single builder folds exactly what the
//! monolithic [`IngestPipeline`](crate::pipeline::IngestPipeline)
//! reference would. Its worker runs inline on the coordinator's thread
//! (same messages, same replies, no channel hop); with more shards each
//! worker has a thread of its own.
//!
//! ## The barrier
//!
//! A watermark advance is a two-phase barrier driven synchronously by
//! the coordinator over the workers' bounded inboxes:
//!
//! 1. `Advance { wm }`: every worker journals the watermark to its own
//!    series, folds its builders to `wm`, and replays its tracker
//!    streams ([`TrackerSlice::advance_collect`]) — conversation sides
//!    owned by *other* shards (the recv-advert → send-advert HBRs that
//!    span shards) come back to the coordinator as [`ConvDigest`]
//!    outboxes.
//! 2. `Deliver { digests }`: the coordinator regroups the outboxes in
//!    origin-shard order and forwards each shard its foreign digests;
//!    workers absorb, recheck causal closure, and report their missing
//!    sets plus fold counters.
//!
//! The coordinator merges the missing sets into the global verdict —
//! provably equal to the monolithic [`ConsistencyTracker`] verdict at
//! the same horizon (see the equivalence tests in `cpvr-core`) — and
//! counts wait transitions on the merged sequence, so §4.3 wait
//! statistics are shard-count-invariant.
//!
//! ## Recovery
//!
//! Start-up scans the WAL once ([`WalScan`]) into the source table, the
//! min-of-max watermark, the event list, and the repair ledger — no
//! fold. On the thread calling `start`, before any worker thread
//! exists, the coordinator seeds each worker with its share of the
//! events and runs a round-0 barrier at the recovered watermark, so
//! every recovered event is folded exactly once, in its worker.
//!
//! [`SourceTable`]: crate::pipeline::SourceTable
//! [`RuleScope::All`]: cpvr_core::rules::RuleScope
//! [`RuleScope::LocalOnly`]: cpvr_core::rules::RuleScope
//! [`RuleScope::CrossOnly`]: cpvr_core::rules::RuleScope
//! [`HbgBuilder`]: cpvr_core::builder::HbgBuilder
//! [`TrackerSlice`]: cpvr_core::snapshot::TrackerSlice
//! [`ConsistencyTracker`]: cpvr_core::snapshot::ConsistencyTracker

use crate::codec::{encode_frame, Frame};
use crate::collector::{
    flight_repair_record, CollectorConfig, EventRec, LeaseConfig, Msg, SharedStats, StallWatch,
    MERGER_RING_SLOTS, TRACED_PENDING_MAX,
};
use crate::group_commit::{GroupCommit, GroupCommitHandle};
use crate::metrics::CollectorMetrics;
use crate::pipeline::{Offer, RecoveryReport, SourceState, SourceTable, WalScan};
use crate::repair_journal::RepairLedger;
use crate::wal::{self, FsyncPolicy, Wal};
use cpvr_core::builder::HbgBuilder;
use cpvr_core::hbg::{Hbg, Hbr};
use cpvr_core::rules::RuleScope;
use cpvr_core::snapshot::{classify_conv, ConvDigest, SnapshotStatus, TrackerSlice};
use cpvr_core::ShardPlan;
use cpvr_dataplane::DataPlane;
use cpvr_obs::trace::stage;
use cpvr_obs::{Gauge, RingHandle, Stage};
use cpvr_sim::IoEvent;
use cpvr_types::{RouterId, SimTime, TraceCtx};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The fold state a collector hands back at shutdown: the merged state
/// of a standalone collector's fold workers, or one federation member's
/// slice. Accessors expose the quantities the two shapes share — and
/// the bit-identity invariant is that every one of them equals the
/// in-process [`IngestPipeline`](crate::pipeline::IngestPipeline)
/// reference on the same trace, at every shard count.
pub enum FoldReport {
    /// The merged result of a standalone collector's plan (one shard or
    /// many). Boxed so the enum stays pointer-sized through thread
    /// joins.
    Sharded(Box<ShardedFold>),
    /// One federation member's fold slice (see [`crate::federation`]):
    /// a *partial* view — its HBG holds only the member's local and
    /// owned-conversation edges, its data plane only the owned routers.
    /// [`merge_members`](crate::federation::merge_members) combines the
    /// members of one federation into a [`ShardedFold`]-shaped global
    /// state for comparison against a single collector.
    Member(Box<crate::federation::MemberFold>),
}

/// The materialized merge of every shard worker's state at shutdown.
pub struct ShardedFold {
    pub(crate) shards: u32,
    pub(crate) events: u64,
    pub(crate) processed: usize,
    pub(crate) pending: usize,
    pub(crate) hbg: Hbg,
    pub(crate) edge_counts: BTreeMap<String, u64>,
    pub(crate) status: SnapshotStatus,
    pub(crate) waits: (u64, u64),
    pub(crate) dataplane: DataPlane,
    pub(crate) watermark: Option<SimTime>,
    pub(crate) stalled: Vec<RouterId>,
    pub(crate) repairs: RepairLedger,
}

impl FoldReport {
    /// How many shards folded this state (1 for a federation member).
    pub fn shards(&self) -> u32 {
        match self {
            FoldReport::Sharded(s) => s.shards,
            FoldReport::Member(_) => 1,
        }
    }

    /// Total events ingested (including WAL-recovered ones).
    pub fn events(&self) -> u64 {
        match self {
            FoldReport::Sharded(s) => s.events,
            FoldReport::Member(m) => m.events,
        }
    }

    /// Events folded into the HBG (summed over router-local builders —
    /// cross builders fold copies and are deliberately not counted).
    pub fn processed(&self) -> usize {
        match self {
            FoldReport::Sharded(s) => s.processed,
            FoldReport::Member(m) => m.local.processed(),
        }
    }

    /// Ingested events still buffered behind the watermark.
    pub fn pending(&self) -> usize {
        match self {
            FoldReport::Sharded(s) => s.pending,
            FoldReport::Member(m) => m.local.pending(),
        }
    }

    /// The canonical happens-before edge set — the bit-identity oracle.
    pub fn canonical_edges(&self) -> Vec<Hbr> {
        match self {
            FoldReport::Sharded(s) => s.hbg.canonical_edges(),
            FoldReport::Member(m) => m.partial_hbg().canonical_edges(),
        }
    }

    /// Edges offered per inference rule, merged across builders.
    pub fn edge_counts(&self) -> BTreeMap<String, u64> {
        match self {
            FoldReport::Sharded(s) => s.edge_counts.clone(),
            FoldReport::Member(m) => m.edge_counts(),
        }
    }

    /// The snapshot verdict at the final watermark.
    pub fn status(&self) -> SnapshotStatus {
        match self {
            FoldReport::Sharded(s) => s.status.clone(),
            FoldReport::Member(m) => m.status.clone(),
        }
    }

    /// `(issued, resolved)` wait transitions of the fold's verdict.
    pub fn wait_stats(&self) -> (u64, u64) {
        match self {
            FoldReport::Sharded(s) => s.waits,
            FoldReport::Member(m) => m.waits,
        }
    }

    /// The data plane assembled from the arrived FIB records (merged
    /// from the owning shard of each router).
    pub fn dataplane(&self) -> &DataPlane {
        match self {
            FoldReport::Sharded(s) => &s.dataplane,
            FoldReport::Member(m) => m.slice.dataplane(),
        }
    }

    /// The last advanced watermark.
    pub fn watermark(&self) -> Option<SimTime> {
        match self {
            FoldReport::Sharded(s) => s.watermark,
            FoldReport::Member(m) => m.watermark,
        }
    }

    /// Sources that were still gating the watermark at shutdown.
    pub fn stalled_sources(&self) -> Vec<RouterId> {
        match self {
            FoldReport::Sharded(s) => s.stalled.clone(),
            FoldReport::Member(m) => m.stalled.clone(),
        }
    }

    /// The repair-lifecycle ledger folded from the journal's kind-16
    /// records — same fold on every shape, so the bit-identity oracle
    /// extends to repair decisions.
    pub fn repairs(&self) -> &RepairLedger {
        match self {
            FoldReport::Sharded(s) => &s.repairs,
            FoldReport::Member(m) => &m.repairs,
        }
    }
}

/// What the coordinator sends a fold worker. Bounded channel; the
/// coordinator blocks when a worker falls behind, which is the same
/// backpressure story as the reader → merger channel.
pub(crate) enum WorkerMsg {
    /// A handshake for a source this worker owns: journal it, adopt the
    /// ack socket, and ack the current cursor.
    Hello {
        conn: u64,
        journal: Option<Vec<u8>>,
        ack: Option<TcpStream>,
        upto: u64,
        fin: bool,
    },
    /// Fresh, in-order, non-late events for an owned router: journal,
    /// ingest, then ack `upto`.
    Ingest {
        conn: u64,
        source: RouterId,
        batch: Vec<EventRec>,
        upto: u64,
        fin: bool,
    },
    /// Copies of events whose conversations this worker owns but whose
    /// routers it does not — feed for the cross-scope builder only.
    IngestCross { events: Vec<IoEvent> },
    /// WAL-recovered events for owned routers: ingest without
    /// journaling or acking (they are already durable).
    Seed { events: Vec<IoEvent> },
    /// Journal a control record (hello/evict/admit/repair) without
    /// acking; `done` (repair records only) is signalled once the
    /// append is flushed, as the submitter's durability barrier.
    Journal {
        bytes: Vec<u8>,
        done: Option<SyncSender<()>>,
    },
    /// Write an ack (and fin, if the source finished) on a connection.
    Ack { conn: u64, upto: u64, fin: bool },
    /// Drop (and hang up) a connection's ack socket.
    DropConn { conn: u64 },
    /// Barrier phase 1: journal the watermark (unless seeding from
    /// recovery), fold to `wm`, reply with foreign-conversation digests.
    Advance { wm: SimTime, journal: bool },
    /// Barrier phase 2: absorb foreign digests, recheck, reply with the
    /// missing set and fold counters.
    Deliver { digests: Vec<ConvDigest> },
}

/// What a fold worker sends back to the coordinator.
pub(crate) enum Reply {
    /// Barrier phase 1 result: per-destination-shard digest outboxes.
    Phase1 {
        shard: u32,
        outboxes: Vec<Vec<ConvDigest>>,
    },
    /// Barrier phase 2 result: the shard's verdict inputs and counters.
    Phase2 {
        missing: Vec<RouterId>,
        processed: usize,
        pending: usize,
        edges: usize,
    },
    /// Shutdown result: the worker's entire fold state.
    Done(Box<WorkerDone>),
}

/// A worker's final state, moved back to the coordinator at shutdown.
pub(crate) struct WorkerDone {
    shard: u32,
    hbg: HbgBuilder,
    cross: Option<HbgBuilder>,
    slice: TrackerSlice,
    events: u64,
    wal_err: Option<io::Error>,
}

/// One fold worker: owns a shard's builders, tracker slice, WAL series,
/// and ack sockets.
struct Worker {
    shard: u32,
    plan: ShardPlan,
    /// Every rule over the whole stream at one shard; the router-local
    /// rules over the owned routers otherwise.
    hbg: HbgBuilder,
    /// The send→recv rule over the owned conversations (`None` at one
    /// shard, where `hbg` already applies it).
    cross: Option<HbgBuilder>,
    slice: TrackerSlice,
    wal: Option<Wal>,
    gc: Option<GroupCommitHandle>,
    fsync: FsyncPolicy,
    last_segment: u64,
    wal_err: Option<io::Error>,
    acks: HashMap<u64, TcpStream>,
    events: u64,
    metrics: Option<Arc<CollectorMetrics>>,
    /// This worker's flight-recorder ring (the `journaled` hop).
    flight: Option<RingHandle>,
    /// Per builder, the edge offers already added to the shared
    /// `cpvr_hbg_edges_offered{rule}` gauges, with each gauge's handle.
    offered: [BTreeMap<String, (u64, Gauge)>; 2],
    reply: Sender<Reply>,
}

impl Worker {
    /// Appends one record to the shard's WAL series, latching the first
    /// error (the fold keeps running degraded rather than dropping the
    /// in-memory state on a full disk).
    fn journal(&mut self, bytes: &[u8]) -> bool {
        if self.wal_err.is_some() {
            return false;
        }
        let Some(w) = self.wal.as_mut() else {
            return false;
        };
        if let Err(e) = w.append(bytes) {
            self.wal_err = Some(e);
            return false;
        }
        true
    }

    /// Flushes the batch and hands durability to the group-commit
    /// thread: a cadence credit under `EveryN`/`Never`, a blocking
    /// ticket under `Always` (so the subsequent ack implies fsynced).
    fn commit(&mut self, appended: u32) {
        if self.wal_err.is_some() || appended == 0 {
            return;
        }
        let Some(w) = self.wal.as_mut() else { return };
        if let Err(e) = w.flush() {
            self.wal_err = Some(e);
            return;
        }
        // A rotation opened a new active file; the group-commit thread
        // must fsync that one from now on.
        if w.segment_index() != self.last_segment {
            self.last_segment = w.segment_index();
            match w.active_file() {
                Ok(f) => {
                    if let Some(gc) = &self.gc {
                        if !gc.register(self.shard, f) {
                            self.wal_err = Some(io::Error::other("group-commit thread is gone"));
                            return;
                        }
                    }
                }
                Err(e) => {
                    self.wal_err = Some(e);
                    return;
                }
            }
        }
        if let Some(gc) = &self.gc {
            let ok = match self.fsync {
                FsyncPolicy::Always => match gc.sync_now() {
                    Ok(()) => true,
                    Err(e) => {
                        self.wal_err = Some(e);
                        false
                    }
                },
                FsyncPolicy::EveryN(_) | FsyncPolicy::Never => gc.appended(appended),
            };
            if !ok && self.wal_err.is_none() {
                self.wal_err = Some(io::Error::other("group-commit thread is gone"));
            }
        }
    }

    /// Writes an ack (and fin) on a connection, forfeiting the handle on
    /// failure. Returns whether the ack went out.
    fn send_ack(&mut self, conn: u64, upto: u64, fin: bool) -> bool {
        let Some(s) = self.acks.get_mut(&conn) else {
            return false;
        };
        if s.write_all(&encode_frame(&Frame::Ack { upto })).is_err() {
            self.acks.remove(&conn);
            return false;
        }
        if fin {
            if let Some(s) = self.acks.get_mut(&conn) {
                if s.write_all(&encode_frame(&Frame::Fin)).is_err() {
                    self.acks.remove(&conn);
                }
            }
        }
        true
    }

    /// Ingests one owned-router event into the builder, the tracker
    /// slice, and (when this shard also owns its conversation) the
    /// cross builder.
    fn ingest(&mut self, e: &IoEvent) {
        self.hbg.ingest(e);
        self.slice.ingest(e);
        if let Some(cross) = &mut self.cross {
            if let Some((key, _)) = classify_conv(e) {
                if self.plan.of_conv(&key) == self.shard {
                    cross.ingest(e);
                }
            }
        }
        self.events += 1;
    }

    /// Adds this worker's new per-rule edge offers onto the shared
    /// gauges, so each gauge holds the sum over every builder of every
    /// shard without a cross-thread merge.
    fn publish_offered(&mut self) {
        let Some(m) = &self.metrics else { return };
        let builders = std::iter::once(&self.hbg).chain(&self.cross);
        for (b, seen) in builders.zip(&mut self.offered) {
            for (rule, &n) in b.edge_counts() {
                if let Some((published, gauge)) = seen.get_mut(rule) {
                    gauge.add((n - *published) as i64);
                    *published = n;
                } else {
                    let gauge = m
                        .registry
                        .gauge_with("cpvr_hbg_edges_offered", &[("rule", rule)]);
                    gauge.add(n as i64);
                    seen.insert(rule.clone(), (n, gauge));
                }
            }
        }
    }

    /// The worker thread's loop: handles messages until the coordinator
    /// drops its inbox (shutdown) or stops listening for replies, then
    /// hands the fold state back.
    fn run(mut self, rx: Receiver<WorkerMsg>) {
        while rx.recv().is_ok_and(|msg| self.handle(msg)) {}
        let reply = self.reply.clone();
        let _ = reply.send(Reply::Done(Box::new(self.into_done())));
    }

    /// Handles one message. Returns false once the coordinator stopped
    /// listening for replies.
    fn handle(&mut self, msg: WorkerMsg) -> bool {
        match msg {
            WorkerMsg::Hello {
                conn,
                journal,
                ack,
                upto,
                fin,
            } => {
                if let Some(bytes) = journal {
                    if self.journal(&bytes) {
                        self.commit(1);
                    }
                }
                if let Some(a) = ack {
                    self.acks.insert(conn, a);
                }
                self.send_ack(conn, upto, fin);
            }
            WorkerMsg::Ingest {
                conn,
                source,
                batch,
                upto,
                fin,
            } => {
                let mut journaled = 0u32;
                for rec in &batch {
                    if let Some(raw) = rec.raw.as_ref() {
                        if self.journal(raw) {
                            journaled += 1;
                            if let Some(m) = &self.metrics {
                                m.spans.stamp(source.0, rec.seq, Stage::Journaled);
                                m.spans.stamp_shard(source.0, rec.seq, self.shard);
                            }
                        }
                    }
                    if let (Some(ctx), Some(f)) = (rec.trace, &self.flight) {
                        f.record(
                            stage::JOURNALED,
                            Some(ctx.child(stage::DECODED)),
                            u64::from(source.0),
                            rec.seq,
                        );
                    }
                }
                self.commit(journaled);
                for rec in &batch {
                    self.ingest(&rec.event);
                    if let Some(m) = &self.metrics {
                        m.spans
                            .event_time(source.0, rec.seq, rec.event.time.as_nanos());
                    }
                }
                if let Some(m) = &self.metrics {
                    m.events_journaled.add(u64::from(journaled));
                }
                // Ack only after the batch was journaled *and*
                // committed per policy: acked ⇒ durable.
                let acked = self.send_ack(conn, upto, fin);
                if acked {
                    if let Some(m) = &self.metrics {
                        m.events_acked.add(batch.len() as u64);
                        for rec in &batch {
                            m.spans.stamp(source.0, rec.seq, Stage::Acked);
                        }
                    }
                }
            }
            WorkerMsg::IngestCross { events } => {
                if let Some(cross) = &mut self.cross {
                    for e in &events {
                        cross.ingest(e);
                    }
                }
            }
            WorkerMsg::Seed { events } => {
                for e in &events {
                    self.ingest(e);
                }
            }
            WorkerMsg::Journal { bytes, done } => {
                if self.journal(&bytes) {
                    self.commit(1);
                }
                if let Some(done) = done {
                    let _ = done.send(());
                }
            }
            WorkerMsg::Ack { conn, upto, fin } => {
                self.send_ack(conn, upto, fin);
            }
            WorkerMsg::DropConn { conn } => {
                if let Some(s) = self.acks.remove(&conn) {
                    let _ = s.shutdown(std::net::Shutdown::Both);
                }
            }
            WorkerMsg::Advance { wm, journal } => {
                if journal {
                    // The watermark record precedes the fold in this
                    // series, which is what makes the recovered
                    // min-over-series-of-max watermark sound.
                    if self.journal(&encode_frame(&Frame::Watermark { t: wm, frontier: 0 })) {
                        self.commit(1);
                    }
                }
                self.hbg.advance(wm);
                if let Some(cross) = &mut self.cross {
                    cross.advance(wm);
                }
                let mut outboxes: Vec<Vec<ConvDigest>> =
                    (0..self.plan.shards()).map(|_| Vec::new()).collect();
                self.slice.advance_collect(wm, &mut outboxes);
                if let Some(m) = &self.metrics {
                    if let Some(g) = m.shard_frontier.get(self.shard as usize) {
                        g.set(wm.as_nanos() as i64);
                    }
                }
                if self
                    .reply
                    .send(Reply::Phase1 {
                        shard: self.shard,
                        outboxes,
                    })
                    .is_err()
                {
                    return false;
                }
            }
            WorkerMsg::Deliver { digests } => {
                for d in &digests {
                    self.slice.absorb(d);
                }
                self.slice.recheck();
                if let Some(m) = &self.metrics {
                    if let Some(g) = m.shard_fold_lag.get(self.shard as usize) {
                        g.set(self.hbg.pending() as i64);
                    }
                }
                self.publish_offered();
                let edges = self.hbg.hbg().edges().len()
                    + self.cross.as_ref().map_or(0, |c| c.hbg().edges().len());
                if self
                    .reply
                    .send(Reply::Phase2 {
                        missing: self.slice.missing(),
                        processed: self.hbg.processed(),
                        pending: self.hbg.pending(),
                        edges,
                    })
                    .is_err()
                {
                    return false;
                }
            }
        }
        true
    }

    /// Closes the WAL series and gives up the fold state.
    fn into_done(mut self) -> WorkerDone {
        if let Some(w) = self.wal.take() {
            if let (Err(e), None) = (w.close(), &self.wal_err) {
                self.wal_err = Some(e);
            }
        }
        WorkerDone {
            shard: self.shard,
            hbg: self.hbg,
            cross: self.cross,
            slice: self.slice,
            events: self.events,
            wal_err: self.wal_err,
        }
    }
}

/// Adds per-rule edge offers into a running total.
fn add_counts(into: &mut BTreeMap<String, u64>, from: &BTreeMap<String, u64>) {
    for (rule, n) in from {
        *into.entry(rule.clone()).or_default() += n;
    }
}

/// One shard's fold worker as the coordinator holds it. Every worker
/// starts inline on the coordinator's thread; after recovery a
/// multi-shard plan moves each onto a thread of its own. A one-shard
/// plan has no barrier work to spread and keeps it inline, which also
/// keeps its fold in one allocator arena (steady peak memory).
enum ShardHandle {
    Inline(Box<Worker>),
    Thread {
        tx: SyncSender<WorkerMsg>,
        join: JoinHandle<()>,
    },
}

impl ShardHandle {
    /// Hands the worker one message (replies come on the reply channel).
    fn send(&mut self, msg: WorkerMsg) {
        match self {
            ShardHandle::Inline(w) => _ = w.handle(msg),
            ShardHandle::Thread { tx, .. } => _ = tx.send(msg),
        }
    }
}

/// Everything the coordinator tracks across barrier rounds.
struct Barrier {
    waits_issued: u64,
    waits_resolved: u64,
    waiting: bool,
    status: SnapshotStatus,
    processed: usize,
    pending: usize,
    edges: usize,
}

/// Rejects a WAL directory holding segment series a `shards`-way plan
/// does not write. Recovery takes the minimum over series of each
/// series' last watermark, so a series the plan no longer appends to
/// would pin every future recovery at its final watermark.
fn check_series(dir: &Path, shards: u32) -> io::Result<()> {
    let found = wal::list_series(dir)?;
    let written = |s: &Option<u32>| match s {
        None => shards == 1,
        Some(k) => shards > 1 && *k < shards,
    };
    if found.iter().all(written) {
        return Ok(());
    }
    let name = |s: &Option<u32>| match s {
        None => "wal-NNNNNNNN".to_string(),
        Some(k) => format!("wal-s{k}-NNNNNNNN"),
    };
    let found: Vec<String> = found.iter().map(name).collect();
    let writes: Vec<String> = if shards == 1 {
        vec![name(&None)]
    } else {
        (0..shards).map(|k| name(&Some(k))).collect()
    };
    Err(io::Error::new(
        io::ErrorKind::InvalidInput,
        format!(
            "WAL directory {} holds segment series [{}], but the {shards}-shard plan writes \
             [{}]; restarting a WAL under a different shard count is not supported",
            dir.display(),
            found.join(", "),
            writes.join(", "),
        ),
    ))
}

/// The standalone collector's merger thread. Owns the source table and
/// the protocol state; routes events to the fold workers; drives the
/// two-phase watermark barrier.
pub(crate) struct Coordinator {
    plan: ShardPlan,
    workers: Vec<ShardHandle>,
    replies: Receiver<Reply>,
    gc: Option<GroupCommit>,
    journaling: bool,
    lease: LeaseConfig,
    sources: SourceTable,
    repairs: RepairLedger,
    /// Which router each live connection speaks for. A reconnect
    /// replaces the connection; the router's state lives in `sources`.
    conn_source: HashMap<u64, RouterId>,
    advanced: Option<SimTime>,
    barrier: Barrier,
    /// When each source was last heard from, for the liveness leases.
    last_heard: Vec<Instant>,
    stall: StallWatch,
    /// Traced flights routed to a worker but not yet swept up by a
    /// watermark.
    traced: Vec<(SimTime, TraceCtx)>,
    flight: Option<RingHandle>,
    stats: Arc<SharedStats>,
    metrics: Option<Arc<CollectorMetrics>>,
}

impl Coordinator {
    /// Recovers from the WAL (if one is configured), spawns the plan's
    /// fold workers, seeds them with the recovered events, and runs the
    /// round-0 barrier at the recovered watermark. Returns once that
    /// barrier completed, so the caller sees a fully recovered fold.
    pub(crate) fn start(
        cfg: &CollectorConfig,
        stats: Arc<SharedStats>,
        metrics: Option<Arc<CollectorMetrics>>,
    ) -> io::Result<(Coordinator, Option<RecoveryReport>)> {
        let plan = cfg.plan.clone();
        let shards = plan.shards();
        let n_routers = cfg.pipeline.n_routers;
        let mut scan = None;
        let mut wals = Vec::new();
        if let Some(wal_cfg) = &cfg.wal {
            check_series(&wal_cfg.dir, shards)?;
            scan = Some(WalScan::read(
                n_routers,
                &wal_cfg.dir,
                shards as usize,
                &plan,
            )?);
            for k in 0..shards {
                // A one-shard plan keeps the unnumbered series, so WAL
                // directories it wrote before sharding existed recover
                // unchanged.
                let mut series = wal_cfg.clone();
                if shards > 1 {
                    series = series.for_series(k);
                }
                series.deferred_sync = true;
                let mut w = Wal::open(series)?;
                if let Some(m) = &metrics {
                    w.set_metrics(m.wal_metrics());
                }
                wals.push(w);
            }
        }
        // The group-commit thread, shared by every worker's WAL series.
        // Cadence: `EveryN(n)` syncs once per `n` appends across the
        // whole collector; `Always` syncs via per-batch tickets; `Never`
        // only on rotation/close/stop.
        let fsync = cfg.wal.as_ref().map_or(FsyncPolicy::Never, |w| w.fsync);
        let gc = (!wals.is_empty()).then(|| {
            let cadence = match fsync {
                FsyncPolicy::EveryN(n) => n.max(1),
                FsyncPolicy::Always | FsyncPolicy::Never => u32::MAX,
            };
            let gc_metrics = metrics.as_ref().map(|m| {
                (
                    m.registry.counter("cpvr_wal_syncs_total"),
                    m.registry.histogram("cpvr_wal_fsync_nanos"),
                )
            });
            GroupCommit::start(cadence, gc_metrics)
        });

        let infer = cfg.pipeline.infer();
        let (reply_tx, replies) = std::sync::mpsc::channel::<Reply>();
        let mut wals = wals.into_iter();
        let mut workers: Vec<ShardHandle> = Vec::with_capacity(shards as usize);
        for k in 0..shards {
            let mut wal = wals.next();
            let mut last_segment = 0;
            let mut wal_err = None;
            if let (Some(w), Some(gc)) = (wal.as_mut(), gc.as_ref()) {
                last_segment = w.segment_index();
                match w.active_file() {
                    Ok(f) => {
                        gc.handle().register(k, f);
                    }
                    Err(e) => wal_err = Some(e),
                }
            }
            // One shard folds every rule in one builder; more shards
            // split the rules by router and by conversation.
            let (hbg, cross) = if shards == 1 {
                (HbgBuilder::new(&infer), None)
            } else {
                (
                    HbgBuilder::new_scoped(&infer, RuleScope::LocalOnly),
                    Some(HbgBuilder::new_scoped(&infer, RuleScope::CrossOnly)),
                )
            };
            workers.push(ShardHandle::Inline(Box::new(Worker {
                shard: k,
                plan: plan.clone(),
                hbg,
                cross,
                slice: TrackerSlice::new(n_routers as usize, plan.clone(), k),
                wal,
                gc: gc.as_ref().map(GroupCommit::handle),
                fsync,
                last_segment,
                wal_err,
                acks: HashMap::new(),
                events: 0,
                metrics: metrics.clone(),
                flight: metrics
                    .as_ref()
                    .map(|m| m.flight.register(&format!("fold-{k}"), MERGER_RING_SLOTS)),
                offered: Default::default(),
                reply: reply_tx.clone(),
            })));
        }

        let (sources, recovered_wm, events, repairs, report) = match scan {
            Some(s) => (s.sources, s.watermark, s.events, s.repairs, Some(s.report)),
            None => (
                SourceTable::new(n_routers),
                None,
                Vec::new(),
                RepairLedger::new(),
                None,
            ),
        };
        let mut c = Coordinator {
            workers,
            replies,
            gc,
            journaling: cfg.wal.is_some(),
            lease: cfg.lease,
            sources,
            repairs,
            conn_source: HashMap::new(),
            advanced: recovered_wm,
            barrier: Barrier {
                waits_issued: 0,
                waits_resolved: 0,
                waiting: false,
                status: SnapshotStatus::Consistent,
                processed: 0,
                pending: 0,
                edges: 0,
            },
            // Every source starts its lease clock now, so a router that
            // never comes up at all is still evicted on schedule.
            last_heard: vec![Instant::now(); n_routers as usize],
            stall: StallWatch::new(recovered_wm),
            traced: Vec::new(),
            flight: metrics
                .as_ref()
                .map(|m| m.flight.register("merger", MERGER_RING_SLOTS)),
            stats,
            metrics,
            plan,
        };
        // Seed the workers with the WAL-recovered events (already
        // durable: no re-journaling, no acks), then run a round-0
        // barrier at the recovered watermark so verdict and wait
        // accounting match the monolithic reference exactly. Both run
        // here, with every worker still inline, so the recovered fold
        // reuses the memory the scan just freed (fresh threads' allocator
        // arenas made a restart's peak memory vary from run to run).
        c.seed(events);
        if let Some(wm) = recovered_wm {
            c.run_barrier(wm, false);
            c.stats.set_watermark(wm);
        }
        if shards > 1 {
            for (k, w) in std::mem::take(&mut c.workers).into_iter().enumerate() {
                let ShardHandle::Inline(worker) = w else {
                    unreachable!("every worker starts inline")
                };
                let (tx, wrx) = std::sync::mpsc::sync_channel(cfg.channel_capacity.max(1));
                let join = thread::Builder::new()
                    .name(format!("cpvr-fold-{k}"))
                    .spawn(move || worker.run(wrx))?;
                c.workers.push(ShardHandle::Thread { tx, join });
            }
        }
        // Scrapes arriving before any traffic see the recovered state.
        c.publish();
        Ok((c, report))
    }

    /// The group-commit thread's handle, when a WAL is configured.
    pub(crate) fn group_commit(&self) -> Option<GroupCommitHandle> {
        self.gc.as_ref().map(GroupCommit::handle)
    }

    /// The worker owning router `r`.
    fn owner(&mut self, r: RouterId) -> &mut ShardHandle {
        &mut self.workers[self.plan.of_router(r) as usize]
    }

    /// Hands each worker its share of the recovered events (and, with
    /// more than one shard, copies to the owners of their
    /// conversations). Each share moves whole: no second copy of the
    /// recovered history is made.
    fn seed(&mut self, parts: Vec<Vec<IoEvent>>) {
        if self.workers.len() > 1 {
            let mut crosses: Vec<Vec<IoEvent>> = vec![Vec::new(); self.workers.len()];
            for (owner, events) in parts.iter().enumerate() {
                for e in events {
                    if let Some((key, _)) = classify_conv(e) {
                        let conv_owner = self.plan.of_conv(&key) as usize;
                        if conv_owner != owner {
                            crosses[conv_owner].push(e.clone());
                        }
                    }
                }
            }
            for (k, events) in crosses.into_iter().enumerate() {
                if !events.is_empty() {
                    self.workers[k].send(WorkerMsg::IngestCross { events });
                }
            }
        }
        for (k, events) in parts.into_iter().enumerate() {
            if !events.is_empty() {
                self.workers[k].send(WorkerMsg::Seed { events });
            }
        }
    }

    /// The merger loop: handles reader messages and sweeps the leases
    /// until every reader (and the handle) hung up, then shuts the
    /// workers down and merges their state.
    pub(crate) fn run(mut self, rx: Receiver<Msg>) -> (FoldReport, Option<io::Error>) {
        let mut last_sweep = Instant::now();
        // `recv_timeout` must not overflow Instant arithmetic on huge
        // (disabled-lease) intervals.
        let tick = self.lease.sweep_interval.min(Duration::from_secs(3600));
        loop {
            match rx.recv_timeout(tick) {
                Ok(msg) => self.on_msg(msg),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if last_sweep.elapsed() >= tick {
                self.sweep_leases();
                last_sweep = Instant::now();
            }
            self.stall.observe(
                self.advanced,
                self.lease.stall_after,
                self.metrics.as_deref(),
                self.flight.as_ref(),
            );
        }
        self.finish()
    }

    /// Marks `conn`'s source as heard from and returns it, or `None`
    /// for a connection that never completed a hello.
    fn heard(&mut self, conn: u64) -> Option<RouterId> {
        let source = *self.conn_source.get(&conn)?;
        self.last_heard[source.0 as usize] = Instant::now();
        self.sources.refresh(source);
        Some(source)
    }

    fn on_msg(&mut self, msg: Msg) {
        match msg {
            Msg::Hello { conn, hello, ack } => {
                let source = hello.source;
                self.last_heard[source.0 as usize] = Instant::now();
                if self.sources.state(source) == SourceState::Evicted {
                    // Journal the re-admission before widening the
                    // gate, mirroring the eviction in the sweep.
                    self.owner(source).send(WorkerMsg::Journal {
                        bytes: encode_frame(&Frame::Admit { source }),
                        done: None,
                    });
                    self.sources.admit(source);
                    self.stats.readmissions.fetch_add(1, Ordering::Relaxed);
                    if let Some(m) = &self.metrics {
                        m.readmissions.inc();
                    }
                }
                self.sources.hello(source, hello.session, hello.first_seq);
                self.conn_source.insert(conn, source);
                let codec = hello.codec;
                // Journal the handshake so recovery re-learns the session
                // and keeps deduplicating its replays; the immediate ack
                // tells a reconnecting client how much of its planned
                // replay is already here.
                let journal = self.journaling.then(|| encode_frame(&Frame::Hello(hello)));
                let (upto, fin) = (self.sources.next_seq(source), self.sources.finished(source));
                self.owner(source).send(WorkerMsg::Hello {
                    conn,
                    journal,
                    ack,
                    upto,
                    fin,
                });
                if let Some(m) = &self.metrics {
                    m.set_source_codec(source.0, codec);
                    m.publish_sources(&self.sources);
                }
            }
            Msg::Events { conn, batch } => {
                let Some(source) = self.heard(conn) else {
                    return;
                };
                self.route_events(conn, source, batch);
                // Filling a gap may have settled a parked promise.
                self.try_advance();
            }
            Msg::Watermark { conn, t, frontier } => {
                let Some(source) = self.heard(conn) else {
                    return;
                };
                self.sources.promise(source, t, frontier);
                self.try_advance();
                self.ack(conn, source);
            }
            Msg::Heartbeat { conn } => {
                if let Some(source) = self.heard(conn) {
                    self.ack(conn, source);
                }
            }
            Msg::Bye { conn, frontier } => {
                let Some(source) = self.heard(conn) else {
                    return;
                };
                // A graceful goodbye: the source promises it will never
                // emit again, gated on its final frontier like any
                // other promise.
                self.sources.bye(source, frontier);
                self.try_advance();
                self.ack(conn, source);
            }
            Msg::Intern { router, raw } => {
                // A symbol definition journals into the *owning shard's*
                // WAL series — the same series that will journal the
                // events using it — so a per-series replay sees
                // define-before-use. (The reader flushed its batch first,
                // so channel order is stream order.)
                self.owner(RouterId(router)).send(WorkerMsg::Journal {
                    bytes: raw,
                    done: None,
                });
            }
            Msg::Repair { record, done } => {
                // Repairs are global, not per-router: shard 0's series
                // is their one canonical home, so a replay reassembles
                // the same lifecycle order. The caller's `done` ack
                // rides the worker's append — the durability barrier
                // crosses both channels.
                self.repairs.accept(&record);
                self.stats.repair_records.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &self.metrics {
                    m.publish_repair(&record, self.repairs.in_flight().len());
                }
                flight_repair_record(&record, self.flight.as_ref(), self.metrics.as_deref());
                let bytes = encode_frame(&Frame::Repair(record));
                self.workers[0].send(WorkerMsg::Journal { bytes, done });
            }
            // Peer frames exist only on federated collectors, whose
            // member loop replaces this one; on_frame kills any
            // connection that sends them here first.
            Msg::PeerHello { .. } | Msg::Peer { .. } => {}
            Msg::Closed { conn } => {
                // Keep the router's state: an abnormal close stalls the
                // global merge at its promise until the lease evicts it
                // — the conservative choice.
                if let Some(source) = self.conn_source.remove(&conn) {
                    self.owner(source).send(WorkerMsg::DropConn { conn });
                }
            }
        }
    }

    /// Deduplicates a reader's batch against the source table, drops
    /// late events, and hands the fresh ones to the owning worker (plus
    /// copies to the workers owning their conversations).
    fn route_events(&mut self, conn: u64, source: RouterId, batch: Vec<EventRec>) {
        let mut fresh: Vec<EventRec> = Vec::with_capacity(batch.len());
        let (mut late, mut dups, mut gaps) = (0u64, 0u64, 0u64);
        for rec in batch {
            match self.sources.offer(source, rec.seq) {
                Offer::Duplicate => dups += 1,
                Offer::Gap => gaps += 1,
                Offer::Fresh => {
                    // Events at or behind the advanced watermark land
                    // behind the fold frontier; only possible for
                    // sources replaying after an eviction let the fold
                    // pass them. Count and drop — the ack still covers
                    // them so the client stops re-sending.
                    if self.advanced.is_some_and(|wm| rec.event.time <= wm) {
                        late += 1;
                        continue;
                    }
                    if let Some(ctx) = rec.trace {
                        if self.traced.len() < TRACED_PENDING_MAX {
                            self.traced.push((rec.event.time, ctx));
                        }
                    }
                    fresh.push(rec);
                }
            }
        }
        let ingested = fresh.len() as u64;
        let stats = &self.stats;
        stats.events.fetch_add(ingested, Ordering::Relaxed);
        stats.late_events.fetch_add(late, Ordering::Relaxed);
        stats.duplicate_events.fetch_add(dups, Ordering::Relaxed);
        stats.gap_events.fetch_add(gaps, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.events_received.add(ingested);
            m.events_duplicate.add(dups);
            m.events_gap.add(gaps);
            m.events_late.add(late);
        }
        if ingested > 0 {
            self.stall.ingested();
        }
        // Cross-conversation copies go out *before* the owner's batch
        // can trigger any later barrier, so a shard's cross builder
        // always has both sides of an HBR by the time the watermark
        // folds it. A one-shard plan owns every conversation.
        let owner = self.plan.of_router(source) as usize;
        if self.workers.len() > 1 {
            let mut crosses: Vec<Vec<IoEvent>> = vec![Vec::new(); self.workers.len()];
            for rec in &fresh {
                if let Some((key, _)) = classify_conv(&rec.event) {
                    let conv_owner = self.plan.of_conv(&key) as usize;
                    if conv_owner != owner {
                        crosses[conv_owner].push(rec.event.clone());
                    }
                }
            }
            for (k, events) in crosses.into_iter().enumerate() {
                if !events.is_empty() {
                    self.workers[k].send(WorkerMsg::IngestCross { events });
                }
            }
        }
        self.workers[owner].send(WorkerMsg::Ingest {
            conn,
            source,
            batch: fresh,
            upto: self.sources.next_seq(source),
            fin: self.sources.finished(source),
        });
    }

    /// Acks a connection's contiguous prefix through the owning
    /// worker's socket and, once the source's bye promise has been
    /// *applied*, confirms end-of-stream with a fin. Byes carry no
    /// sequence number, so the fin is the only way a draining client
    /// can know its bye was not lost in flight.
    fn ack(&mut self, conn: u64, source: RouterId) {
        let (upto, fin) = (self.sources.next_seq(source), self.sources.finished(source));
        self.owner(source).send(WorkerMsg::Ack { conn, upto, fin });
    }

    /// Runs one two-phase barrier at `wm` across all workers and merges
    /// the verdict. `journal` is false only for the recovery round (the
    /// watermark is already durable in every series that folded to it).
    fn run_barrier(&mut self, wm: SimTime, journal: bool) {
        let shards = self.workers.len();
        let metrics = self.metrics.as_deref();
        let barrier = &mut self.barrier;
        let start = Instant::now();
        for w in &mut self.workers {
            w.send(WorkerMsg::Advance { wm, journal });
        }
        // Phase 1: collect every shard's foreign-digest outboxes.
        let mut outboxes: Vec<Option<Vec<Vec<ConvDigest>>>> = (0..shards).map(|_| None).collect();
        let mut remaining = shards;
        while remaining > 0 {
            match self.replies.recv() {
                Ok(Reply::Phase1 {
                    shard,
                    outboxes: out,
                }) => {
                    if let Some(m) = metrics {
                        if let Some(h) = m.shard_barrier_stall.get(shard as usize) {
                            h.observe_since(start);
                        }
                    }
                    outboxes[shard as usize] = Some(out);
                    remaining -= 1;
                }
                Ok(_) => {}
                Err(_) => return,
            }
        }
        // Regroup per destination, in origin-shard order: digests for
        // one conversation side all originate from a single stream on a
        // single shard, so this concatenation preserves stream order.
        let mut deliver: Vec<Vec<ConvDigest>> = (0..shards).map(|_| Vec::new()).collect();
        for origin in outboxes.iter_mut().map(|o| o.take().expect("phase 1")) {
            for (dest, digests) in origin.into_iter().enumerate() {
                deliver[dest].extend(digests);
            }
        }
        for (dest, digests) in deliver.into_iter().enumerate() {
            self.workers[dest].send(WorkerMsg::Deliver { digests });
        }
        // Phase 2: merge the missing sets into the global verdict.
        let mut missing: Vec<RouterId> = Vec::new();
        let (mut processed, mut pending, mut edges) = (0usize, 0usize, 0usize);
        let mut remaining = shards;
        while remaining > 0 {
            match self.replies.recv() {
                Ok(Reply::Phase2 {
                    missing: m,
                    processed: p,
                    pending: pd,
                    edges: e,
                }) => {
                    missing.extend(m);
                    processed += p;
                    pending += pd;
                    edges += e;
                    remaining -= 1;
                }
                Ok(_) => {}
                Err(_) => return,
            }
        }
        missing.sort_unstable();
        missing.dedup();
        barrier.status = if missing.is_empty() {
            SnapshotStatus::Consistent
        } else {
            SnapshotStatus::WaitFor(missing)
        };
        barrier.processed = processed;
        barrier.pending = pending;
        barrier.edges = edges;
        // The wait accounting the monolithic tracker keeps, replayed on
        // the merged verdict sequence — shard-count-invariant by
        // construction.
        match (barrier.waiting, barrier.status.is_consistent()) {
            (false, false) => {
                barrier.waits_issued += 1;
                barrier.waiting = true;
            }
            (true, true) => {
                barrier.waits_resolved += 1;
                barrier.waiting = false;
            }
            _ => {}
        }
        if let Some(m) = metrics {
            m.barrier_rounds.inc();
        }
    }

    /// Advances the fold to the source table's global minimum promise,
    /// if it moved; each worker journals the new watermark to its own
    /// series before folding to it.
    fn try_advance(&mut self) {
        let Some(global) = self.sources.global_min() else {
            return;
        };
        if self.advanced.is_some_and(|wm| global <= wm) {
            return;
        }
        let folded_before = self.barrier.processed;
        let start = Instant::now();
        self.run_barrier(global, true);
        self.advanced = Some(global);
        self.stats.set_watermark(global);
        if let Some(m) = self.metrics.as_deref() {
            m.fold_nanos.observe_since(start);
            m.fold_batch
                .observe(self.barrier.processed.saturating_sub(folded_before) as u64);
            m.spans
                .fold_up_to(global.as_nanos(), self.barrier.status.is_consistent());
        }
        // Traced flights at or behind the new horizon just got folded —
        // close their fold-side hop.
        match &self.flight {
            Some(f) => self.traced.retain(|(t, ctx)| {
                if *t > global {
                    return true;
                }
                f.record(
                    stage::FOLDED,
                    Some(ctx.child(stage::JOURNALED)),
                    t.as_nanos(),
                    0,
                );
                false
            }),
            None => self.traced.clear(),
        }
        self.publish();
    }

    /// Publishes the fold-side gauges from the merged barrier view:
    /// fold counters, HBG size, the verdict, and the per-source
    /// lease/lag/cursor gauges. (Workers publish the per-rule edge
    /// offers themselves.)
    fn publish(&self) {
        let Some(m) = self.metrics.as_deref() else {
            return;
        };
        let b = &self.barrier;
        m.events_folded.set(b.processed as i64);
        m.events_pending.set(b.pending as i64);
        m.hbg_edges.set(b.edges as i64);
        m.waits_issued.set(b.waits_issued as i64);
        m.waits_resolved.set(b.waits_resolved as i64);
        m.snapshot_consistent.set(b.status.is_consistent() as i64);
        if let Some(wm) = self.advanced {
            m.watermark_nanos.set(wm.as_nanos() as i64);
        }
        m.publish_sources(&self.sources);
    }

    /// One pass of the liveness leases: flag silent sources as lagging,
    /// evict ones silent past the eviction threshold (journaled first,
    /// to the owner's series), and advance the fold if an eviction
    /// released the gate.
    fn sweep_leases(&mut self) {
        let now = Instant::now();
        let mut evicted_any = false;
        for i in 0..self.last_heard.len() {
            let r = RouterId(i as u32);
            // A source that delivered its whole stream (settled bye)
            // owes nobody a heartbeat; an already evicted one is out.
            if self.sources.state(r) == SourceState::Evicted || self.sources.finished(r) {
                continue;
            }
            let silent = now.saturating_duration_since(self.last_heard[i]);
            if silent >= self.lease.evict_after {
                // The worker's inbox orders the eviction record ahead
                // of any barrier watermark the eviction releases.
                self.owner(r).send(WorkerMsg::Journal {
                    bytes: encode_frame(&Frame::Evict { source: r }),
                    done: None,
                });
                self.sources.evict(r);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                // Every eviction freezes exactly one black box: the dump
                // holds the ring state that explains *why* the fold was
                // gated when the lease gave up on this source.
                if let Some(f) = &self.flight {
                    f.record(stage::EVICTION, None, u64::from(r.0), silent.as_secs());
                }
                if let Some(m) = &self.metrics {
                    m.evictions.inc();
                    m.flight_dump("eviction");
                }
                evicted_any = true;
                // Hang up on the evicted source: re-admission requires a
                // fresh hello, and clients only re-hello on reconnect, so
                // leaving the connection up would strand a source that
                // is merely slow (not dead) in un-admitted limbo.
                let conns: Vec<u64> = self
                    .conn_source
                    .iter()
                    .filter(|&(_, s)| *s == r)
                    .map(|(&c, _)| c)
                    .collect();
                for c in conns {
                    self.conn_source.remove(&c);
                    self.owner(r).send(WorkerMsg::DropConn { conn: c });
                }
            } else if silent >= self.lease.lagging_after {
                self.sources.set_lagging(r);
            }
        }
        if evicted_any {
            self.try_advance();
        }
        // Every sweep republishes the lease gauges, so a scrape sees a
        // source flip Live → Lagging → Evicted as it happens.
        if let Some(m) = &self.metrics {
            m.publish_sources(&self.sources);
        }
    }

    /// Shuts the workers down and merges their states (then the
    /// group-commit thread's verdict) into the final report.
    fn finish(self) -> (FoldReport, Option<io::Error>) {
        let shards = self.workers.len();
        let mut dones: Vec<Option<WorkerDone>> = (0..shards).map(|_| None).collect();
        let mut joins = Vec::new();
        for (k, w) in self.workers.into_iter().enumerate() {
            match w {
                ShardHandle::Inline(w) => dones[k] = Some(w.into_done()),
                // Dropping the inbox shuts the worker down.
                ShardHandle::Thread { join, .. } => joins.push(join),
            }
        }
        let mut remaining = joins.len();
        while remaining > 0 {
            match self.replies.recv() {
                Ok(Reply::Done(d)) => {
                    let k = d.shard as usize;
                    dones[k] = Some(*d);
                    remaining -= 1;
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
        for join in joins {
            let _ = join.join();
        }
        let mut wal_err: Option<io::Error> = None;
        if let Some(gc) = self.gc {
            if let Err(e) = gc.stop() {
                wal_err = Some(e);
            }
        }

        // Merge by consuming each worker in turn: graphs and data planes
        // move rather than copy wherever one shard owns them whole, and
        // each worker's remaining state is freed before the next merges.
        let n_routers = self.last_heard.len();
        let mut hbg = Hbg::new(0);
        let mut edge_counts: BTreeMap<String, u64> = BTreeMap::new();
        let mut dataplane = DataPlane::new(n_routers);
        let mut events = 0u64;
        let mut processed = 0usize;
        let mut pending = 0usize;
        for d in dones.into_iter().map(|d| d.expect("worker reply")) {
            if wal_err.is_none() {
                wal_err = d.wal_err;
            }
            events += d.events;
            processed += d.hbg.processed();
            pending += d.hbg.pending();
            for b in std::iter::once(d.hbg).chain(d.cross) {
                add_counts(&mut edge_counts, b.edge_counts());
                let g = b.into_hbg();
                if hbg.edges().is_empty() {
                    let n = hbg.num_events();
                    hbg = g;
                    hbg.grow_to(n);
                } else {
                    hbg.grow_to(g.num_events());
                    for h in g.edges() {
                        hbg.add(*h);
                    }
                }
            }
            if shards == 1 {
                dataplane = d.slice.into_dataplane();
                continue;
            }
            // Per-router state lives wholly with the owning shard.
            let dp = d.slice.dataplane();
            for r in 0..n_routers as u32 {
                let router = RouterId(r);
                if self.plan.of_router(router) == d.shard {
                    for (prefix, entry) in dp.fib(router).entries() {
                        dataplane.fib_mut(router).install(prefix, entry);
                    }
                    dataplane.set_taken_at(router, dp.taken_at(router));
                }
            }
        }

        let report = FoldReport::Sharded(Box::new(ShardedFold {
            shards: shards as u32,
            events,
            processed,
            pending,
            hbg,
            edge_counts,
            status: self.barrier.status,
            waits: (self.barrier.waits_issued, self.barrier.waits_resolved),
            dataplane,
            watermark: self.advanced,
            stalled: self.sources.stalled(),
            repairs: self.repairs,
        }));
        (report, wal_err)
    }
}
