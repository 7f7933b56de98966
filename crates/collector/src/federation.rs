//! Federated collectors: N members, each folding a disjoint router
//! subset, exchanging *partial* happens-before state instead of raw
//! streams.
//!
//! A federation member is one shard of the [`FederationPlan`], promoted
//! to its own process: it accepts only its owned routers' streams,
//! keeps a [`RuleScope::LocalOnly`] builder over those streams, a
//! [`RuleScope::CrossOnly`] builder over the *conversations* it owns,
//! and a [`TrackerSlice`] for the verification walk — exactly the
//! in-process sharded worker's state, but connected to its siblings
//! over the wire codec's peer frames (kinds 12–15) rather than a
//! channel barrier.
//!
//! ## The federated round
//!
//! Every member advertises its own source-table minimum with
//! [`FrontierExchange`] frames whenever it moves. The **federated
//! minimum** is the least of all members' advertised minima; each
//! observed value is queued as a fold horizon. Rounds are strictly
//! serial — a new horizon opens only after the previous round's global
//! verdict lands — in three phases:
//!
//! 1. **Open** (`open_round`): journal the horizon marker, fold both
//!    builders, run [`TrackerSlice::advance_collect`], and ship each
//!    peer its boundary digests as a [`BoundaryEdges`] frame tagged
//!    with the round (an empty digest list still ships — it is the
//!    round-completion marker).
//! 2. **Partial verdict** (`try_complete`, first half): once every
//!    peer's round batch arrived, absorb them in member order, recheck,
//!    and broadcast this slice's missing set as a [`PartialVerdict`].
//! 3. **Merge** (`try_complete`, second half): once every peer's
//!    partial arrived, the union of missing sets — sorted and
//!    deduplicated — is the *global* snapshot verdict, bit-identical to
//!    the monolithic tracker's by the [`TrackerSlice`] decomposition
//!    property. Only then does the next queued horizon open.
//!
//! Cross-member happens-before edges need the raw boundary *events*,
//! not just digests: an accepted event whose conversation belongs to a
//! peer is eagerly forwarded in an untagged [`BoundaryEdges`] frame.
//! TCP FIFO ordering makes the fold sound: a peer forwards every
//! boundary event at or below `F` before it advertises a minimum of
//! `F` on the same link, so by the time the federated minimum reaches
//! `F` the cross builder has everything it will ever see below `F`.
//!
//! ## Durability and recovery
//!
//! Members journal, in arrival order: client hellos and events (raw
//! bytes), inbound peer frames (raw bytes, *before* acking — peer links
//! run the same go-back-N replay discipline as client sinks), their own
//! outbound [`FrontierExchange`] records (so a recovering member
//! regenerates the very same step-by-step frontier history its peers
//! gated rounds on), and a watermark marker per opened round. All other
//! outbound traffic is *not* journaled: recovery replays the journal
//! through the identical apply path (the WAL handle is absent, so
//! journaling no-ops) and thereby regenerates every round digest,
//! partial verdict, and eager boundary batch into the peer links'
//! send buffers under a fresh session. Receivers deduplicate
//! semantically — frontier minima max-merge, round frames at or behind
//! the completed horizon drop, boundary events deduplicate by event id
//! — so a regenerated stream is harmless and a missing one is healed.

use crate::codec::{
    decode_frame, encode_frame, BoundaryEdges, Decoder, Frame, FrontierExchange, PartialVerdict,
    PeerHello, PeerRepairProof, RepairRecord, RepairStage,
};
use crate::collector::{
    flight_repair_record, journal, send_ack, CollectorConfig, LeaseConfig, Msg, SharedStats,
    StallWatch, MERGER_RING_SLOTS,
};
use crate::metrics::CollectorMetrics;
use crate::pipeline::{Offer, RecoveryReport, SourceState, SourceTable};
use crate::repair_journal::RepairLedger;
use crate::shard::{FoldReport, ShardedFold};
use crate::wal::{self, Wal, WalConfig};
use cpvr_core::builder::HbgBuilder;
use cpvr_core::hbg::Hbg;
use cpvr_core::rules::RuleScope;
use cpvr_core::snapshot::{classify_conv, ConvDigest, SnapshotStatus, TrackerSlice};
use cpvr_core::{chain_over, FederationPlan, RepairProof};
use cpvr_dataplane::DataPlane;
use cpvr_obs::trace::stage;
use cpvr_obs::RingHandle;
use cpvr_sim::{EventId, IoEvent};
use cpvr_types::intern::InternStore;
use cpvr_types::json::{from_str, to_string_compact};
use cpvr_types::trace::TRACE_CTX_WIRE_LEN;
use cpvr_types::{fnv1a64, RouterId, SimTime, TraceCtx};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Write timeout on outbound peer links; a stalled peer forfeits the
/// connection (frames stay buffered and replay on reconnect).
const PEER_WRITE_TIMEOUT: Duration = Duration::from_millis(250);
/// Read poll on outbound peer links, for draining acks.
const PEER_ACK_POLL: Duration = Duration::from_millis(1);
/// Connect timeout for (re)dialing a peer.
const PEER_CONNECT_TIMEOUT: Duration = Duration::from_millis(250);
/// Reconnect backoff bounds.
const PEER_RECONNECT_MIN: Duration = Duration::from_millis(50);
const PEER_RECONNECT_MAX: Duration = Duration::from_secs(2);
/// The member loop's maximum recv timeout: peer links need pumping
/// (reconnects, ack drains) even when no client traffic arrives.
const LINK_TICK: Duration = Duration::from_millis(50);

/// A process-unique peer session id: a peer that sees a *new* session
/// resets its inbound cursor to the announced `first_seq` instead of
/// expecting the old stream to resume.
fn fresh_session() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    (u64::from(std::process::id()) << 32) | COUNTER.fetch_add(1, Ordering::Relaxed)
}

/// Federation membership for one collector.
#[derive(Clone, Debug)]
pub struct FederationConfig {
    /// Which member owns which routers (and conversations).
    pub plan: FederationPlan,
    /// This collector's member index, `0..plan.members()`.
    pub member: u32,
    /// Every member's listen address, self included (the own slot is
    /// never dialed). Must have exactly `plan.members()` entries.
    pub peers: Vec<SocketAddr>,
}

/// What kind of collector produced a [`CollectorReport`]
/// (`crate::CollectorReport`): a standalone/sharded collector, or one
/// member of a federation — with its last view of every peer.
#[derive(Clone, Debug)]
pub enum CollectorRole {
    /// Not federated (the coordinator over one or more fold workers).
    Standalone,
    /// One member of an N-collector federation.
    Member {
        /// This collector's member index.
        member: u32,
        /// Total federation size.
        members: u32,
        /// Final state of every *other* member, as seen over the wire.
        peers: Vec<PeerSummary>,
    },
}

impl CollectorRole {
    /// Whether this collector ran as a federation member.
    pub fn is_member(&self) -> bool {
        matches!(self, CollectorRole::Member { .. })
    }
}

/// A member's last knowledge of one peer.
#[derive(Clone, Debug)]
pub struct PeerSummary {
    /// The peer's member index.
    pub member: u32,
    /// The peer's last advertised source-table minimum.
    pub min: Option<SimTime>,
    /// The peer's last advertised per-router frontier detail.
    pub frontier: Vec<(RouterId, Option<SimTime>)>,
    /// Frames still unacknowledged on the outbound link at shutdown.
    pub unacked: u64,
}

/// An inbound peer frame, decoded by the reader and routed to the
/// member loop (the peer analogue of the client [`Msg`] variants).
#[derive(Clone, Debug)]
pub(crate) enum PeerFrame {
    Frontier(FrontierExchange),
    Boundary(BoundaryEdges),
    Partial(PartialVerdict),
    Repair(PeerRepairProof),
}

impl PeerFrame {
    pub(crate) fn member(&self) -> u32 {
        match self {
            PeerFrame::Frontier(f) => f.member,
            PeerFrame::Boundary(b) => b.member,
            PeerFrame::Partial(p) => p.member,
            PeerFrame::Repair(r) => r.member,
        }
    }

    fn seq(&self) -> u64 {
        match self {
            PeerFrame::Frontier(f) => f.seq,
            PeerFrame::Boundary(b) => b.seq,
            PeerFrame::Partial(p) => p.seq,
            PeerFrame::Repair(r) => r.seq,
        }
    }
}

/// A member's record of one peer-advertised repair proof, after
/// independent re-validation: the receiving member does not trust the
/// owner's verdict blindly — it reparses the proof, recomputes the
/// provenance hash chain, and re-derives the content digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerProofStatus {
    /// Which member gated (and advertised) the repair.
    pub from: u32,
    /// The owner's gate verdict code (0 reproduced / 1 diverged /
    /// 2 error).
    pub verdict: u8,
    /// Whether the proof parsed and its recomputed hash chain over the
    /// provenance path matches the embedded chain (and is non-empty).
    pub chain_ok: bool,
    /// Whether the proof's re-encoded binary digest matches the digest
    /// the owner advertised — i.e. both members hold the same bytes.
    pub digest_ok: bool,
}

impl PeerProofStatus {
    /// A peer verdict this member may act on: the owner said
    /// REPRODUCED *and* both independent re-checks passed.
    pub fn trusted_reproduced(&self) -> bool {
        self.verdict == 0 && self.chain_ok && self.digest_ok
    }
}

/// One outbound peer connection: a go-back-N sender mirroring the
/// client sink's discipline. Frames get a per-link sequence number,
/// stay buffered until the peer acks past them, and are replayed in
/// order (behind a fresh [`PeerHello`]) on every reconnect.
struct PeerLink {
    /// Our own member index (stamped into the hello).
    from: u32,
    members: u32,
    n_routers: u32,
    addr: SocketAddr,
    session: u64,
    next_seq: u64,
    /// Unacked frames in send order: `(seq, wire bytes)`.
    buf: VecDeque<(u64, Vec<u8>)>,
    conn: Option<TcpStream>,
    dec: Decoder,
    last_attempt: Option<Instant>,
    backoff: Duration,
}

impl PeerLink {
    fn new(from: u32, members: u32, n_routers: u32, addr: SocketAddr, session: u64) -> Self {
        PeerLink {
            from,
            members,
            n_routers,
            addr,
            session,
            next_seq: 1,
            buf: VecDeque::new(),
            conn: None,
            dec: Decoder::new(),
            last_attempt: None,
            backoff: PEER_RECONNECT_MIN,
        }
    }

    /// Assigns the next link sequence number, buffers the frame, and
    /// best-effort writes it. Returns the wire size.
    fn send(&mut self, make: impl FnOnce(u64) -> Frame) -> usize {
        let seq = self.next_seq;
        self.next_seq += 1;
        let bytes = encode_frame(&make(seq));
        let n = bytes.len();
        if let Some(c) = self.conn.as_mut() {
            if c.write_all(&bytes).is_err() {
                self.drop_conn();
            }
        }
        self.buf.push_back((seq, bytes));
        n
    }

    fn drop_conn(&mut self) {
        self.conn = None;
        self.dec = Decoder::new();
    }

    /// Reconnects (with backoff) if down — handshaking and replaying
    /// the whole unacked buffer — and drains any pending acks.
    fn maintain(&mut self) {
        if self.conn.is_none() {
            if let Some(t) = self.last_attempt {
                if t.elapsed() < self.backoff {
                    return;
                }
            }
            self.last_attempt = Some(Instant::now());
            match TcpStream::connect_timeout(&self.addr, PEER_CONNECT_TIMEOUT) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    let _ = s.set_write_timeout(Some(PEER_WRITE_TIMEOUT));
                    let _ = s.set_read_timeout(Some(PEER_ACK_POLL));
                    self.conn = Some(s);
                    self.backoff = PEER_RECONNECT_MIN;
                    // Go-back-N: hello announces where the replay
                    // starts, then the entire unacked window follows.
                    let hello = encode_frame(&Frame::PeerHello(PeerHello {
                        member: self.from,
                        members: self.members,
                        n_routers: self.n_routers,
                        session: self.session,
                        first_seq: self.buf.front().map_or(self.next_seq, |(s, _)| *s),
                    }));
                    let replay: Vec<Vec<u8>> = self.buf.iter().map(|(_, b)| b.clone()).collect();
                    let mut ok = true;
                    if let Some(c) = self.conn.as_mut() {
                        ok = c.write_all(&hello).is_ok()
                            && replay.iter().all(|b| c.write_all(b).is_ok());
                    }
                    if !ok {
                        self.drop_conn();
                    }
                }
                Err(_) => {
                    self.backoff = (self.backoff * 2).min(PEER_RECONNECT_MAX);
                    return;
                }
            }
        }
        self.pump_acks();
    }

    /// Drains ack frames from the peer and prunes the replay buffer.
    fn pump_acks(&mut self) {
        let Some(c) = self.conn.as_mut() else { return };
        let mut tmp = [0u8; 4096];
        loop {
            match c.read(&mut tmp) {
                Ok(0) => {
                    self.drop_conn();
                    return;
                }
                Ok(n) => self.dec.feed(&tmp[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    break;
                }
                Err(_) => {
                    self.drop_conn();
                    return;
                }
            }
        }
        loop {
            match self.dec.next_message(false) {
                Some(Ok(msg)) => {
                    if let Frame::Ack { upto } = msg.frame {
                        while self.buf.front().is_some_and(|(s, _)| *s < upto) {
                            self.buf.pop_front();
                        }
                    }
                }
                Some(Err(_)) => continue,
                None => break,
            }
        }
    }
}

/// The inbound go-back-N cursor for one peer: which session we are
/// tracking and the next frame sequence we will accept.
#[derive(Clone, Copy, Debug, Default)]
struct PeerCursor {
    session: Option<u64>,
    next_seq: u64,
}

/// One in-flight federated round at a fold horizon.
struct Round {
    /// Per-origin-member round digests (`None` until that member's
    /// tagged batch arrived; the own slot is unused — own-conversation
    /// digests apply inline during `advance_collect`).
    digests: Vec<Option<Vec<ConvDigest>>>,
    /// Per-origin-member partial verdicts.
    partials: Vec<Option<Vec<RouterId>>>,
    /// Set once phase 2 ran (peers' digests absorbed, own partial
    /// broadcast): this slice's missing set at the horizon.
    local_missing: Option<Vec<RouterId>>,
    opened_at: Option<Instant>,
}

impl Round {
    fn new(members: usize) -> Self {
        Round {
            digests: vec![None; members],
            partials: vec![None; members],
            local_missing: None,
            opened_at: None,
        }
    }
}

/// One federation member's fold state. The same apply methods serve the
/// live loop and WAL replay: during replay `wal` is `None` (journaling
/// no-ops) and outbound frames accumulate in the link buffers.
pub(crate) struct MemberState {
    member: u32,
    members: u32,
    n_routers: u32,
    plan: FederationPlan,
    pub(crate) sources: SourceTable,
    local: HbgBuilder,
    cross: HbgBuilder,
    slice: TrackerSlice,
    /// Outbound links, indexed by member; `None` at the own index.
    links: Vec<Option<PeerLink>>,
    /// Inbound cursors, indexed by member.
    cursors: Vec<PeerCursor>,
    /// Each peer's last advertised minimum (own slot unused).
    peer_min: Vec<Option<SimTime>>,
    /// Each peer's last advertised frontier detail (own slot unused).
    peer_frontier: Vec<Vec<(RouterId, Option<SimTime>)>>,
    /// The highest own minimum ever advertised (and journaled).
    last_sent_min: Option<SimTime>,
    /// The round grid: every advertised minimum (own and peers') not yet
    /// opened. Advertisements reach every member in FIFO order, so all
    /// members converge on the *same* horizon set — a member must never
    /// fold at a horizon a peer's own-minimum sampling skipped, or the
    /// peers' round grids diverge and rounds deadlock.
    pending_horizons: BTreeSet<SimTime>,
    rounds: BTreeMap<SimTime, Round>,
    /// The horizon of the currently open (or last opened) round; the
    /// late-event gate.
    pub(crate) advanced: Option<SimTime>,
    /// The last horizon whose *global* verdict landed.
    completed: Option<SimTime>,
    /// Eager boundary events staged per peer since the last flush.
    eager: Vec<Vec<(u64, IoEvent)>>,
    /// Ids (with times) of foreign boundary events already in the cross
    /// builder; pruned at each opened horizon.
    cross_seen: HashMap<EventId, SimTime>,
    events: u64,
    status: SnapshotStatus,
    waiting: bool,
    waits_issued: u64,
    waits_resolved: u64,
    replaying: bool,
    wal: Option<Wal>,
    wal_err: Option<io::Error>,
    metrics: Option<Arc<CollectorMetrics>>,
    /// Flight-recorder ring for this member's fold thread (`None`
    /// during replay and when metrics are off — recovery must not
    /// re-emit anomaly dumps the live run already wrote).
    flight: Option<RingHandle>,
    /// This member's own repair-lifecycle ledger (journaled kind-16
    /// records submitted through the handle).
    repairs: RepairLedger,
    /// Peer-gated repairs received as [`PeerRepairProof`] frames, after
    /// independent re-validation. Keyed by repair id; first frame wins
    /// (regenerated replays are duplicates).
    peer_repairs: BTreeMap<u64, PeerProofStatus>,
}

impl MemberState {
    fn new(cfg: &CollectorConfig, fed: &FederationConfig) -> Self {
        let n_routers = cfg.pipeline.n_routers;
        let members = fed.plan.members();
        let infer = cfg.pipeline.infer();
        let mut sources = SourceTable::new(n_routers);
        for r in 0..n_routers {
            let r = RouterId(r);
            if fed.plan.of_router(r) != fed.member {
                // Non-owned routers never gate this member's frontier —
                // the plan, not the lease, says they are someone else's
                // responsibility. Plan-derived, so never journaled.
                sources.evict(r);
            }
        }
        let session = fresh_session();
        let links = (0..members)
            .map(|j| {
                (j != fed.member).then(|| {
                    PeerLink::new(
                        fed.member,
                        members,
                        n_routers,
                        fed.peers[j as usize],
                        session,
                    )
                })
            })
            .collect();
        MemberState {
            member: fed.member,
            members,
            n_routers,
            plan: fed.plan.clone(),
            sources,
            local: HbgBuilder::new_scoped(&infer, RuleScope::LocalOnly),
            cross: HbgBuilder::new_scoped(&infer, RuleScope::CrossOnly),
            slice: TrackerSlice::new(
                n_routers as usize,
                fed.plan.as_shard_plan().clone(),
                fed.member,
            ),
            links,
            cursors: vec![PeerCursor::default(); members as usize],
            peer_min: vec![None; members as usize],
            peer_frontier: vec![Vec::new(); members as usize],
            last_sent_min: None,
            pending_horizons: BTreeSet::new(),
            rounds: BTreeMap::new(),
            advanced: None,
            completed: None,
            eager: vec![Vec::new(); members as usize],
            cross_seen: HashMap::new(),
            events: 0,
            status: SnapshotStatus::Consistent,
            waiting: false,
            waits_issued: 0,
            waits_resolved: 0,
            replaying: true,
            wal: None,
            wal_err: None,
            metrics: None,
            flight: None,
            repairs: RepairLedger::new(),
            peer_repairs: BTreeMap::new(),
        }
    }

    pub(crate) fn owns(&self, r: RouterId) -> bool {
        self.plan.of_router(r) == self.member
    }

    fn journal_bytes(&mut self, bytes: &[u8]) {
        journal(&mut self.wal, &mut self.wal_err, bytes);
    }

    fn cursor_next(&self, pm: u32) -> u64 {
        self.cursors[pm as usize].next_seq
    }

    /// Sends a frame on the link to member `j` (no-op for self).
    fn send_to(&mut self, j: usize, make: impl FnOnce(u64) -> Frame) {
        if let Some(link) = self.links[j].as_mut() {
            let n = link.send(make);
            if let Some(m) = &self.metrics {
                m.boundary_bytes_sent.add(n as u64);
            }
        }
    }

    fn maintain_links(&mut self) {
        for l in self.links.iter_mut().flatten() {
            l.maintain();
        }
    }

    /// Ingests one accepted own-router event: local builder, tracker
    /// slice, and — by conversation ownership — either the own cross
    /// builder or the eager boundary outbox for the owning peer.
    fn apply_own_event(&mut self, seq: u64, event: &IoEvent, raw: Option<&[u8]>) {
        // Journal before ingesting: the log must never lag the state.
        if let Some(raw) = raw {
            self.journal_bytes(raw);
        }
        self.local.ingest(event);
        self.slice.ingest(event);
        if let Some((key, _)) = classify_conv(event) {
            let owner = self.plan.of_conv(&key);
            if owner == self.member {
                self.cross.ingest(event);
            } else {
                self.eager[owner as usize].push((seq, event.clone()));
            }
        }
        self.events += 1;
    }

    /// Ships every staged eager boundary batch as an untagged
    /// [`BoundaryEdges`] frame.
    fn flush_eager(&mut self) {
        for j in 0..self.members as usize {
            if self.eager[j].is_empty() {
                continue;
            }
            let events = std::mem::take(&mut self.eager[j]);
            let count = events.len() as u64;
            let member = self.member;
            self.send_to(j, move |seq| {
                Frame::BoundaryEdges(BoundaryEdges {
                    member,
                    seq,
                    round: None,
                    events,
                    digests: Vec::new(),
                    // Eager per-event forwards stay untraced: stamping
                    // every boundary event would put the 12-byte
                    // trailer on the hot path for no causal gain — the
                    // flight they belong to is already traced at the
                    // sink.
                    trace: None,
                })
            });
            if let Some(m) = &self.metrics {
                m.boundary_events_sent.add(count);
            }
        }
    }

    /// Folds one repair-lifecycle record: journal (no-op on replay —
    /// the WAL handle is absent, like every other replayed record),
    /// ledger, metrics, and — the moment a repair is `Gated` — the
    /// proof broadcast to every peer. Recovery replays this same path,
    /// so a recovering owner regenerates its proof advertisements the
    /// way it regenerates frontier history.
    pub(crate) fn accept_repair_record(&mut self, r: &RepairRecord) {
        self.journal_bytes(&encode_frame(&Frame::Repair(r.clone())));
        if !self.repairs.accept(r) {
            return;
        }
        if let Some(m) = &self.metrics {
            m.publish_repair(r, self.repairs.in_flight().len());
        }
        flight_repair_record(r, self.flight.as_ref(), self.metrics.as_deref());
        if r.stage == RepairStage::Gated {
            self.broadcast_repair(r.repair_id);
        }
    }

    /// Ships a gated repair's proof (and this member's verdict for it)
    /// to every peer. The proof travels as its JSON encoding plus the
    /// FNV-1a digest of the stored binary bytes, so receivers can prove
    /// they reconstructed the identical artifact.
    fn broadcast_repair(&mut self, repair_id: u64) {
        let Some(e) = self.repairs.get(repair_id) else {
            return;
        };
        let Some(verdict) = e.verdict else { return };
        if e.proof.is_empty() {
            return;
        }
        let digest = fnv1a64(&e.proof);
        let proof_json = match RepairProof::decode_binary(&e.proof) {
            Ok(p) => to_string_compact(&p),
            Err(_) => return,
        };
        let member = self.member;
        // The proof advertisement carries the repair's trace context so
        // peers stitch their re-validation onto the same causal chain.
        let trace = Some(TraceCtx::for_repair(repair_id).child(stage::PROOF_BROADCAST));
        if let Some(f) = self.flight.as_ref() {
            f.record(
                stage::PROOF_BROADCAST,
                Some(TraceCtx::for_repair(repair_id).child(stage::REPAIR_GATED)),
                repair_id,
                u64::from(verdict),
            );
        }
        for j in 0..self.members as usize {
            if j == self.member as usize {
                continue;
            }
            let proof = proof_json.clone();
            self.send_to(j, move |seq| {
                Frame::PeerRepairProof(PeerRepairProof {
                    member,
                    seq,
                    repair_id,
                    digest,
                    verdict,
                    proof,
                    trace,
                })
            });
            if let Some(m) = &self.metrics {
                m.trace_bytes.add(TRACE_CTX_WIRE_LEN as u64);
            }
        }
    }

    /// The federated fold minimum: the least of the own source-table
    /// minimum and every peer's advertised minimum (`None` while any
    /// of them is unknown).
    fn fed_min(&self) -> Option<SimTime> {
        let mut min = self.sources.global_min()?;
        for j in 0..self.members as usize {
            if j == self.member as usize {
                continue;
            }
            min = min.min(self.peer_min[j]?);
        }
        Some(min)
    }

    /// Adds one advertised minimum to the round grid.
    fn queue_horizon(&mut self, t: SimTime) {
        if Some(t) > self.advanced {
            self.pending_horizons.insert(t);
        }
    }

    /// Advertises the own source-table minimum to every peer if it
    /// moved, journaling the record first: a recovering member must
    /// regenerate the identical frontier history, or a peer that never
    /// saw some intermediate value would fold a different round grid.
    fn maybe_send_frontier(&mut self) {
        let Some(m) = self.sources.global_min() else {
            return;
        };
        if self.last_sent_min >= Some(m) {
            return;
        }
        self.last_sent_min = Some(m);
        self.queue_horizon(m);
        let frontier: Vec<(RouterId, Option<SimTime>)> = (0..self.n_routers)
            .map(RouterId)
            .filter(|r| self.owns(*r))
            .map(|r| (r, self.sources.promise_of(r)))
            .collect();
        self.journal_bytes(&encode_frame(&Frame::FrontierExchange(FrontierExchange {
            member: self.member,
            seq: 0,
            min: Some(m),
            frontier: frontier.clone(),
        })));
        self.send_frontier(Some(m), frontier);
    }

    fn send_frontier(&mut self, min: Option<SimTime>, frontier: Vec<(RouterId, Option<SimTime>)>) {
        let member = self.member;
        for j in 0..self.members as usize {
            if j == self.member as usize {
                continue;
            }
            let fr = frontier.clone();
            self.send_to(j, move |seq| {
                Frame::FrontierExchange(FrontierExchange {
                    member,
                    seq,
                    min,
                    frontier: fr,
                })
            });
        }
        self.publish_peers();
    }

    /// Everything that must happen after the own watermark gate may
    /// have moved: advertise the frontier, queue the federated minimum,
    /// and drive the round machine.
    fn after_gate_change(&mut self, stats: Option<&SharedStats>) {
        self.maybe_send_frontier();
        self.pump(stats);
    }

    /// Drives the round machine: completes the open round as far as
    /// arrived peer state allows and — live only — opens the next
    /// queued horizon once nothing is in flight *and* the federated
    /// minimum has reached it (every member's streams are complete up
    /// to the horizon, so every member will open the very same round).
    /// During replay the journaled markers are the sole authority on
    /// which rounds opened.
    fn pump(&mut self, stats: Option<&SharedStats>) {
        loop {
            if self.try_complete(stats) {
                continue;
            }
            if self.replaying || self.advanced > self.completed {
                return;
            }
            let Some(&f) = self.pending_horizons.iter().next() else {
                return;
            };
            if Some(f) <= self.advanced {
                self.pending_horizons.remove(&f);
                continue;
            }
            if self.fed_min() < Some(f) {
                return;
            }
            self.pending_horizons.remove(&f);
            self.open_round(f);
        }
    }

    /// Phase 1 of a round: journal the marker, fold to the horizon,
    /// collect boundary digests, and ship each peer its tagged batch.
    fn open_round(&mut self, f: SimTime) {
        self.journal_bytes(&encode_frame(&Frame::Watermark { t: f, frontier: 0 }));
        self.local.advance(f);
        self.cross.advance(f);
        let mut outboxes: Vec<Vec<ConvDigest>> = vec![Vec::new(); self.members as usize];
        self.slice.advance_collect(f, &mut outboxes);
        // Boundary events at or behind the horizon are folded; their
        // dedup entries have no future duplicates to catch (the late
        // gate drops those first).
        self.cross_seen.retain(|_, t| *t > f);
        let member = self.member;
        // Round frames are trace-stamped with the horizon-derived
        // context: every member mints the same id for the same horizon,
        // so the round's hops stitch without any clock agreement.
        let round_trace = Some(TraceCtx::for_round(f).child(stage::ROUND_OPENED));
        if let Some(fl) = self.flight.as_ref() {
            fl.record(
                stage::ROUND_OPENED,
                Some(TraceCtx::for_round(f)),
                f.as_nanos(),
                u64::from(member),
            );
        }
        for (j, digests) in outboxes.into_iter().enumerate() {
            if j == self.member as usize {
                continue;
            }
            self.send_to(j, move |seq| {
                Frame::BoundaryEdges(BoundaryEdges {
                    member,
                    seq,
                    round: Some(f),
                    events: Vec::new(),
                    digests,
                    trace: round_trace,
                })
            });
            if let Some(m) = &self.metrics {
                m.trace_bytes.add(TRACE_CTX_WIRE_LEN as u64);
            }
        }
        let r = self
            .rounds
            .entry(f)
            .or_insert_with(|| Round::new(self.members as usize));
        r.opened_at = Some(Instant::now());
        self.advanced = Some(f);
    }

    /// Phases 2 and 3 of the open round, as far as arrived peer state
    /// allows. Returns whether the round fully completed.
    fn try_complete(&mut self, stats: Option<&SharedStats>) -> bool {
        let Some(f) = self.advanced else { return false };
        if self.completed >= Some(f) {
            return false;
        }
        let me = self.member as usize;
        let members = self.members as usize;
        // Phase 2: absorb every peer's round digests in member order,
        // recheck, and broadcast this slice's partial verdict.
        if self
            .rounds
            .get(&f)
            .is_none_or(|r| r.local_missing.is_none())
        {
            let ready = self
                .rounds
                .get(&f)
                .is_some_and(|r| (0..members).all(|j| j == me || r.digests[j].is_some()));
            if !ready {
                return false;
            }
            let batches: Vec<Vec<ConvDigest>> = {
                let r = self.rounds.get_mut(&f).expect("round checked above");
                r.digests
                    .iter_mut()
                    .map(|d| d.take().unwrap_or_default())
                    .collect()
            };
            for (j, batch) in batches.iter().enumerate() {
                if j == me {
                    continue;
                }
                for d in batch {
                    self.slice.absorb(d);
                }
            }
            self.slice.recheck();
            let missing = self.slice.missing();
            self.rounds
                .get_mut(&f)
                .expect("round checked above")
                .local_missing = Some(missing.clone());
            let member = self.member;
            let partial_trace = Some(TraceCtx::for_round(f).child(stage::ROUND_PARTIAL));
            if let Some(fl) = self.flight.as_ref() {
                fl.record(
                    stage::ROUND_PARTIAL,
                    Some(TraceCtx::for_round(f).child(stage::ROUND_BOUNDARY)),
                    f.as_nanos(),
                    missing.len() as u64,
                );
            }
            for j in 0..members {
                if j == me {
                    continue;
                }
                let missing = missing.clone();
                self.send_to(j, move |seq| {
                    Frame::PartialVerdict(PartialVerdict {
                        member,
                        seq,
                        round: f,
                        missing,
                        trace: partial_trace,
                    })
                });
                if let Some(m) = &self.metrics {
                    m.trace_bytes.add(TRACE_CTX_WIRE_LEN as u64);
                }
            }
        }
        // Phase 3: merge every member's partial into the global verdict.
        let ready = self
            .rounds
            .get(&f)
            .is_some_and(|r| (0..members).all(|j| j == me || r.partials[j].is_some()));
        if !ready {
            return false;
        }
        let r = self.rounds.remove(&f).expect("round checked above");
        let mut missing: Vec<RouterId> = r.local_missing.unwrap_or_default();
        for (j, p) in r.partials.into_iter().enumerate() {
            if j == me {
                continue;
            }
            missing.extend(p.unwrap_or_default());
        }
        missing.sort_unstable();
        missing.dedup();
        let missing_n = missing.len() as u64;
        self.status = if missing.is_empty() {
            SnapshotStatus::Consistent
        } else {
            SnapshotStatus::WaitFor(missing)
        };
        // The monolithic tracker's wait accounting, replayed on the
        // merged verdict sequence — member-count-invariant.
        match (self.waiting, self.status.is_consistent()) {
            (false, false) => {
                self.waits_issued += 1;
                self.waiting = true;
            }
            (true, true) => {
                self.waits_resolved += 1;
                self.waiting = false;
            }
            _ => {}
        }
        self.completed = Some(f);
        if let Some(fl) = self.flight.as_ref() {
            fl.record(
                stage::ROUND_COMPLETE,
                Some(TraceCtx::for_round(f).child(stage::ROUND_PARTIAL)),
                f.as_nanos(),
                missing_n,
            );
        }
        if let Some(s) = stats {
            // The watermark stat is the *completed* round: once a
            // client (or harness) observes it, the global verdict for
            // that horizon has landed on this member.
            s.set_watermark(f);
        }
        if let Some(m) = &self.metrics {
            m.fed_rounds.inc();
            if let Some(t0) = r.opened_at {
                m.partial_verdict_nanos.observe_since(t0);
            }
        }
        true
    }

    /// Validates and applies a peer handshake to the inbound cursor.
    /// Returns whether the hello was acceptable.
    fn on_peer_hello(&mut self, hello: &PeerHello) -> bool {
        let pm = hello.member;
        if pm >= self.members || pm == self.member {
            return false;
        }
        if hello.members != self.members || hello.n_routers != self.n_routers {
            return false;
        }
        let cur = &mut self.cursors[pm as usize];
        if cur.session != Some(hello.session) {
            // A new peer instance (first contact or crash-recovered):
            // its regenerated stream starts at the announced sequence.
            cur.session = Some(hello.session);
            cur.next_seq = hello.first_seq;
        }
        true
    }

    /// Accepts one inbound peer frame through the go-back-N cursor —
    /// journals (raw, before acking) and applies it if it is exactly
    /// next in sequence; duplicates and gaps drop (the link replay
    /// heals gaps). Returns whether the cursor moved.
    pub(crate) fn accept_peer_frame(
        &mut self,
        frame: &PeerFrame,
        raw: Option<&[u8]>,
        stats: Option<&SharedStats>,
    ) -> bool {
        let pm = frame.member();
        if pm >= self.members || pm == self.member {
            return false;
        }
        let cur = &mut self.cursors[pm as usize];
        if cur.session.is_none() || frame.seq() != cur.next_seq {
            return false;
        }
        cur.next_seq += 1;
        if let Some(raw) = raw {
            self.journal_bytes(raw);
        }
        self.apply_peer_frame(frame, stats);
        true
    }

    fn apply_peer_frame(&mut self, frame: &PeerFrame, stats: Option<&SharedStats>) {
        match frame {
            PeerFrame::Frontier(f) => {
                let pm = f.member as usize;
                // Max-merge: a recovering peer replays its frontier
                // history from genesis; regressions are stale.
                if f.min > self.peer_min[pm] {
                    self.peer_min[pm] = f.min;
                    self.peer_frontier[pm] = f.frontier.clone();
                }
                // Every advertised value joins the round grid, even a
                // stale replay's: grid values are forever.
                if let Some(v) = f.min {
                    self.queue_horizon(v);
                }
                self.publish_peers();
                self.pump(stats);
            }
            PeerFrame::Boundary(b) => match b.round {
                None => {
                    // Eager boundary events for conversations we own.
                    let mut fresh = 0u64;
                    for (_, e) in &b.events {
                        if self.advanced.is_some_and(|wm| e.time <= wm) {
                            continue;
                        }
                        if self.cross_seen.contains_key(&e.id) {
                            continue;
                        }
                        let Some((key, _)) = classify_conv(e) else {
                            continue;
                        };
                        if self.plan.of_conv(&key) != self.member {
                            continue;
                        }
                        self.cross_seen.insert(e.id, e.time);
                        self.cross.ingest(e);
                        fresh += 1;
                    }
                    if let Some(m) = &self.metrics {
                        m.boundary_events_received.add(fresh);
                    }
                }
                Some(t) => {
                    // A round contribution. Anything at or behind the
                    // completed horizon is a recovering peer's replay.
                    if self.completed >= Some(t) {
                        return;
                    }
                    // Defense in depth: a round tag is always some
                    // member's advertised value, so it belongs to the
                    // grid even if the advertisement is still in flight.
                    self.queue_horizon(t);
                    let r = self
                        .rounds
                        .entry(t)
                        .or_insert_with(|| Round::new(self.members as usize));
                    let slot = &mut r.digests[b.member as usize];
                    if slot.is_none() {
                        *slot = Some(b.digests.clone());
                    }
                    self.pump(stats);
                }
            },
            PeerFrame::Partial(p) => {
                if self.completed >= Some(p.round) {
                    return;
                }
                self.queue_horizon(p.round);
                let r = self
                    .rounds
                    .entry(p.round)
                    .or_insert_with(|| Round::new(self.members as usize));
                let slot = &mut r.partials[p.member as usize];
                if slot.is_none() {
                    *slot = Some(p.missing.clone());
                }
                self.pump(stats);
            }
            PeerFrame::Repair(p) => {
                // First frame per repair wins: a recovering owner's
                // regenerated broadcast is a duplicate, and the
                // validation is deterministic in the frame contents
                // anyway.
                if self.peer_repairs.contains_key(&p.repair_id) {
                    return;
                }
                let (chain_ok, digest_ok) = match from_str::<RepairProof>(&p.proof) {
                    Ok(proof) => (
                        !proof.provenance.is_empty()
                            && chain_over(&proof.provenance) == proof.chain,
                        fnv1a64(&proof.encode_binary()) == p.digest,
                    ),
                    Err(_) => (false, false),
                };
                self.peer_repairs.insert(
                    p.repair_id,
                    PeerProofStatus {
                        from: p.member,
                        verdict: p.verdict,
                        chain_ok,
                        digest_ok,
                    },
                );
                if let Some(fl) = self.flight.as_ref() {
                    // Stitch the peer's re-validation onto the owner's
                    // repair chain: the frame's context (or the
                    // digest-minted fallback) keys the same trace id on
                    // every member.
                    let ctx = p
                        .trace
                        .unwrap_or_else(|| TraceCtx::for_repair(p.repair_id))
                        .child(stage::PROOF_BROADCAST);
                    fl.record(
                        stage::PEER_PROOF_VERIFIED,
                        Some(ctx),
                        p.repair_id,
                        u64::from(p.member) << 2 | u64::from(chain_ok) << 1 | u64::from(digest_ok),
                    );
                }
                if let Some(m) = &self.metrics {
                    m.repair_peer_proofs.inc();
                    if p.trace.is_some() {
                        m.trace_bytes.add(TRACE_CTX_WIRE_LEN as u64);
                    }
                }
            }
        }
    }

    /// Publishes the per-peer frontier and lag gauges (the own slot
    /// carries the own source-table minimum).
    fn publish_peers(&self) {
        let Some(m) = &self.metrics else { return };
        if m.peer_frontier.len() != self.members as usize {
            return;
        }
        let me = self.member as usize;
        let mins: Vec<Option<SimTime>> = (0..self.members as usize)
            .map(|j| {
                if j == me {
                    self.sources.global_min()
                } else {
                    self.peer_min[j]
                }
            })
            .collect();
        let furthest = mins.iter().filter_map(|v| *v).max();
        for (j, v) in mins.iter().enumerate() {
            m.peer_frontier[j].set(v.map_or(-1, |t| t.as_nanos() as i64));
            let lag = match (furthest, v) {
                (Some(f), Some(v)) => f.as_nanos().saturating_sub(v.as_nanos()) as i64,
                _ => -1,
            };
            m.peer_lag[j].set(lag);
        }
    }

    /// One liveness-lease sweep over the *owned* routers.
    fn sweep(
        &mut self,
        last_heard: &[Instant],
        lease: &LeaseConfig,
        conn_source: &mut HashMap<u64, RouterId>,
        acks: &mut HashMap<u64, TcpStream>,
        stats: &SharedStats,
    ) {
        let now = Instant::now();
        let mut evicted_any = false;
        for (i, heard) in last_heard.iter().enumerate() {
            let r = RouterId(i as u32);
            if !self.owns(r)
                || self.sources.state(r) == SourceState::Evicted
                || self.sources.finished(r)
            {
                continue;
            }
            let silent = now.saturating_duration_since(*heard);
            if silent >= lease.evict_after {
                self.journal_bytes(&encode_frame(&Frame::Evict { source: r }));
                self.sources.evict(r);
                stats.evictions.fetch_add(1, Ordering::Relaxed);
                if let Some(fl) = self.flight.as_ref() {
                    fl.record(stage::EVICTION, None, u64::from(r.0), silent.as_secs());
                }
                if let Some(m) = &self.metrics {
                    m.evictions.inc();
                    m.flight_dump("eviction");
                }
                evicted_any = true;
                let conns: Vec<u64> = conn_source
                    .iter()
                    .filter(|&(_, s)| *s == r)
                    .map(|(&c, _)| c)
                    .collect();
                for c in conns {
                    conn_source.remove(&c);
                    if let Some(s) = acks.remove(&c) {
                        let _ = s.shutdown(std::net::Shutdown::Both);
                    }
                }
            } else if silent >= lease.lagging_after {
                self.sources.set_lagging(r);
            }
        }
        if evicted_any {
            self.after_gate_change(Some(stats));
        }
        if let Some(m) = &self.metrics {
            m.publish_sources(&self.sources);
        }
        self.publish_peers();
    }

    /// Acks a client connection's contiguous cursor (plus fin once the
    /// source's bye settled). Returns whether the ack went out.
    fn acknowledge(&self, acks: &mut HashMap<u64, TcpStream>, conn: u64, source: RouterId) -> bool {
        let acked = send_ack(acks, conn, self.sources.next_seq(source));
        if self.sources.finished(source) {
            if let Some(s) = acks.get_mut(&conn) {
                if s.write_all(&encode_frame(&Frame::Fin)).is_err() {
                    acks.remove(&conn);
                }
            }
        }
        acked
    }

    // ---- replay-only entry points -----------------------------------

    fn replay_hello(&mut self, source: RouterId, session: u64, first_seq: u64) {
        if self.owns(source) && self.sources.contains(source) {
            self.sources.hello(source, session, first_seq);
        }
    }

    fn replay_event(&mut self, seq: u64, event: &IoEvent) -> bool {
        let r = event.router;
        if !self.sources.contains(r) || !self.owns(r) {
            return false;
        }
        if self.sources.offer(r, seq) != Offer::Fresh {
            return false;
        }
        if self.advanced.is_some_and(|wm| event.time <= wm) {
            return false;
        }
        self.apply_own_event(seq, event, None);
        true
    }

    /// Replays a journaled self-authored frontier record: restores the
    /// advertised-minimum history and regenerates the outbound frames.
    fn replay_own_frontier(&mut self, f: FrontierExchange) {
        if f.min > self.last_sent_min {
            self.last_sent_min = f.min;
        }
        if let Some(v) = f.min {
            self.queue_horizon(v);
        }
        self.send_frontier(f.min, f.frontier);
    }

    /// Replays a journaled round marker: the sole authority on which
    /// horizons opened before the crash.
    fn replay_marker(&mut self, f: SimTime) {
        // The marker supersedes queued horizons at or below it.
        self.pending_horizons.retain(|h| *h > f);
        if Some(f) <= self.advanced {
            return;
        }
        // Serial rounds: the previous round completed before this
        // marker was journaled, so opening here cannot reorder folds.
        self.open_round(f);
        self.pump(None);
    }

    fn close(&mut self) -> Option<io::Error> {
        let mut err = self.wal_err.take();
        if let Some(w) = self.wal.take() {
            if let (Err(e), None) = (w.close(), &err) {
                err = Some(e);
            }
        }
        err
    }

    fn into_fold(mut self) -> MemberFold {
        let peers = (0..self.members)
            .filter(|j| *j != self.member)
            .map(|j| PeerSummary {
                member: j,
                min: self.peer_min[j as usize],
                frontier: std::mem::take(&mut self.peer_frontier[j as usize]),
                unacked: self.links[j as usize]
                    .as_ref()
                    .map_or(0, |l| l.buf.len() as u64),
            })
            .collect();
        MemberFold {
            member: self.member,
            members: self.members,
            n_routers: self.n_routers,
            plan: self.plan,
            local: self.local,
            cross: self.cross,
            slice: self.slice,
            events: self.events,
            status: self.status,
            waits: (self.waits_issued, self.waits_resolved),
            watermark: self.completed,
            stalled: self.sources.stalled(),
            peers,
            repairs: self.repairs,
            peer_repairs: self.peer_repairs,
        }
    }
}

/// One member's final fold state: its slice of the global
/// happens-before graph and the last *global* verdict it merged.
pub struct MemberFold {
    pub(crate) member: u32,
    pub(crate) members: u32,
    pub(crate) n_routers: u32,
    pub(crate) plan: FederationPlan,
    pub(crate) local: HbgBuilder,
    pub(crate) cross: HbgBuilder,
    pub(crate) slice: TrackerSlice,
    pub(crate) events: u64,
    pub(crate) status: SnapshotStatus,
    pub(crate) waits: (u64, u64),
    pub(crate) watermark: Option<SimTime>,
    pub(crate) stalled: Vec<RouterId>,
    pub(crate) peers: Vec<PeerSummary>,
    pub(crate) repairs: RepairLedger,
    pub(crate) peer_repairs: BTreeMap<u64, PeerProofStatus>,
}

impl MemberFold {
    /// This member's index.
    pub fn member(&self) -> u32 {
        self.member
    }

    /// Federation size.
    pub fn members(&self) -> u32 {
        self.members
    }

    /// Final per-peer link state.
    pub fn peer_summaries(&self) -> &[PeerSummary] {
        &self.peers
    }

    /// Repairs other members gated and advertised to this one, with the
    /// outcome of this member's independent re-validation.
    pub fn peer_repairs(&self) -> &BTreeMap<u64, PeerProofStatus> {
        &self.peer_repairs
    }

    /// The member's role, for the collector report.
    pub fn role(&self) -> CollectorRole {
        CollectorRole::Member {
            member: self.member,
            members: self.members,
            peers: self.peers.clone(),
        }
    }

    /// This member's partial happens-before graph: the union of its
    /// local-rule edges (owned routers) and cross-rule edges (owned
    /// conversations). Member partials are edge-disjoint by scope, so
    /// the union over members is the monolithic graph.
    pub fn partial_hbg(&self) -> Hbg {
        let mut hbg = Hbg::new(0);
        for b in [&self.local, &self.cross] {
            hbg.grow_to(b.hbg().num_events());
            for h in b.hbg().edges() {
                hbg.add(*h);
            }
        }
        hbg
    }

    /// Edge counts by rule name across both builders.
    pub fn edge_counts(&self) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for b in [&self.local, &self.cross] {
            for (rule, n) in b.edge_counts() {
                *out.entry(rule.clone()).or_default() += n;
            }
        }
        out
    }
}

/// Merges every member's fold into a single global report — the same
/// merge the standalone coordinator runs at shutdown. Errors if
/// the members disagree on the global verdict, wait statistics, or
/// completed watermark: the federation's invariant is that they cannot.
pub fn merge_members(mut folds: Vec<MemberFold>) -> io::Result<FoldReport> {
    if folds.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "no member folds to merge",
        ));
    }
    folds.sort_by_key(|f| f.member);
    let members = folds[0].members;
    let n_routers = folds[0].n_routers;
    if folds.len() != members as usize
        || folds.iter().enumerate().any(|(i, f)| f.member != i as u32)
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "member folds do not form one complete federation",
        ));
    }
    for f in &folds[1..] {
        if f.status != folds[0].status
            || f.waits != folds[0].waits
            || f.watermark != folds[0].watermark
        {
            return Err(io::Error::other(format!(
                "federation members disagree on the global verdict (member {} vs member 0)",
                f.member
            )));
        }
    }
    let mut hbg = Hbg::new(0);
    let mut edge_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut dataplane = DataPlane::new(n_routers as usize);
    let mut events = 0u64;
    let mut processed = 0usize;
    let mut pending = 0usize;
    let mut stalled: Vec<RouterId> = Vec::new();
    let mut repairs = RepairLedger::new();
    let status = folds[0].status.clone();
    let waits = folds[0].waits;
    let watermark = folds[0].watermark;
    for f in folds {
        repairs.absorb(&f.repairs);
        events += f.events;
        processed += f.local.processed();
        pending += f.local.pending();
        for b in [&f.local, &f.cross] {
            hbg.grow_to(b.hbg().num_events());
            for h in b.hbg().edges() {
                hbg.add(*h);
            }
            for (rule, n) in b.edge_counts() {
                *edge_counts.entry(rule.clone()).or_default() += n;
            }
        }
        // Per-router state lives wholly with the owning member.
        let dp = f.slice.dataplane();
        for r in 0..n_routers {
            let router = RouterId(r);
            if f.plan.of_router(router) == f.member {
                for (prefix, entry) in dp.fib(router).entries() {
                    dataplane.fib_mut(router).install(prefix, entry);
                }
                dataplane.set_taken_at(router, dp.taken_at(router));
            }
        }
        stalled.extend(f.stalled);
    }
    stalled.sort_unstable();
    stalled.dedup();
    Ok(FoldReport::Sharded(Box::new(ShardedFold {
        shards: members,
        events,
        processed,
        pending,
        hbg,
        edge_counts,
        status,
        waits,
        dataplane,
        watermark,
        stalled,
        repairs,
    })))
}

/// Rebuilds a member's state from its journal: the records replay
/// through the identical live apply path (with journaling and stats
/// disabled), which both restores the fold and regenerates every
/// outbound peer frame — under a fresh session — into the link buffers.
pub(crate) fn recover_member(
    cfg: &CollectorConfig,
    fed: FederationConfig,
    wal_cfg: &WalConfig,
) -> io::Result<(MemberState, RecoveryReport)> {
    let mut st = MemberState::new(cfg, &fed);
    let replay = wal::replay(&wal_cfg.dir)?;
    let mut interns = InternStore::new();
    let mut events_replayed = 0usize;
    let mut repairs_replayed = 0usize;
    let mut corrupt = 0usize;
    for record in &replay.records {
        match decode_frame(record) {
            Ok(Some((raw, used))) if used == record.len() => match raw.decode_with(&interns) {
                Ok(Frame::Intern(def)) => {
                    interns.apply(def.router, def.space, def.symbol, &def.bytes);
                }
                Ok(Frame::Hello(h)) => st.replay_hello(h.source, h.session, h.first_seq),
                Ok(Frame::Event { seq, event }) => {
                    if st.replay_event(seq, &event) {
                        events_replayed += 1;
                        st.flush_eager();
                    }
                }
                Ok(Frame::Watermark { t, .. }) => st.replay_marker(t),
                Ok(Frame::Evict { source }) => {
                    if st.owns(source) && st.sources.contains(source) {
                        st.sources.evict(source);
                    }
                }
                Ok(Frame::Admit { source }) => {
                    if st.owns(source) && st.sources.contains(source) {
                        st.sources.admit(source);
                    }
                }
                Ok(Frame::PeerHello(h)) => {
                    st.on_peer_hello(&h);
                }
                Ok(Frame::FrontierExchange(f)) => {
                    if f.member == st.member {
                        st.replay_own_frontier(f);
                    } else {
                        st.accept_peer_frame(&PeerFrame::Frontier(f), None, None);
                    }
                }
                Ok(Frame::BoundaryEdges(b)) => {
                    st.accept_peer_frame(&PeerFrame::Boundary(b), None, None);
                }
                Ok(Frame::PartialVerdict(p)) => {
                    st.accept_peer_frame(&PeerFrame::Partial(p), None, None);
                }
                Ok(Frame::Repair(r)) => {
                    // Replaying through the live path regenerates the
                    // proof broadcast for gated repairs (peers dedup by
                    // repair id), exactly like frontier history.
                    st.accept_repair_record(&r);
                    repairs_replayed += 1;
                }
                Ok(Frame::PeerRepairProof(p)) => {
                    st.accept_peer_frame(&PeerFrame::Repair(p), None, None);
                }
                Ok(_) => {}
                Err(_) => corrupt += 1,
            },
            _ => corrupt += 1,
        }
    }
    let report = RecoveryReport {
        events_replayed,
        repairs_replayed,
        watermark: st.completed,
        torn_tail: replay.torn,
        segments: replay.segments,
        corrupt_records: corrupt,
        evicted: st
            .sources
            .evicted()
            .into_iter()
            .filter(|r| st.owns(*r))
            .collect(),
    };
    Ok((st, report))
}

/// The federation member's merger thread: the standalone coordinator's
/// client handling (hello/events/watermark/bye, journal-then-ack,
/// liveness leases over the *owned* routers) plus the peer protocol —
/// inbound cursors with journal-then-ack, outbound links with
/// go-back-N replay, and the serial round machine.
pub(crate) fn member_loop(
    rx: Receiver<Msg>,
    mut st: MemberState,
    wal: Wal,
    lease: LeaseConfig,
    stats: &SharedStats,
    metrics: Option<Arc<CollectorMetrics>>,
) -> (FoldReport, Option<io::Error>) {
    st.wal = Some(wal);
    st.metrics = metrics.clone();
    st.flight = metrics
        .as_ref()
        .map(|m| m.flight.register("member", MERGER_RING_SLOTS));
    st.replaying = false;
    // The member's stall watchdog runs over the *completed* (global)
    // horizon: a member whose rounds stop landing is stalled even if
    // its own sources stay chatty.
    let mut stall = StallWatch::new(st.completed);
    if let Some(wm) = st.completed {
        stats.set_watermark(wm);
    }
    if let Some(m) = &metrics {
        m.publish_sources(&st.sources);
    }
    st.publish_peers();
    // Catch up grid values whose frontier exchanges were journaled but
    // whose rounds a crash interrupted before the marker.
    st.pump(Some(stats));

    let n_routers = st.n_routers;
    let mut conn_source: HashMap<u64, RouterId> = HashMap::new();
    let mut conn_peer: HashMap<u64, u32> = HashMap::new();
    let mut acks: HashMap<u64, TcpStream> = HashMap::new();
    let mut last_heard: Vec<Instant> = vec![Instant::now(); n_routers as usize];
    let mut last_sweep = Instant::now();
    let sweep_every = lease.sweep_interval.min(Duration::from_secs(3600));
    let tick = sweep_every.min(LINK_TICK);

    let mut last_maintain = Instant::now() - tick;
    loop {
        // Tick-granular, not per-message: maintain() blocks ~1 ms per
        // link polling acks, which would pace the whole round machine
        // if paid on every inbound frame. Reconnects and go-back-N
        // buffer pruning are fine at 50 ms granularity; round progress
        // itself is message-driven and never waits on maintenance.
        if last_maintain.elapsed() >= tick {
            st.maintain_links();
            last_maintain = Instant::now();
        }
        let msg = match rx.recv_timeout(tick) {
            Ok(m) => Some(m),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        if let Some(msg) = msg {
            match msg {
                Msg::Hello { conn, hello, ack } => {
                    let source = hello.source;
                    if !st.sources.contains(source) || !st.owns(source) {
                        // A mis-wired client: this router belongs to
                        // another member. Dropping the ack handle hangs
                        // up; the sink will resolve its real collector.
                        drop(ack);
                        continue;
                    }
                    last_heard[source.0 as usize] = Instant::now();
                    if st.sources.state(source) == SourceState::Evicted {
                        st.journal_bytes(&encode_frame(&Frame::Admit { source }));
                        st.sources.admit(source);
                        stats.readmissions.fetch_add(1, Ordering::Relaxed);
                        if let Some(m) = &metrics {
                            m.readmissions.inc();
                        }
                    }
                    st.journal_bytes(&encode_frame(&Frame::Hello(hello.clone())));
                    st.sources.hello(source, hello.session, hello.first_seq);
                    conn_source.insert(conn, source);
                    if let Some(a) = ack {
                        acks.insert(conn, a);
                    }
                    st.acknowledge(&mut acks, conn, source);
                    if let Some(m) = &metrics {
                        m.set_source_codec(source.0, hello.codec);
                        m.publish_sources(&st.sources);
                    }
                    st.after_gate_change(Some(stats));
                }
                Msg::Events { conn, batch } => {
                    let Some(&source) = conn_source.get(&conn) else {
                        continue;
                    };
                    last_heard[source.0 as usize] = Instant::now();
                    st.sources.refresh(source);
                    let mut ingested = 0u64;
                    let mut late = 0u64;
                    let mut dups = 0u64;
                    let mut gaps = 0u64;
                    for rec in &batch {
                        match st.sources.offer(source, rec.seq) {
                            Offer::Duplicate => dups += 1,
                            Offer::Gap => gaps += 1,
                            Offer::Fresh => {
                                if st.advanced.is_some_and(|wm| rec.event.time <= wm) {
                                    late += 1;
                                    continue;
                                }
                                st.apply_own_event(rec.seq, &rec.event, rec.raw.as_deref());
                                ingested += 1;
                            }
                        }
                    }
                    st.flush_eager();
                    if ingested > 0 {
                        stall.ingested();
                    }
                    stats.events.fetch_add(ingested, Ordering::Relaxed);
                    if late > 0 {
                        stats.late_events.fetch_add(late, Ordering::Relaxed);
                    }
                    if dups > 0 {
                        stats.duplicate_events.fetch_add(dups, Ordering::Relaxed);
                    }
                    if gaps > 0 {
                        stats.gap_events.fetch_add(gaps, Ordering::Relaxed);
                    }
                    if let Some(m) = &metrics {
                        m.events_received.add(ingested);
                        if st.wal_err.is_none() {
                            m.events_journaled.add(ingested);
                        }
                        m.events_duplicate.add(dups);
                        m.events_gap.add(gaps);
                        m.events_late.add(late);
                    }
                    // A gap fill may have settled a parked promise.
                    st.after_gate_change(Some(stats));
                    let acked = st.acknowledge(&mut acks, conn, source);
                    if acked {
                        if let Some(m) = &metrics {
                            m.events_acked.add(ingested);
                        }
                    }
                }
                Msg::Watermark { conn, t, frontier } => {
                    let Some(&source) = conn_source.get(&conn) else {
                        continue;
                    };
                    last_heard[source.0 as usize] = Instant::now();
                    st.sources.refresh(source);
                    st.sources.promise(source, t, frontier);
                    st.after_gate_change(Some(stats));
                    st.acknowledge(&mut acks, conn, source);
                }
                Msg::Heartbeat { conn } => {
                    let Some(&source) = conn_source.get(&conn) else {
                        continue;
                    };
                    last_heard[source.0 as usize] = Instant::now();
                    st.sources.refresh(source);
                    st.acknowledge(&mut acks, conn, source);
                }
                Msg::Bye { conn, frontier } => {
                    let Some(&source) = conn_source.get(&conn) else {
                        continue;
                    };
                    last_heard[source.0 as usize] = Instant::now();
                    st.sources.refresh(source);
                    st.sources.bye(source, frontier);
                    st.after_gate_change(Some(stats));
                    st.acknowledge(&mut acks, conn, source);
                }
                Msg::Intern { router: _, raw } => {
                    st.journal_bytes(&raw);
                }
                Msg::Repair { record, done } => {
                    // Journal + fold + (on Gated) the peer broadcast;
                    // the `done` ack after all of it is the caller's
                    // durability barrier.
                    st.accept_repair_record(&record);
                    stats.repair_records.fetch_add(1, Ordering::Relaxed);
                    if let Some(done) = done {
                        let _ = done.send(());
                    }
                }
                Msg::PeerHello { conn, hello, ack } => {
                    if !st.on_peer_hello(&hello) {
                        drop(ack);
                        continue;
                    }
                    // Journal the handshake so replay re-learns the
                    // session and keeps deduplicating the peer's
                    // regenerated stream.
                    st.journal_bytes(&encode_frame(&Frame::PeerHello(hello.clone())));
                    conn_peer.insert(conn, hello.member);
                    if let Some(a) = ack {
                        acks.insert(conn, a);
                    }
                    send_ack(&mut acks, conn, st.cursor_next(hello.member));
                }
                Msg::Peer { conn, frame, raw } => {
                    let Some(&pm) = conn_peer.get(&conn) else {
                        continue;
                    };
                    if frame.member() != pm {
                        // A frame mislabeled against its handshake.
                        continue;
                    }
                    st.accept_peer_frame(&frame, raw.as_deref(), Some(stats));
                    // Ack the cursor even on duplicates: re-acks let a
                    // replaying peer prune its buffer.
                    send_ack(&mut acks, conn, st.cursor_next(pm));
                }
                Msg::Closed { conn } => {
                    conn_source.remove(&conn);
                    conn_peer.remove(&conn);
                    acks.remove(&conn);
                }
            }
        }
        if last_sweep.elapsed() >= sweep_every {
            st.sweep(&last_heard, &lease, &mut conn_source, &mut acks, stats);
            last_sweep = Instant::now();
        }
        stall.observe(
            st.completed,
            lease.stall_after,
            metrics.as_deref(),
            st.flight.as_ref(),
        );
    }
    let wal_err = st.close();
    (FoldReport::Member(Box::new(st.into_fold())), wal_err)
}
