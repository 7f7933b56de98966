//! Shared networked-ingest workload: the synthetic event stream and
//! collector session used by the A7/A9 throughput experiments
//! (`benches/ingest_throughput.rs`) and by the CI perf-budget gate
//! (`src/bin/perf_budget.rs`). Keeping the workload in one place means
//! the gate measures exactly what the experiment reports.

use cpvr_collector::collector::{Collector, CollectorConfig};
use cpvr_collector::wal::{wait_for, WalConfig};
use cpvr_collector::{CodecVersion, ReconnectPolicy, SocketSink};
use cpvr_dataplane::FibAction;
use cpvr_sim::{EventId, IoEvent, IoKind};
use cpvr_types::{Ipv4Prefix, RouterId, SimTime};
use std::time::Duration;

/// Default connection count for the ingest workload.
pub const DEFAULT_CONNS: u32 = 8;
/// Default total event count for the ingest workload.
pub const DEFAULT_EVENTS: usize = 40_000;
/// A watermark is promised after every this many events per connection.
pub const WATERMARK_EVERY: usize = 500;

/// The synthetic per-router event stream: FIB churn over a rolling
/// prefix set, ids globally unique, times strictly increasing.
pub fn synthetic_events(conn: u32, n_conns: u32, total_events: usize) -> Vec<IoEvent> {
    let per = total_events / n_conns as usize;
    (0..per)
        .map(|j| {
            let time = SimTime::from_micros(10 * (j as u64 + 1));
            let prefix: Ipv4Prefix = format!("10.{}.{}.0/24", j % 256, conn)
                .parse()
                .expect("valid prefix");
            IoEvent {
                id: EventId((j as u32) * n_conns + conn),
                router: RouterId(conn),
                time,
                arrived_at: Some(time),
                kind: if j % 7 == 6 {
                    IoKind::FibRemove { prefix }
                } else {
                    IoKind::FibInstall {
                        prefix,
                        action: FibAction::Local,
                    }
                },
            }
        })
        .collect()
}

/// One ingest session, ready to run: start a collector on loopback,
/// stream the synthetic events across `n_conns` concurrent connections
/// with periodic watermarks, drain to the final watermark, shut down.
#[derive(Clone, Debug)]
pub struct IngestSession {
    /// Concurrent router connections.
    pub n_conns: u32,
    /// Total events across all connections.
    pub total_events: usize,
    /// Fold workers in the collector's shard plan (`1` = the default
    /// one-worker plan).
    pub shards: u32,
    /// Journal configuration; `None` streams without a WAL.
    pub wal: Option<WalConfig>,
    /// Whether the telemetry registry is live during the session.
    pub metrics: bool,
    /// Event codec every connection speaks (v2 JSON or v3 binary).
    pub codec: CodecVersion,
}

impl Default for IngestSession {
    fn default() -> Self {
        IngestSession {
            n_conns: DEFAULT_CONNS,
            total_events: DEFAULT_EVENTS,
            shards: 1,
            wal: None,
            metrics: true,
            codec: CodecVersion::V2,
        }
    }
}

impl IngestSession {
    /// Runs the session and returns the number of events moved — the
    /// caller times the call to turn it into a throughput figure.
    pub fn run(&self) -> u64 {
        let mut cfg = CollectorConfig::new(self.n_conns).with_shards(self.shards);
        cfg.wal = self.wal.clone();
        cfg.metrics = self.metrics;
        let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
        let addr = handle.local_addr();
        let mut threads = Vec::new();
        for conn in 0..self.n_conns {
            let (n_conns, total, codec) = (self.n_conns, self.total_events, self.codec);
            threads.push(std::thread::spawn(move || {
                let mut sink = SocketSink::connect_with_codec(
                    addr,
                    RouterId(conn),
                    n_conns,
                    ReconnectPolicy::default(),
                    codec,
                )
                .expect("connect");
                for (j, e) in synthetic_events(conn, n_conns, total).iter().enumerate() {
                    sink.send(e).expect("send");
                    if (j + 1) % WATERMARK_EVERY == 0 {
                        sink.watermark(e.time).expect("watermark");
                    }
                }
                sink.bye().expect("bye");
                // Delivery is only guaranteed once every event is acked
                // (acked ⇒ journaled); under a slow durability policy
                // the unacked tail would otherwise be dropped with the
                // socket and the session could never drain.
                assert!(
                    sink.drain(Duration::from_secs(60)).expect("drain"),
                    "conn {conn}: events left unacked"
                );
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let total = (self.total_events / self.n_conns as usize * self.n_conns as usize) as u64;
        assert!(
            wait_for(Duration::from_secs(60), || {
                let s = handle.stats();
                s.events == total && s.watermark == Some(SimTime::MAX)
            }),
            "collector did not drain: {:?}",
            handle.stats()
        );
        let report = handle.shutdown().expect("shutdown");
        assert_eq!(report.stats.decode_errors, 0);
        report.stats.events
    }

    /// Runs the session once and returns `(events_moved, seconds)`.
    pub fn run_timed(&self) -> (u64, f64) {
        let t0 = std::time::Instant::now();
        let moved = self.run();
        (moved, t0.elapsed().as_secs_f64())
    }
}

/// What the federation spent beyond folding events: the traffic and
/// latency of the inter-collector protocol itself (experiment A11).
#[derive(Clone, Debug, Default)]
pub struct FedCost {
    /// Boundary events shipped between members, summed over senders.
    pub boundary_events: u64,
    /// Bytes of peer frames shipped between members, summed over senders.
    pub boundary_bytes: u64,
    /// Worst member's p99 partial-verdict round latency (open → global
    /// verdict), in nanoseconds.
    pub round_p99_nanos: u64,
}

/// The same synthetic workload as [`IngestSession`], folded by a
/// federation of collectors instead of one: each connection streams to
/// the member owning its router, members exchange frontiers, boundary
/// edges, and partial verdicts, and the shutdown merge must still be
/// the whole fold. The returned [`FedCost`] is what that distribution
/// cost on the wire.
#[derive(Clone, Debug)]
pub struct FedIngestSession {
    /// Concurrent router connections (also the router count).
    pub n_conns: u32,
    /// Total events across all connections.
    pub total_events: usize,
    /// Federation size.
    pub members: u32,
    /// Event codec every router connection speaks (peer frames between
    /// members are always v2 JSON).
    pub codec: CodecVersion,
}

impl Default for FedIngestSession {
    fn default() -> Self {
        FedIngestSession {
            n_conns: DEFAULT_CONNS,
            total_events: DEFAULT_EVENTS,
            members: 3,
            codec: CodecVersion::V2,
        }
    }
}

impl FedIngestSession {
    /// Runs the session and returns `(events_moved, fed_cost)`.
    pub fn run(&self) -> (u64, FedCost) {
        use cpvr_collector::wal::TempDir;
        use cpvr_core::FederationPlan;
        use cpvr_federation::Federation;

        let tmp = TempDir::new("fed-ingest").expect("temp wal root");
        let fed = Federation::launch(
            FederationPlan::uniform(self.members),
            self.n_conns,
            tmp.path(),
        )
        .expect("launch federation");
        let mut threads = Vec::new();
        for conn in 0..self.n_conns {
            let addr = fed.addr_of_router(RouterId(conn));
            let (n_conns, total, codec) = (self.n_conns, self.total_events, self.codec);
            threads.push(std::thread::spawn(move || {
                let mut sink = SocketSink::connect_with_codec(
                    addr,
                    RouterId(conn),
                    n_conns,
                    ReconnectPolicy::default(),
                    codec,
                )
                .expect("connect");
                for (j, e) in synthetic_events(conn, n_conns, total).iter().enumerate() {
                    sink.send(e).expect("send");
                    if (j + 1) % WATERMARK_EVERY == 0 {
                        sink.watermark(e.time).expect("watermark");
                    }
                }
                sink.bye().expect("bye");
                assert!(
                    sink.drain(Duration::from_secs(60)).expect("drain"),
                    "conn {conn}: events left unacked"
                );
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        for m in 0..fed.members() {
            assert!(
                wait_for(Duration::from_secs(60), || {
                    fed.handle(m).stats().watermark == Some(SimTime::MAX)
                }),
                "member {m} did not drain: {:?}",
                fed.handle(m).stats()
            );
        }
        let report = fed.shutdown().expect("shutdown");
        let total = (self.total_events / self.n_conns as usize * self.n_conns as usize) as u64;
        assert_eq!(report.global.events(), total, "merged fold lost events");
        let mut cost = FedCost::default();
        for member in &report.members {
            assert_eq!(member.stats.decode_errors, 0);
            if let Some(snap) = &member.metrics {
                cost.boundary_events += snap.counter_total("cpvr_boundary_events_sent_total");
                cost.boundary_bytes += snap.counter_total("cpvr_boundary_bytes_sent_total");
                if let Some(h) = snap.histogram("cpvr_partial_verdict_nanos", &[]) {
                    cost.round_p99_nanos = cost.round_p99_nanos.max(h.p99());
                }
            }
        }
        (total, cost)
    }

    /// Runs the session once and returns `(events_moved, seconds, cost)`.
    pub fn run_timed(&self) -> (u64, f64, FedCost) {
        let t0 = std::time::Instant::now();
        let (moved, cost) = self.run();
        (moved, t0.elapsed().as_secs_f64(), cost)
    }
}
