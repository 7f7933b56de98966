//! Sharded-fold equivalence and durability tests.
//!
//! Every shard count runs the same fold engine, so the independent
//! oracle is the in-process monolithic [`IngestPipeline`] over the same
//! trace: every shard count must reproduce its HBG edge multiset,
//! per-rule edge counts, snapshot verdict, assembled data plane, and
//! folded event count. Shard counts must also agree with one another on
//! the schedule-dependent wait accounting. The WAL side gets the same
//! treatment: an N-series log must replay to the same state whether
//! recovered with 1 thread or N, a WAL directory refuses a restart under
//! a different shard count, and the group-commit protocol must keep
//! "acked ⇒ durable" honest even when the sync thread dies mid-run.

use cpvr_collector::collector::{Collector, CollectorConfig, CollectorHandle, CollectorReport};
use cpvr_collector::pipeline::{IngestPipeline, PipelineConfig};
use cpvr_collector::wal::{wait_for, FsyncPolicy, TempDir, WalConfig};
use cpvr_collector::SocketSink;
use cpvr_dataplane::{DataPlane, FibEntry};
use cpvr_sim::scenario::paper_scenario;
use cpvr_sim::{CaptureProfile, IoEvent, LatencyProfile};
use cpvr_types::{Ipv4Prefix, RouterId, SimTime};
use std::collections::BTreeSet;
use std::time::Duration;

const N_ROUTERS: u32 = 3;

type DpFingerprint = Vec<(u32, Vec<(Ipv4Prefix, FibEntry)>, SimTime)>;

fn dataplane_fingerprint(dp: &DataPlane) -> DpFingerprint {
    (0..dp.num_routers() as u32)
        .map(|r| {
            let r = RouterId(r);
            (r.0, dp.fib(r).entries(), dp.taken_at(r))
        })
        .collect()
}

fn sample_events(seed: u64) -> Vec<IoEvent> {
    sample_events_with(CaptureProfile::ideal(), seed)
}

fn sample_events_with(capture: CaptureProfile, seed: u64) -> Vec<IoEvent> {
    let mut s = paper_scenario(LatencyProfile::fast(), capture, seed);
    s.sim.start();
    s.sim.run_to_quiescence(100_000);
    s.sim
        .schedule_ext_announce(s.sim.now() + SimTime::from_millis(5), s.ext_r1, &[s.prefix]);
    s.sim.schedule_ext_announce(
        s.sim.now() + SimTime::from_millis(400),
        s.ext_r2,
        &[s.prefix],
    );
    s.sim.run_to_quiescence(100_000);
    s.sim.trace().events.clone()
}

/// `events` for one router, in the deterministic wire order.
fn events_for(events: &[IoEvent], router: RouterId) -> Vec<IoEvent> {
    let mut mine: Vec<IoEvent> = events
        .iter()
        .filter(|e| e.router == router)
        .cloned()
        .collect();
    mine.sort_by_key(|e| (e.time, e.id));
    mine
}

/// The fault-free monolithic fold of the whole trace.
fn reference_pipeline(events: &[IoEvent]) -> IngestPipeline {
    let mut p = IngestPipeline::new(PipelineConfig::new(N_ROUTERS));
    for e in events {
        p.ingest(e);
    }
    p.advance(SimTime::MAX);
    p
}

/// A collector's final fold against the monolithic reference.
fn assert_matches_reference(got: &CollectorReport, reference: &IngestPipeline, shards: u32) {
    // The per-rule offer gauges sum every builder of every shard.
    let snap = got.metrics.as_ref().expect("metrics on");
    for (rule, n) in reference.builder().edge_counts() {
        assert_eq!(
            snap.gauge("cpvr_hbg_edges_offered", &[("rule", rule)]),
            Some(*n as i64),
            "shards={shards}: offered-edge gauge for {rule}"
        );
    }
    let got = &got.pipeline;
    assert_eq!(got.events(), reference.events(), "shards={shards}");
    assert_eq!(
        got.processed(),
        reference.builder().processed(),
        "shards={shards}: folded event count vs reference"
    );
    assert_eq!(
        got.canonical_edges(),
        reference.builder().hbg().canonical_edges(),
        "shards={shards}: HBG vs reference"
    );
    assert_eq!(
        &got.edge_counts(),
        reference.builder().edge_counts(),
        "shards={shards}: per-rule edge counts vs reference"
    );
    assert_eq!(
        got.status(),
        reference.status(),
        "shards={shards}: verdict vs reference"
    );
    assert_eq!(
        dataplane_fingerprint(got.dataplane()),
        dataplane_fingerprint(reference.tracker().dataplane()),
        "shards={shards}: data plane vs reference"
    );
}

/// Streams the whole trace in *phases*: every connection sends and
/// drains all of its events first, then the watermark is stepped in
/// lockstep across all sources (each step fully folded before the
/// next is promised). This pins down the exact barrier sequence, so
/// order-sensitive observables — wait-accounting transitions above
/// all — are bit-comparable across shard counts.
fn run_phased(events: &[IoEvent], shards: u32) -> CollectorReport {
    let cfg = CollectorConfig::new(N_ROUTERS).with_shards(shards);
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.local_addr();
    let mut sinks: Vec<SocketSink> = (0..N_ROUTERS)
        .map(|r| SocketSink::connect(addr, RouterId(r), N_ROUTERS).expect("connect"))
        .collect();
    for sink in &mut sinks {
        for e in events_for(events, sink.source()) {
            sink.send(&e).expect("send");
        }
        assert!(
            sink.drain(Duration::from_secs(30)).expect("drain"),
            "router {} left events unacked",
            sink.source().0
        );
    }
    // A fine horizon grid reaching past the last capture *arrival*:
    // WaitFor verdicts live in arrival-time windows (a recv exported
    // quickly while its send is still in capture transit), so coarse
    // event-time steps would only ever see Consistent.
    let end = events
        .iter()
        .map(|e| e.arrived_at.unwrap_or(e.time))
        .max()
        .unwrap();
    let step = SimTime::from_millis(2);
    let mut t = SimTime::ZERO;
    while t < end + step {
        t += step;
        for sink in &mut sinks {
            sink.watermark(t).expect("watermark");
        }
        assert!(
            wait_for(Duration::from_secs(30), || {
                handle.stats().watermark == Some(t)
            }),
            "shards={shards}: watermark never reached {t:?}: {:?}",
            handle.stats()
        );
    }
    for sink in &mut sinks {
        sink.bye().expect("bye");
    }
    assert!(
        wait_for(Duration::from_secs(30), || {
            handle.stats().watermark == Some(SimTime::MAX)
        }),
        "shards={shards}: byes never pushed the watermark to MAX"
    );
    drop(sinks);
    handle.shutdown().expect("clean shutdown")
}

/// Streams the trace with per-router threads and interleaved watermark
/// steps (the loopback/chaos shape), then waits for the full fold.
fn stream_trace(handle: &CollectorHandle, events: &[IoEvent]) {
    let addr = handle.local_addr();
    let end = events.iter().map(|e| e.time).max().unwrap();
    let steps: Vec<SimTime> = (1..=16)
        .map(|i| SimTime::from_nanos(end.as_nanos() / 16 * i))
        .collect();
    let mut handles = Vec::new();
    for r in 0..N_ROUTERS {
        let mine = events_for(events, RouterId(r));
        let steps = steps.clone();
        handles.push(std::thread::spawn(move || {
            let mut sink = SocketSink::connect(addr, RouterId(r), N_ROUTERS).expect("connect");
            let mut next = 0usize;
            for &t in &steps {
                while next < mine.len() && mine[next].time <= t {
                    sink.send(&mine[next]).expect("send");
                    next += 1;
                }
                sink.watermark(t).expect("watermark");
            }
            while next < mine.len() {
                sink.send(&mine[next]).expect("send");
                next += 1;
            }
            sink.bye().expect("bye");
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total = events.len() as u64;
    assert!(
        wait_for(Duration::from_secs(30), || {
            let s = handle.stats();
            s.events == total && s.watermark == Some(SimTime::MAX)
        }),
        "collector never folded the full stream: {:?}",
        handle.stats()
    );
}

/// The identity that makes `--shards N` safe to deploy: on the same
/// trace, every shard count produces the monolithic reference's state,
/// and every shard count agrees with the one-shard plan down to the
/// §4.3 wait counters, which only compare under a deterministic barrier
/// schedule (hence the phased streaming).
#[test]
fn sharded_fold_is_equivalent_across_shard_counts() {
    // Syslog-skewed capture: records reach the verifier tens of
    // milliseconds after their event times, so intermediate horizons
    // genuinely cut conversations open and the tracker issues WaitFor.
    let events = sample_events_with(CaptureProfile::syslog(), 17);
    assert!(events.len() > 100, "scenario should produce a real trace");
    let reference = reference_pipeline(&events);
    let base = run_phased(&events, 1);
    assert_eq!(base.pipeline.shards(), 1);
    assert_matches_reference(&base, &reference, 1);
    assert!(
        base.pipeline.wait_stats().0 > 0,
        "the stepped schedule should issue real WaitFor verdicts, \
         otherwise the wait-accounting comparison below is vacuous"
    );
    for shards in [2u32, 4] {
        let got = run_phased(&events, shards);
        assert_eq!(got.pipeline.shards(), shards);
        assert_matches_reference(&got, &reference, shards);
        assert_eq!(got.stats.events, base.stats.events, "shards={shards}");
        assert_eq!(
            got.pipeline.events(),
            base.pipeline.events(),
            "shards={shards}"
        );
        assert_eq!(
            got.pipeline.processed(),
            base.pipeline.processed(),
            "shards={shards}: folded event count"
        );
        assert_eq!(got.pipeline.pending(), 0, "shards={shards}");
        assert_eq!(
            got.pipeline.canonical_edges(),
            base.pipeline.canonical_edges(),
            "shards={shards}: HBG must be bit-identical"
        );
        assert_eq!(
            got.pipeline.edge_counts(),
            base.pipeline.edge_counts(),
            "shards={shards}: per-rule edge counts"
        );
        assert_eq!(
            got.pipeline.status(),
            base.pipeline.status(),
            "shards={shards}: snapshot verdict"
        );
        assert_eq!(
            got.pipeline.wait_stats(),
            base.pipeline.wait_stats(),
            "shards={shards}: wait accounting must survive sharding"
        );
        assert_eq!(
            got.pipeline.watermark(),
            base.pipeline.watermark(),
            "shards={shards}"
        );
        assert_eq!(
            dataplane_fingerprint(got.pipeline.dataplane()),
            dataplane_fingerprint(base.pipeline.dataplane()),
            "shards={shards}: assembled data plane"
        );
    }
}

/// An N-series WAL directory replays to the same pipeline whether the
/// segments are read by one recovery thread or one per series.
#[test]
fn parallel_wal_recovery_matches_serial_replay() {
    let events = sample_events(19);
    let dir = TempDir::new("sharded-recovery").unwrap();
    let cfg = CollectorConfig::new(N_ROUTERS)
        .with_shards(4)
        .with_wal(WalConfig::new(dir.path()));
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
    stream_trace(&handle, &events);
    let live = handle.shutdown().expect("clean shutdown");

    let (serial, serial_report, serial_events) =
        IngestPipeline::recover_parts(PipelineConfig::new(N_ROUTERS), dir.path(), 1).unwrap();
    let (parallel, parallel_report, parallel_events) =
        IngestPipeline::recover_parts(PipelineConfig::new(N_ROUTERS), dir.path(), 4).unwrap();

    assert_eq!(serial_report.events_replayed, events.len());
    assert_eq!(
        serial_report.events_replayed,
        parallel_report.events_replayed
    );
    assert_eq!(serial_report.watermark, parallel_report.watermark);
    assert_eq!(serial_events.len(), parallel_events.len());

    assert_eq!(serial.events(), parallel.events());
    assert_eq!(serial.watermark(), parallel.watermark());
    assert_eq!(serial.builder().processed(), parallel.builder().processed());
    assert_eq!(
        serial.builder().hbg().canonical_edges(),
        parallel.builder().hbg().canonical_edges(),
        "replay thread count must not change the HBG"
    );
    assert_eq!(serial.status(), parallel.status());
    assert_eq!(
        dataplane_fingerprint(serial.tracker().dataplane()),
        dataplane_fingerprint(parallel.tracker().dataplane())
    );

    // ...and both equal the live sharded fold they were journaled by.
    assert_eq!(
        serial.builder().hbg().canonical_edges(),
        live.pipeline.canonical_edges()
    );
    assert_eq!(serial.status(), live.pipeline.status());
}

/// Group-commit crash fault: under `FsyncPolicy::Always` an ack means
/// the record hit disk, so every event acked *before* the sync thread
/// dies must survive into replay — and the fault itself must surface
/// as a shutdown error, never be swallowed.
#[test]
fn events_acked_before_group_commit_crash_are_durable() {
    let events = sample_events(23);
    let dir = TempDir::new("gc-crash").unwrap();
    let mut wal_cfg = WalConfig::new(dir.path());
    wal_cfg.fsync = FsyncPolicy::Always;
    let cfg = CollectorConfig::new(N_ROUTERS)
        .with_shards(2)
        .with_wal(wal_cfg);
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.local_addr();

    let mut sinks: Vec<SocketSink> = (0..N_ROUTERS)
        .map(|r| SocketSink::connect(addr, RouterId(r), N_ROUTERS).expect("connect"))
        .collect();
    let mut acked_before_crash: BTreeSet<(u32, u32)> = BTreeSet::new();
    for sink in &mut sinks {
        let mine = events_for(&events, sink.source());
        for e in &mine[..mine.len() / 2] {
            sink.send(e).expect("send");
            acked_before_crash.insert((e.router.0, e.id.0));
        }
        assert!(
            sink.drain(Duration::from_secs(30)).expect("drain"),
            "pre-crash events must all be acked"
        );
    }
    assert!(!acked_before_crash.is_empty());

    // Kill the sync thread exactly as an I/O fault would. The fold
    // keeps running degraded (like the legacy merger under a WAL
    // error): later events still fold and ack, but durability is gone
    // and shutdown has to say so.
    handle
        .group_commit()
        .expect("sharded WAL => group-commit handle")
        .crash();

    for sink in &mut sinks {
        let mine = events_for(&events, sink.source());
        for e in &mine[mine.len() / 2..] {
            sink.send(e).expect("send");
        }
        sink.bye().expect("bye");
        assert!(
            sink.drain(Duration::from_secs(30)).expect("drain"),
            "degraded fold must still ack"
        );
    }
    let total = events.len() as u64;
    assert!(
        wait_for(Duration::from_secs(30), || {
            let s = handle.stats();
            s.events == total && s.watermark == Some(SimTime::MAX)
        }),
        "collector never folded the full stream: {:?}",
        handle.stats()
    );
    drop(sinks);
    match handle.shutdown() {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::Other, "{e}"),
        Ok(_) => panic!("shutdown must surface the group-commit crash"),
    }

    // Everything acked before the crash is in the log.
    let (_, report, replayed) =
        IngestPipeline::recover_parts(PipelineConfig::new(N_ROUTERS), dir.path(), 2).unwrap();
    let on_disk: BTreeSet<(u32, u32)> = replayed.iter().map(|e| (e.router.0, e.id.0)).collect();
    for key in &acked_before_crash {
        assert!(
            on_disk.contains(key),
            "event {key:?} was acked under Always but is missing from the log"
        );
    }
    assert!(report.events_replayed >= acked_before_crash.len());
}

/// `EveryN` group commit across per-shard segment rotation: tiny
/// segments force every series through multiple rotations (each one
/// re-registering the new active file with the sync thread), and the
/// rotated log must still replay to the live fold's exact state.
#[test]
fn group_commit_survives_per_shard_segment_rotation() {
    const SHARDS: u32 = 2;
    let events = sample_events(29);
    let dir = TempDir::new("gc-rotate").unwrap();
    let mut wal_cfg = WalConfig::new(dir.path());
    wal_cfg.segment_bytes = 4 * 1024;
    wal_cfg.fsync = FsyncPolicy::EveryN(4);
    let cfg = CollectorConfig::new(N_ROUTERS)
        .with_shards(SHARDS)
        .with_wal(wal_cfg);
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
    stream_trace(&handle, &events);
    let live = handle.shutdown().expect("clean shutdown");

    // Every shard's series rotated at least once.
    for k in 0..SHARDS {
        let prefix = format!("wal-s{k}-");
        let segments = std::fs::read_dir(dir.path())
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with(&prefix)
            })
            .count();
        assert!(
            segments >= 2,
            "series {k} should have rotated, found {segments} segment(s)"
        );
    }

    let (recovered, report, _) =
        IngestPipeline::recover_parts(PipelineConfig::new(N_ROUTERS), dir.path(), SHARDS as usize)
            .unwrap();
    assert_eq!(report.events_replayed, events.len());
    assert!(!report.torn_tail);
    assert_eq!(
        recovered.builder().hbg().canonical_edges(),
        live.pipeline.canonical_edges(),
        "rotated per-shard log must replay to the live HBG"
    );
    assert_eq!(recovered.status(), live.pipeline.status());
    assert_eq!(recovered.watermark(), live.pipeline.watermark());
    assert_eq!(
        dataplane_fingerprint(recovered.tracker().dataplane()),
        dataplane_fingerprint(live.pipeline.dataplane())
    );
}

/// A WAL directory refuses a restart under a different shard count:
/// recovery takes the minimum over series of each series' last
/// watermark, so a series the new plan never appends to would pin every
/// later recovery at its final watermark. The refusal names what it
/// found and what the plan writes, and leaves the directory intact for
/// the original plan.
#[test]
fn restart_under_a_different_shard_count_is_rejected() {
    let events = sample_events(31);
    for (before, after) in [(4u32, 2u32), (1, 2)] {
        let dir = TempDir::new("reshard").unwrap();
        let cfg = |shards: u32| {
            CollectorConfig::new(N_ROUTERS)
                .with_shards(shards)
                .with_wal(WalConfig::new(dir.path()))
        };
        let handle = Collector::start(cfg(before), "127.0.0.1:0").expect("bind loopback");
        stream_trace(&handle, &events);
        handle.shutdown().expect("clean shutdown");

        let err = match Collector::start(cfg(after), "127.0.0.1:0") {
            Err(e) => e,
            Ok(h) => {
                let wm = h.recovery().and_then(|r| r.watermark);
                let _ = h.shutdown();
                panic!("{before}->{after}: restart was accepted (recovered watermark {wm:?})");
            }
        };
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidInput,
            "{before}->{after}: {err}"
        );
        let msg = err.to_string();
        let found = if before == 1 {
            "wal-NNNNNNNN".to_string()
        } else {
            format!("wal-s{}-NNNNNNNN", before - 1)
        };
        assert!(msg.contains(&found), "{before}->{after}: {msg}");
        assert!(
            msg.contains(&format!("{after}-shard plan")),
            "{before}->{after}: {msg}"
        );

        // Untouched: the original plan still recovers the whole stream.
        let handle = Collector::start(cfg(before), "127.0.0.1:0").expect("original plan restarts");
        let rec = handle.recovery().expect("wal configured").clone();
        assert_eq!(rec.events_replayed, events.len(), "{before}->{after}");
        assert_eq!(rec.watermark, Some(SimTime::MAX), "{before}->{after}");
        handle.shutdown().expect("clean shutdown");
    }
}
