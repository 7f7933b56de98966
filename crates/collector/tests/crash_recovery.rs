//! Crash-recovery equivalence: stream a real trace through a
//! WAL-enabled collector, then simulate a crash at *every sampled
//! record boundary* of the resulting log — recover from the truncated
//! WAL, feed the remainder of the stream, and require the final
//! verification state (HBG edges, watermark, snapshot verdict, data
//! plane) to be bit-identical to the uninterrupted run. A torn trailing
//! record (crash mid-append) is thrown in at every other cut point.

use cpvr_collector::codec::{decode_frame, Frame};
use cpvr_collector::collector::{Collector, CollectorConfig};
use cpvr_collector::pipeline::{IngestPipeline, PipelineConfig};
use cpvr_collector::wal::{self, wait_for, TempDir, Wal, WalConfig};
use cpvr_collector::{FoldReport, SocketSink};
use cpvr_dataplane::{DataPlane, FibEntry};
use cpvr_sim::scenario::paper_scenario;
use cpvr_sim::{CaptureProfile, IoEvent, LatencyProfile};
use cpvr_types::{Ipv4Prefix, RouterId, SimTime};
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
    let mut s = paper_scenario(LatencyProfile::fast(), CaptureProfile::ideal(), seed);
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

/// Streams `events` through a fresh collector journaling into `dir` and
/// returns the final fold once everything is folded.
fn stream_through_collector(events: &[IoEvent], dir: &std::path::Path) -> FoldReport {
    let cfg = CollectorConfig::new(N_ROUTERS).with_wal(WalConfig::new(dir));
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.local_addr();
    let end = events.iter().map(|e| e.time).max().unwrap();
    let steps: Vec<SimTime> = (1..=16)
        .map(|i| SimTime::from_nanos(end.as_nanos() / 16 * i))
        .collect();
    let mut handles = Vec::new();
    for r in 0..N_ROUTERS {
        let router = RouterId(r);
        let mut mine: Vec<IoEvent> = events
            .iter()
            .filter(|e| e.router == router)
            .cloned()
            .collect();
        mine.sort_by_key(|e| (e.time, e.id));
        let steps = steps.clone();
        handles.push(std::thread::spawn(move || {
            let mut sink = SocketSink::connect(addr, router, N_ROUTERS).expect("connect");
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
    let live = handle.shutdown().expect("clean shutdown").pipeline;
    // The live fold must equal the monolithic reference replay of the
    // WAL it journaled.
    let (replayed, _) = IngestPipeline::recover(PipelineConfig::new(N_ROUTERS), dir).unwrap();
    assert_eq!(live.events(), replayed.events());
    assert_eq!(live.watermark(), replayed.watermark());
    assert_eq!(live.processed(), replayed.builder().processed());
    assert_eq!(
        live.canonical_edges(),
        replayed.builder().hbg().canonical_edges()
    );
    assert_eq!(&live.edge_counts(), replayed.builder().edge_counts());
    assert_eq!(live.status(), replayed.status());
    assert_eq!(
        dataplane_fingerprint(live.dataplane()),
        dataplane_fingerprint(replayed.tracker().dataplane())
    );
    live
}

#[test]
fn recovery_from_any_record_boundary_is_bit_identical() {
    let events = sample_events(11);
    let wal_dir = TempDir::new("crash-src").unwrap();
    let reference = stream_through_collector(&events, wal_dir.path());

    // The durable log the collector produced: events + global
    // watermarks, in merge order.
    let log = wal::replay(wal_dir.path()).unwrap();
    assert!(!log.torn);
    let records = log.records;
    assert!(
        records.len() > events.len(),
        "log should hold every event plus watermark records"
    );

    // Crash points: every boundary for small logs, else ~48 samples
    // always including the empty log, a single record, and both ends.
    let n = records.len();
    let mut cuts: Vec<usize> = if n <= 48 {
        (0..=n).collect()
    } else {
        let mut c: Vec<usize> = (0..=48).map(|i| i * n / 48).collect();
        c.extend([1, n - 1]);
        c.sort_unstable();
        c.dedup();
        c
    };
    cuts.dedup();

    for (ci, &cut) in cuts.iter().enumerate() {
        // Rebuild a WAL holding only the records that made it to disk
        // before the "crash"; every other cut also gets a torn tail
        // (half-written record) that replay must discard.
        let tmp = TempDir::new("crash-cut").unwrap();
        let mut w = Wal::open(WalConfig::new(tmp.path())).unwrap();
        for rec in &records[..cut] {
            w.append(rec).unwrap();
        }
        w.close().unwrap();
        let simulate_torn = ci % 2 == 1;
        if simulate_torn {
            let next = records.get(cut).cloned().unwrap_or_else(|| vec![0xab; 40]);
            let half: Vec<u8> = next[..next.len() / 2 + 1].to_vec();
            let seg = std::fs::read_dir(tmp.path())
                .unwrap()
                .map(|e| e.unwrap().path())
                .max()
                .unwrap();
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().append(true).open(seg).unwrap();
            // A record header promising more bytes than exist.
            f.write_all(&(next.len() as u32).to_le_bytes()).unwrap();
            f.write_all(&cpvr_types::crc32::checksum(&next).to_le_bytes())
                .unwrap();
            f.write_all(&half).unwrap();
        }

        let (mut pipeline, report) =
            IngestPipeline::recover(PipelineConfig::new(N_ROUTERS), tmp.path()).unwrap();
        assert_eq!(report.torn_tail, simulate_torn, "cut {cut}");
        assert_eq!(report.corrupt_records, 0, "cut {cut}");

        // The recovered watermark must equal the last watermark record
        // in the durable prefix — exactly what the crashed merger had
        // advanced to.
        let mut last_wm = None;
        for rec in &records[..cut] {
            if let Frame::Watermark { t, .. } =
                decode_frame(rec).unwrap().unwrap().0.decode().unwrap()
            {
                last_wm = Some(t);
            }
        }
        assert_eq!(pipeline.watermark(), last_wm, "cut {cut}");
        assert_eq!(report.watermark, last_wm, "cut {cut}");

        // Resume: feed the not-yet-durable remainder of the stream,
        // exactly as reconnecting routers would re-send it.
        for rec in &records[cut..] {
            match decode_frame(rec).unwrap().unwrap().0.decode().unwrap() {
                Frame::Event { event, .. } => pipeline.ingest(&event),
                Frame::Watermark { t, .. } => {
                    pipeline.advance(t);
                }
                // Session bookkeeping doesn't affect the fold.
                Frame::Hello(_) | Frame::Evict { .. } | Frame::Admit { .. } => {}
                other => panic!("unexpected frame in log: {other:?}"),
            }
        }

        assert_eq!(pipeline.events(), reference.events(), "cut {cut}");
        assert_eq!(
            pipeline.watermark(),
            reference.watermark(),
            "cut {cut}: final watermark"
        );
        assert_eq!(
            pipeline.builder().processed(),
            reference.processed(),
            "cut {cut}: folded event count"
        );
        assert_eq!(
            pipeline.builder().hbg().canonical_edges(),
            reference.canonical_edges(),
            "cut {cut}: HBG must be bit-identical"
        );
        assert_eq!(pipeline.status(), reference.status(), "cut {cut}: verdict");
        assert_eq!(
            dataplane_fingerprint(pipeline.tracker().dataplane()),
            dataplane_fingerprint(reference.dataplane()),
            "cut {cut}: data plane"
        );
    }
}

#[test]
fn collector_restart_resumes_from_recovered_watermark() {
    // A collector started on an existing WAL must come up with the
    // recovered pipeline and keep journaling into a fresh segment.
    let events = sample_events(13);
    let wal_dir = TempDir::new("crash-restart").unwrap();
    let reference = stream_through_collector(&events, wal_dir.path());
    let before = wal::replay(wal_dir.path()).unwrap();

    // Restart over the same directory, stream nothing, shut down.
    let cfg = CollectorConfig::new(N_ROUTERS).with_wal(WalConfig::new(wal_dir.path()));
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("restart");
    let recovered = handle
        .recovery()
        .expect("wal configured => recovery report")
        .clone();
    assert_eq!(recovered.events_replayed, events.len());
    assert_eq!(recovered.watermark, Some(SimTime::MAX));
    assert!(!recovered.torn_tail);
    let report = handle.shutdown().expect("clean shutdown");
    assert_eq!(
        report.pipeline.canonical_edges(),
        reference.canonical_edges()
    );
    assert_eq!(report.pipeline.status(), reference.status());

    // The restart added an (empty) segment but no records.
    let after = wal::replay(wal_dir.path()).unwrap();
    assert_eq!(after.records.len(), before.records.len());
    assert_eq!(after.segments, before.segments + 1);
}
