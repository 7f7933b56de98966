//! Traced passes over a tape that time one layer's public functions
//! in isolation: the codec's encoder and decoder, and the HBG builder
//! and consistency tracker advanced at the promise points the live run
//! used.

use crate::measure::{Samples, Series};
use crate::reference::{collector_infer, FoldState};
use crate::tape::{encode_stream, Tape, TAPE_ROUTERS};
use cpvr_collector::{Decoder, Frame};
use cpvr_core::snapshot::ConsistencyTracker;
use cpvr_core::HbgBuilder;
use cpvr_types::SimTime;
use std::time::Instant;

/// What the codec pass measured.
pub struct CodecCost {
    /// `EventEncoder::encode_into` nanoseconds per event.
    pub encode_ns: f64,
    /// `Decoder::feed` + `next_message` nanoseconds per event.
    pub decode_ns: f64,
    /// v3 wire bytes per event, intern definitions included.
    pub bytes_per_event: f64,
    /// Events the decoder returned (must equal the tape's).
    pub decoded: usize,
}

/// Encodes every router's stream with a fresh v3 encoder, then decodes
/// it back, timing both over the whole tape.
pub fn codec_pass(tape: &Tape) -> CodecCost {
    let streams: Vec<Vec<_>> = (0..TAPE_ROUTERS as usize)
        .map(|r| tape.load[r].iter().chain(&tape.churn[r]).cloned().collect())
        .collect();
    let events: usize = streams.iter().map(Vec::len).sum();
    let t0 = Instant::now();
    let wire: Vec<Vec<u8>> = streams
        .iter()
        .map(|s| std::hint::black_box(encode_stream(s)))
        .collect();
    let encode = t0.elapsed();
    let bytes: usize = wire.iter().map(Vec::len).sum();
    let t0 = Instant::now();
    let mut decoded = 0usize;
    for w in &wire {
        let mut dec = Decoder::new();
        // Feed in socket-sized chunks, as a reader thread would.
        for chunk in w.chunks(64 * 1024) {
            dec.feed(chunk);
            while let Some(m) = dec.next_message(false) {
                if let Ok(m) = m {
                    if matches!(m.frame, Frame::Event { .. }) {
                        decoded += 1;
                    }
                }
            }
        }
    }
    let decode = t0.elapsed();
    let per = |d: std::time::Duration| d.as_nanos() as f64 / events.max(1) as f64;
    CodecCost {
        encode_ns: per(encode),
        decode_ns: per(decode),
        bytes_per_event: bytes as f64 / events.max(1) as f64,
        decoded,
    }
}

/// What the stepped fold measured.
pub struct FoldCost {
    /// `HbgBuilder::ingest` nanoseconds per event.
    pub hbg_ingest_ns: f64,
    /// `HbgBuilder::advance` per call, seconds.
    pub hbg_advance: Samples,
    /// HBG edges at the end.
    pub hbg_edges: usize,
    /// `ConsistencyTracker::ingest` nanoseconds per event.
    pub tracker_ingest_ns: f64,
    /// `ConsistencyTracker::advance` per call, seconds.
    pub tracker_advance: Samples,
    /// Waits the tracker issued (`wait_stats().0`).
    pub tracker_waits: u64,
    /// The final state: the reference the live fold must equal.
    pub state: FoldState,
}

/// Folds the tape through a builder and a tracker, ingesting events
/// up to each promise point and then advancing to it, with every call
/// timed. `steps` are the global watermarks the live run applied, in
/// order; a final advance to the end of time closes the fold.
pub fn stepped_fold(tape: &Tape, steps: &[SimTime]) -> FoldCost {
    let events = tape.all_events();
    let mut b = HbgBuilder::new(&collector_infer());
    let mut t = ConsistencyTracker::new(TAPE_ROUTERS as usize);
    let mut spans = Series::new();
    let (mut b_ns, mut t_ns) = (0u128, 0u128);
    let mut next = 0usize;
    let mut last = None;
    for &w in steps.iter().chain(std::iter::once(&SimTime::MAX)) {
        if last.is_some_and(|l| w <= l) {
            continue;
        }
        last = Some(w);
        let end = next + events[next..].partition_point(|e| e.time <= w);
        let batch = &events[next..end];
        next = end;
        let t0 = Instant::now();
        for e in batch {
            b.ingest(e);
        }
        b_ns += t0.elapsed().as_nanos();
        let t0 = Instant::now();
        for e in batch {
            t.ingest(e);
        }
        t_ns += t0.elapsed().as_nanos();
        spans.time("hbg.advance", || b.advance(w));
        spans.time("tracker.advance", || t.advance(w));
    }
    let n = events.len().max(1) as f64;
    FoldCost {
        hbg_ingest_ns: b_ns as f64 / n,
        hbg_advance: spans.get("hbg.advance"),
        hbg_edges: b.hbg().canonical_edges().len(),
        tracker_ingest_ns: t_ns as f64 / n,
        tracker_advance: spans.get("tracker.advance"),
        tracker_waits: t.wait_stats().0,
        state: FoldState::of_parts(&b, &t),
    }
}
