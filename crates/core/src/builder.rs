//! Incremental HBG construction.
//!
//! The batch pipeline ([`infer_hbg`](crate::infer::infer_hbg)) re-sweeps
//! the whole trace every time the control loop wants a graph — O(trace)
//! work per verification epoch, which the paper's §7 calls out as the
//! obstacle to running verification *inside* the control plane. The
//! [`HbgBuilder`] instead ingests [`IoEvent`]s as the network emits them
//! and keeps the graph current in O(new events): the same sweep state
//! the batch matchers use ([`RuleSweep`], [`SweepState`]) is simply kept
//! alive between epochs instead of being rebuilt.
//!
//! ## Watermarks
//!
//! Capture is not causal: a router may emit an event stamped slightly in
//! the future (RIB/FIB/send processing delays), so the builder cannot
//! fold an event into the sweep the moment it is ingested — a
//! lower-stamped event may still arrive. Ingested events are therefore
//! buffered in a priority queue and folded in `(time, id)` order only up
//! to an explicit **watermark** the caller advances
//! ([`advance`](HbgBuilder::advance)). The simulator guarantees that
//! after running to time `t` every event stamped ≤ `t` has been emitted,
//! so the control loop advances the watermark to its verification
//! horizon and gets exactly the graph the batch path would infer over
//! the same events — bit-for-bit, per
//! [`canonical_edges`](crate::hbg::Hbg::canonical_edges).

use crate::hbg::Hbg;
use crate::infer::{Cand, InferConfig, PatternEngine, SweepState};
use crate::rules::{RuleScope, RuleSweep};
use cpvr_sim::{EventId, IoEvent};
use cpvr_types::SimTime;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

/// Arena storage for ingested events awaiting the watermark.
///
/// Events land in stable slots (`Vec<Option<IoEvent>>` plus a free
/// list), and the ordering heap holds only a compact copyable key —
/// `(time, id, slot)` — instead of the event itself. Heap sifts during
/// ingest/advance therefore move 24-byte keys, not multi-hundred-byte
/// events dragging `String`/`Vec` fields around, and a drained slot is
/// reused by the next ingest instead of round-tripping through the
/// allocator. The slot index participates in the key only as a final
/// tiebreak; `(time, id)` alone decides the canonical sweep order.
#[derive(Clone, Default)]
struct PendingArena {
    slots: Vec<Option<IoEvent>>,
    free: Vec<u32>,
    heap: BinaryHeap<Reverse<(SimTime, EventId, u32)>>,
}

impl PendingArena {
    fn push(&mut self, e: &IoEvent) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(e.clone());
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("under 2^32 pending events");
                self.slots.push(Some(e.clone()));
                s
            }
        };
        self.heap.push(Reverse((e.time, e.id, slot)));
    }

    /// The `(time, id)` key of the earliest pending event.
    fn peek_key(&self) -> Option<(SimTime, EventId)> {
        self.heap.peek().map(|Reverse((t, id, _))| (*t, *id))
    }

    /// Removes and returns the earliest pending event, releasing its
    /// slot for reuse.
    fn pop(&mut self) -> Option<IoEvent> {
        let Reverse((_, _, slot)) = self.heap.pop()?;
        let e = self.slots[slot as usize].take().expect("slot occupied");
        self.free.push(slot);
        Some(e)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Maintains a happens-before graph incrementally as events stream in.
///
/// ```
/// use cpvr_core::builder::HbgBuilder;
/// use cpvr_core::infer::InferConfig;
/// use cpvr_types::SimTime;
///
/// let cfg = InferConfig { rules: true, patterns: None, min_confidence: 0.0, proximate: false };
/// let mut b = HbgBuilder::new(&cfg);
/// // ... b.ingest(&event) as the capture stream delivers records ...
/// b.advance(SimTime::MAX);
/// let _graph = b.hbg();
/// ```
#[derive(Clone)]
pub struct HbgBuilder {
    rules: Option<RuleSweep>,
    /// Which rule family this builder folds — [`RuleScope::All`] for
    /// the monolithic pipeline; a sharded pipeline splits one builder
    /// into a `LocalOnly` builder per router slice plus a `CrossOnly`
    /// builder per conversation slice, whose edge union equals the
    /// monolithic graph.
    scope: RuleScope,
    patterns: Option<(PatternEngine, bool)>,
    state: SweepState,
    times: HashMap<EventId, SimTime>,
    pending: PendingArena,
    /// `None` until the first [`advance`](Self::advance).
    watermark: Option<SimTime>,
    /// `(time, id)` of the last event folded into the sweep. New ingests
    /// must sort after it — otherwise they were needed by sweeps that
    /// have already run.
    last_folded: Option<(SimTime, EventId)>,
    processed: usize,
    /// Edges offered to the graph, keyed by their [`HbrSource`]
    /// rendering (`"rule:<name>"`, `"pattern"`, …) — the per-rule
    /// attribution a scrape turns into labeled gauges.
    ///
    /// [`HbrSource`]: crate::hbg::HbrSource
    edge_counts: BTreeMap<String, u64>,
    g: Hbg,
}

impl HbgBuilder {
    /// A builder applying the same techniques `cfg` selects for the batch
    /// path. The pattern miner, if any, is compiled once up front; later
    /// training of the original miner does not affect this builder.
    pub fn new(cfg: &InferConfig<'_>) -> Self {
        Self::new_scoped(cfg, RuleScope::All)
    }

    /// A builder whose rule sweep only fires the given scope's rules.
    /// Used by the sharded fold: each shard runs a `LocalOnly` builder
    /// over its routers' events and a `CrossOnly` builder over its
    /// conversations' send/recv events; the union of edges across all
    /// such builders equals a single [`RuleScope::All`] builder over
    /// the whole stream.
    pub fn new_scoped(cfg: &InferConfig<'_>, scope: RuleScope) -> Self {
        HbgBuilder {
            rules: cfg.rules.then(RuleSweep::new),
            scope,
            patterns: cfg
                .patterns
                .map(|m| (PatternEngine::compile(m, cfg.min_confidence), cfg.proximate)),
            state: SweepState::default(),
            times: HashMap::new(),
            pending: PendingArena::default(),
            watermark: None,
            last_folded: None,
            processed: 0,
            edge_counts: BTreeMap::new(),
            g: Hbg::new(0),
        }
    }

    /// Buffers one captured event. Cheap (O(log pending)); no inference
    /// happens until [`advance`](Self::advance).
    ///
    /// # Panics
    ///
    /// Panics if the event sorts at or before the last folded event in
    /// `(time, id)` order — such an event was needed by sweeps already
    /// run, so accepting it silently would corrupt the graph. A live tap
    /// never trips this: the simulator emits everything stamped ≤ `t`
    /// before its clock passes `t`, and event ids increase with emission
    /// order.
    pub fn ingest(&mut self, e: &IoEvent) {
        if let Some(frontier) = self.last_folded {
            assert!(
                (e.time, e.id) > frontier,
                "event {} at {} ingested behind the fold frontier {frontier:?}",
                e.id,
                e.time,
            );
        }
        self.g.grow_to(e.id.index() + 1);
        self.times.insert(e.id, e.time);
        self.pending.push(e);
    }

    /// Folds every buffered event stamped ≤ `watermark` into the graph,
    /// in `(time, id)` order, and returns how many were folded. The
    /// watermark never moves backwards.
    pub fn advance(&mut self, watermark: SimTime) -> usize {
        let mut folded = 0;
        while let Some((t, _)) = self.pending.peek_key() {
            if t > watermark {
                break;
            }
            let e = self.pending.pop().expect("peeked");
            if let Some(sweep) = &mut self.rules {
                let mut out = Vec::new();
                sweep.step(&e, self.scope, &mut out);
                for h in out {
                    *self.edge_counts.entry(h.source.to_string()).or_default() += 1;
                    self.g.add(h);
                }
            }
            if let Some((engine, proximate)) = &self.patterns {
                let mut cands: Vec<Cand> = Vec::new();
                engine.collect(&e, &self.state, &self.times, true, true, &mut cands);
                if *proximate {
                    PatternEngine::retain_proximate(&mut cands);
                }
                for (_, _, h) in cands {
                    *self.edge_counts.entry(h.source.to_string()).or_default() += 1;
                    self.g.add(h);
                }
            }
            if self.patterns.is_some() {
                self.state.note(&e);
            }
            self.last_folded = Some((e.time, e.id));
            folded += 1;
        }
        self.processed += folded;
        self.watermark = Some(self.watermark.map_or(watermark, |w| w.max(watermark)));
        folded
    }

    /// The graph over every event folded so far. Events ingested but not
    /// yet past the watermark are present as vertices with no edges.
    pub fn hbg(&self) -> &Hbg {
        &self.g
    }

    /// The current watermark ([`SimTime::ZERO`] before the first
    /// [`advance`](Self::advance)).
    pub fn watermark(&self) -> SimTime {
        self.watermark.unwrap_or(SimTime::ZERO)
    }

    /// Consumes the builder, keeping only its graph (the rest of the
    /// sweep state is freed rather than copied).
    pub fn into_hbg(self) -> Hbg {
        self.g
    }

    /// How many events have been folded into the graph.
    pub fn processed(&self) -> usize {
        self.processed
    }

    /// How many ingested events are still waiting for the watermark.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Edges *offered* to the graph so far, keyed by the rendering of
    /// their [`HbrSource`](crate::hbg::HbrSource) (`"rule:<name>"`,
    /// `"pattern"`). Offers, not residents: the graph keeps at most one
    /// edge per target and prefers higher confidence, so the sum here
    /// can exceed [`hbg`](Self::hbg)`().edges().len()`.
    pub fn edge_counts(&self) -> &BTreeMap<String, u64> {
        &self.edge_counts
    }

    /// Rebuilds a builder from a durably logged history: ingests every
    /// event, then advances once to `watermark`. Because
    /// [`advance`](Self::advance) folds in `(time, id)` order regardless
    /// of how its work was split across calls, the result is identical
    /// to the builder that processed the same events live with any
    /// interleaving of advances up to the same watermark — the property
    /// crash recovery from a write-ahead log depends on.
    ///
    /// Events stamped after `watermark` stay buffered, exactly as they
    /// would have in the live run.
    pub fn recover<'a, I>(cfg: &InferConfig<'_>, events: I, watermark: SimTime) -> Self
    where
        I: IntoIterator<Item = &'a IoEvent>,
    {
        let mut b = Self::new(cfg);
        for e in events {
            b.ingest(e);
        }
        b.advance(watermark);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::{infer_hbg, PatternMiner};
    use cpvr_sim::scenario::paper_scenario;
    use cpvr_sim::{CaptureProfile, LatencyProfile, Trace};

    fn sample_trace(seed: u64) -> Trace {
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
        s.sim.trace().clone()
    }

    fn assert_matches_batch(cfg: &InferConfig<'_>, trace: &Trace, steps: usize) {
        let batch = infer_hbg(trace, cfg);
        let mut b = HbgBuilder::new(cfg);
        for e in &trace.events {
            b.ingest(e);
        }
        assert_eq!(b.pending(), trace.len());
        // Advance in `steps` strides over the observed time range, then
        // to infinity; intermediate advances must not change the end
        // state.
        let end = trace
            .events
            .iter()
            .map(|e| e.time)
            .max()
            .unwrap_or(SimTime::ZERO);
        for i in 1..=steps {
            b.advance(SimTime::from_nanos(
                end.as_nanos() / steps as u64 * i as u64,
            ));
        }
        b.advance(SimTime::MAX);
        assert_eq!(b.pending(), 0);
        assert_eq!(b.processed(), trace.len());
        assert_eq!(batch.canonical_edges(), b.hbg().canonical_edges());
    }

    #[test]
    fn rules_match_batch_inference() {
        let trace = sample_trace(5);
        let cfg = InferConfig {
            rules: true,
            patterns: None,
            min_confidence: 0.0,
            proximate: false,
        };
        assert_matches_batch(&cfg, &trace, 1);
        assert_matches_batch(&cfg, &trace, 7);
    }

    #[test]
    fn patterns_match_batch_inference() {
        let mut miner = PatternMiner::new(SimTime::from_millis(5), 3);
        miner.train(&sample_trace(1));
        let trace = sample_trace(9);
        for proximate in [false, true] {
            let cfg = InferConfig {
                rules: true,
                patterns: Some(&miner),
                min_confidence: 0.6,
                proximate,
            };
            assert_matches_batch(&cfg, &trace, 5);
        }
    }

    #[test]
    fn interleaved_ingest_and_advance() {
        let trace = sample_trace(3);
        let cfg = InferConfig {
            rules: true,
            patterns: None,
            min_confidence: 0.0,
            proximate: false,
        };
        let batch = infer_hbg(&trace, &cfg);
        let mut b = HbgBuilder::new(&cfg);
        // Deliver in (time, id) order — as a live capture stream would —
        // advancing the watermark behind each delivery.
        let mut sorted: Vec<&IoEvent> = trace.events.iter().collect();
        sorted.sort_by_key(|e| (e.time, e.id));
        let mut prev = SimTime::ZERO;
        for e in sorted {
            if e.time > prev {
                b.advance(prev);
                prev = e.time;
            }
            b.ingest(e);
        }
        b.advance(SimTime::MAX);
        assert_eq!(batch.canonical_edges(), b.hbg().canonical_edges());
    }

    #[test]
    #[should_panic(expected = "behind the fold frontier")]
    fn late_event_panics() {
        let trace = sample_trace(3);
        let cfg = InferConfig {
            rules: true,
            patterns: None,
            min_confidence: 0.0,
            proximate: false,
        };
        let mut b = HbgBuilder::new(&cfg);
        let mut sorted: Vec<&IoEvent> = trace.events.iter().collect();
        sorted.sort_by_key(|e| (e.time, e.id));
        b.ingest(sorted[1]);
        b.advance(SimTime::MAX);
        b.ingest(sorted[0]);
    }

    /// Scoped shard builders (per-router `LocalOnly` + per-conversation
    /// `CrossOnly`) must union to the monolithic `All` graph — the edge
    /// half of the sharded-fold oracle.
    #[test]
    fn scoped_shard_builders_union_to_monolithic() {
        use crate::shard::ShardPlan;
        use crate::snapshot::classify_conv;
        let trace = sample_trace(5);
        let cfg = InferConfig {
            rules: true,
            patterns: None,
            min_confidence: 0.0,
            proximate: false,
        };
        let mono = {
            let mut b = HbgBuilder::new(&cfg);
            for e in &trace.events {
                b.ingest(e);
            }
            b.advance(SimTime::MAX);
            b
        };
        for shards in [2u32, 3] {
            let plan = ShardPlan::uniform(shards);
            let mut locals: Vec<HbgBuilder> = (0..shards)
                .map(|_| HbgBuilder::new_scoped(&cfg, RuleScope::LocalOnly))
                .collect();
            let mut crosses: Vec<HbgBuilder> = (0..shards)
                .map(|_| HbgBuilder::new_scoped(&cfg, RuleScope::CrossOnly))
                .collect();
            for e in &trace.events {
                locals[plan.of_router(e.router) as usize].ingest(e);
                if let Some((key, _)) = classify_conv(e) {
                    crosses[plan.of_conv(&key) as usize].ingest(e);
                }
            }
            let mut merged = crate::hbg::Hbg::new(0);
            let mut processed = 0;
            for b in locals.iter_mut() {
                b.advance(SimTime::MAX);
                processed += b.processed();
                merged.grow_to(b.hbg().num_events());
                for h in b.hbg().edges() {
                    merged.add(*h);
                }
            }
            for b in crosses.iter_mut() {
                b.advance(SimTime::MAX);
                merged.grow_to(b.hbg().num_events());
                for h in b.hbg().edges() {
                    merged.add(*h);
                }
            }
            assert_eq!(processed, mono.processed(), "shards {shards}");
            assert_eq!(
                merged.canonical_edges(),
                mono.hbg().canonical_edges(),
                "shards {shards}"
            );
        }
    }

    #[test]
    fn empty_builder_yields_empty_graph() {
        let cfg = InferConfig {
            rules: true,
            patterns: None,
            min_confidence: 0.0,
            proximate: false,
        };
        let mut b = HbgBuilder::new(&cfg);
        assert_eq!(b.advance(SimTime::MAX), 0);
        assert_eq!(b.hbg().edges().len(), 0);
        assert_eq!(b.processed(), 0);
    }
}
