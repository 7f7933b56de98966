//! The in-process reference fold and the state every fold is compared
//! on: HBG edges, per-rule edge counts, the snapshot verdict, and the
//! assembled data plane.

use crate::tape::{Fnv, TAPE_ROUTERS};
use cpvr_collector::{FoldReport, PipelineConfig};
use cpvr_core::snapshot::{ConsistencyTracker, SnapshotStatus};
use cpvr_core::{HbgBuilder, Hbr, InferConfig};
use cpvr_dataplane::{DataPlane, FibEntry};
use cpvr_sim::IoEvent;
use cpvr_types::{Ipv4Prefix, RouterId, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Rule-based inference at `min_confidence`, as both the collector's
/// pipeline and `ControlLoop` fold with it.
pub fn infer(min_confidence: f64) -> InferConfig<'static> {
    InferConfig {
        rules: true,
        patterns: None,
        min_confidence,
        proximate: false,
    }
}

/// The inference configuration the collector's pipeline folds with.
pub fn collector_infer() -> InferConfig<'static> {
    infer(PipelineConfig::new(TAPE_ROUTERS).min_confidence)
}

/// Every router's FIB entries, in router order.
pub type DpFingerprint = Vec<Vec<(Ipv4Prefix, FibEntry)>>;

/// The FIB contents of a data plane, router by router.
pub fn dataplane_fingerprint(dp: &DataPlane) -> DpFingerprint {
    (0..dp.num_routers() as u32)
        .map(|r| dp.fib(RouterId(r)).entries())
        .collect()
}

/// FNV-1a over the `Debug` rendering of each item: a compact digest of
/// a large state, so a run keeps one fold in memory at a time.
fn digest<T: std::fmt::Debug>(items: impl IntoIterator<Item = T>) -> u64 {
    struct W(Fnv);
    impl std::fmt::Write for W {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut w = W(Fnv::new());
    for item in items {
        let _ = write!(w, "{item:?};");
    }
    w.0.finish()
}

/// The comparable state of one fold, large parts digested.
#[derive(Debug, PartialEq)]
pub struct FoldState {
    /// Events folded into the HBG.
    pub processed: usize,
    /// Size and digest of the canonical happens-before edge set.
    pub edges: (usize, u64),
    /// Edges offered per inference rule.
    pub edge_counts: BTreeMap<String, u64>,
    /// The snapshot verdict at the final watermark.
    pub status: SnapshotStatus,
    /// Digest of the assembled data plane's FIBs.
    pub dataplane: u64,
}

impl FoldState {
    fn new(
        processed: usize,
        edges: Vec<Hbr>,
        edge_counts: BTreeMap<String, u64>,
        status: SnapshotStatus,
        dp: &DataPlane,
    ) -> Self {
        FoldState {
            processed,
            edges: (edges.len(), digest(&edges)),
            edge_counts,
            status,
            dataplane: digest(dataplane_fingerprint(dp)),
        }
    }

    /// The state a collector (or a merged federation) reported.
    pub fn of_report(r: &FoldReport) -> Self {
        Self::new(
            r.processed(),
            r.canonical_edges(),
            r.edge_counts(),
            r.status(),
            r.dataplane(),
        )
    }

    /// The state of an in-process builder and tracker.
    pub fn of_parts(b: &HbgBuilder, t: &ConsistencyTracker) -> Self {
        Self::new(
            b.processed(),
            b.hbg().canonical_edges(),
            b.edge_counts().clone(),
            t.status(),
            t.dataplane(),
        )
    }

    /// Names the first field on which two states differ.
    pub fn diff(&self, other: &FoldState) -> Option<&'static str> {
        if self.processed != other.processed {
            Some("folded event count")
        } else if self.edges != other.edges {
            Some("HBG edges")
        } else if self.edge_counts != other.edge_counts {
            Some("per-rule edge counts")
        } else if self.status != other.status {
            Some("snapshot verdict")
        } else if self.dataplane != other.dataplane {
            Some("data plane")
        } else {
            None
        }
    }
}

/// Folds `events` in one pass (ingest all, advance to the end of time):
/// the reference every networked fold must equal.
pub fn reference_fold<'a>(
    events: impl IntoIterator<Item = &'a IoEvent>,
    n_routers: usize,
) -> FoldState {
    let mut b = HbgBuilder::new(&collector_infer());
    let mut t = ConsistencyTracker::new(n_routers);
    for e in events {
        b.ingest(e);
        t.ingest(e);
    }
    b.advance(SimTime::MAX);
    t.advance(SimTime::MAX);
    FoldState::of_parts(&b, &t)
}
