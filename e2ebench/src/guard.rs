//! The guard-repair workload: the in-process `ControlLoop::run` over a
//! scaled two-exit scenario with background churn and injected
//! bad-local-pref faults. No sockets, codec, WAL or federation.
//!
//! The traced run cannot see inside `ControlLoop::run`, so it replays
//! the same public calls the loop composes, in the same order, with a
//! span around each — and must reach the loop's outcome exactly.

use crate::measure::{ms, pace_factor, Outcome, Samples, Series};
use crate::reference::{dataplane_fingerprint, infer};
use crate::tape::{guard_scenario, GuardScenario, GuardSize};
use cpvr_bgp::ConfigChange;
use cpvr_core::proof::RepairProof;
use cpvr_core::provenance::RootCauseKind;
use cpvr_core::repair::RepairAction;
use cpvr_core::snapshot::{ConsistencyTracker, SnapshotStatus};
use cpvr_core::{
    gate_repair, propose_repairs_report, prove, root_causes, ControlLoop, GuardAction, GuardReport,
    HbgBuilder, InferConfig,
};
use cpvr_sim::{EventId, IoKind, Simulation};
use cpvr_topo::Topology;
use cpvr_types::SimTime;
use cpvr_verify::{verify, IncrementalVerifier};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One scenario's size.
const SIZE: GuardSize = GuardSize {
    routers: 4,
    guarded: 128,
    churned: 128,
    churn_ops: 200,
    faults: 2,
};

/// Scenarios per ten seconds of run time (one takes about 0.35 s on a
/// 2-vCPU x86-64 VM).
const SCENARIOS_PER_10S: u64 = 24;

/// What one guarded scenario produced.
struct ScenarioRun {
    report: GuardReport,
    /// Events captured while the guard ran.
    captured: usize,
    /// Wall time of the guard run.
    took: Duration,
}

/// Runs the workload: `SCENARIOS_PER_10S` scenarios per ten seconds,
/// each seeded from `seed` and its index.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::new();
    let mut setups = Samples::new();
    let mut verdicts = Samples::new();
    // Events captured, and seconds inside `ControlLoop::run` at the
    // reference host's speed.
    let (mut captured, mut guard_s) = (0usize, 0.0);
    let mut recover = Samples::new();
    let mut spans = Series::new();
    let mut traced_verdicts = Samples::new();
    let (mut traced_captured, mut traced_s) = (0usize, 0.0);
    let scenarios = (seconds * SCENARIOS_PER_10S / 10).max(1);
    for k in 0..scenarios {
        let sub = seed.wrapping_mul(1_000_003).wrapping_add(k);
        // Everything below is CPU work in this process: each scenario is
        // bracketed by the pace kernel and reported at the reference
        // host's speed (see `pace_factor`).
        let pace_before = pace_factor();
        let t0 = Instant::now();
        let mut scenario = guard_scenario(sub, SIZE);
        let setup = t0.elapsed();
        let faults = scenario.faults;
        let run = guarded(&mut scenario);
        check(&mut out, k, faults, &run.report);
        out.attempted += faults as u64;
        out.failed += faults.saturating_sub(run.report.repairs()) as u64;

        // Restart the fold from the whole history, as a recovering
        // verifier would, and check it lands on the live data plane.
        // The first restart warms the allocator; the median rate of the
        // three after it counts.
        let sim = &scenario.sim;
        let (events, n, end) = (&sim.trace().events, sim.topology().num_routers(), sim.now());
        let mut rates = Samples::new();
        for rep in 0..4 {
            let t0 = Instant::now();
            let b = HbgBuilder::recover(&guard_infer(), events, end);
            let t = ConsistencyTracker::recover(n, events, end);
            if rep > 0 {
                rates.push(events.len() as f64 / t0.elapsed().as_secs_f64());
            }
            out.gate(
                b.pending() == 0 && t.status() == SnapshotStatus::Consistent,
                || format!("scenario {k}: the recovered fold is not closed"),
            );
            out.gate(
                dataplane_fingerprint(t.dataplane()) == dataplane_fingerprint(sim.dataplane()),
                || format!("scenario {k}: the recovered data plane differs from the network's"),
            );
        }
        let f = (pace_before + pace_factor()) / 2.0;
        setups.push(setup.as_secs_f64() / f);
        verdicts.push(ms(run.took) / f);
        captured += run.captured;
        guard_s += run.took.as_secs_f64() / f;
        recover.push(rates.median() * f);

        if traced {
            let mut twin = guard_scenario(sub, SIZE);
            let before = twin.sim.trace().events.len();
            let t0 = Instant::now();
            let report = replica(&twin.policies, &mut twin.sim, twin.budget, &mut spans);
            let took = t0.elapsed();
            traced_verdicts.push(ms(took) / f);
            traced_captured += twin.sim.trace().events.len() - before;
            traced_s += took.as_secs_f64() / f;
            out.gate(same_outcome(&report, &run.report), || {
                format!(
                    "scenario {k}: the traced replay diverged from ControlLoop::run\n\
                     loop:\n{}replay:\n{}",
                    run.report.render(),
                    report.render()
                )
            });
        }
    }
    out.metric("setup_s", setups.median());
    out.metric("ingest_eps", captured as f64 / guard_s);
    out.metric("recover_eps", recover.median());
    out.metric("verdict_p50_ms", verdicts.median());
    out.metric("verdict_p99_ms", verdicts.quantile(0.99));
    eprintln!("[guard-repair] {scenarios} scenarios, {captured} events captured in {guard_s:.3} reference-host s");
    if traced {
        layer_metrics(&mut out, &spans, scenarios);
        out.layer("trace.ingest_eps", traced_captured as f64 / traced_s);
        out.layer("trace.verdict_p50_ms", traced_verdicts.median());
        out.layer("sim.tape_s", setups.median());
    }
    out
}

/// The untraced path: `ControlLoop::run` exactly as a user calls it.
fn guarded(s: &mut GuardScenario) -> ScenarioRun {
    let before = s.sim.trace().events.len();
    let guard = ControlLoop::new(s.policies.clone());
    let t0 = Instant::now();
    let report = guard.run(&mut s.sim, s.budget);
    let took = t0.elapsed();
    ScenarioRun {
        captured: s.sim.trace().events.len() - before,
        report,
        took,
    }
}

/// The outcome gate: every fault repaired exactly once, every proof
/// reproduced, and the network compliant at the end.
fn check(out: &mut Outcome, k: u64, faults: usize, r: &GuardReport) {
    out.gate(r.repairs() == faults, || {
        format!(
            "scenario {k}: {} repairs for {faults} faults\n{}",
            r.repairs(),
            r.render()
        )
    });
    out.gate(r.blocked() == 0 && r.proofs.len() == r.repairs(), || {
        format!(
            "scenario {k}: {} proofs, {} blocked — not every proof was REPRODUCED",
            r.proofs.len(),
            r.blocked()
        )
    });
    out.gate(r.final_ok, || {
        format!("scenario {k}: final verdict is not compliant")
    });
}

/// Same repairs, same proof verdicts, same final verdict — compared on
/// the rendered timeline, which names every action and its plan.
fn same_outcome(a: &GuardReport, b: &GuardReport) -> bool {
    a.render() == b.render()
        && a.proofs.len() == b.proofs.len()
        && a.skipped_low_confidence == b.skipped_low_confidence
}

/// The inference configuration `ControlLoop::run` folds with, at the
/// confidence threshold `ControlLoop::new` sets.
fn guard_infer() -> InferConfig<'static> {
    infer(ControlLoop::new(Vec::new()).min_confidence)
}

fn topo_signature(topo: &Topology) -> Vec<bool> {
    topo.links()
        .iter()
        .map(|l| l.state.is_up())
        .chain(topo.ext_peers().iter().map(|p| p.state.is_up()))
        .collect()
}

/// Sums the per-event ingest cost inside the capture tap.
#[derive(Default)]
struct TapCost {
    events: u64,
    hbg_ns: u128,
    tracker_ns: u128,
}

/// `ControlLoop::run`, call for call, with a span around each public
/// function it composes. Kept in step with `crates/core/src/control.rs`;
/// `same_outcome` fails the run if the two ever disagree.
fn replica(
    policies: &[cpvr_verify::Policy],
    sim: &mut Simulation,
    budget: SimTime,
    spans: &mut Series,
) -> GuardReport {
    let guard = ControlLoop::new(policies.to_vec());
    let min_conf = guard.min_confidence;
    let mut report = GuardReport::default();
    let mut repaired_roots: BTreeSet<EventId> = BTreeSet::new();
    let mut notified_roots: BTreeSet<EventId> = BTreeSet::new();
    let mut own_changes: Vec<ConfigChange> = Vec::new();
    let n = sim.topology().num_routers();
    let builder = Rc::new(RefCell::new(HbgBuilder::new(&guard_infer())));
    let tracker = Rc::new(RefCell::new(ConsistencyTracker::new(n)));
    let tap = Rc::new(RefCell::new(TapCost::default()));
    let ingest = {
        let (builder, tracker, tap) = (Rc::clone(&builder), Rc::clone(&tracker), Rc::clone(&tap));
        move |e: &cpvr_sim::IoEvent| {
            let t0 = Instant::now();
            builder.borrow_mut().ingest(e);
            let t1 = Instant::now();
            tracker.borrow_mut().ingest(e);
            let mut c = tap.borrow_mut();
            c.events += 1;
            c.hbg_ns += (t1 - t0).as_nanos();
            c.tracker_ns += t1.elapsed().as_nanos();
        }
    };
    let seed_ingest = ingest.clone();
    for e in &sim.trace().events {
        seed_ingest(e);
    }
    sim.set_event_sink(Box::new(ingest));
    let mut verifier: Option<IncrementalVerifier> = None;
    let mut last_sig: Vec<bool> = Vec::new();
    let end = sim.now() + budget;
    let mut t = sim.now();
    while t < end {
        t = (t + guard.interval).min(end);
        spans.time("sim.run_until", || sim.run_until(t));
        let status = spans.time("tracker.advance", || tracker.borrow_mut().advance(t));
        if let SnapshotStatus::WaitFor(rs) = status {
            report
                .timeline
                .push((t, GuardAction::Waited { for_routers: rs }));
            continue;
        }
        let deltas = tracker.borrow_mut().drain_applied();
        let sig = topo_signature(sim.topology());
        match &mut verifier {
            Some(v) if sig == last_sig => {
                for u in &deltas {
                    spans.time("verify.apply", || v.apply(u));
                }
            }
            _ => {
                let (topo, dp) = (sim.topology().clone(), tracker.borrow().dataplane().clone());
                verifier = Some(spans.time("verify.build", || {
                    IncrementalVerifier::new(topo, dp, policies.to_vec())
                }));
                last_sig = sig;
            }
        }
        let v = verifier.as_ref().expect("just built");
        let vr = spans.time("verify.report", || v.report());
        if vr.ok() {
            continue;
        }
        report.timeline.push((
            t,
            GuardAction::Detected {
                violations: vr.violations.len(),
            },
        ));
        let violated: Vec<_> = vr.violations.iter().map(|v| v.policy.prefix()).collect();
        let arrived = sim.trace().arrived_by(t);
        let bad_fib = arrived
            .iter()
            .filter(|e| {
                matches!(
                    &e.kind,
                    IoKind::FibInstall { prefix, .. } | IoKind::FibRemove { prefix }
                        if violated.iter().any(|vp| vp.overlaps(prefix))
                )
            })
            .max_by_key(|e| (e.time, e.id));
        let Some(bad_fib) = bad_fib.map(|e| e.id) else {
            continue;
        };
        let mut b = builder.borrow_mut();
        spans.time("hbg.advance", || b.advance(t));
        let causes = spans.time("repair.root_cause", || {
            root_causes(sim.trace(), b.hbg(), bad_fib, min_conf)
        });
        drop(b);
        let fresh: Vec<_> = causes
            .into_iter()
            .filter(|c| !repaired_roots.contains(&c.event))
            .filter(|c| match &c.kind {
                RootCauseKind::ConfigChange {
                    change: Some(ch), ..
                } => !own_changes.contains(ch),
                _ => true,
            })
            .collect();
        let planned = spans.time("repair.propose", || {
            propose_repairs_report(&fresh, min_conf)
        });
        report.skipped_low_confidence += planned.skipped_low_confidence.len();
        let mut acted = false;
        for plan in planned.plans {
            match &plan.action {
                RepairAction::RevertConfig(inv) => {
                    if acted {
                        continue;
                    }
                    let v = verifier.as_ref().expect("resident verifier");
                    let b = builder.borrow();
                    let proof: RepairProof = spans.time("repair.prove", || {
                        prove(sim.trace(), b.hbg(), v, &plan, bad_fib, min_conf)
                    });
                    drop(b);
                    let verdict = spans.time("repair.gate", || gate_repair(v, &proof));
                    spans.push(
                        "repair.reproduced",
                        f64::from(u8::from(verdict.is_reproduced())),
                    );
                    report.proofs.push(proof);
                    if verdict.is_reproduced() {
                        sim.schedule_config(sim.now(), plan.router, inv.clone());
                        own_changes.push(inv.clone());
                        repaired_roots.insert(plan.root.event);
                        report.timeline.push((t, GuardAction::Repaired { plan }));
                        acted = true;
                    } else if notified_roots.insert(plan.root.event) {
                        report
                            .timeline
                            .push((t, GuardAction::Blocked { plan, verdict }));
                    }
                }
                RepairAction::NotifyOperator(_) => {
                    if notified_roots.insert(plan.root.event) {
                        report.timeline.push((t, GuardAction::Notified { plan }));
                    }
                }
            }
        }
    }
    spans.time("sim.run_until", || sim.run_to_quiescence(1_000_000));
    sim.clear_event_sink();
    report.final_ok = verify(sim.topology(), sim.dataplane(), policies).ok();
    let c = tap.borrow();
    spans.push("tap.events", c.events as f64);
    spans.push("tap.hbg_ns", c.hbg_ns as f64);
    spans.push("tap.tracker_ns", c.tracker_ns as f64);
    spans.push(
        "hbg.edges",
        builder.borrow().hbg().canonical_edges().len() as f64,
    );
    spans.push("tracker.waits", tracker.borrow().wait_stats().0 as f64);
    report
}

/// Turns the replica's spans into the per-layer metrics.
fn layer_metrics(out: &mut Outcome, spans: &Series, scenarios: u64) {
    let sum = |name: &str| spans.get(name).sum();
    let events = sum("tap.events").max(1.0);
    out.layer("hbg.ingest_ns", sum("tap.hbg_ns") / events);
    out.layer("tracker.ingest_ns", sum("tap.tracker_ns") / events);
    let adv = spans.get("hbg.advance");
    out.layer("hbg.advance_us_p50", adv.median() * 1e6);
    out.layer("hbg.advance_us_p99", adv.quantile(0.99) * 1e6);
    out.layer("hbg.edges", spans.get("hbg.edges").median());
    let adv = spans.get("tracker.advance");
    out.layer("tracker.advance_us_p50", adv.median() * 1e6);
    out.layer("tracker.advance_us_p99", adv.quantile(0.99) * 1e6);
    out.layer("tracker.waits", spans.get("tracker.waits").median());
    out.layer("verify.build_ms", spans.get("verify.build").median() * 1e3);
    let apply = spans.get("verify.apply");
    out.layer("verify.apply_us_p50", apply.median() * 1e6);
    out.layer("verify.apply_us_p99", apply.quantile(0.99) * 1e6);
    out.layer(
        "verify.report_ms",
        spans.get("verify.report").median() * 1e3,
    );
    out.layer(
        "repair.root_cause_ms",
        spans.get("repair.root_cause").median() * 1e3,
    );
    out.layer("repair.prove_ms", spans.get("repair.prove").median() * 1e3);
    out.layer("repair.gate_ms", spans.get("repair.gate").median() * 1e3);
    let minted = spans.get("repair.reproduced");
    let reproduced = minted.sum() / (minted.len().max(1) as f64);
    out.layer("repair.reproduced_frac", reproduced);
    out.layer(
        "sim.run_until_ms",
        spans.get("sim.run_until").sum() * 1e3 / scenarios as f64,
    );
}
