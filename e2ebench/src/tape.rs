//! Seeded inputs: the two-router BGP tape the networked workloads
//! replay, and the guarded two-exit scenario the repair workload runs.
//!
//! Everything here is a pure function of its seed and sizes, built on
//! the simulator's own generators (`two_exit_scenario`, `prefix_block`,
//! `churn_plan`): the same seed gives a byte-identical tape, a
//! different seed a different one (see the tests at the bottom).

use cpvr_bgp::{Clause, ConfigChange, MatchCond, PeerRef, RouteMap, SetAction};
use cpvr_collector::{CodecVersion, EventEncoder};
use cpvr_sim::scenario::two_exit_scenario;
use cpvr_sim::workload::{churn_plan, prefix_block};
use cpvr_sim::{CaptureProfile, IoEvent, LatencyProfile, Simulation};
use cpvr_topo::ExtPeerId;
use cpvr_types::{Ipv4Prefix, RouterId, SimTime};
use cpvr_verify::Policy;

/// Routers in the BGP tape: one uplink each, one iBGP session between
/// them.
pub const TAPE_ROUTERS: u32 = 2;

/// Upper bound on simulator steps per `run_to_quiescence` call.
const MAX_STEPS: usize = 50_000_000;

/// A recorded BGP conversation between two routers, split per router
/// the way each router's capture agent would ship it.
pub struct Tape {
    /// The externally announced table (`prefix_block`).
    pub prefixes: Vec<Ipv4Prefix>,
    /// Per router: the initial table load, sorted by `(time, id)`.
    pub load: Vec<Vec<IoEvent>>,
    /// Per router: the churn that follows the load, sorted likewise.
    /// Every churn event is stamped after every load event.
    pub churn: Vec<Vec<IoEvent>>,
}

impl Tape {
    /// A safe promise once the whole load is sent: every load event is
    /// stamped at or before it, every churn event after it.
    pub fn load_tick(&self) -> SimTime {
        let last = self
            .load
            .iter()
            .flatten()
            .map(|e| e.time)
            .max()
            .unwrap_or(SimTime::ZERO);
        let first_churn = self
            .churn
            .iter()
            .filter_map(|c| c.first())
            .map(|e| e.time)
            .min()
            .unwrap_or(SimTime::MAX);
        debug_assert!(last < first_churn, "churn must follow the load");
        last
    }

    /// The latest safe promise for `router` once its first `sent` churn
    /// events are out: just before the next unsent event's stamp, or
    /// the last stamp once everything is sent. Never below the load
    /// tick.
    pub fn safe_tick(&self, router: usize, sent: usize) -> SimTime {
        let mine = &self.churn[router];
        let t = match mine.get(sent) {
            Some(next) => SimTime::from_nanos(next.time.as_nanos().saturating_sub(1)),
            None => mine.last().map_or(SimTime::ZERO, |e| e.time),
        };
        t.max(self.load_tick())
    }

    /// Churn events over every router.
    pub fn churn_len(&self) -> usize {
        self.churn.iter().map(Vec::len).sum()
    }

    /// Load plus churn events over every router.
    pub fn len(&self) -> usize {
        self.churn_len() + self.load.iter().map(Vec::len).sum::<usize>()
    }

    /// Every event, load then churn, in global `(time, id)` order.
    pub fn all_events(&self) -> Vec<&IoEvent> {
        let mut all: Vec<&IoEvent> = self.load.iter().chain(&self.churn).flatten().collect();
        all.sort_by_key(|e| (e.time, e.id));
        all
    }

    /// The churn merged across routers in `(time, id)` order, as
    /// `(router, index into that router's churn)` — the order a replay
    /// at the tape's own pace would emit them in.
    pub fn churn_schedule(&self) -> Vec<(usize, usize)> {
        let mut order: Vec<(SimTime, u32, usize, usize)> = self
            .churn
            .iter()
            .enumerate()
            .flat_map(|(r, evs)| {
                evs.iter()
                    .enumerate()
                    .map(move |(i, e)| (e.time, e.id.0, r, i))
            })
            .collect();
        order.sort_unstable();
        order.into_iter().map(|(_, _, r, i)| (r, i)).collect()
    }

    /// Cuts the churn to its first `max` events in global `(time, id)`
    /// order: a shorter recording window of the same conversation.
    pub fn truncate_churn(&mut self, max: usize) {
        let mut keep = vec![0usize; self.churn.len()];
        for (r, _) in self.churn_schedule().into_iter().take(max) {
            keep[r] += 1;
        }
        for (c, k) in self.churn.iter_mut().zip(keep) {
            c.truncate(k);
        }
    }

    /// FNV-1a over the v3 wire encoding of every event, router by
    /// router, load before churn: equal digests mean byte-identical
    /// tapes.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for stream in self.load.iter().chain(&self.churn) {
            h.write(&encode_stream(stream));
        }
        h.finish()
    }
}

/// The v3 wire bytes of one event stream, sequence numbers from 0.
pub fn encode_stream(events: &[IoEvent]) -> Vec<u8> {
    let mut enc = EventEncoder::new(CodecVersion::V3);
    let mut out = Vec::new();
    for (seq, e) in events.iter().enumerate() {
        enc.encode_into(seq as u64, e, &mut out);
    }
    out
}

/// 64-bit FNV-1a: a fixed, dependency-free hash for determinism checks.
pub struct Fnv(u64);

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Hashes `bytes` into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Announces `prefixes` from both uplinks of a converged two-exit
/// network and runs it to quiescence: the initial table load.
fn load_table(sim: &mut Simulation, left: ExtPeerId, right: ExtPeerId, prefixes: &[Ipv4Prefix]) {
    sim.start();
    sim.run_to_quiescence(MAX_STEPS);
    sim.schedule_ext_announce(sim.now() + SimTime::from_millis(1), left, prefixes);
    sim.schedule_ext_announce(sim.now() + SimTime::from_millis(2), right, prefixes);
    sim.run_to_quiescence(MAX_STEPS);
}

/// Schedules `churn_plan(ops, 2, prefixes.len(), seed)` from `start`:
/// each op announces or withdraws one prefix at one of the two uplinks.
fn schedule_churn(
    sim: &mut Simulation,
    peers: [ExtPeerId; 2],
    prefixes: &[Ipv4Prefix],
    ops: usize,
    seed: u64,
    start: SimTime,
) -> SimTime {
    let mut end = start;
    for (ms, peer, px, announce) in churn_plan(ops, 2, prefixes.len(), seed) {
        let at = start + SimTime::from_millis(ms);
        if announce {
            sim.schedule_ext_announce(at, peers[peer], &prefixes[px..=px]);
        } else {
            sim.schedule_ext_withdraw(at, peers[peer], &prefixes[px..=px]);
        }
        end = at;
    }
    end
}

/// Records the BGP tape: a two-router network (an uplink on each
/// router, an iBGP session between them) loads a `prefixes`-entry table
/// from both uplinks, then `churn_ops` seeded announce/withdraw ops
/// follow.
pub fn record_tape(seed: u64, prefixes: usize, churn_ops: usize) -> Tape {
    let (mut sim, left, right) = two_exit_scenario(
        TAPE_ROUTERS as usize,
        LatencyProfile::fast(),
        CaptureProfile::ideal(),
        seed,
    );
    let table = prefix_block(prefixes);
    load_table(&mut sim, left, right, &table);
    let loaded = sim.trace().events.len();
    let start = sim.now() + SimTime::from_millis(1);
    schedule_churn(
        &mut sim,
        [left, right],
        &table,
        churn_ops,
        seed ^ 0x5eed,
        start,
    );
    sim.run_to_quiescence(MAX_STEPS);
    let events = &sim.trace().events;
    let split = |evs: &[IoEvent]| -> Vec<Vec<IoEvent>> {
        (0..TAPE_ROUTERS)
            .map(|r| {
                let mut mine: Vec<IoEvent> = evs
                    .iter()
                    .filter(|e| e.router == RouterId(r))
                    .cloned()
                    .collect();
                mine.sort_by_key(|e| (e.time, e.id));
                mine
            })
            .collect()
    };
    Tape {
        prefixes: table,
        load: split(&events[..loaded]),
        churn: split(&events[loaded..]),
    }
}

/// Sizes of one guard-repair scenario.
#[derive(Clone, Copy, Debug)]
pub struct GuardSize {
    /// Routers on the two-exit line.
    pub routers: usize,
    /// Prefixes guarded by a `PreferredExit` policy.
    pub guarded: usize,
    /// Prefixes that only churn (disjoint from the guarded ones).
    pub churned: usize,
    /// Background churn ops on the churned prefixes.
    pub churn_ops: usize,
    /// Bad-local-pref faults injected on the preferred exit.
    pub faults: usize,
}

/// One guard-repair scenario, converged and ready for the guard.
pub struct GuardScenario {
    /// The network, with churn and faults scheduled in its future.
    pub sim: Simulation,
    /// One `PreferredExit` per guarded prefix.
    pub policies: Vec<Policy>,
    /// Faults injected (each should be repaired exactly once).
    pub faults: usize,
    /// Simulated time the guard should run for.
    pub budget: SimTime,
}

/// Builds a scaled two-exit scenario: every prefix is announced from
/// both uplinks (the right one, local-pref 30, is preferred), the
/// guarded prefixes carry a `PreferredExit` policy, seeded churn runs
/// on the churned prefixes only, and `faults` times an operator sets
/// local-pref 10 for the guarded block on the preferred uplink (the
/// churned prefixes keep local-pref 30), spaced so each is repaired
/// before the next lands.
pub fn guard_scenario(seed: u64, size: GuardSize) -> GuardScenario {
    let (mut sim, left, right) = two_exit_scenario(
        size.routers,
        LatencyProfile::fast(),
        CaptureProfile::ideal(),
        seed,
    );
    // Guarded prefixes under 100.0.0.0/16, churned ones under
    // 100.1.0.0/16: disjoint, and a fault can target the guarded block.
    assert!(size.guarded <= 256, "guarded prefixes must fit one /16");
    let block = prefix_block(256 + size.churned);
    let guarded = &block[..size.guarded];
    let churned = &block[256..];
    let table: Vec<Ipv4Prefix> = guarded.iter().chain(churned).copied().collect();
    let guarded_block: Ipv4Prefix = "100.0.0.0/16".parse().expect("static prefix");
    load_table(&mut sim, left, right, &table);
    let start = sim.now() + SimTime::from_millis(1);
    let churn_end = schedule_churn(
        &mut sim,
        [left, right],
        churned,
        size.churn_ops,
        seed ^ 0xc4u64,
        start,
    );
    // Faults evenly spaced through the churn window, at least a second
    // apart so each repair settles before the next fault.
    let span = churn_end
        .saturating_sub(start)
        .max(SimTime::from_secs(size.faults as u64));
    let exit_router = RouterId(size.routers as u32 - 1);
    for k in 0..size.faults {
        let at = start
            + SimTime::from_nanos(span.as_nanos() / (size.faults as u64 + 1) * (k as u64 + 1));
        let change = ConfigChange::SetImport {
            peer: PeerRef::External(right),
            map: RouteMap {
                clauses: vec![
                    Clause {
                        matches: vec![MatchCond::PrefixIn(guarded_block)],
                        permit: true,
                        sets: vec![SetAction::LocalPref(10)],
                    },
                    Clause::permit_all(vec![SetAction::LocalPref(30)]),
                ],
            },
        };
        sim.schedule_config(at, exit_router, change);
    }
    let policies = guarded
        .iter()
        .map(|p| Policy::PreferredExit {
            prefix: *p,
            primary: right,
            backup: left,
        })
        .collect();
    let budget = (start + span + SimTime::from_millis(500)).saturating_sub(sim.now());
    GuardScenario {
        sim,
        policies,
        faults: size.faults,
        budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_tape() {
        let a = record_tape(7, 40, 200);
        let b = record_tape(7, 40, 200);
        assert!(a.churn_len() > 0);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.load, b.load);
        assert_eq!(a.churn, b.churn);
    }

    #[test]
    fn different_seed_gives_a_different_tape() {
        assert_ne!(
            record_tape(7, 40, 200).digest(),
            record_tape(8, 40, 200).digest()
        );
    }

    #[test]
    fn promise_ticks_are_safe() {
        let tape = record_tape(3, 40, 200);
        let load = tape.load_tick();
        for (r, mine) in tape.churn.iter().enumerate() {
            assert!(mine.iter().all(|e| e.time > load));
            for k in 0..=mine.len() {
                let t = tape.safe_tick(r, k);
                // Everything stamped at or before the tick was sent.
                assert!(mine[k..].iter().all(|e| e.time > t));
            }
        }
    }
}
