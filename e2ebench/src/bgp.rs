//! The networked workloads: the BGP tape replayed over real loopback
//! sockets into one collector (`bgp-ingest`, closed loop) or into a
//! two-member federation (`bgp-fed`, open loop).

use crate::layers::{codec_pass, stepped_fold};
use crate::measure::{dir_bytes, ms, pace_factor, peak_rss_mb, Outcome, Samples, Series};
use crate::reference::{reference_fold, FoldState};
use crate::tape::{record_tape, Tape, TAPE_ROUTERS};
use cpvr_collector::collector::{Collector, CollectorConfig, CollectorHandle, CollectorStats};
use cpvr_collector::wal::{self, FsyncPolicy, WalConfig};
use cpvr_collector::{CodecVersion, FoldReport, ReconnectPolicy, SocketSink};
use cpvr_core::FederationPlan;
use cpvr_federation::Federation;
use cpvr_obs::Snapshot;
use cpvr_types::{RouterId, SimTime};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Set-ups that record the tape afresh; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Prefixes in the tape's table.
const TABLE: usize = 1000;
/// Poll period of the verdict observer.
const POLL: Duration = Duration::from_micros(250);
/// How long the observer waits for the fold to finish.
const FOLD_TIMEOUT: Duration = Duration::from_secs(100);

/// bgp-ingest: rounds per ten seconds of run time (each a fresh set-up
/// and timed replay).
const INGEST_ROUNDS_PER_10S: usize = 7;
/// bgp-ingest: churn ops recorded per round (the tape holds about 3.5
/// events per op, so a round replays about 100k events).
const INGEST_OPS_PER_ROUND: usize = 28_000;
/// bgp-ingest: a sender promises after every this many of its events.
const INGEST_PROMISE_EVERY: usize = 1000;
/// bgp-ingest: a sender holds at most this many promised batches that
/// the fold has not yet covered — the loop's window. It bounds the
/// backlog, so latency measures the pipeline, not the socket buffers;
/// at 1 each batch is a request that completes when it is folded.
const INGEST_WINDOW: usize = 1;

/// bgp-fed: the offered load, events per second over both routers.
const FED_RATE: f64 = 3000.0;
/// bgp-fed: each sender promises its latest safe tick this often.
const FED_PROMISE_EVERY: Duration = Duration::from_millis(20);
/// bgp-fed: a run whose senders fall this much further behind
/// schedule by its last quarter than in its first is overloaded.
const FED_OVERLOAD: Duration = Duration::from_millis(50);
/// bgp-fed: seconds of run time per round. Each round is a fresh
/// federation, so its timers start at a fresh phase against the
/// senders' promise pace; the latency quantiles pool every round.
const FED_ROUND_SECONDS: u64 = 5;

/// Which networked workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// One collector, closed loop.
    Ingest,
    /// A two-member federation, open loop.
    Fed,
}

/// The system under test.
enum Target {
    Single(CollectorHandle),
    Fed(Federation),
}

impl Target {
    fn launch(mode: Mode, tape: &Tape, dir: &Path) -> std::io::Result<Target> {
        match mode {
            Mode::Ingest => {
                let mut w = WalConfig::new(dir);
                w.fsync = FsyncPolicy::EveryN(256);
                let cfg = CollectorConfig::new(TAPE_ROUTERS).with_wal(w);
                Ok(Target::Single(Collector::start(cfg, "127.0.0.1:0")?))
            }
            Mode::Fed => {
                let plan = FederationPlan::from_prefixes(&tape.prefixes, 2);
                Ok(Target::Fed(Federation::launch(plan, TAPE_ROUTERS, dir)?))
            }
        }
    }

    fn addr_of(&self, r: usize) -> std::net::SocketAddr {
        match self {
            Target::Single(h) => h.local_addr(),
            Target::Fed(fed) => fed.addr_of_router(RouterId(r as u32)),
        }
    }

    /// Every collector: the lone one, or each federation member.
    fn handles(&self) -> Box<dyn Iterator<Item = &CollectorHandle> + '_> {
        match self {
            Target::Single(h) => Box::new(std::iter::once(h)),
            Target::Fed(fed) => Box::new(fed.handles()),
        }
    }

    /// Every member's applied watermark (`ZERO` before the first).
    fn watermarks(&self) -> Vec<SimTime> {
        self.handles()
            .map(|h| h.stats().watermark.unwrap_or(SimTime::ZERO))
            .collect()
    }

    /// Shuts down; returns the (merged) fold, final stats summed over
    /// members, and every member's metrics snapshot.
    fn shutdown(self) -> std::io::Result<(FoldReport, CollectorStats, Vec<Snapshot>)> {
        match self {
            Target::Single(h) => {
                let r = h.shutdown()?;
                Ok((r.pipeline, r.stats, r.metrics.into_iter().collect()))
            }
            Target::Fed(fed) => {
                let r = fed.shutdown()?;
                let mut sum = CollectorStats::default();
                for m in &r.members {
                    add_stats(&mut sum, &m.stats);
                }
                let snaps = r.members.into_iter().filter_map(|m| m.metrics).collect();
                Ok((r.global, sum, snaps))
            }
        }
    }
}

fn add_stats(sum: &mut CollectorStats, s: &CollectorStats) {
    sum.events += s.events;
    sum.decode_errors += s.decode_errors;
    sum.duplicate_events += s.duplicate_events;
    sum.gap_events += s.gap_events;
}

/// A launched target with both routers connected and the initial table
/// folded.
struct Setup {
    target: Target,
    sinks: Vec<SocketSink>,
    launch: Duration,
}

fn set_up(mode: Mode, tape: &Tape, dir: &Path) -> std::io::Result<Setup> {
    let t0 = Instant::now();
    let target = Target::launch(mode, tape, dir)?;
    let launch = t0.elapsed();
    let mut sinks = Vec::new();
    for r in 0..TAPE_ROUTERS as usize {
        let mut sink = SocketSink::connect_with_codec(
            target.addr_of(r),
            RouterId(r as u32),
            TAPE_ROUTERS,
            ReconnectPolicy::default(),
            CodecVersion::V3,
        )?;
        for e in &tape.load[r] {
            sink.send(e)?;
        }
        sink.watermark(tape.load_tick())?;
        sinks.push(sink);
    }
    let tick = tape.load_tick();
    let deadline = Instant::now() + FOLD_TIMEOUT;
    while target.watermarks().iter().any(|w| *w < tick) {
        if Instant::now() > deadline {
            return Err(std::io::Error::other("initial table load never folded"));
        }
        std::thread::sleep(POLL);
    }
    Ok(Setup {
        target,
        sinks,
        launch,
    })
}

/// What one sender thread saw.
#[derive(Default)]
struct SenderLog {
    /// When each churn event's send began.
    starts: Vec<Instant>,
    /// `SocketSink::send` per call, seconds (traced run only).
    send: Samples,
    /// `SocketSink::watermark` per call, seconds.
    watermark: Samples,
    /// Each promise: when `watermark` returned, and the tick promised.
    promises: Vec<(Instant, SimTime)>,
    drain: Duration,
    reconnects: u64,
    error: Option<String>,
}

/// Replays one router's churn. Closed loop (`due` is `None`): the next
/// event goes as soon as `send` returns, a promise follows every
/// `INGEST_PROMISE_EVERY` events, and the sender then waits until no
/// more than `INGEST_WINDOW - 1` earlier promises are unfolded. Open
/// loop: event `i` waits for its due time `t0 + due[i]`, and a promise
/// goes every `FED_PROMISE_EVERY` of wall time.
fn sender(
    mut sink: SocketSink,
    tape: &Tape,
    r: usize,
    due: Option<&[Duration]>,
    t0: Instant,
    folded: &AtomicU64,
    traced: bool,
) -> SenderLog {
    let mine = &tape.churn[r];
    let mut log = SenderLog {
        starts: Vec::with_capacity(mine.len()),
        ..SenderLog::default()
    };
    let mut promised = tape.load_tick();
    let mut promise =
        |sink: &mut SocketSink, log: &mut SenderLog, sent: usize| -> std::io::Result<()> {
            let tick = tape.safe_tick(r, sent);
            if tick > promised {
                let w0 = Instant::now();
                sink.watermark(tick)?;
                let done = Instant::now();
                log.watermark.push((done - w0).as_secs_f64());
                log.promises.push((done, tick));
                promised = tick;
            }
            Ok(())
        };
    let mut next_promise = t0 + FED_PROMISE_EVERY;
    let result = (|| -> std::io::Result<()> {
        for (i, e) in mine.iter().enumerate() {
            if let Some(due) = due {
                let at = t0 + due[i];
                loop {
                    let now = Instant::now();
                    if next_promise <= now.min(at) {
                        promise(&mut sink, &mut log, i)?;
                        next_promise += FED_PROMISE_EVERY;
                    } else if now >= at {
                        break;
                    } else {
                        sleep_until(next_promise.min(at));
                    }
                }
            }
            let s0 = Instant::now();
            sink.send(e)?;
            if traced {
                log.send.push(s0.elapsed().as_secs_f64());
            }
            log.starts.push(s0);
            if due.is_none() && (i + 1) % INGEST_PROMISE_EVERY == 0 {
                promise(&mut sink, &mut log, i + 1)?;
                let k = log.promises.len();
                if k >= INGEST_WINDOW {
                    wait_folded(folded, log.promises[k - INGEST_WINDOW].1)?;
                }
            }
        }
        promise(&mut sink, &mut log, mine.len())?;
        sink.bye()?;
        let d0 = Instant::now();
        let drained = sink.drain(Duration::from_secs(60))?;
        log.drain = d0.elapsed();
        if !drained {
            return Err(std::io::Error::other("events left unacked"));
        }
        Ok(())
    })();
    log.reconnects = sink.reconnects();
    if let Err(e) = result {
        log.error = Some(format!("router {r}: {e}"));
    }
    log
}

/// Blocks until the observed global watermark reaches `t`.
fn wait_folded(folded: &AtomicU64, t: SimTime) -> std::io::Result<()> {
    let deadline = Instant::now() + FOLD_TIMEOUT;
    while folded.load(Ordering::Relaxed) < t.as_nanos() {
        if Instant::now() > deadline {
            return Err(std::io::Error::other("the fold stopped covering promises"));
        }
        std::thread::sleep(POLL);
    }
    Ok(())
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Every change of the members' watermarks, as `(when, per member)`.
type Observations = Vec<(Instant, Vec<SimTime>)>;

/// Polls the target until every member's watermark reaches the end of
/// time, recording each change and publishing the global watermark to
/// `folded` (a statistic read by the senders; nothing else hangs off it,
/// so relaxed ordering suffices).
fn observe(target: &Target, start: Instant, folded: &AtomicU64) -> (Observations, bool) {
    let mut obs: Observations = vec![(start, target.watermarks())];
    let deadline = start + FOLD_TIMEOUT;
    loop {
        let now = Instant::now();
        let wms = target.watermarks();
        if wms != obs.last().expect("seeded").1 {
            let min = wms.iter().min().copied().unwrap_or(SimTime::ZERO);
            folded.store(min.as_nanos(), Ordering::Relaxed);
            obs.push((now, wms));
        }
        if obs
            .last()
            .expect("seeded")
            .1
            .iter()
            .all(|w| *w == SimTime::MAX)
        {
            return (obs, true);
        }
        if now > deadline {
            return (obs, false);
        }
        std::thread::sleep(POLL);
    }
}

/// When the global watermark (the minimum over members) first reached
/// `t`, if it did.
fn covered_at(obs: &Observations, t: SimTime) -> Option<Instant> {
    let i = obs.partition_point(|(_, w)| w.iter().min().copied().unwrap_or(SimTime::ZERO) < t);
    obs.get(i).map(|(at, _)| *at)
}

/// When member `m`'s watermark first reached `t`, if it did.
fn member_covered_at(obs: &Observations, m: usize, t: SimTime) -> Option<Instant> {
    let i = obs.partition_point(|(_, w)| w[m] < t);
    obs.get(i).map(|(at, _)| *at)
}

/// How a workload is sized and repeated.
struct Plan {
    /// Rounds: each is a set-up, a timed phase, the fold checks and a
    /// restart on the WAL.
    rounds: usize,
    /// Extra set-ups after the rounds, torn down untimed, so `setup_s`
    /// is always a median over `SETUP_REPS` set-ups.
    extra_setups: usize,
    /// Restarts on each round's WAL; `recover_eps` is their median.
    recover_reps: usize,
    /// Churn ops recorded per round.
    churn_ops: usize,
    /// Churn events kept per round (the recording is cut to this many).
    max_churn: usize,
}

impl Plan {
    fn new(mode: Mode, seconds: u64) -> Plan {
        match mode {
            Mode::Ingest => {
                let rounds = (INGEST_ROUNDS_PER_10S * seconds as usize / 10).max(1);
                Plan {
                    rounds,
                    extra_setups: SETUP_REPS.saturating_sub(rounds),
                    recover_reps: 3,
                    churn_ops: INGEST_OPS_PER_ROUND,
                    max_churn: usize::MAX,
                }
            }
            // Open-loop rounds of `FED_ROUND_SECONDS` at the offered rate,
            // cut from a generous recording.
            Mode::Fed => {
                let rounds = (seconds / FED_ROUND_SECONDS).max(1) as usize;
                let n = (FED_RATE * seconds as f64) as usize / rounds;
                Plan {
                    rounds,
                    extra_setups: SETUP_REPS.saturating_sub(rounds),
                    recover_reps: 2,
                    churn_ops: n / 2,
                    max_churn: n,
                }
            }
        }
    }
}

/// Runs one networked workload and reports its metrics.
pub fn run(mode: Mode, seed: u64, seconds: u64, traced: bool, work: &Path) -> Outcome {
    let mut out = Outcome::new();
    let plan = Plan::new(mode, seconds);
    let mut acc = Series::new();
    let mut tape: Option<Tape> = None;
    let mut reference = None;
    for k in 0..plan.rounds + plan.extra_setups {
        let dir = work.join(format!("round-{k}"));
        // The first `SETUP_REPS` set-ups record the tape afresh and
        // count towards `setup_s`; later rounds replay the same tape.
        let mut recording = None;
        if k < SETUP_REPS {
            // Recording the tape is CPU work in this process: its share of
            // `setup_s` is reported at the reference host's speed, with the
            // pace kernel bracketing the recording. The launch and table
            // load wait on sockets and stay wall-clock.
            let pace_before = pace_factor();
            let t0 = Instant::now();
            let mut t = record_tape(seed, TABLE, plan.churn_ops);
            t.truncate_churn(plan.max_churn);
            let took = t0.elapsed();
            acc.push("sim.tape_s", took.as_secs_f64());
            let pace = (pace_before + pace_factor()) / 2.0;
            recording = Some((took, pace, tape.replace(t)));
        }
        let tape = tape.as_ref().expect("recorded by the first set-up");
        let t0 = Instant::now();
        let setup = match set_up(mode, tape, &dir) {
            Ok(s) => s,
            Err(e) => {
                out.gate(false, || format!("set-up failed: {e}"));
                return out;
            }
        };
        if let Some((took, pace, previous)) = recording {
            acc.push(
                "setup_s",
                took.as_secs_f64() / pace + t0.elapsed().as_secs_f64(),
            );
            // Runtime self-check of the tape generator: every recording
            // of this seed must be byte-identical.
            if let Some(prev) = previous {
                out.gate(prev.digest() == tape.digest(), || {
                    format!("set-up {k} recorded a different tape for seed {seed}")
                });
            }
        }
        acc.push("federation.launch_s", setup.launch.as_secs_f64());
        if k < plan.rounds {
            let round = Round {
                mode,
                plan: &plan,
                tape,
                dir: &dir,
                traced,
            };
            round.run(setup, &mut reference, &mut acc, &mut out);
        } else {
            drop(setup.sinks);
            let _ = setup.target.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The closed loop is CPU work in this process end to end (sender
    // encode, collector decode, journal and fold): its throughput and
    // median latency are reported at the reference host's speed, scaled
    // by the median over its rounds of the pace kernel bracketing each
    // round (see `pace_factor`). Its latency tail is set by fsyncs and
    // thread scheduling, which do not follow the kernel, so the p99 stays
    // wall-clock, as does everything in the open loop, which waits on its
    // schedule.
    let pace = match mode {
        Mode::Ingest => acc.get("round_pace").median(),
        Mode::Fed => 1.0,
    };
    let (p50, p99) = match mode {
        Mode::Ingest => (
            acc.get("verdict_p50_ms").median(),
            acc.get("verdict_p99_ms").median(),
        ),
        Mode::Fed => {
            let pooled = acc.get("verdict_ms");
            (pooled.median(), pooled.quantile(0.99))
        }
    };
    out.metric("setup_s", acc.get("setup_s").median());
    out.metric("ingest_eps", acc.get("ingest_eps").median() * pace);
    out.metric("recover_eps", acc.get("recover_eps").median());
    out.metric("verdict_p50_ms", p50 / pace);
    out.metric("verdict_p99_ms", p99);
    eprintln!(
        "[{mode:?}] {} rounds, {} verdict samples, host pace {:.3}",
        plan.rounds,
        acc.get("verdict_samples").sum(),
        acc.get("pace").median()
    );
    if traced {
        report_layers(mode, &acc, &mut out);
    }
    out
}

/// One round's context: what it replays, where its WAL lives, and how.
struct Round<'a> {
    mode: Mode,
    plan: &'a Plan,
    tape: &'a Tape,
    dir: &'a Path,
    traced: bool,
}

impl Round<'_> {
    /// One round on a fresh set-up: the timed replay, restarts on the
    /// round's WAL, and the fold checked against the reference (computed
    /// by the first round that needs it). Pools its samples into `acc`.
    fn run(
        &self,
        setup: Setup,
        reference: &mut Option<FoldState>,
        acc: &mut Series,
        out: &mut Outcome,
    ) {
        let Round {
            mode,
            plan,
            tape,
            dir,
            traced,
        } = *self;
        let Setup { target, sinks, .. } = setup;

        // ---- timed phase ------------------------------------------------
        let due: Vec<Vec<Duration>> = match mode {
            Mode::Ingest => Vec::new(),
            Mode::Fed => {
                let mut due = vec![Vec::new(); TAPE_ROUTERS as usize];
                for (g, (r, _)) in tape.churn_schedule().iter().enumerate() {
                    due[*r].push(Duration::from_secs_f64(g as f64 / FED_RATE));
                }
                due
            }
        };
        // The closed loop is CPU work in this process end to end: the pace
        // kernel brackets each of its rounds (see `run`).
        let pace_before = (mode == Mode::Ingest).then(pace_factor);
        // Every thread starts on the same instant, so due times agree.
        let t_start = Instant::now() + Duration::from_millis(20);
        let folded_wm = AtomicU64::new(0);
        let (logs, obs, folded) = std::thread::scope(|s| {
            let handles: Vec<_> = sinks
                .into_iter()
                .enumerate()
                .map(|(r, sink)| {
                    let (due, folded_wm) = (due.get(r).map(Vec::as_slice), &folded_wm);
                    s.spawn(move || {
                        sleep_until(t_start);
                        sender(sink, tape, r, due, t_start, folded_wm, traced)
                    })
                })
                .collect();
            sleep_until(t_start);
            let (obs, folded) = observe(&target, t_start, &folded_wm);
            let logs: Vec<SenderLog> = handles
                .into_iter()
                .map(|h| h.join().expect("sender thread panicked"))
                .collect();
            (logs, obs, folded)
        });
        if let Some(p) = pace_before {
            acc.push("round_pace", (p + pace_factor()) / 2.0);
        }
        for l in &logs {
            if let Some(e) = &l.error {
                out.gate(false, || e.clone());
            }
        }
        out.gate(folded, || {
            "the fold never reached the end of the stream".into()
        });
        let t_done = obs.last().expect("seeded").0;
        let churn = tape.churn_len();
        acc.push(
            "ingest_eps",
            churn as f64 / (t_done - t_start).as_secs_f64(),
        );

        // Per event: from when it was due (its send start, closed loop) to
        // when the global watermark first covered it.
        let mut lateness: Vec<(Duration, f64)> = Vec::new();
        let mut verdict = Samples::new();
        let mut unfolded = 0u64;
        for (r, l) in logs.iter().enumerate() {
            for (i, start) in l.starts.iter().enumerate() {
                let due_at = due.get(r).map_or(*start, |d| t_start + d[i]);
                lateness.push((
                    due_at - t_start,
                    ms(start.saturating_duration_since(due_at)),
                ));
                match covered_at(&obs, tape.churn[r][i].time) {
                    Some(at) => verdict.push(ms(at.saturating_duration_since(due_at))),
                    None => unfolded += 1,
                }
            }
            unfolded += (tape.churn[r].len() - l.starts.len()) as u64;
        }
        acc.push("verdict_samples", verdict.len() as f64);
        match mode {
            // A closed-loop round is self-contained: its quantiles, then
            // their median over the rounds, so one round stalled by the
            // host's disk does not set the run's figure.
            Mode::Ingest => {
                acc.push("verdict_p50_ms", verdict.median());
                acc.push("verdict_p99_ms", verdict.quantile(0.99));
            }
            // An open-loop round is short and its timers run at a fresh
            // phase: the quantiles pool every round's events.
            Mode::Fed => acc.extend("verdict_ms", &verdict),
        }
        if mode == Mode::Fed {
            overload_gate(&mut lateness, out);
            lateness
                .iter()
                .for_each(|(_, v)| acc.push("sched_lag_ms", *v));
        }

        // ---- shutdown ---------------------------------------------------
        let (live, stats, snaps) = match target.shutdown() {
            Ok((fold, stats, snaps)) => (FoldState::of_report(&fold), stats, snaps),
            Err(e) => {
                out.gate(false, || format!("shutdown failed: {e}"));
                return;
            }
        };
        let total = tape.len() as u64;
        out.attempted += total;
        out.failed += unfolded.max(total.saturating_sub(stats.events))
            + stats.decode_errors
            + stats.gap_events
            + stats.duplicate_events;

        // ---- restart on the same WAL -------------------------------------
        let wal_dirs: Vec<PathBuf> = match mode {
            Mode::Ingest => vec![dir.to_path_buf()],
            Mode::Fed => (0..2).map(|m| dir.join(format!("member-{m}"))).collect(),
        };
        let wal_bytes: u64 = wal_dirs.iter().map(|d| dir_bytes(d)).sum();
        // A restart may journal records of its own, so every restart starts
        // from a copy of the WAL the live run left.
        let pristine = dir.with_extension("pristine");
        if let Err(e) = copy_dir(dir, &pristine) {
            out.gate(false, || format!("cannot copy the WAL: {e}"));
            return;
        }
        for rep in 0..plan.recover_reps {
            let restored = std::fs::remove_dir_all(dir).and_then(|()| copy_dir(&pristine, dir));
            if let Err(e) = restored {
                out.gate(false, || format!("cannot restore the WAL: {e}"));
                break;
            }
            // Replaying a WAL is CPU work in this process: reported at the
            // reference host's speed, bracketed by the pace kernel before
            // the launch and after the shutdown (a launched target's
            // threads would compete with the kernel).
            let pace_before = pace_factor();
            let t0 = Instant::now();
            let target = match Target::launch(mode, tape, dir) {
                Ok(t) => t,
                Err(e) => {
                    out.gate(false, || format!("restart on the WAL failed: {e}"));
                    break;
                }
            };
            let recover = t0.elapsed();
            let replayed: usize = target
                .handles()
                .map(|h| h.recovery().map_or(0, |r| r.events_replayed))
                .sum();
            out.gate(replayed as u64 >= total, || {
                format!("recovery replayed {replayed} of {total} events")
            });
            match target.shutdown() {
                // A lone collector recovers the whole fold; a restarted
                // federation member recovers its own slice, which only the
                // peer exchange would complete.
                Ok((rec, _, _)) if mode == Mode::Ingest && rep == 0 => {
                    let rec = FoldState::of_report(&rec);
                    out.gate(rec.diff(&live).is_none(), || {
                        format!(
                            "recovered fold differs from the live one: {}",
                            rec.diff(&live).unwrap_or_default()
                        )
                    });
                }
                Ok(_) => {}
                Err(e) => out.gate(false, || format!("recovered shutdown failed: {e}")),
            }
            let pace = (pace_before + pace_factor()) / 2.0;
            acc.push("pace", pace);
            acc.push("recover_eps", replayed as f64 / recover.as_secs_f64() * pace);
        }

        let _ = std::fs::remove_dir_all(&pristine);

        // The peak of the first round: the live run and its restarts, before
        // the benchmark builds its own reference fold. Later rounds repeat
        // the same work and only add allocator fragmentation on top.
        if !out.e2e.contains_key("peak_rss_mb") {
            out.metric("peak_rss_mb", peak_rss_mb());
        }

        // ---- the live fold against the reference ----------------------
        // The traced run's stepped fold doubles as this round's reference;
        // otherwise every round of a run shares one reference of its tape.
        let stepped = traced.then(|| {
            let steps: Vec<SimTime> = obs
                .iter()
                .map(|(_, w)| w.iter().min().copied().unwrap_or(SimTime::ZERO))
                .collect();
            let fold = stepped_fold(tape, &steps);
            acc.push("hbg.ingest_ns", fold.hbg_ingest_ns);
            acc.extend("hbg.advance", &fold.hbg_advance);
            acc.push("hbg.edges", fold.hbg_edges as f64);
            acc.push("tracker.ingest_ns", fold.tracker_ingest_ns);
            acc.extend("tracker.advance", &fold.tracker_advance);
            acc.push("tracker.waits", fold.tracker_waits as f64);
            fold.state
        });
        let reference = match &stepped {
            Some(state) => state,
            None => reference
                .get_or_insert_with(|| reference_fold(tape.all_events(), TAPE_ROUTERS as usize)),
        };
        out.gate(live.diff(reference).is_none(), || {
            format!(
                "live fold differs from the in-process reference: {}",
                live.diff(reference).unwrap_or_default()
            )
        });
        let boundary = counter(&snaps, "cpvr_boundary_events_sent_total");
        if mode == Mode::Fed {
            out.gate(boundary > 0, || {
                "no boundary events crossed the federation".into()
            });
        }

        // ---- traced layer passes ----------------------------------------
        if traced {
            for l in &logs {
                acc.extend("client.send", &l.send);
                acc.extend("client.watermark", &l.watermark);
                acc.push("client.drain_ms", ms(l.drain));
                acc.push("client.reconnects", l.reconnects as f64);
                for (at, tick) in &l.promises {
                    if let Some(c) = covered_at(&obs, *tick) {
                        acc.push(
                            "collector.fold_lag_ms",
                            ms(c.saturating_duration_since(*at)),
                        );
                    }
                }
            }
            let codec = codec_pass(tape);
            out.gate(codec.decoded == tape.len(), || {
                format!(
                    "decoder returned {} of {} events",
                    codec.decoded,
                    tape.len()
                )
            });
            acc.push("codec.encode_ns", codec.encode_ns);
            acc.push("codec.decode_ns", codec.decode_ns);
            acc.push("codec.bytes_per_event", codec.bytes_per_event);
            acc.push("wal.bytes_per_event", wal_bytes as f64 / total as f64);
            let replay = acc.time("wal.replay_s", || {
                wal_dirs
                    .iter()
                    .map(|d| wal::replay_all(d, 1).map(|v| v.len()))
                    .collect::<std::io::Result<Vec<_>>>()
            });
            out.gate(replay.is_ok(), || "wal::replay_all failed".into());
            acc.push("wal.fsyncs", counter(&snaps, "cpvr_wal_syncs_total") as f64);
            if mode == Mode::Fed {
                for e in tape.churn.iter().flatten() {
                    let at: Option<Vec<Instant>> =
                        (0..2).map(|m| member_covered_at(&obs, m, e.time)).collect();
                    if let Some(at) = at {
                        let (lo, hi) = (at.iter().min().expect("2"), at.iter().max().expect("2"));
                        acc.push("federation.member_skew_ms", ms(*hi - *lo));
                    }
                }
                acc.push("federation.boundary_events", boundary as f64);
                acc.push(
                    "federation.boundary_bytes",
                    counter(&snaps, "cpvr_boundary_bytes_sent_total") as f64,
                );
                acc.push(
                    "federation.rounds",
                    counter(&snaps, "cpvr_federation_rounds_total") as f64,
                );
            }
        }
    }
}

/// Open-loop accounting: a round whose senders fall further behind
/// schedule by its last quarter than in its first has a growing backlog
/// — the offered rate is past what the system sustains — and its
/// latency is not a measurement of the stated rate.
fn overload_gate(lateness: &mut [(Duration, f64)], out: &mut Outcome) {
    lateness.sort_by_key(|(d, _)| *d);
    let q = lateness.len() / 4;
    let median = |xs: &[(Duration, f64)]| {
        let mut s = Samples::new();
        xs.iter().for_each(|(_, v)| s.push(*v));
        s.median()
    };
    let first = median(&lateness[..q]);
    let last = median(&lateness[lateness.len() - q..]);
    out.gate(last - first <= ms(FED_OVERLOAD), || {
        format!(
            "overloaded: senders ran {first:.1} ms late in the first quarter and {last:.1} ms \
             late in the last at {FED_RATE} events/s; latency not reported"
        )
    });
}

/// The per-layer metrics, from samples pooled over every round. Layers
/// a workload does not exercise stay unset and print as 0.
fn report_layers(mode: Mode, acc: &Series, out: &mut Outcome) {
    let p = |name: &str, q: f64| acc.get(name).quantile(q);
    let med = |name: &str| acc.get(name).median();
    out.layer("client.send_us_p50", p("client.send", 0.5) * 1e6);
    out.layer("client.send_us_p99", p("client.send", 0.99) * 1e6);
    out.layer("client.watermark_ms_p50", p("client.watermark", 0.5) * 1e3);
    out.layer("client.watermark_ms_p99", p("client.watermark", 0.99) * 1e3);
    out.layer("client.drain_ms", med("client.drain_ms"));
    out.layer("client.sched_lag_p99_ms", p("sched_lag_ms", 0.99));
    out.layer("client.reconnects", acc.get("client.reconnects").sum());
    for name in [
        "codec.encode_ns",
        "codec.decode_ns",
        "codec.bytes_per_event",
        "wal.bytes_per_event",
        "wal.replay_s",
        "wal.fsyncs",
        "hbg.ingest_ns",
        "hbg.edges",
        "tracker.ingest_ns",
        "tracker.waits",
        "sim.tape_s",
    ] {
        out.layer(name, med(name));
    }
    out.layer("collector.fold_lag_ms_p50", p("collector.fold_lag_ms", 0.5));
    out.layer(
        "collector.fold_lag_ms_p99",
        p("collector.fold_lag_ms", 0.99),
    );
    out.layer("hbg.advance_us_p50", p("hbg.advance", 0.5) * 1e6);
    out.layer("hbg.advance_us_p99", p("hbg.advance", 0.99) * 1e6);
    out.layer("tracker.advance_us_p50", p("tracker.advance", 0.5) * 1e6);
    out.layer("tracker.advance_us_p99", p("tracker.advance", 0.99) * 1e6);
    if mode == Mode::Fed {
        out.layer("federation.launch_s", med("federation.launch_s"));
        out.layer(
            "federation.member_skew_ms_p99",
            p("federation.member_skew_ms", 0.99),
        );
        for name in [
            "federation.boundary_events",
            "federation.boundary_bytes",
            "federation.rounds",
        ] {
            out.layer(name, med(name));
        }
    }
    // The traced run's own end-to-end figures: against the untraced
    // runs' `ingest_eps` and `verdict_p50_ms` they give the overhead.
    for (traced, e2e) in [
        ("trace.ingest_eps", "ingest_eps"),
        ("trace.verdict_p50_ms", "verdict_p50_ms"),
    ] {
        out.layer(traced, out.e2e[e2e]);
    }
}

/// Copies the regular files under `from` into a new tree at `to`.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dst = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dst)?;
        } else {
            std::fs::copy(entry.path(), dst)?;
        }
    }
    Ok(())
}

/// A counter summed over every member's snapshot.
fn counter(snaps: &[Snapshot], name: &str) -> u64 {
    snaps.iter().map(|s| s.counter_total(name)).sum()
}
