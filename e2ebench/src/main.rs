//! Capture → verdict benchmark for the CPVR workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload bgp-ingest|bgp-fed|guard-repair --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed`, and `metrics` — every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. Exits 1 when a correctness gate fails. Scratch files
//! (WALs) live under `.bench_tmp/` in the working directory and are
//! removed before exit. See `e2ebench/README.md` for what each workload
//! and metric means.

mod bgp;
mod guard;
mod layers;
mod measure;
mod reference;
mod tape;

use measure::{peak_rss_mb, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics and their units, in print order. Mirrors
/// `end_to_end` in `BENCHMARK.json` (a test holds the two equal).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_eps", "1/s"),
    ("recover_eps", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units, in print order. Mirrors
/// `per_layer` in `BENCHMARK.json`. A layer idle on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.send_us_p50", "us"),
    ("client.send_us_p99", "us"),
    ("client.watermark_ms_p50", "ms"),
    ("client.watermark_ms_p99", "ms"),
    ("client.drain_ms", "ms"),
    ("client.sched_lag_p99_ms", "ms"),
    ("client.reconnects", "count"),
    ("codec.encode_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("codec.bytes_per_event", "B"),
    ("wal.bytes_per_event", "B"),
    ("wal.replay_s", "s"),
    ("wal.fsyncs", "count"),
    ("collector.fold_lag_ms_p50", "ms"),
    ("collector.fold_lag_ms_p99", "ms"),
    ("federation.launch_s", "s"),
    ("federation.member_skew_ms_p99", "ms"),
    ("federation.boundary_events", "count"),
    ("federation.boundary_bytes", "B"),
    ("federation.rounds", "count"),
    ("hbg.ingest_ns", "ns"),
    ("hbg.advance_us_p50", "us"),
    ("hbg.advance_us_p99", "us"),
    ("hbg.edges", "count"),
    ("tracker.ingest_ns", "ns"),
    ("tracker.advance_us_p50", "us"),
    ("tracker.advance_us_p99", "us"),
    ("tracker.waits", "count"),
    ("verify.build_ms", "ms"),
    ("verify.apply_us_p50", "us"),
    ("verify.apply_us_p99", "us"),
    ("verify.report_ms", "ms"),
    ("repair.root_cause_ms", "ms"),
    ("repair.prove_ms", "ms"),
    ("repair.gate_ms", "ms"),
    ("repair.reproduced_frac", "ratio"),
    ("sim.tape_s", "s"),
    ("sim.run_until_ms", "ms"),
    ("trace.ingest_eps", "1/s"),
    ("trace.verdict_p50_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} takes a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)?.max(1),
            "--trace" => args.trace = num(&value)? != 0,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Renders the result line against the schema: every listed metric,
/// with its unit, keeping all digits.
fn result_line(out: &Outcome, trace: bool) -> String {
    let (schema, values) = if trace {
        (PER_LAYER, &out.layers)
    } else {
        (END_TO_END, &out.e2e)
    };
    let metrics: Vec<String> = schema
        .iter()
        .map(|(name, unit)| {
            let v = values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let work =
        PathBuf::from(".bench_tmp").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("e2ebench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let mut out = match args.workload.as_str() {
        "bgp-ingest" => bgp::run(
            bgp::Mode::Ingest,
            args.seed,
            args.seconds,
            args.trace,
            &work,
        ),
        "bgp-fed" => bgp::run(bgp::Mode::Fed, args.seed, args.seconds, args.trace, &work),
        "guard-repair" => guard::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("e2ebench: unknown workload {other} (bgp-ingest, bgp-fed, guard-repair)");
            let _ = std::fs::remove_dir_all(&work);
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_tmp");
    if !out.e2e.contains_key("peak_rss_mb") {
        out.metric("peak_rss_mb", peak_rss_mb());
    }
    for p in &out.problems {
        eprintln!("e2ebench: FAILED: {p}");
    }
    println!("{}", result_line(&out, args.trace));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must declare exactly the metrics this program
    /// prints, with the same units.
    #[test]
    fn schema_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json next to e2ebench/");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = doc.find(&format!("\"{key}\"")).expect("section present");
            let body = &doc[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = open + rest[open..].find('"').expect("value closes");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let want = |s: &[(&str, &str)]| -> Vec<(String, String)> {
            s.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), want(END_TO_END));
        assert_eq!(section("per_layer"), want(PER_LAYER));
    }
}
