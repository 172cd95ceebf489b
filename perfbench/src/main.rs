//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--steady RUNS]
//! ```
//!
//! Runs one workload in this process, checks its outputs, and prints two
//! JSON lines on stdout: an information line (provenance, sample counts,
//! work counters) and, last, the result:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer metrics of the traced run
//! and writes its spans under `out/`. `--steady RUNS` re-runs the workload
//! in fresh processes on consecutive seeds and prints the spread of every
//! metric. The exit code is non-zero when any operation or check failed.
//! See README.md for the workloads, metrics and how they relate.

mod checks;
mod daemon_mix;
mod host;
mod report;
mod spans;
mod stats;
mod steady;
mod traced;
mod workload;

use pandora_exec::ExecCtx;
use pandora_hdbscan::daemon::json::Json;
use std::process::ExitCode;

use crate::host::{peak_rss_mb, Provenance};
use crate::report::{Metrics, Tally};
use crate::spans::Recorder;
use crate::stats::{median, percentile, samples_beyond, sorted, supports};
use crate::workload::{lifecycle, Kind};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut steady) = (1u64, 20.0f64, false, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Kind::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--steady" => {
                steady = Some(value()?.parse().map_err(|e| format!("--steady: {e}"))?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    let workload = workload.ok_or(format!("--workload is required ({})", names.join(", ")))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        steady,
    })
}

fn main() -> ExitCode {
    // Before any other thread exists and before the pipeline reads them.
    let provenance = Provenance::capture_and_clear_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        return steady::report(&args, runs);
    }
    let mut tally = Tally::default();
    let mut info = vec![(
        "provenance",
        provenance.to_json(args.workload.name(), args.seed),
    )];
    let metrics = if args.trace {
        traced_run(&args, &mut tally)
    } else {
        untraced_run(&args, &mut tally, &mut info)
    };
    println!("{}", Json::obj(info));
    let correct = tally.failed == 0;
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(tally.attempted.max(1) as i64)),
        ("failed", Json::Int(tally.failed as i64)),
        ("metrics", metrics.to_json()),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// End-to-end metrics with tracing off.
fn untraced_run(args: &Args, tally: &mut Tally, info: &mut Vec<(&'static str, Json)>) -> Metrics {
    let mut m = Metrics::default();
    let kind = args.workload;
    let plan = kind.plan();
    let served = |draw| kind.served(args.seed, draw);
    let run = daemon_mix::with_mix(
        &served,
        args.seed,
        plan.mix,
        plan.setup_loads,
        tally,
        None,
        |windows, tally| lifecycle(kind, args.seed, args.seconds, tally, windows),
    );
    let Some((Some(life), mix)) = run else {
        tally.check("lifecycle", false, || "no complete lifecycle".into());
        return m;
    };
    let last = &life.last;
    let session = checks::same_result(&last.warm, &last.cold);
    tally.check("session ≡ one-shot", session.is_ok(), || {
        format!("{session:?}")
    });
    let loop_input = last.mst.src == last.cold.mst.src
        && last.mst.dst == last.cold.mst.dst
        && checks::same_dendrogram(&last.alpha, &last.cold.dendrogram);
    tally.check("dendrogram loop ≡ pipeline", loop_input, || {
        "dendrogram loop input or output differs from the pipeline's".into()
    });
    let differential = checks::dendrogram_differential(
        &ExecCtx::threads(),
        &last.raw_edges,
        &last.mst,
        &last.alpha,
    );
    tally.check("dendrogram differential", differential.is_ok(), || {
        format!("{differential:?}")
    });
    if let Some(truth) = &last.truth {
        let ok = checks::planted(&last.cold.labels, truth, workload::BLOBS);
        tally.check("planted clusters", ok.is_ok(), || format!("{ok:?}"));
    }

    let reads = sorted(&mix.read_s);
    let p95 = supports(reads.len(), 0.95)
        .then(|| percentile(&reads, 0.95))
        .flatten();
    tally.check("p95 sample", p95.is_some(), || {
        format!("{} reads cannot support a p95", reads.len())
    });

    let setup = if kind == Kind::DaemonMixed {
        &mix.setup_load_s
    } else {
        &life.freeze_s
    };
    m.put("setup_s", "s", median(setup));
    m.put("cold_s", "s", median(&life.cold_s));
    m.put("first_request_s", "s", median(&life.first_s));
    m.put("warm_request_s", "s", median(&life.warm_s));
    m.put(
        "dendro_medges_s",
        "Medges/s",
        median(&life.dendro_s).map(|t| (life.n - 1) as f64 / 1e6 / t),
    );
    let (done, wall) = mix
        .windows
        .iter()
        .fold((0, 0.0), |(d, w), &(done, wall)| (d + done, w + wall));
    m.put("daemon_rps", "req/s", Some(done as f64 / wall));
    m.put("daemon_p50_ms", "ms", median(&mix.read_s).map(|s| s * 1e3));
    m.put("daemon_p95_ms", "ms", p95.map(|s| s * 1e3));
    m.put("peak_rss_mb", "MB", peak_rss_mb());

    let count = |v: usize| Json::Int(v as i64);
    info.push((
        "samples",
        Json::obj(vec![
            ("n", count(life.n)),
            ("rounds", count(life.cold_s.len())),
            ("cold", count(life.cold_s.len())),
            ("setup", count(setup.len())),
            ("first", count(life.first_s.len())),
            ("warm", count(life.warm_s.len())),
            ("dendro", count(life.dendro_s.len())),
            ("daemon_reads", count(reads.len())),
            (
                "daemon_p95_beyond",
                count(samples_beyond(reads.len(), 0.95)),
            ),
            ("daemon_reloads", count(mix.reload_s.len())),
            (
                "daemon_windows",
                Json::Arr(
                    mix.windows
                        .iter()
                        .map(|&(done, wall)| {
                            Json::Arr(vec![Json::Int(done as i64), Json::Float(wall)])
                        })
                        .collect(),
                ),
            ),
            ("daemon_completed", count(mix.completed)),
        ]),
    ));
    let c = mix.counters;
    let int = |v: u64| Json::Int(v as i64);
    info.push((
        "work",
        Json::obj(vec![
            ("session_witness_hits", int(life.witness_hits)),
            ("session_researches", int(life.researches)),
            ("daemon_witness_hits", int(mix.boruvka.witness_hits)),
            ("daemon_researches", int(mix.boruvka.researches)),
            ("daemon_snapshot_adopts", int(mix.boruvka.snapshot_adopts)),
            ("engine_runs", int(c.map_or(0, |c| c.engine_runs))),
            ("coalesced", int(c.map_or(0, |c| c.coalesced))),
            ("shed", int(c.map_or(0, |c| c.shed))),
        ]),
    ));
    m
}

/// Per-layer metrics from the traced run; spans are written once, at the end.
fn traced_run(args: &Args, tally: &mut Tally) -> Metrics {
    let kind = args.workload;
    let rec = Recorder::new();
    let m = traced::run_traced(kind, args.seed, tally, &rec);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.json", kind.name(), args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, rec.to_json().to_string()));
    tally.op(
        "write spans",
        written.map_err(|e| format!("{}: {e}", path.display())),
    );
    m
}
