//! Host and provenance block attached to every result, plus the
//! environment hygiene that keeps the code under test fixed.

use std::process::{Command, Stdio};

use pandora_exec::ExecCtx;
use pandora_hdbscan::daemon::json::Json;

/// Variables that select other code paths in the program: each is
/// recorded, then cleared before any pipeline code reads it.
pub const CLEARED_ENV: [&str; 3] = [
    "PANDORA_DENDROGRAM",
    "PANDORA_LINKAGE",
    "PANDORA_QUEUE_DEPTH",
];

/// Sets the pool width; recorded, not cleared (the lane count is reported).
pub const THREADS_ENV: &str = "PANDORA_THREADS";

/// The provenance block: recorded environment values plus host facts.
pub struct Provenance {
    env: Vec<(&'static str, Option<String>)>,
}

impl Provenance {
    /// Records the code-path variables and clears the ones that select a
    /// backend, linkage or queue depth. Must run before any other thread
    /// exists and before the pipeline reads its environment.
    pub fn capture_and_clear_env() -> Self {
        let mut env = vec![(THREADS_ENV, std::env::var(THREADS_ENV).ok())];
        for name in CLEARED_ENV {
            env.push((name, std::env::var(name).ok()));
            std::env::remove_var(name);
        }
        Self { env }
    }

    /// The block as JSON, with `seed` and the workload it describes.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let env = self
            .env
            .iter()
            .map(|(k, v)| {
                let value = v.clone().map_or(Json::Null, Json::Str);
                ((*k).to_string(), value)
            })
            .collect();
        let opt = |v: Option<String>| v.map_or(Json::Null, Json::Str);
        Json::obj(vec![
            ("workload", Json::Str(workload.to_string())),
            ("seed", Json::Int(seed as i64)),
            (
                "nproc",
                Json::Int(
                    std::thread::available_parallelism()
                        .map_or(0, |n| n.get())
                        .try_into()
                        .unwrap_or(0),
                ),
            ),
            ("cpu_model", opt(cpu_model())),
            ("pool_lanes", Json::Int(ExecCtx::threads().lanes() as i64)),
            ("rustc", opt(command_line("rustc", &["--version"]))),
            ("git_sha", opt(command_line("git", &["rev-parse", "HEAD"]))),
            ("env", Json::Obj(env)),
            (
                "env_cleared",
                Json::Arr(
                    CLEARED_ENV
                        .iter()
                        .map(|k| Json::Str(k.to_string()))
                        .collect(),
                ),
            ),
        ])
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// First output line of a short command, or `None` if it fails (a checkout
/// without git, for example). The child is waited for before returning.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// Peak resident set of this process in MB (`VmHWM`, kB / 1024).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
