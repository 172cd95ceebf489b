//! Operation accounting and the metric set a run prints.

use std::fmt::Display;
use std::time::Instant;

use pandora_hdbscan::daemon::json::Json;

/// Operations attempted and failed in one run. A failed operation is an
/// `Err`, a wire error, a shed request or a failed output check.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; a failure is reported on stderr.
    pub fn op<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: FAILED {what}: {e}");
                None
            }
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        let result = if ok { Ok(()) } else { Err(detail()) };
        self.op(what, result);
    }

    /// Counts `n` operations that succeeded.
    pub fn ok(&mut self, n: usize) {
        self.attempted += n as u64;
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds a metric; a missing value (an empty sample) is skipped, so a
    /// gap in the result shows as a missing key rather than a made-up 0.
    pub fn put(&mut self, name: &str, unit: &'static str, value: Option<f64>) {
        match value {
            Some(v) if v.is_finite() => self.entries.push((name.to_string(), v, unit)),
            _ => eprintln!("perfbench: metric {name} has no value"),
        }
    }

    /// Counter convenience (exact integer counts).
    pub fn count(&mut self, name: &str, value: u64) {
        self.put(name, "count", Some(value as f64));
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.entries
                .iter()
                .map(|(name, value, unit)| {
                    let v = Json::obj(vec![
                        ("value", Json::Float(*value)),
                        ("unit", Json::Str((*unit).to_string())),
                    ]);
                    (name.clone(), v)
                })
                .collect(),
        )
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
