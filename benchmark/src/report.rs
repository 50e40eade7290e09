//! What a run prints: the manifest line and, last, the result object.

use serde_json::Value;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The outcome of one run.
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Whether every output check held.
    pub correct: bool,
    /// Metrics, all of one kind (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Run facts: samples, digest, exact counts.
    pub manifest: Vec<(&'static str, Value)>,
}

fn s(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

/// Commit of the checkout, read from `.git` in the working directory only.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// The run manifest: who ran what, where, with how many samples.
pub fn manifest(workload: &str, seed: u64, seconds: u64, trace: bool, o: &Outcome) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut m = vec![
        ("workload".to_string(), s(workload)),
        ("seed".into(), Value::U64(seed)),
        ("seconds".into(), Value::U64(seconds)),
        ("trace".into(), Value::Bool(trace)),
        ("nproc".into(), Value::U64(nproc as u64)),
        ("commit".into(), s(commit())),
        ("rustc".into(), s(env!("BENCH_RUSTC_VERSION"))),
    ];
    m.extend(o.manifest.iter().map(|(k, v)| (k.to_string(), v.clone())));
    Value::Map(m)
}

/// The final line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(o: &Outcome) -> String {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            let v = Value::Map(vec![
                ("value".into(), Value::F64(m.value)),
                ("unit".into(), s(m.unit)),
            ]);
            (m.name.to_string(), v)
        })
        .collect();
    let v = Value::Map(vec![
        ("correct".into(), Value::Bool(o.correct)),
        ("attempted".into(), Value::U64(o.attempted)),
        ("failed".into(), Value::U64(o.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&v).expect("result serializes")
}
