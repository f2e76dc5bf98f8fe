//! The repository's benchmark: four INP workloads measured end to end and
//! layer by layer, from outside the crates. See `benchmark/README.md` for
//! the definitions and `BENCHMARK.json` for names, units and bounds.
//!
//! One process runs one workload once: set-up (several times, the median
//! is `setup_s`), warm-up rounds, measured rounds of equal work until
//! `--seconds` have passed, and — with `--trace 1` — traced rounds
//! interleaved with untraced ones plus a probe pass that replays the run's
//! inputs into each layer's public functions.

pub mod bed;
pub mod drive;
pub mod gen;
pub mod os;
pub mod probe;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;

/// The four workloads. Names are fixed: `BENCHMARK.json` lists them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Waves of 64 fresh clients, full Figure-4 exchange, in-memory rings.
    ColdLoopback,
    /// Six warm clients fetching v1 of ~135 KB pages, checksummed frames.
    WarmFetch,
    /// Waves of 128 cold sessions through two shards over loopback TCP.
    TcpWave,
    /// `ColdLoopback`'s readers beside an open-loop publish/push writer.
    RepublishMixed,
}

impl Workload {
    /// Every workload, in the order the suite runs them.
    pub const ALL: [Workload; 4] =
        [Workload::ColdLoopback, Workload::WarmFetch, Workload::TcpWave, Workload::RepublishMixed];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdLoopback => "cold_loopback",
            Workload::WarmFetch => "warm_fetch",
            Workload::TcpWave => "tcp_wave",
            Workload::RepublishMixed => "republish_mixed",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What the traffic crosses. Never a real link.
    pub fn path(self) -> &'static str {
        match self {
            Workload::TcpWave => "host loopback interface (127.0.0.1 TCP), not a real link",
            _ => "in-memory 4 KB rings inside one process, not a real link",
        }
    }
}

/// How much work one run does. `full` is what `BENCHMARK.json` describes;
/// `quick` is the smoke size `run.sh --quick` and the self-tests use.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Sessions handed to the program at once.
    pub wave: usize,
    /// Waves per round; every round offers the same sessions in the same
    /// order.
    pub waves_per_round: usize,
    /// Rounds run and discarded before measuring.
    pub warmup_rounds: usize,
    /// Fewest measured rounds, however short `--seconds` is.
    pub min_rounds: usize,
    /// How many times set-up runs before the first round (a full-size run
    /// sets up once more after every measured round); `setup_s` is the
    /// median.
    pub setups: usize,
    /// Wall time one probe may take, ms.
    pub probe_ms: u64,
}

impl Shape {
    /// The shape of `workload`, full size or quick.
    pub fn of(workload: Workload, quick: bool) -> Shape {
        let (wave, waves_per_round) = match (workload, quick) {
            (Workload::ColdLoopback | Workload::RepublishMixed, false) => (64, 32),
            (Workload::ColdLoopback | Workload::RepublishMixed, true) => (64, 2),
            (Workload::WarmFetch, false) => (6, 48),
            (Workload::WarmFetch, true) => (6, 4),
            (Workload::TcpWave, false) => (128, 16),
            (Workload::TcpWave, true) => (96, 1),
        };
        let warmup_rounds = if quick { 1 } else { 2 };
        if quick {
            Shape { wave, waves_per_round, warmup_rounds, min_rounds: 2, setups: 1, probe_ms: 5 }
        } else {
            Shape { wave, waves_per_round, warmup_rounds, min_rounds: 3, setups: 3, probe_ms: 60 }
        }
    }

    /// Sessions in one round.
    pub fn round_sessions(&self) -> usize {
        self.wave * self.waves_per_round
    }
}

/// One run's command line.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Drives page content and session order.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Per-layer run (traced rounds + probe pass) instead of end-to-end.
    pub trace: bool,
    /// Smoke size.
    pub quick: bool,
    /// Where to write the raw spans of a traced run, if anywhere.
    pub spans_out: Option<std::path::PathBuf>,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run found.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Every session's decision and decoded bytes were right, nothing
    /// failed, stalled or was refused, and every cross-check held.
    pub correct: bool,
    /// Sessions handed off during the measured rounds.
    pub attempted: u64,
    /// Of those, how many failed, stalled, or decoded wrongly.
    pub failed: u64,
    /// The metrics: end-to-end ones untraced, per-layer ones traced.
    pub metrics: Vec<Metric>,
    /// Context lines for the human reader (round counts, quartiles, the
    /// probe budget, span roll-up).
    pub notes: Vec<String>,
}

impl RunOutput {
    /// The contract's result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
