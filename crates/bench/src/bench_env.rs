//! Provenance stamp shared by every `BENCH_*.json` writer.
//!
//! A benchmark number without its host and commit is unreproducible: the
//! capacity knees depend on core count, the interpreter speedups on both.
//! [`BenchEnv::capture`] records the machine and the exact source revision
//! once, and [`BenchEnv::members`] yields them as the common object
//! members so every `BENCH_*.json` stays comparable across CI runs and
//! laptops.

use crate::json::Json;

/// Host and revision the benchmark ran on, plus the I/O configuration the
/// numbers were measured under.
pub struct BenchEnv {
    /// `available_parallelism` of the host (1 when unknown).
    pub host_cpus: usize,
    /// Git commit: `GITHUB_SHA` in CI, `git rev-parse HEAD` locally,
    /// `"unknown"` outside a checkout.
    pub git_sha: String,
    /// Transport the bytes crossed: `"loopback"` (in-memory ring),
    /// `"simlink"` (simulated links), `"queueing-model"` (no bytes move),
    /// or a combination.
    pub transport: String,
    /// Adversity scenario this row came from, with the fault seed that
    /// drove it — `None` outside the scenario soak driver. A scenario row
    /// without its seed is unreplayable, so the two travel together.
    pub scenario: Option<(String, u64)>,
}

impl BenchEnv {
    /// Captures the current host and revision. Defaults to the in-memory
    /// loopback transport; benches that drive something else override via
    /// [`BenchEnv::with_transport`].
    pub fn capture() -> BenchEnv {
        let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let git_sha = std::env::var("GITHUB_SHA")
            .ok()
            .or_else(git_head)
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into());
        BenchEnv { host_cpus, git_sha, transport: "loopback".into(), scenario: None }
    }

    /// Stamps the transport kind the session bytes crossed.
    pub fn with_transport(mut self, transport: &str) -> BenchEnv {
        self.transport = transport.into();
        self
    }

    /// Stamps the adversity scenario and the fault seed that drove it —
    /// every `BENCH_scenarios.json` row carries both, so any row can be
    /// replayed with `--scenario <name>` under the same seed.
    pub fn with_scenario(mut self, name: &str, seed: u64) -> BenchEnv {
        self.scenario = Some((name.into(), seed));
        self
    }

    /// The provenance members every `BENCH_*.json` object carries, in
    /// their fixed order.
    pub fn members(&self) -> Vec<(&'static str, Json)> {
        let mut members = vec![
            ("host_cpus", self.host_cpus.into()),
            ("git_sha", self.git_sha.as_str().into()),
            ("transport", self.transport.as_str().into()),
        ];
        if let Some((name, seed)) = &self.scenario {
            members.extend([("scenario", name.as_str().into()), ("fault_seed", (*seed).into())]);
        }
        members
    }
}

fn git_head() -> Option<String> {
    let out = std::process::Command::new("git").args(["rev-parse", "HEAD"]).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_yields_usable_stamp() {
        let env = BenchEnv::capture();
        assert!(env.host_cpus >= 1);
        assert!(!env.git_sha.is_empty());
        // Either a real 40-hex sha or the explicit sentinel — never noise.
        assert!(
            env.git_sha == "unknown" || env.git_sha.chars().all(|c| c.is_ascii_hexdigit()),
            "{}",
            env.git_sha
        );
    }

    #[test]
    fn members_carry_the_stamp_in_order() {
        let env = BenchEnv::capture().with_transport("simlink");
        let env = BenchEnv { host_cpus: 8, git_sha: "abc123".into(), ..env };
        assert_eq!(
            Json::object(env.members()).emit(),
            "{\n  \"host_cpus\": 8,\n  \"git_sha\": \"abc123\",\n  \"transport\": \"simlink\"\n}\n"
        );
    }

    #[test]
    fn scenario_stamp_carries_name_and_seed() {
        let plain = BenchEnv::capture();
        assert!(plain.scenario.is_none());
        assert_eq!(plain.members().len(), 3);
        let stamped = Json::object(plain.with_scenario("lossy_link", 0xC0FFEE).members());
        assert_eq!(stamped.get("scenario"), Some(&Json::Str("lossy_link".into())));
        assert_eq!(stamped.get("fault_seed"), Some(&Json::Int(0xC0FFEE)));
    }

    #[test]
    fn capture_defaults_to_loopback() {
        assert_eq!(BenchEnv::capture().transport, "loopback");
    }
}
