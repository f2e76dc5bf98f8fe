//! c100k: thousands of *live kernel-socket* INP sessions at once.
//!
//! Every other bench moves bytes through in-memory rings or simulated
//! links. This one answers the systems question those can't: does the
//! event engine hold up against real `TcpStream`s — EAGAIN flag churn,
//! short writes at the socket buffer, FIN ordering — at four-digit
//! concurrency? The sweep drives the same session population through the
//! [`ShardedReactor`] at 1/2/4/8 shards: one loopback acceptor deals
//! connections round-robin to N reactor threads, each owning a private
//! poll(2) poller and a private telemetry registry, all sharing the one
//! `&self` proxy/server/PAD-repo trio.
//!
//! Checked invariants, every row:
//!
//! * **all sessions complete** — a quiet shard surfaces as a typed
//!   [`InpError::Stalled`](fractal_core::error::InpError) naming the stuck
//!   sessions, never a hang;
//! * **peak in-flight = the full population** — admission finishes before
//!   any shard pumps, so the concurrency claim is real, not pipelined;
//! * **decision identity** — every session's negotiated PAD chain is
//!   fingerprinted against the serial in-memory oracle (`proxy.negotiate`
//!   per client environment, computed before any sockets exist);
//! * **telemetry reconciliation** — each shard's registry must agree
//!   exactly with its reactor report, and the merged snapshot with the
//!   aggregate.
//!
//! Results land as the `"c100k"` section of `BENCH_throughput.json`
//! (spliced in next to the thread-sweep results; `--smoke` builds and
//! reads back the spliced document but skips the write, and trims to a
//! few hundred sessions on 2 shards — the CI gate).
//!
//! On a single-CPU host the shard sweep measures scheduling and dispatch
//! overhead, not parallel speedup — N shard threads time-slicing one core
//! can come out well below the serial row. The rows are still the point:
//! every invariant above must hold at every shard count, and the
//! latency/throughput numbers document what sharding costs when the
//! hardware can't pay it back. Speedup claims need real cores.

#[cfg(not(unix))]
fn main() {
    eprintln!("c100k needs a Unix host: the TCP transport rides on poll(2).");
    std::process::exit(2);
}

#[cfg(unix)]
fn main() {
    imp::main()
}

#[cfg(unix)]
mod imp {
    use std::time::{Duration, Instant};

    use fractal_bench::bench_env::BenchEnv;
    use fractal_bench::fig9a::client_env;
    use fractal_bench::fingerprint;
    use fractal_bench::json::Json;
    use fractal_bench::report::{print_phase_latencies, render_table};
    use fractal_core::introspect::{http_get, response_body, IntrospectServer, IntrospectSource};
    use fractal_core::reactor::{InpSession, ReactorConfig, PHASE_METRICS};
    use fractal_core::server::AdaptiveContentMode;
    use fractal_core::shard::ShardedReactor;
    use fractal_core::sys::raise_nofile_limit;
    use fractal_core::testbed::Testbed;
    use fractal_telemetry::Snapshot;

    /// Shard counts the full sweep drives.
    const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];

    /// Concurrent sessions in the full sweep (the "C100k direction"
    /// floor from the acceptance bar: ≥ 5000 live sockets at once means
    /// ≥ 10000 fds in the process).
    const FULL_SESSIONS: usize = 5_000;

    /// Concurrent sessions under `--smoke`.
    const SMOKE_SESSIONS: usize = 256;

    /// File descriptors beyond the session sockets (listener, stdio,
    /// wakeup margins).
    const FD_HEADROOM: u64 = 64;

    struct Row {
        shards: usize,
        sessions_per_sec: f64,
        /// Per-phase (p50 ns, p99 ns) in [`PHASE_METRICS`] order.
        phase_ns: [(u64, u64); 5],
        polls: u64,
    }

    /// The `"c100k"` member spliced into `BENCH_throughput.json`.
    fn section(n_sessions: usize, env: &BenchEnv, rows: &[Row], telem: &Snapshot) -> Json {
        let rows: Vec<Json> = rows
            .iter()
            .map(|r| {
                let phases = PHASE_METRICS.iter().zip(r.phase_ns).map(|(name, (p50, p99))| {
                    let short = name.strip_prefix("fractal_inp_phase_ns_").unwrap_or(name);
                    (short, Json::object([("p50_ns", p50.into()), ("p99_ns", p99.into())]))
                });
                Json::object([
                    ("shards", r.shards.into()),
                    ("sessions_per_sec", Json::rounded(r.sessions_per_sec, 0)),
                    ("peak_in_flight", n_sessions.into()),
                    ("polls", r.polls.into()),
                    ("phase_ns", Json::object(phases)),
                ])
            })
            .collect();
        let mut section = vec![("sessions", n_sessions.into())];
        section.extend(env.members());
        section.extend([
            ("decisions_identical_with_serial_oracle", Json::Bool(true)),
            ("rows", Json::Arr(rows)),
            ("telemetry", telem.into()),
        ]);
        Json::object(section)
    }

    pub fn main() {
        let args: Vec<String> = std::env::args().collect();
        let smoke = args.iter().any(|a| a == "--smoke");
        // `--introspect <port>` starts the live observability sidecar
        // (port 0 = ephemeral; the bound address is printed either way).
        let introspect_port: Option<u16> =
            args.iter().position(|a| a == "--introspect").map(|ix| {
                args.get(ix + 1)
                    .and_then(|p| p.parse().ok())
                    .expect("--introspect needs a port (0 for ephemeral)")
            });
        let mut n_sessions = if smoke { SMOKE_SESSIONS } else { FULL_SESSIONS };
        let sweep: &[usize] = if smoke { &SHARD_SWEEP[1..2] } else { &SHARD_SWEEP };
        let stall_timeout = Duration::from_secs(if smoke { 10 } else { 30 });

        // Each live session is two sockets (client end + service end).
        // Raise the soft RLIMIT_NOFILE toward the hard cap; if the hard
        // cap still can't hold the target population, shrink it instead
        // of dying on EMFILE mid-accept.
        let needed = 2 * n_sessions as u64 + FD_HEADROOM;
        let in_force = raise_nofile_limit(needed).unwrap_or(needed);
        if in_force < needed {
            n_sessions = ((in_force - FD_HEADROOM) / 2) as usize;
            println!("fd limit {in_force} < {needed}: scaling down to {n_sessions} sessions\n");
        }

        let env = BenchEnv::capture()
            .with_shards(*sweep.iter().max().expect("sweep non-empty"))
            .with_transport("tcp-loopback");
        println!(
            "c100k: {n_sessions} concurrent INP sessions over live loopback TCP, \
             shard sweep {sweep:?} (host has {} cpu(s), rev {})\n",
            env.host_cpus, env.git_sha
        );

        let introspect = introspect_port.map(|port| {
            let source = IntrospectSource::new();
            let server =
                IntrospectServer::spawn(port, source.clone()).expect("bind introspection endpoint");
            println!(
                "introspection plane live at http://{} (/metrics /healthz /journal /stalls)\n",
                server.addr()
            );
            (server, source)
        });

        let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
        let content_id = 0;
        tb.server.publish(content_id, vec![5u8; 4_000]);
        let tb = tb;

        // Serial in-memory oracle: the proxy's direct decision for every
        // client environment, computed before a single socket exists.
        let oracle: Vec<u64> = (0..n_sessions)
            .map(|i| fingerprint(&tb.proxy.negotiate(tb.app_id, client_env(i)).unwrap()))
            .collect();

        let mut rows: Vec<Row> = Vec::new();
        let mut last_snapshot = Snapshot::default();
        for (row_ix, &shards) in sweep.iter().enumerate() {
            let sessions: Vec<InpSession> = (0..n_sessions)
                .map(|i| {
                    // Journal labels are sweep-global so post-mortem
                    // `/journal?session=` queries are unambiguous.
                    InpSession::new(tb.client_with_env(client_env(i)), tb.app_id, content_id, 0)
                        .with_label((row_ix * n_sessions + i) as u64)
                })
                .collect();
            // Cold proxy per row: rows measure the engine, not cache
            // carry-over from the oracle or the previous shard count.
            tb.proxy.clear_adaptation_state();

            let mut cfg = ReactorConfig::new().stall_timeout(stall_timeout);
            if let Some((_, source)) = &introspect {
                cfg = cfg.introspect(source.clone());
            }
            let reactor =
                ShardedReactor::with_config(&tb.proxy, &tb.server, &tb.pad_repo, shards, cfg);
            let start = Instant::now();
            let outcome = reactor.run(sessions).expect("no sharded session may stall");
            let wall = start.elapsed().as_secs_f64();

            let agg = outcome.aggregate_report();
            assert_eq!(agg.completed, n_sessions, "every session must complete");
            assert_eq!(agg.failed, 0, "no session may fail");
            assert_eq!(
                agg.peak_in_flight, n_sessions,
                "all {n_sessions} sessions must be live at once (summed shard peaks)"
            );
            outcome.reconcile().expect("per-shard telemetry must reconcile with reports");

            let merged = outcome.merged_snapshot();
            print_phase_latencies(&format!("{shards} shard(s) (merged over shards)"), &merged);
            let phase_ns = std::array::from_fn(|i| {
                let h = &merged.histograms[PHASE_METRICS[i]];
                (h.quantile(0.50), h.quantile(0.99))
            });
            last_snapshot = outcome.labeled_snapshot();

            let decisions: Vec<u64> = outcome
                .into_sessions()
                .iter()
                .map(|s| fingerprint(s.negotiated().expect("session negotiated")))
                .collect();
            assert_eq!(
                decisions, oracle,
                "socket-backed decisions diverged from the serial oracle at {shards} shards"
            );

            rows.push(Row {
                shards,
                sessions_per_sec: n_sessions as f64 / wall,
                phase_ns,
                polls: agg.polls,
            });
        }

        // Acceptance check for the observability plane: a real-TCP scrape
        // of the quiescent plane must reconcile *exactly* with the
        // in-process merged snapshot — same render, byte for byte.
        if let Some((server, source)) = &introspect {
            let resp = http_get(server.addr(), "/metrics").expect("introspection self-scrape");
            assert!(resp.starts_with("HTTP/1.0 200 OK\r\n"), "bad scrape status: {resp}");
            let body = response_body(&resp);
            assert_eq!(
                body,
                source.merged_snapshot().render_prometheus(),
                "self-scrape must reconcile exactly with the in-process snapshot"
            );
            let health = http_get(server.addr(), "/healthz").expect("healthz");
            assert_eq!(response_body(&health), "ok\n");
            println!(
                "introspection self-scrape reconciled exactly ({} bytes of /metrics)\n",
                body.len()
            );
        }

        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                // Sessioning is the longest phase — the headline pair.
                let (p50, p99) = r.phase_ns[4];
                vec![
                    r.shards.to_string(),
                    format!("{:.0}", r.sessions_per_sec),
                    (p50 / 1_000).to_string(),
                    (p99 / 1_000).to_string(),
                    r.polls.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["shards", "sessions/s", "sessioning p50 µs", "p99 µs", "polls"], &table)
        );
        println!(
            "\n{n_sessions} live-socket sessions per row, peak in-flight = {n_sessions} at every \
             shard count; decisions identical with the serial oracle: yes"
        );

        let path = "BENCH_throughput.json";
        let mut doc = Json::load(path).unwrap_or_else(|e| panic!("{e}"));
        doc.insert("c100k", section(n_sessions, &env, &rows, &last_snapshot));
        doc.save(path, smoke);
    }
}
