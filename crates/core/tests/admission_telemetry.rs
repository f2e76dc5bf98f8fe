//! Admission reconciliation: the VM's analysis histogram, the clients'
//! admission-miss counters and the number of distinct `(digest, policy)`
//! pairs deployed are one number.
//!
//! The VM records into the process-global registry, so this file holds a
//! single test: alone in its binary, nothing else moves the global series
//! between the two snapshots. The instance-pool reconciliation (every PAD
//! call but each PAD's first runs in a recycled sandbox, however many
//! clients are alive) runs at its end for that reason, not as a test of its
//! own.

use std::collections::HashSet;
use std::sync::Arc;

use fractal_core::presets::ClientClass;
use fractal_core::server::AdaptiveContentMode;
use fractal_core::testbed::Testbed;
use fractal_telemetry::{Registry, Telemetry, VirtualClock};
use fractal_vm::{HostId, SandboxPolicy};

fn analyses_so_far() -> u64 {
    Telemetry::global().snapshot().histograms.get("fractal_vm_analysis_ns").map_or(0, |h| h.count)
}

#[test]
fn analyses_equal_admission_misses_equal_distinct_digest_policy_pairs() {
    let bundle = Telemetry::new(Arc::new(Registry::new()), VirtualClock::shared(50));
    // Building the testbed analyses each PAD once (the catalog checks what
    // it signs); count from after that.
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let before = analyses_so_far();

    let policies = [
        SandboxPolicy::for_pads(),
        SandboxPolicy::for_pads().with_fuel(1_000_000_000),
        SandboxPolicy::for_pads().with_hosts(&[HostId::Sha1, HostId::Abort]),
    ];
    let mut pairs = HashSet::new();
    let (mut deploys, mut hits, mut misses) = (0u64, 0u64, 0u64);
    for round in 0..5 {
        for class in ClientClass::ALL {
            for policy in &policies {
                let mut client = tb.client(class).with_telemetry(&bundle);
                client.policy = policy.clone();
                for pad in tb.proxy.negotiate(tb.app_id, class.env()).unwrap() {
                    let wire = tb.pad_repo.get(pad.id).unwrap();
                    client.deploy_pad(&pad, &wire).unwrap();
                    pairs.insert((pad.digest, policy.clone()));
                    deploys += 1;
                }
                hits += client.stats().admission_hits;
                misses += client.stats().admission_misses;
            }
        }
        if round == 0 {
            assert_eq!(misses, pairs.len() as u64, "the first round fills the cache");
        }
    }
    assert!(pairs.len() > policies.len(), "the classes negotiate more than one PAD");

    let distinct = pairs.len() as u64;
    assert_eq!(misses, distinct);
    assert_eq!(hits, deploys - distinct);
    assert_eq!(analyses_so_far() - before, distinct, "one analysis per (digest, policy), ever");
    assert_eq!(tb.admission.len() as u64, distinct);

    let snap = bundle.snapshot();
    assert_eq!(snap.counters["fractal_client_admission_misses_total"], misses);
    assert_eq!(snap.counters["fractal_client_admission_hits_total"], hits);
    assert_eq!(snap.counters["fractal_client_pads_deployed_total"], deploys);

    every_call_but_each_pads_first_runs_in_a_recycled_sandbox();
}

/// Two waves of eight clients over a fresh testbed, each wave alive all at
/// once, each client decoding one page with each PAD it deployed. A
/// deployment holds no sandbox and calls run one at a time, so in wave 1
/// each PAD's first call allocates and every later one, by any client,
/// runs in the instance that call returned; in wave 2 every call does.
fn every_call_but_each_pads_first_runs_in_a_recycled_sandbox() {
    let bundle = Telemetry::new(Arc::new(Registry::new()), VirtualClock::shared(50));
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let page = b"one sandbox per call, not per client. ".repeat(200);
    tb.server.publish(1, page.clone());
    let wave = || {
        let (mut clients, mut pads) = (Vec::new(), HashSet::new());
        for i in 0..8 {
            let class = ClientClass::ALL[i % ClientClass::ALL.len()];
            let mut client = tb.client(class).with_telemetry(&bundle);
            for pad in tb.proxy.negotiate(tb.app_id, class.env()).unwrap() {
                client.deploy_pad(&pad, &tb.pad_repo.get(pad.id).unwrap()).unwrap();
                let payload = tb.server.respond(1, None, 0, pad.protocol).unwrap().payload;
                assert_eq!(client.decode_content(pad.id, 1, &payload).unwrap(), page);
                pads.insert(pad.id);
            }
            clients.push(client);
        }
        let sum = |f: fn(&fractal_core::client::ClientStats) -> u64| -> u64 {
            clients.iter().map(|c| f(&c.stats())).sum()
        };
        (sum(|s| s.pads_deployed), sum(|s| s.instances_recycled), pads.len() as u64, clients)
    };

    let (calls, recycled, pads, first) = wave();
    assert!(calls >= 8 && pads >= 2, "{calls} calls of {pads} PADs");
    assert_eq!(recycled, calls - pads, "wave 1 allocates one instance per PAD");
    assert_eq!(bundle.snapshot().counters["fractal_client_instances_recycled_total"], recycled);
    drop(first);

    let (calls_again, recycled_again, _, _second) = wave();
    assert_eq!(calls_again, calls);
    assert_eq!(recycled_again, calls, "wave 2 runs every call in a pooled sandbox");
    let snap = bundle.snapshot();
    assert_eq!(snap.counters["fractal_client_instances_recycled_total"], recycled + calls);
    assert_eq!(snap.counters["fractal_client_pads_deployed_total"], 2 * calls);
}
