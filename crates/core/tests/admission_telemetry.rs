//! Admission reconciliation: the VM's analysis histogram, the clients'
//! admission-miss counters and the number of distinct `(digest, policy)`
//! pairs deployed are one number.
//!
//! The VM records into the process-global registry, so this file holds a
//! single test: alone in its binary, nothing else moves the global series
//! between the two snapshots. The instance-pool reconciliation (a second
//! wave of clients recycles what the first wave's clients were dropped
//! from) runs at its end for that reason, not as a test of its own.

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

    second_wave_recycles_every_deployment_and_the_first_none();
}

/// Two waves of eight clients over a fresh testbed, each wave alive all at
/// once: wave 1 finds every pool empty, wave 2 finds one wiped instance per
/// deployment of wave 1.
fn second_wave_recycles_every_deployment_and_the_first_none() {
    let bundle = Telemetry::new(Arc::new(Registry::new()), VirtualClock::shared(50));
    let tb = Testbed::case_study(AdaptiveContentMode::Reactive);
    let wave = || {
        let mut clients = Vec::new();
        for i in 0..8 {
            let class = ClientClass::ALL[i % ClientClass::ALL.len()];
            let mut client = tb.client(class).with_telemetry(&bundle);
            for pad in tb.proxy.negotiate(tb.app_id, class.env()).unwrap() {
                client.deploy_pad(&pad, &tb.pad_repo.get(pad.id).unwrap()).unwrap();
            }
            clients.push(client);
        }
        let sum = |f: fn(&fractal_core::client::ClientStats) -> u64| -> u64 {
            clients.iter().map(|c| f(&c.stats())).sum()
        };
        (sum(|s| s.pads_deployed), sum(|s| s.instances_recycled), clients)
    };

    let (deployed, recycled, first) = wave();
    assert!(deployed >= 8);
    assert_eq!(recycled, 0, "nothing had been returned while wave 1 deployed");
    assert_eq!(bundle.snapshot().counters["fractal_client_instances_recycled_total"], 0);
    drop(first);

    let (deployed_again, recycled, _second) = wave();
    assert_eq!(deployed_again, deployed);
    assert_eq!(recycled, deployed, "wave 2 runs in wave 1's sandboxes");
    let snap = bundle.snapshot();
    assert_eq!(snap.counters["fractal_client_instances_recycled_total"], recycled);
    assert_eq!(snap.counters["fractal_client_pads_deployed_total"], 2 * deployed);
}
