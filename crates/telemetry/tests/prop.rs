//! Property tests for the algebra the determinism suite depends on:
//! histogram merge must be associative and commutative, and quantiles
//! must stay within observed bounds.
//! These run against the always-compiled `metrics` module, so they hold
//! with or without the `enabled` feature.

use fractal_telemetry::metrics::{bucket_index, Histogram, HistogramSnapshot, BUCKETS};
use proptest::prelude::*;

fn snapshot_of(samples: &[u64]) -> HistogramSnapshot {
    let h = Histogram::detached();
    for &v in samples {
        h.record(v);
    }
    h.snapshot()
}

fn samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn merge_is_commutative(a in samples(), b in samples()) {
        let (sa, sb) = (snapshot_of(&a), snapshot_of(&b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(a in samples(), b in samples(), c in samples()) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));
        // (a ⊕ b) ⊕ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a ⊕ (b ⊕ c)
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn merge_equals_recording_the_concatenation(a in samples(), b in samples()) {
        let mut merged = snapshot_of(&a);
        merged.merge(&snapshot_of(&b));
        let mut all = a.clone();
        all.extend_from_slice(&b);
        prop_assert_eq!(merged, snapshot_of(&all));
    }

    #[test]
    fn quantiles_bounded_and_monotone(a in proptest::collection::vec(any::<u64>(), 1..40)) {
        let s = snapshot_of(&a);
        let qs: Vec<u64> = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0]
            .iter()
            .map(|&q| s.quantile(q))
            .collect();
        for w in qs.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles must be monotone: {:?}", qs);
        }
        let lo = *a.iter().min().unwrap();
        let hi = *a.iter().max().unwrap();
        prop_assert!(qs[0] >= lo && qs[5] <= hi);
    }

    #[test]
    fn every_sample_lands_in_its_bucket(v in any::<u64>()) {
        let i = bucket_index(v);
        prop_assert!(i < BUCKETS);
        let s = snapshot_of(&[v]);
        prop_assert_eq!(s.buckets[i], 1);
        prop_assert_eq!(s.buckets.iter().sum::<u64>(), 1);
    }
}
