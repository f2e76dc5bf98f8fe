//! The `bench::json` contract: whatever the writers can build reads back
//! as the same value, whatever arrives from outside reads to a value or an
//! `Err` (never a panic), and the three committed `BENCH_*.json` survive
//! the round trip.

use std::sync::Arc;

use fractal_bench::json::Json;
use fractal_telemetry::{NullClock, Registry, Telemetry};
use proptest::collection::vec;
use proptest::prelude::*;

/// Characters the writers must escape or pass through: quotes and
/// backslashes, the braces of `name{shard="0"}` labels, control
/// characters, and non-ASCII.
const CHARS: [char; 16] =
    ['a', 'Z', '0', '_', ' ', '"', '\\', '{', '}', '/', '\n', '\t', '\u{1}', '\u{1f}', 'é', '𝄞'];

/// Numbers at the edges of what counters, gauges and rates can hold.
fn edge_numbers() -> [Json; 8] {
    [
        Json::Int(u64::MAX.into()),
        Json::Int(i64::MIN.into()),
        Json::Int(0),
        Json::Num(0.1 + 0.2),
        Json::Num(1.0),
        Json::Num(-0.0),
        Json::Num(1e21),
        Json::Num(f64::MIN_POSITIVE),
    ]
}

/// The entropy a generated `Vec<u64>` supplies (the proptest shim has no
/// recursive strategies): it picks the variants, the sizes and the
/// contents, so every vector is one reproducible document.
struct Bits(std::vec::IntoIter<u64>);

impl Bits {
    fn next(&mut self) -> u64 {
        self.0.next().unwrap_or(0)
    }

    fn string(&mut self) -> String {
        (0..self.next() % 6).map(|_| CHARS[(self.next() % 16) as usize]).collect()
    }

    fn value(&mut self, depth: usize) -> Json {
        match self.next() % if depth < 4 { 8 } else { 6 } {
            0 => Json::Null,
            1 => Json::Bool(self.next() & 1 == 1),
            2 => edge_numbers()[(self.next() % 8) as usize].clone(),
            3 => Json::Int(self.next() as i64 as i128),
            // Any finite f64 bit pattern.
            4 => Some(f64::from_bits(self.next()))
                .filter(|n| n.is_finite())
                .map_or(Json::Null, Json::Num),
            5 => Json::Str(self.string()),
            6 => Json::Arr((0..self.next() % 4).map(|_| self.value(depth + 1)).collect()),
            _ => Json::Obj(
                (0..self.next() % 4).map(|_| (self.string(), self.value(depth + 1))).collect(),
            ),
        }
    }
}

fn documents() -> impl Strategy<Value = Json> {
    vec(any::<u64>(), 1..200).prop_map(|bits| Bits(bits.into_iter()).value(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn emit_then_parse_is_identity(doc in documents()) {
        let text = doc.emit();
        let back = Json::parse(&text).expect("emitted text parses");
        prop_assert_eq!(&back, &doc, "{}", text);
        prop_assert_eq!(back.emit(), text, "emit is a fixed point");
    }

    #[test]
    fn every_truncated_container_is_an_error(doc in documents(), cut in any::<usize>()) {
        let text = doc.emit();
        prop_assume!(matches!(doc, Json::Arr(_) | Json::Obj(_)));
        let body = text.trim_end();
        let mut at = cut % body.len();
        while !body.is_char_boundary(at) {
            at -= 1;
        }
        prop_assert!(Json::parse(&body[..at]).is_err(), "{:?} parsed", &body[..at]);
    }

    #[test]
    fn parse_never_panics_on_arbitrary_bytes(bytes in vec(any::<u8>(), 0..200)) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parse_never_panics_on_json_shaped_noise(picks in vec(0usize..24, 0..120)) {
        const SOUP: [&str; 24] = [
            "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "\\ud83d", "tru", "true", "null",
            "-", "0", "9", ".", "e", "E+", "1e999", " ", "\n", "é", "\"k\":",
        ];
        let text: String = picks.iter().map(|&i| SOUP[i]).collect();
        let _ = Json::parse(&text);
    }
}

const COMMITTED: [(&str, &str); 2] = [
    ("scenarios", include_str!("../../../BENCH_scenarios.json")),
    ("capacity", include_str!("../../../BENCH_capacity.json")),
];

#[test]
fn committed_bench_files_round_trip() {
    for (name, text) in COMMITTED {
        let doc = Json::parse(text).unwrap_or_else(|e| panic!("BENCH_{name}.json: {e}"));
        assert_eq!(Json::parse(&doc.emit()).as_ref(), Ok(&doc), "BENCH_{name}.json re-emitted");
    }
}

#[test]
fn splicing_a_scenario_row_leaves_every_other_row_alone() {
    let before = Json::parse(COMMITTED[0].1).unwrap().get("scenarios").cloned().unwrap();
    let mut after = before.clone();
    after.insert("lossy_link", Json::object([("sessions", 7u64.into())]));
    after.insert("appended", Json::Null);
    let after = Json::parse(&after.emit()).unwrap();
    let (Json::Obj(b), Json::Obj(a)) = (&before, &after) else { panic!("not objects") };
    // The committed file already carries a lossy_link row: it is replaced
    // where it stands, and only the new key lands at the end.
    assert_eq!(a.len(), b.len() + 1);
    assert_eq!(a.last(), Some(&("appended".to_string(), Json::Null)));
    for ((bk, bv), (ak, av)) in b.iter().zip(a) {
        assert_eq!(bk, ak, "row order changed");
        if bk == "lossy_link" {
            assert_eq!(av, &Json::object([("sessions", 7u64.into())]));
        } else {
            assert_eq!(bv, av, "row {bk} changed");
        }
    }
}

#[test]
fn snapshots_round_trip_sorted_with_labeled_names_as_keys() {
    let t = Telemetry::new(Arc::new(Registry::new()), NullClock::shared());
    t.counter("done_total").add(4);
    t.counter("a_total").add(u64::MAX);
    t.gauge("level").set(i64::MIN);
    t.histogram("lat_ns").record(9);
    let snap = t.snapshot().labeled("shard", "0");
    let doc = Json::from(&snap);
    let text = doc.emit();
    assert_eq!(Json::parse(&text).as_ref(), Ok(&doc));
    // Identical snapshots render identically (byte determinism), sorted.
    assert_eq!(text, Json::from(&t.snapshot().labeled("shard", "0")).emit());
    assert!(text.find("a_total").unwrap() < text.find("done_total").unwrap());
    // The literal quotes of the `{shard="0"}` suffix arrive escaped, or
    // the embedding BENCH_*.json stops being JSON.
    assert!(text.contains("\"done_total{shard=\\\"0\\\"}\": 4"), "{text}");
    let counters = doc.get("counters").unwrap();
    assert_eq!(counters.get("done_total{shard=\"0\"}"), Some(&Json::Int(4)));
    assert_eq!(counters.get("a_total{shard=\"0\"}"), Some(&Json::Int(u64::MAX.into())));
    assert_eq!(
        doc.get("gauges").unwrap().get("level{shard=\"0\"}"),
        Some(&Json::Int(i64::MIN.into()))
    );
    let hist = doc.get("histograms").unwrap().get("lat_ns{shard=\"0\"}").unwrap();
    assert_eq!(hist.get("count"), Some(&Json::Int(1)));
    assert_eq!(
        hist.get("buckets"),
        Some(&Json::Arr(vec![Json::Arr(vec![Json::Int(15), Json::Int(1)])]))
    );
}
