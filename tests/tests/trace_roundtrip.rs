//! Randomized round-trip property tests for the hand-rolled JSON writer
//! and parser in `starqo-trace`, driven by the workspace's seeded PRNG so
//! failures reproduce exactly.

use starqo_trace::json::{escape, JsonObj};
use starqo_trace::{parse_json, read_events, JsonValue, TraceEvent};
use starqo_workload::Rng64;

/// A random string biased toward the characters that make JSON escaping
/// hard: control characters, quotes, backslashes, and multi-byte UTF-8.
fn nasty_string(rng: &mut Rng64, max_len: usize) -> String {
    let len = rng.below(max_len as u64 + 1) as usize;
    let mut s = String::new();
    for _ in 0..len {
        let c = match rng.below(8) {
            // Control characters (the \u00XX escape path), including \0.
            0 => char::from_u32(rng.below(0x20) as u32).unwrap(),
            // The two characters JSON must always escape.
            1 => '"',
            2 => '\\',
            // Popular whitespace escapes.
            3 => ['\n', '\r', '\t'][rng.index(3)],
            // Plain ASCII.
            4 | 5 => char::from_u32(0x20 + rng.below(0x5f) as u32).unwrap(),
            // Two- and three-byte UTF-8 (Latin-1 supplement, CJK).
            6 => char::from_u32(0xa1 + rng.below(0x100) as u32).unwrap_or('é'),
            // Astral plane: 4-byte UTF-8, surrogate pair in \uXXXX form.
            _ => char::from_u32(0x1_f300 + rng.below(0x100) as u32).unwrap_or('🌀'),
        };
        s.push(c);
    }
    s
}

#[test]
fn escaped_strings_parse_back_verbatim() {
    let mut rng = Rng64::new(0xC0FFEE);
    for round in 0..500 {
        let original = nasty_string(&mut rng, 40);
        let doc = format!("\"{}\"", escape(&original));
        let parsed = parse_json(&doc).unwrap_or_else(|e| panic!("round {round}: {e} for {doc:?}"));
        assert_eq!(
            parsed.as_str(),
            Some(original.as_str()),
            "round {round}: {doc:?}"
        );
    }
}

#[test]
fn whole_objects_roundtrip_with_nasty_keys_and_values() {
    let mut rng = Rng64::new(42);
    for round in 0..200 {
        let key = nasty_string(&mut rng, 12);
        let val = nasty_string(&mut rng, 24);
        let n = rng.next_u64();
        let doc = JsonObj::new().str(&key, &val).u64("n", n).finish();
        let parsed = parse_json(&doc).unwrap_or_else(|e| panic!("round {round}: {e} for {doc:?}"));
        assert_eq!(
            parsed.get(&key).and_then(JsonValue::as_str),
            Some(val.as_str())
        );
        assert_eq!(parsed.get("n").and_then(JsonValue::as_u64), Some(n));
    }
}

#[test]
fn events_with_random_payloads_survive_the_jsonl_loop() {
    let mut rng = Rng64::new(7);
    let mut events = Vec::new();
    for _ in 0..200 {
        events.push(match rng.below(8) {
            0 => TraceEvent::CondFailed {
                star: nasty_string(&mut rng, 10),
                alt: rng.below(9) as usize,
                ref_id: rng.next_u64(),
                cond: nasty_string(&mut rng, 30),
            },
            1 => TraceEvent::PlanRejected {
                op: nasty_string(&mut rng, 10),
                ref_id: rng.next_u64(),
                reason: nasty_string(&mut rng, 30),
            },
            2 => TraceEvent::QueryStart {
                name: nasty_string(&mut rng, 20),
            },
            3 => TraceEvent::TableInsert {
                op: nasty_string(&mut rng, 10),
                // Full-range u64 fingerprints: precision must survive.
                fp: rng.next_u64(),
                cost: rng.next_f64() * 1e6,
                evicted: rng.below(4) as usize,
            },
            // The serving layer's cache events: full-range u64 query
            // fingerprints and epochs, plus a free-form eviction reason.
            4 => TraceEvent::CacheHit {
                fp: rng.next_u64(),
                epoch: rng.next_u64(),
                saved_nanos: rng.next_u64(),
            },
            5 => TraceEvent::CacheMiss {
                fp: rng.next_u64(),
                epoch: rng.next_u64(),
            },
            6 => TraceEvent::CacheEvict {
                fp: rng.next_u64(),
                reason: nasty_string(&mut rng, 20),
            },
            _ => TraceEvent::CacheInvalidate {
                fp: rng.next_u64(),
                epoch: rng.next_u64(),
            },
        });
    }
    let text: String = events.iter().map(|e| e.to_json() + "\n").collect();
    let (back, skipped) = read_events(&text);
    assert_eq!(skipped, 0);
    assert_eq!(back, events);
}
