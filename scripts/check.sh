#!/usr/bin/env sh
# Offline CI gate: formatting, lints, and the full test suite.
# Usage: scripts/check.sh
set -eu
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test =="
cargo test --workspace -q

echo "== starqo-obs smoke (profile a real trace) =="
cargo build -q --offline -p starqo-obs
cargo run -q --offline --example trace_plan > /dev/null
./target/debug/starqo-obs profile target/trace_plan.jsonl | grep -q "winning plan lineage"
./target/debug/starqo-obs flame target/trace_plan.jsonl --folded | grep -q ";"
echo "starqo-obs smoke passed."

echo "== estimation observatory smoke (run -> accuracy -> calibrate -> re-run) =="
cargo build -q --offline -p starqo-bench --bin workload_run
./target/debug/workload_run --quick --out target/bench/smoke_trace.jsonl > /dev/null
# Capture full output before grepping: `| grep -q` would close the pipe
# early and make the writer die on a broken pipe.
./target/debug/starqo-obs accuracy target/bench/smoke_trace.jsonl \
    > target/bench/smoke_accuracy.txt
grep -q "per LOLEPOP" target/bench/smoke_accuracy.txt
./target/debug/starqo-obs calibrate target/bench/smoke_trace.jsonl \
    --out target/bench/smoke_profile.json > target/bench/smoke_calibrate.txt
grep -q "scale_io" target/bench/smoke_calibrate.txt
STARQO_COST_PROFILE=target/bench/smoke_profile.json \
    ./target/debug/workload_run --quick --out target/bench/smoke_recal.jsonl > /dev/null
./target/debug/starqo-obs accuracy target/bench/smoke_recal.jsonl \
    > target/bench/smoke_recal.txt
grep -q "per query" target/bench/smoke_recal.txt
echo "estimation observatory smoke passed."

echo "== chaos smoke (fault-injection sweep; zero panic escapes) =="
cargo build -q --offline -p starqo-bench --bin chaos
# Fixed seed: a failure replays exactly. The binary exits non-zero if any
# injected panic escapes the engine/executor containment.
./target/debug/chaos --quick --seed 42 > target/bench/chaos_smoke.txt
grep -q "panic escapes: 0" target/bench/chaos_smoke.txt
echo "chaos smoke passed."

echo "== serving smoke (4-thread plan cache; hits, zero divergences) =="
cargo build -q --offline -p starqo-bench --bin serve
# The experiment asserts hit ratio >= 0.9 and zero oracle divergences
# internally (non-zero exit on violation); the greps double-check the
# report said what the exit code implies.
./target/debug/serve --smoke > target/bench/serve_smoke.txt
grep -q "divergences: 0" target/bench/serve_smoke.txt
grep -q "speedup (cached/cold)" target/bench/serve_smoke.txt
echo "serving smoke passed."

echo "== telemetry smoke (overhead run -> snapshot -> live dashboard) =="
cargo build -q --offline -p starqo-bench --bin telemetry
# The experiment asserts the snapshot/counter consistency checks and the
# JSON round-trip internally (non-zero exit on violation); the dashboard
# render proves the exported snapshot is consumable end to end.
./target/debug/telemetry --smoke > target/bench/telemetry_smoke.txt
grep -q "consistency: 0 failures" target/bench/telemetry_smoke.txt
./target/debug/starqo-obs live target/bench/telemetry_snapshot.json \
    > target/bench/telemetry_live.txt
grep -q -- "-- latency --" target/bench/telemetry_live.txt
grep -q -- "-- hot queries --" target/bench/telemetry_live.txt
./target/debug/starqo-obs live target/bench/telemetry_snapshot.json --prom \
    | grep -q "starqo_serve_requests_total"
echo "telemetry smoke passed."

echo "== drift smoke (feedback plane; injected shift -> suspects -> doctor) =="
cargo build -q --offline -p starqo-bench --bin drift
# The experiment asserts detection (every drifting fingerprint flagged,
# zero false suspects on the controls) and the sketch/counter consistency
# checks internally (non-zero exit on violation); the greps double-check
# the report, then the exported snapshot must drive watch and doctor.
./target/debug/drift --smoke > target/bench/drift_smoke.txt
grep -q "consistency: 0 failures" target/bench/drift_smoke.txt
grep -q "0 false suspect(s)" target/bench/drift_smoke.txt
./target/debug/starqo-obs live target/bench/drift_snapshot.json \
    > target/bench/drift_live.txt
grep -q "SUSPECT" target/bench/drift_live.txt
./target/debug/starqo-obs doctor target/bench/drift_snapshot.json \
    > target/bench/drift_doctor.txt
grep -q "plan_drift" target/bench/drift_doctor.txt
echo "drift smoke passed."

echo "== spans smoke (tail retention -> waterfall -> Chrome round-trip) =="
cargo build -q --offline -p starqo-bench --bin spans
# The experiment asserts the retention scenario (slow drifted request kept,
# oracle structure bit-match) and every round-trip internally (non-zero
# exit on violation); the greps double-check the report, then the exported
# trees must drive the spans table and the timeline waterfall.
./target/debug/spans --smoke > target/bench/spans_smoke.txt
grep -q "oracle structure match=true" target/bench/spans_smoke.txt
grep -q "consistency: 0 failures" target/bench/spans_smoke.txt
./target/debug/starqo-obs spans target/bench/spans.jsonl \
    > target/bench/spans_table.txt
grep -q "request" target/bench/spans_table.txt
./target/debug/starqo-obs timeline target/bench/spans.jsonl \
    > target/bench/spans_timeline.txt
grep -q "execute" target/bench/spans_timeline.txt
echo "spans smoke passed."

echo "== heal smoke (suspect -> re-opt -> swap; one chaos sweep) =="
cargo build -q --offline -p starqo-bench --bin heal
# The experiment asserts recovery (every drifting fingerprint swapped and
# un-flagged, zero re-opts on the controls) and the full 15-sweep re-opt
# chaos matrix (zero escapes/divergences, every sweep healed) internally
# (non-zero exit on violation); the greps double-check the report. The
# STARQO_FAULTS form is the CI serve-path chaos contract: one sweep under
# a caller-chosen fault, non-zero exit on any escape, divergence, or
# unhealed fingerprint.
./target/debug/heal --smoke > target/bench/heal_smoke.txt
grep -q "drifting fingerprints healed" target/bench/heal_smoke.txt
grep -q "escapes: 0" target/bench/heal_smoke.txt
STARQO_FAULTS='reopt:verify:panic' ./target/debug/heal --smoke \
    > target/bench/heal_fault_smoke.txt
grep -q "escapes: 0" target/bench/heal_fault_smoke.txt
echo "heal smoke passed."

echo "== vexec smoke (serial-oracle bit-equality across worker counts) =="
cargo build -q --offline -p starqo-bench --bin exec
# The experiment asserts result equality and counter determinism
# internally (non-zero exit on any divergence); smoke mode skips the
# throughput floor — short runs can't measure speedups honestly.
./target/debug/exec --smoke > target/bench/exec_smoke.txt
grep -q "divergences: 0" target/bench/exec_smoke.txt
echo "vexec smoke passed."

echo "All checks passed."
