#!/usr/bin/env bash
# CI entry point: the tier-1 verify line, warning-free clippy and rustdoc
# runs, plus the targets that must not bitrot (all eight examples, the
# experiment registry binary and its error paths, the two-process node,
# the perf gate over BENCH_scale.json's E14, E16 and E17 tables (plus
# the E16L landmark, gated only when re-captured), the benchmark
# package's self-test).
#
# Usage: ./ci.sh
# Env:   PROPTEST_CASES — optional cap on property-test cases (the vendored
#        proptest shim honors it; unset means per-suite defaults).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q (root package: integration + doc tests)"
cargo test -q

echo "==> workspace tests (all member crates)"
cargo test --workspace -q

echo "==> no test name is registered twice within one test binary"
# `--list` ends each binary's names with an "N tests, M benchmarks"
# line; a name seen twice before that line is a double registration
# (each property inside `proptest!` writes its own `#[test]`).
dups=$(cargo test --workspace -q -- --list 2>/dev/null \
    | awk '/^[0-9]+ tests?, [0-9]+ benchmarks?$/ {delete seen; next} /: test$/ && seen[$0]++')
if [ -n "$dups" ]; then
    echo "FAIL: test names registered twice in one binary:" >&2
    echo "$dups" >&2
    exit 1
fi

echo "==> clippy: every workspace target, warnings are errors"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> rustdoc: every workspace crate's docs, warnings are errors"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "==> tier-2: golden-run regression corpus (pinned seed->digest matrix)"
# Thread count pinned for a stable wall clock; the corpus itself is
# thread-independent (each row is one single-threaded run). Budget:
# the full matrix is ~15 debug-mode runs at n <= 48 — seconds, not
# minutes; if it ever creeps past ~60 s, shrink rows before raising
# the budget.
RUST_TEST_THREADS=2 cargo test -q --test golden_runs

echo "==> tier-2: sharded golden rows at RFC_THREADS=1,2,8 (digest must be identical at every count)"
# The sharded (PerAgent-discipline) corpus: each row runs once per
# listed thread count and the suite asserts all digests agree AND match
# the pinned capture — the staged engine's thread-invariance contract.
RFC_THREADS=1,2,8 RUST_TEST_THREADS=2 cargo test -q --test sharded_engine

echo "==> tier-2: checkpoint/resume equivalence corpus (static + sharded rows)"
# Every golden row snapshotted mid-run, restored, and run to completion
# must be bit-identical (digest, Metrics, op-log) to straight-through;
# sharded rows repeat at every RFC_THREADS count incl. cross-thread
# resume. Negative paths (truncated/corrupt/mismatched files) ride along.
RFC_THREADS=1,2,8 RUST_TEST_THREADS=2 cargo test -q --test checkpoint_resume

echo "==> tier-2: checkpoint/resume property sweep (random topology x adversity x snapshot round)"
cargo test -q --test checkpoint_prop

echo "==> examples build (release)"
cargo build --release --examples

echo "==> experiment registry lists"
cargo run --release -q -p experiments --bin rfc-experiments -- list

echo "==> experiment CLI: a bad --sizes or --shards list exits 2 with a message, not a panic"
for bad in "--sizes 12x" "--shards 0"; do
    status=0
    # shellcheck disable=SC2086 # $bad is a flag and its value
    ./target/release/rfc-experiments e16 --quick $bad >/dev/null 2> target/rfc-experiments-list.err || status=$?
    if [ "$status" -ne 2 ] || grep -q panicked target/rfc-experiments-list.err; then
        echo "FAIL: rfc-experiments e16 --quick $bad exited $status (want 2, no panic)" >&2
        cat target/rfc-experiments-list.err >&2
        exit 1
    fi
done

echo "==> dynamics smoke: e15 --quick (churn / partition-heal / loss bursts)"
cargo run --release -q -p experiments --bin rfc-experiments -- e15 --quick >/dev/null

echo "==> staged-engine smoke: e16 --quick (intra-trial shard sweep + digest assert)"
cargo run --release -q -p experiments --bin rfc-experiments -- e16 --quick >/dev/null

echo "==> staged-engine speedup: e16 2 shards >= 1 shard at n=4096 (needs >1 core)"
# The tentpole claim of the SoA/parallel-ledger work: with real cores,
# two shards must beat one at n >= 4096 (below that the shard floor
# clamps these PerAgent rows to one shard by design), and with >= 4
# cores four shards must too — the drained serial sections (sharded
# metering, scattered op log, scattered plan concat) are what keeps the
# curve from flattening. The 1-shard row is the same staged pipeline on
# one shard, not the monolithic engine. On a 1-core box the comparison
# is meaningless — all rows time-slice the same core and the sharded
# ones pay dispatch overhead — so it is skipped, documented here: the
# digest-equality assertions inside e16 still run everywhere.
if [ "$(nproc)" -ge 2 ]; then
    shard_list="1,2"; threads=2
    if [ "$(nproc)" -ge 4 ]; then shard_list="1,2,4"; threads=4; fi
    rm -rf target/e16-speedup
    cargo run --release -q -p experiments --bin rfc-experiments -- \
        e16 --sizes 4096 --shards "$shard_list" --threads "$threads" --json target/e16-speedup >/dev/null
    r1=$(grep -oE '\["4096","[0-9]+","1","[^"]+","[0-9.]+"' target/e16-speedup/e16_0.json | sed -E 's/.*"([0-9.]+)"$/\1/')
    r2=$(grep -oE '\["4096","[0-9]+","2","[^"]+","[0-9.]+"' target/e16-speedup/e16_0.json | sed -E 's/.*"([0-9.]+)"$/\1/')
    if [ -z "$r1" ] || [ -z "$r2" ]; then
        echo "FAIL: could not extract e16 rounds/s cells for the speedup check" >&2
        exit 1
    fi
    if ! awk -v mono="$r1" -v sharded="$r2" 'BEGIN { exit !(sharded >= mono) }'; then
        echo "FAIL: staged 2-shard run ($r2 rounds/s) is slower than the 1-shard run ($r1 rounds/s) at n=4096" >&2
        exit 1
    fi
    echo "    speedup OK: n=4096 1 shard $r1 rounds/s -> 2 shards $r2 rounds/s"
    if [ "$(nproc)" -ge 4 ]; then
        r4=$(grep -oE '\["4096","[0-9]+","4","[^"]+","[0-9.]+"' target/e16-speedup/e16_0.json | sed -E 's/.*"([0-9.]+)"$/\1/')
        if [ -z "$r4" ]; then
            echo "FAIL: could not extract the e16 4-shard rounds/s cell" >&2
            exit 1
        fi
        if ! awk -v mono="$r1" -v sharded="$r4" 'BEGIN { exit !(sharded >= mono) }'; then
            echo "FAIL: staged 4-shard run ($r4 rounds/s) is slower than the 1-shard run ($r1 rounds/s) at n=4096" >&2
            exit 1
        fi
        echo "    speedup OK: n=4096 1 shard $r1 rounds/s -> 4 shards $r4 rounds/s"
    else
        echo "    4-shard check skipped: $(nproc) core(s) < 4"
    fi
else
    echo "    skipped: $(nproc) core(s) — sharding cannot win without parallel hardware"
fi

echo "==> instance-plane smoke: e17 --quick (10^1..10^4 instance sweep + interference assert)"
# The run itself asserts: High-priority instances never rank behind Low
# under a send budget, and a consensus instance's report is identical
# with 0 vs 1000 co-hosted instances (per-instance stream independence).
cargo run --release -q -p experiments --bin rfc-experiments -- e17 --quick >/dev/null

echo "==> checkpoint/resume smoke: e16 --quick with --checkpoint-every, then --resume-from"
# Two full CLI invocations: the first writes a checkpoint file per row,
# the second restores each row from its file and runs it to completion.
# The digest column (16 hex chars per row) of both JSON outputs must be
# identical — the end-to-end resume seam, exercised through the binary
# rather than the library API.
rm -rf target/ckpt-smoke target/ckpt-json-a target/ckpt-json-b
cargo run --release -q -p experiments --bin rfc-experiments -- \
    e16 --quick --checkpoint-every 16 --checkpoint-dir target/ckpt-smoke \
    --json target/ckpt-json-a >/dev/null
cargo run --release -q -p experiments --bin rfc-experiments -- \
    e16 --quick --resume-from target/ckpt-smoke \
    --json target/ckpt-json-b >/dev/null
grep -oE '[0-9a-f]{16}' target/ckpt-json-a/e16_0.json > target/ckpt-smoke/digests-a
grep -oE '[0-9a-f]{16}' target/ckpt-json-b/e16_0.json > target/ckpt-smoke/digests-b
if ! diff -q target/ckpt-smoke/digests-a target/ckpt-smoke/digests-b >/dev/null; then
    echo "FAIL: resumed e16 digests differ from checkpointed straight run" >&2
    diff target/ckpt-smoke/digests-a target/ckpt-smoke/digests-b >&2 || true
    exit 1
fi
echo "    resume smoke OK: $(wc -l < target/ckpt-smoke/digests-a) row digests identical across the seam"
# An altered snapshot must not resume: the checksum after the version
# covers every later byte. Flip bit 0 of byte 24 (inside the config
# fingerprint) of one row's file; the resume must exit non-zero and
# name the checksum.
ckpt=target/ckpt-smoke/e16_n512_s1.rfck
byte=$(od -An -tu1 -j24 -N1 "$ckpt" | tr -d ' ')
printf "$(printf '\\%03o' $((byte ^ 1)))" | dd of="$ckpt" bs=1 seek=24 count=1 conv=notrunc 2>/dev/null
if cargo run --release -q -p experiments --bin rfc-experiments -- \
    e16 --quick --resume-from target/ckpt-smoke >/dev/null 2>target/ckpt-smoke/altered.err; then
    echo "FAIL: $ckpt resumed with a flipped bit" >&2
    exit 1
fi
if ! grep -q "checksum mismatch" target/ckpt-smoke/altered.err; then
    echo "FAIL: the altered $ckpt was refused without naming the checksum" >&2
    cat target/ckpt-smoke/altered.err >&2
    exit 1
fi
echo "    altered checkpoint OK: one flipped bit in $ckpt is refused (checksum mismatch)"

echo "==> node smoke: two rfc-node processes over a Unix socket == loopback, at three (n, seed) rows"
# The real-wire acceptance check: serve and join are *separate OS
# processes* talking through the codec frames on an actual socket. Both
# print "<mode> outcome=... digest=0x... ticks=... msgs_sent=...
# bytes_sent=..."; the two digests must be equal, and loopback
# (in-process socketpair) must print the same report lines, label aside.
# The node crate's loopback corpus pins loopback to the simulator, so
# this closes two processes == loopback == simulator. Odd n = 5 splits
# the agents 2 | 3; the n = 16 row must also reach consensus.
cargo build --release -q -p rfc-node
for row in "16 21" "5 1" "8 5"; do
    read -r n seed <<< "$row"
    out="target/rfc-node-n$n-s$seed"
    params=(--n "$n" --gamma 3.0 --seed "$seed" --slack 3)
    rm -f "$out.sock"
    ./target/release/rfc-node serve --listen "unix:$out.sock" "${params[@]}" > "$out.serve" &
    serve_pid=$!
    ./target/release/rfc-node join --connect "unix:$out.sock" "${params[@]}" > "$out.join"
    wait "$serve_pid"
    digest_serve=$(grep -oE 'digest=0x[0-9a-f]+' "$out.serve" || true)
    digest_join=$(grep -oE 'digest=0x[0-9a-f]+' "$out.join" || true)
    if [ -z "$digest_serve" ] || [ "$digest_serve" != "$digest_join" ]; then
        echo "FAIL: rfc-node endpoints disagree at n=$n seed=$seed (serve: ${digest_serve:-none}, join: ${digest_join:-none})" >&2
        cat "$out.serve" "$out.join" >&2
        exit 1
    fi
    if [ "$n" = 16 ] && ! grep -q "outcome=Consensus" "$out.serve"; then
        echo "FAIL: the n=16 two-process session did not reach consensus" >&2
        cat "$out.serve" >&2
        exit 1
    fi
    ./target/release/rfc-node loopback "${params[@]}" > "$out.loopback"
    cat "$out.serve" "$out.join" | cut -d' ' -f2- > "$out.procs.cmp"
    cut -d' ' -f2- "$out.loopback" > "$out.loopback.cmp"
    if ! diff "$out.procs.cmp" "$out.loopback.cmp" >&2; then
        echo "FAIL: rfc-node loopback reports differ from the two-process session at n=$n seed=$seed" >&2
        exit 1
    fi
    echo "    node n=$n seed=$seed OK: $(grep -oE 'outcome=[A-Za-z()0-9]+' "$out.serve"), $digest_serve on both processes and in loopback"
done

echo "==> node: bad input fails cleanly"
# Unusable parameters exit non-zero with a message, not a panic.
if ./target/release/rfc-node loopback --slack 0 >/dev/null 2> target/rfc-node-slack0.err; then
    echo "FAIL: rfc-node loopback --slack 0 succeeded" >&2
    exit 1
fi
if grep -q panicked target/rfc-node-slack0.err; then
    echo "FAIL: rfc-node loopback --slack 0 panicked" >&2
    cat target/rfc-node-slack0.err >&2
    exit 1
fi
# serve replaces only a stale socket: a regular file at the path stays
# intact and bind's error ends the process (the timeout keeps a serve
# that deleted it and then waits for a peer from hanging CI).
printf 'not a socket\n' > target/rfc-node-regular-file
if timeout 10 ./target/release/rfc-node serve --listen unix:target/rfc-node-regular-file \
    >/dev/null 2>&1; then
    echo "FAIL: rfc-node serve on a regular file succeeded" >&2
    exit 1
fi
if [ "$(cat target/rfc-node-regular-file 2>/dev/null)" != "not a socket" ]; then
    echo "FAIL: rfc-node serve replaced a regular file at its socket path" >&2
    exit 1
fi
echo "    node bad input OK: --slack 0 and a non-socket path refused"

echo "==> perf snapshot: e14/e16/e17 --quick -> fresh JSON (two captures for a best-of-2 gate)"
cargo run --release -q -p experiments --bin rfc-experiments -- e14 e16 e17 --quick --json target/bench-json >/dev/null
cargo run --release -q -p experiments --bin rfc-experiments -- e14 e16 e17 --quick --json target/bench-json2 >/dev/null

echo "==> perf gate: self-test (every cell 1% past the tolerance must trip the comparator, 1% inside must pass)"
cargo run --release -q -p rfc-bench --bin rfc-bench -- selftest BENCH_scale.json

echo "==> perf gate: fresh throughput + ΔRSS vs committed BENCH_scale.json (tolerance ${RFC_GATE_TOLERANCE:-0.20})"
# Gates every column headed exactly rounds/s or instances/s as a floor
# (Magent·rounds/s is rounds/s · n / 10⁶ on the same row, so it is not
# gated a second time) AND every ΔRSS MiB column as a ceiling
# (committed·(1+tol) + 8 MiB slack): the best of the two fresh
# captures — max throughput, min memory — must
# stay within tolerance of the committed baseline, and the check runs
# *before* the baseline is refreshed below. Both noises are one-sided (a busy machine reads
# throughput low and memory high, never the opposite), so best-of-2
# damps flakes without hiding regressions that show in every sample.
# Override with RFC_GATE_TOLERANCE=0.35 ./ci.sh on a persistently noisy
# machine.
cargo run --release -q -p rfc-bench --bin rfc-bench -- gate BENCH_scale.json \
    target/bench-json/e14_0.json target/bench-json/e16_0.json target/bench-json/e17_0.json \
    target/bench-json2/e14_0.json target/bench-json2/e16_0.json target/bench-json2/e17_0.json

# Three JSON lines: the trial-level scale sweep (E14), the intra-trial
# shard sweep (E16) and the instance-plane sweep (E17) — the perf
# trajectory tracked across PRs. The committed BENCH_scale.json holds
# these three plus the manually captured E16L landmark line, which no
# CI run reproduces. It is the gate's baseline and deliberately a
# *floor* (per-cell minimum over repeated captures), so CI does NOT
# overwrite it; refresh the three captured lines on purpose from the
# snapshot below when the floor genuinely moves, keeping E16L:
#     target/BENCH_scale.fresh.json
cat target/bench-json/e14_0.json target/bench-json/e16_0.json target/bench-json/e17_0.json > target/BENCH_scale.fresh.json
echo "    wrote target/BENCH_scale.fresh.json (scale sweep + intra-trial shard + instance-plane rows)"

echo "==> benchmark self-test: perfbench at toy sizes (its own package, path deps on the workspace)"
# perfbench is a standalone package outside the workspace, so the
# workspace test run above never builds it: a workspace API change can
# break the benchmark unnoticed. Its tests run every workload at toy n.
# Known failure (ROADMAP): on a fast enough machine the 0.2 s toy
# sync-sharded run reaches decision 549, which ends in Fail at n = 64.
cargo test --release --manifest-path perfbench/Cargo.toml

echo "CI OK"
