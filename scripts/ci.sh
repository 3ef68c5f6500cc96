#!/usr/bin/env bash
# CI entry point — the same commands run locally (`make ci`) and in
# .github/workflows/ci.yml, so a green local run means a green pipeline.
#
# Usage: scripts/ci.sh [tests|lint|smoke|faults|bench|ingest|fabric|policies|chaos|all]
#
# Subcommands:
#   tests   tier-1 test suite (the gate every PR must keep green)
#   lint    ruff over src/ tests/ benchmarks/ (skipped with a notice
#           when ruff is not installed, unless $CI is set)
#   smoke   benchmarks/bench_ci_smoke.py at reduced scale: asserts
#           parallel == serial bit-for-bit, warm cache >= 5x cold,
#           telemetry-on == telemetry-off, and Table 1 with
#           keep_results (state samples on) == the summary-only run's
#           per-cell summary digests; then drives the CLI with
#           --telemetry-dir --profile --events, checks the summary
#           matches the plain run, the layer table lists
#           pool.fill_machine and events.pop, the exported snapshot
#           parses with nonzero event counters, and `repro stats`
#           renders the layer table
#   faults  benchmarks/bench_faults_smoke.py: same-seed fault run is
#           byte-identical across runs, fault-enabled grids match
#           serial vs parallel and keep_result (samples on) vs
#           summary-only, and a grid survives a forced worker
#           kill; then checks `repro run` with churn flags is
#           byte-identical across two invocations
#   bench   engine-throughput gate: perfbench's own tests (its probes
#           wrap named engine methods, so a rename fails here), then
#           measures the quick workload matrix
#           (scripts/bench_record.py --check) and fails when
#           calibration-normalised throughput regresses more than 20%
#           against the last committed BENCH_engine.json record
#   ingest  streaming-ingestion gate: trace-adapter test files (with
#           the pinned replay-parity digests and the SWF tokenizer-vs-
#           reference property test), then a 100k-job synthetic SWF
#           fixture generated and replayed
#           end-to-end with a hard peak-RSS ceiling
#           (${INGEST_RSS_MB:-256} MB, measured via getrusage) and a
#           JSON-output schema check; finally the BENCH_ingest.json
#           regression gate (throughput drop > 20% normalised, or RSS
#           growth past the recorded baseline, fails the leg)
#   fabric  distributed-fabric gate: lease/worker/coordinator/zygote
#           test files, then a real 2-worker subprocess fleet racing the
#           smoke grid (benchmarks/bench_fabric_smoke.py — sharded
#           results must be bit-identical to serial), a CLI run-grid +
#           cache stats/gc round trip, a cache-less `--backend local:2`
#           fault-sweep whose digest must equal the serial run's (the
#           temporary-cache path), the same fleet launched from a
#           script without a main guard (must run once, same digest:
#           workers fork from a zygote and never re-run __main__),
#           and the BENCH_grid.json
#           regression gate (scripts/bench_record.py --grid --check
#           --quick: digest flips, >20% cells/sec drops, or the padded
#           grid's 4-worker overlap speedup falling under 3x fail the
#           leg)
#   policies  policy-registry gate: the registry/spec/plugin test
#           file, then benchmarks/bench_policies_smoke.py (registry-
#           routed baselines bit-identical to direct construction, and
#           the NoRes-vs-dfrs fractional smoke grid deterministic
#           across two runs); finally `repro policies list` and a
#           same-spec `repro run --policy dfrs:...` pair that must be
#           byte-identical
#   chaos   robustness gate: chaos-plan/audit/supervisor test files
#           (including the seeded scenario matrix against a live
#           supervised fleet), benchmarks/bench_chaos_smoke.py
#           (kill-storm converges with quarantine, the straggler
#           control stays quiet), a `repro chaos run` CLI round trip,
#           and the BENCH_chaos.json gate (scripts/bench_record.py
#           --chaos --check: any invariant violation, or a scenario's
#           recovery time regressing more than 25% past the committed
#           baseline, fails the leg)
#   all     tests + lint + smoke + faults (default; bench, ingest,
#           fabric and chaos are their own CI jobs because they are
#           timing-sensitive, and policies is its own job so a
#           registry regression is named in the check list)

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:}${PYTHONPATH:-}"

run_tests() {
    echo "== tier-1 tests =="
    python -m pytest tests/ -q
}

run_lint() {
    echo "== lint (ruff) =="
    if command -v ruff >/dev/null 2>&1; then
        ruff check src tests benchmarks
    elif [ -n "${CI:-}" ]; then
        echo "error: ruff is required in CI but is not installed" >&2
        exit 1
    else
        echo "ruff not installed locally; skipping lint (CI runs it)"
    fi
}

run_smoke() {
    echo "== CI smoke: serial-vs-parallel equivalence + cache speedup =="
    REPRO_SCALE="${REPRO_SCALE:-0.08}" \
        python -m pytest benchmarks/bench_ci_smoke.py -q -s

    echo "== CI smoke: CLI telemetry export =="
    local teldir
    teldir="$(mktemp -d)"
    trap 'rm -rf "$teldir"' RETURN
    # same reduced-scale run with every tap on (metrics, event log,
    # layer profile) and with none; the printed summary (everything but
    # the "wrote ..." lines, the layer table and the blank lines they
    # leave at the end) must be identical, proving telemetry never
    # touches the simulation.
    python -m repro run --scenario smoke --policy ResSusUtil \
        --telemetry-dir "$teldir/metrics" --profile \
        --events "$teldir/events.jsonl" > "$teldir/on-full.txt"
    grep -v '^wrote ' "$teldir/on-full.txt" | sed '/^layer /,/^total: /d' \
        | sed -e :a -e '/^\n*$/{$d;N;ba' -e '}' > "$teldir/on.txt"
    python -m repro run --scenario smoke --policy ResSusUtil > "$teldir/off.txt"
    if ! diff -u "$teldir/off.txt" "$teldir/on.txt"; then
        echo "error: simulation output changed when telemetry was enabled" >&2
        exit 1
    fi
    for layer in pool.fill_machine events.pop; do
        if ! grep -q "^$layer " "$teldir/on-full.txt"; then
            echo "error: the --profile layer table does not list $layer" >&2
            exit 1
        fi
    done
    TELDIR="$teldir/metrics" python - <<'EOF'
import os
from repro.telemetry import load_telemetry_dir, parse_prometheus

teldir = os.environ["TELDIR"]
stats = load_telemetry_dir(teldir)
events = stats.by_name("repro_sim_events_total")
assert events, "snapshot is missing repro_sim_events_total"
total = sum(s["value"] for s in events)
assert total > 0, "event counters are all zero"
with open(os.path.join(teldir, "metrics.prom"), encoding="utf-8") as handle:
    samples = parse_prometheus(handle.read())
assert samples, "prometheus export did not parse"
print(f"telemetry snapshot OK: {total:.0f} events across {len(events)} counters")
EOF
    python -m repro stats "$teldir/metrics" > "$teldir/stats.txt"
    if ! grep -q '^  pool.fill_machine ' "$teldir/stats.txt"; then
        echo "error: repro stats did not render the engine layer table" >&2
        exit 1
    fi
    echo "CLI telemetry export OK"
}

run_faults() {
    echo "== CI faults: deterministic injection + crash-tolerant grids =="
    python -m pytest benchmarks/bench_faults_smoke.py -q -s

    echo "== CI faults: CLI fault run is reproducible =="
    local fdir
    fdir="$(mktemp -d)"
    trap 'rm -rf "$fdir"' RETURN
    python -m repro run --scenario smoke \
        --machine-mtbf 3000 --machine-mttr 60 > "$fdir/a.txt"
    python -m repro run --scenario smoke \
        --machine-mtbf 3000 --machine-mttr 60 > "$fdir/b.txt"
    if ! diff -u "$fdir/a.txt" "$fdir/b.txt"; then
        echo "error: same-seed fault-injected CLI runs diverged" >&2
        exit 1
    fi
    if ! grep -qi 'crash' "$fdir/a.txt"; then
        echo "error: fault-injected run reported no crashes" >&2
        exit 1
    fi
    echo "CLI fault run OK"
}

run_bench() {
    echo "== bench: perfbench contract (probed names, digests) =="
    # The traced-replay test installs every engine probe, so a refactor
    # that renames a probed method fails here rather than in the
    # benchmark run.
    python -m pytest perfbench -q

    echo "== bench: engine-throughput trajectory gate =="
    python scripts/bench_record.py --check --quick --skip-table1 \
        --threshold "${BENCH_THRESHOLD:-0.20}" --output BENCH_engine.json
}

run_ingest() {
    echo "== ingest: trace adapter + streaming-results tests =="
    python -m pytest tests/test_traces_swf.py tests/test_traces_google.py \
        tests/test_traces_replay.py tests/test_traces_parity.py \
        tests/test_online_results.py tests/test_streaming_engine.py \
        tests/test_ingest_bench.py -q

    echo "== ingest: 100k-job SWF replay under a hard RSS ceiling =="
    local idir ceiling
    idir="$(mktemp -d)"
    trap 'rm -rf "$idir"' RETURN
    ceiling="${INGEST_RSS_MB:-256}"
    python -m repro make-fixture "$idir/fixture.swf" --format swf \
        --jobs "${INGEST_JOBS:-100000}" --seed 1
    python -m repro ingest "$idir/fixture.swf" --format swf --scale 0.1 \
        --rss-ceiling-mb "$ceiling" --json > "$idir/ingest.json"
    INGEST_JSON="$idir/ingest.json" INGEST_RSS_MB="$ceiling" python - <<'EOF'
import json, os

with open(os.environ["INGEST_JSON"], encoding="utf-8") as handle:
    report = json.load(handle)
required = (
    "path", "format", "policy", "jobs", "completed", "rejected",
    "wall_seconds", "jobs_per_second", "peak_rss_mb", "total_cores",
)
missing = [key for key in required if key not in report]
assert not missing, f"ingest JSON is missing keys: {missing}"
assert report["jobs"] > 0 and report["completed"] > 0, report
ceiling = float(os.environ["INGEST_RSS_MB"])
assert report["peak_rss_mb"] <= ceiling, (
    f"peak RSS {report['peak_rss_mb']:.0f} MB breached the "
    f"{ceiling:.0f} MB ceiling"
)
print(
    f"ingest OK: {report['jobs']} jobs at "
    f"{report['jobs_per_second']:,.0f} jobs/s, "
    f"peak RSS {report['peak_rss_mb']:.0f} MB (ceiling {ceiling:.0f} MB)"
)
EOF

    echo "== ingest: BENCH_ingest.json regression gate =="
    python scripts/bench_record.py --ingest --check \
        --threshold "${BENCH_THRESHOLD:-0.20}" --output BENCH_ingest.json
}

run_fabric() {
    echo "== fabric: lease protocol + worker + coordinator tests =="
    python -m pytest tests/test_fabric_lease.py tests/test_fabric.py \
        tests/test_cache_gc.py tests/test_zygote.py -q

    echo "== fabric: 2-worker subprocess fleet vs serial (bit-identical) =="
    python -m pytest benchmarks/bench_fabric_smoke.py -q -s

    echo "== fabric: CLI run-grid + cache stats/gc round trip =="
    local fdir
    fdir="$(mktemp -d)"
    trap 'rm -rf "$fdir"' RETURN
    python -m repro run-grid --preset smoke --backend subprocess:2 \
        --cache-dir "$fdir/cache" > "$fdir/cold.txt"
    python -m repro run-grid --preset smoke --backend subprocess:2 \
        --cache-dir "$fdir/cache" > "$fdir/warm.txt"
    if ! grep -q 'cells: .*cache' "$fdir/warm.txt" \
            || grep -q 'simulated' "$fdir/warm.txt"; then
        echo "error: warm run-grid rerun did not hit the cache" >&2
        cat "$fdir/warm.txt" >&2
        exit 1
    fi
    python -m repro cache stats "$fdir/cache" > /dev/null
    python -m repro cache gc "$fdir/cache" --max-age 0s > /dev/null
    if ! python -m repro cache stats "$fdir/cache" \
            | grep -q ': 0 entries, .* 0 lease file(s)'; then
        echo "error: cache gc --max-age 0s left entries behind" >&2
        exit 1
    fi
    echo "CLI run-grid round trip OK"

    echo "== fabric: cache-less local:2 fleet vs serial (same digest) =="
    python -m repro run-grid --preset fault-sweep --scale 0.06 \
        --backend local --no-cache > "$fdir/serial.txt"
    python -m repro run-grid --preset fault-sweep --scale 0.06 \
        --backend local:2 --no-cache > "$fdir/local2.txt"
    if ! grep -q '^  digest ' "$fdir/serial.txt" \
            || ! diff <(grep '^  digest ' "$fdir/serial.txt") \
                <(grep '^  digest ' "$fdir/local2.txt"); then
        echo "error: cache-less local:2 digest differs from serial" >&2
        cat "$fdir/serial.txt" "$fdir/local2.txt" >&2
        exit 1
    fi
    echo "cache-less local:2 fleet OK ($(grep '^  digest ' "$fdir/local2.txt"))"

    echo "== fabric: unguarded script on local:2 runs once, same digest =="
    # Workers fork from a preloaded zygote; none may re-run the
    # caller's __main__, even one without an `if __name__` guard.
    cat > "$fdir/unguarded.py" <<EOF
from repro.cli import main
with open("$fdir/runs.txt", "a") as handle:
    handle.write("ran\n")
main(["run-grid", "--preset", "fault-sweep", "--scale", "0.06",
      "--backend", "local:2", "--no-cache"])
EOF
    python "$fdir/unguarded.py" > "$fdir/unguarded.txt"
    if [ "$(cat "$fdir/runs.txt")" != "ran" ] \
            || ! diff <(grep '^  digest ' "$fdir/serial.txt") \
                <(grep '^  digest ' "$fdir/unguarded.txt"); then
        echo "error: unguarded script re-ran or its digest differs from serial" >&2
        cat "$fdir/runs.txt" "$fdir/unguarded.txt" >&2
        exit 1
    fi
    echo "unguarded script OK (ran once)"

    echo "== fabric: BENCH_grid.json regression gate =="
    python scripts/bench_record.py --grid --check --quick \
        --threshold "${BENCH_THRESHOLD:-0.20}" --output BENCH_grid.json
}

run_policies() {
    echo "== policies: registry / spec / plugin tests =="
    python -m pytest tests/test_policy_registry.py -q

    echo "== policies: registry == direct + fractional grid determinism =="
    python -m pytest benchmarks/bench_policies_smoke.py -q -s

    echo "== policies: CLI spec round trip is reproducible =="
    local pdir
    pdir="$(mktemp -d)"
    trap 'rm -rf "$pdir"' RETURN
    python -m repro policies list > "$pdir/list.txt"
    if ! grep -q 'dfrs' "$pdir/list.txt" \
            || ! grep -q 'migration_cost' "$pdir/list.txt"; then
        echo "error: 'repro policies list' is missing the new families" >&2
        cat "$pdir/list.txt" >&2
        exit 1
    fi
    python -m repro run --scenario smoke \
        --policy dfrs:share=0.5,floor=0.1 > "$pdir/a.txt"
    python -m repro run --scenario smoke \
        --policy dfrs:share=0.5,floor=0.1 > "$pdir/b.txt"
    if ! diff -u "$pdir/a.txt" "$pdir/b.txt"; then
        echo "error: same-spec fractional CLI runs diverged" >&2
        exit 1
    fi
    if ! grep -q 'DFRS\[share=0.5,floor=0.1\]' "$pdir/a.txt"; then
        echo "error: fractional run did not report the DFRS policy name" >&2
        cat "$pdir/a.txt" >&2
        exit 1
    fi
    echo "CLI policy spec round trip OK"
}

run_chaos() {
    echo "== chaos: plan / invariant-audit / supervisor tests =="
    python -m pytest tests/test_chaos.py tests/test_supervisor.py -q

    echo "== chaos: kill-storm + straggler control vs live fleet =="
    python -m pytest benchmarks/bench_chaos_smoke.py -q -s

    echo "== chaos: CLI scenario round trip =="
    local cdir
    cdir="$(mktemp -d)"
    trap 'rm -rf "$cdir"' RETURN
    python -m repro chaos list > "$cdir/list.txt"
    for scenario in kill-storm heartbeat-freeze corruption straggler; do
        if ! grep -q "$scenario" "$cdir/list.txt"; then
            echo "error: 'repro chaos list' is missing $scenario" >&2
            cat "$cdir/list.txt" >&2
            exit 1
        fi
    done
    python -m repro chaos run --scenario straggler --seed 2010 --json \
        > "$cdir/report.json"
    CHAOS_JSON="$cdir/report.json" python - <<'EOF'
import json, os

with open(os.environ["CHAOS_JSON"], encoding="utf-8") as handle:
    report = json.load(handle)
assert report["ok"], report["violations"]
assert report["cells"] > 0, report
assert report["restarts"] == 0, "the control scenario restarted workers"
assert report["quarantined"] == 0, "the control scenario quarantined a slot"
print(
    f"chaos CLI OK: {report['scenario']} converged over "
    f"{report['cells']} cells in {report['wall_seconds']:.2f}s"
)
EOF
    echo "CLI chaos round trip OK"

    echo "== chaos: BENCH_chaos.json recovery regression gate =="
    python scripts/bench_record.py --chaos --check \
        --threshold "${CHAOS_THRESHOLD:-0.25}" --output BENCH_chaos.json
}

case "${1:-all}" in
    tests)  run_tests ;;
    lint)   run_lint ;;
    smoke)  run_smoke ;;
    faults) run_faults ;;
    bench)  run_bench ;;
    ingest) run_ingest ;;
    fabric) run_fabric ;;
    policies) run_policies ;;
    chaos)  run_chaos ;;
    all)    run_tests; run_lint; run_smoke; run_faults ;;
    *)
        echo "usage: scripts/ci.sh [tests|lint|smoke|faults|bench|ingest|fabric|policies|chaos|all]" >&2
        exit 2
        ;;
esac
