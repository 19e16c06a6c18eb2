#!/usr/bin/env bash
# End-to-end checkpoint/resume smoke for hmcs_run (docs/ROBUSTNESS.md):
# run a DES sweep with a journal, SIGINT it mid-flight, resume from the
# journal, and require the resumed CSV/JSON artifacts to be
# byte-identical to an uninterrupted reference run.
#
# Usage: scripts/ci_resume_smoke.sh [path/to/hmcs_run]
set -euo pipefail

HMCS_RUN=${1:-./build/tools/hmcs_run}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# A sweep heavy enough to survive a couple of seconds on CI hardware
# (roughly tens of seconds in total), so the interrupt lands mid-grid.
cat > "$WORK/sweep.json" <<'EOF'
{
  "id": "resume_smoke",
  "mode": "cartesian",
  "seed": 7,
  "axes": {
    "clusters": [1, 2, 4, 8, 16, 32],
    "message_bytes": [1024, 512],
    "lambda_per_s": [250],
    "architecture": ["blocking"],
    "technology": ["case1"]
  },
  "backends": [
    {"type": "analytic"},
    {"type": "des", "messages": 3000000, "warmup": 5000}
  ]
}
EOF

echo "== reference (uninterrupted) run =="
"$HMCS_RUN" --config "$WORK/sweep.json" --threads 2 \
  --csv-dir "$WORK/ref" --json-dir "$WORK/ref" > "$WORK/ref.txt"

echo "== interrupted run (SIGINT after 3s) =="
set +e
"$HMCS_RUN" --config "$WORK/sweep.json" --threads 2 \
  --journal "$WORK/run.jsonl" \
  --csv-dir "$WORK/part" --json-dir "$WORK/part" > "$WORK/part.txt" 2>&1 &
pid=$!
sleep 3
kill -INT "$pid"
wait "$pid"
status=$?
set -e
if [ "$status" -ne 130 ]; then
  echo "FAIL: interrupted run exited $status, expected 130" >&2
  cat "$WORK/part.txt" >&2
  exit 1
fi
journaled=$(grep -c '"cell"' "$WORK/run.jsonl" || true)
echo "journaled cells: $journaled"
if [ "$journaled" -ge 24 ]; then
  echo "FAIL: the interrupt landed after the sweep finished; nothing" \
       "was left to resume (increase messages)" >&2
  exit 1
fi

echo "== resumed run =="
"$HMCS_RUN" --config "$WORK/sweep.json" --threads 2 \
  --resume "$WORK/run.jsonl" \
  --csv-dir "$WORK/res" --json-dir "$WORK/res" > "$WORK/res.txt"

cmp "$WORK/ref/resume_smoke.csv" "$WORK/res/resume_smoke.csv"
cmp "$WORK/ref/resume_smoke.json" "$WORK/res/resume_smoke.json"
echo "PASS: resumed artifacts are byte-identical to the uninterrupted run"
