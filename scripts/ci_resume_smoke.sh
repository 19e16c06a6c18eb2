#!/usr/bin/env bash
# End-to-end checkpoint/resume smoke for hmcs_run (docs/ROBUSTNESS.md):
# run a DES sweep with a journal, SIGINT it mid-flight, resume from the
# journal, and require the resumed CSV/JSON artifacts to be
# byte-identical to an uninterrupted reference run. The reference run is
# also repeated into its own outputs, one of them a symlink, and must
# rewrite them byte for byte, writing through the symlink.
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
  --journal "$WORK/ref.jsonl" \
  --csv-dir "$WORK/ref" --json-dir "$WORK/ref" > "$WORK/ref.txt"

echo "== reference re-run into the same outputs =="
mkdir "$WORK/first"
cp "$WORK/ref/resume_smoke.csv" "$WORK/ref/resume_smoke.json" \
  "$WORK/ref.jsonl" "$WORK/first/"
# The CSV path becomes a symlink to an emptied file: the re-run must
# write through the link, not replace it.
mv "$WORK/ref/resume_smoke.csv" "$WORK/csv_target.csv"
: > "$WORK/csv_target.csv"
ln -s "$WORK/csv_target.csv" "$WORK/ref/resume_smoke.csv"
"$HMCS_RUN" --config "$WORK/sweep.json" --threads 2 \
  --journal "$WORK/ref.jsonl" \
  --csv-dir "$WORK/ref" --json-dir "$WORK/ref" > "$WORK/rerun.txt"
if [ ! -L "$WORK/ref/resume_smoke.csv" ]; then
  echo "FAIL: the re-run replaced the CSV symlink with a file" >&2
  exit 1
fi
cmp "$WORK/first/resume_smoke.csv" "$WORK/csv_target.csv"
cmp "$WORK/first/resume_smoke.json" "$WORK/ref/resume_smoke.json"
cmp "$WORK/ref.txt" "$WORK/rerun.txt"
# Two workers journal cells in the order they finish, so the journals
# hold the same lines, not necessarily in the same order.
cmp <(sort "$WORK/first/ref.jsonl") <(sort "$WORK/ref.jsonl")
echo "re-run outputs are byte-identical; the CSV symlink was written through"

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
