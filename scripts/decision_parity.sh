#!/usr/bin/env bash
# Decision-log parity harness for scheduler/queue refactors.
#
# Any change to scheduler queue data structures must keep decision semantics
# byte-identical (docs/PERFORMANCE.md, "Decision-log parity").  This script
# makes that rule mechanically checkable:
#
#   1. emit mode: run every named scheduler x {no faults, churn-resume,
#      churn-zero, overrun} (x both engines where the scheduler supports
#      them) over
#      generated workloads and save the event logs:
#        scripts/decision_parity.sh emit BUILD_DIR OUT_DIR
#   2. diff mode: require every log pair in two such directories to be
#      byte-identical (`cmp`); on a mismatch, print the decisions-only
#      `dagsched trace diff --decisions` to locate the first divergence.
#      Node preemption counts, busy proc-time and end time never reach an
#      event log, so each cell's flat "metrics" object in the two merged
#      sweep reports must be identical too:
#        scripts/decision_parity.sh diff BUILD_DIR PRE_DIR POST_DIR
#   3. telemetry mode: run the whole matrix twice -- once plain
#      (--no-telemetry), once with per-cell telemetry recorders attached --
#      and require the event logs to be byte-identical (the obs/telemetry
#      off==seed contract):
#        scripts/decision_parity.sh telemetry BUILD_DIR
#   4. resume mode: for every combo, kill a checkpointing run at a mid-run
#      decision (--die-at-decision, exit 9), resume from the last snapshot,
#      and require the resumed event log to be byte-identical to the
#      uninterrupted run's suffix (docs/RECOVERY.md) and the resumed run's
#      summary (jobs, completed, profit, decisions, node/job preemptions,
#      busy proc-time, ...) to equal the uninterrupted run's, minus the
#      `resumed from:` and `wrote N events` lines:
#        scripts/decision_parity.sh resume BUILD_DIR
#
# emit and telemetry run the matrix through `dagsched sweep` (docs/SWEEP.md):
# one process fans the cells across PARITY_JOBS worker threads (default:
# nproc) and the per-cell event logs are byte-identical to serial runs by
# the sweep determinism contract.  resume mode stays per-process (it drives
# kill/resume of whole CLI invocations) but runs PARITY_JOBS combos at a
# time.  Typical use: emit with the pre-change binary, apply the change,
# rebuild, emit again, then diff.  Exits non-zero on the first divergence.
set -euo pipefail

mode="${1:?usage: decision_parity.sh emit BUILD_DIR OUT_DIR | diff BUILD_DIR PRE_DIR POST_DIR}"
build="${2:?missing BUILD_DIR}"
cli="$build/tools/dagsched"
[ -x "$cli" ] || { echo "no dagsched CLI at $cli" >&2; exit 2; }

jobs="${PARITY_JOBS:-$(nproc 2>/dev/null || echo 4)}"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

# Workloads: a deadline-heavy thm2 instance (exercises Q/P admission and
# drains) and a profit-function instance for the Section-5 scheduler.
gen_workloads() {
  "$cli" generate --scenario thm2 --load 0.9 --m 16 --horizon 400 --seed 7 \
    --out "$workdir/thm2.wl" >/dev/null
  "$cli" generate --scenario tight --load 1.4 --m 8 --horizon 300 --seed 11 \
    --out "$workdir/tight.wl" >/dev/null
  "$cli" generate --scenario profit --load 0.8 --m 16 --horizon 200 --seed 3 \
    --out "$workdir/profit.wl" >/dev/null
}

fault_modes="none churn-resume churn-zero overrun"

# scheduler:engine pairs; the profit scheduler is slot-engine-only.
combos() {
  local s
  for s in s s-wc s-noadm edf llf hdf fcfs federated equi equi-profit; do
    echo "$s event thm2"
    echo "$s slot thm2"
    echo "$s event tight"
  done
  echo "profit slot profit"
}

fault_spec() {
  case "$1" in
    none) echo "" ;;
    churn-resume)
      echo "mtbf=60,mttr=20,horizon=300,seed=5,min-procs=4,restart=resume" ;;
    churn-zero)
      echo "mtbf=45,mttr=15,horizon=300,seed=9,min-procs=4,restart=zero" ;;
    # Scaled node works: half the nodes run up to twice their declared work,
    # so the logs byte-check the actual works a job's unfolding is built
    # with (at its first allocation) and its `work-overrun` arrival event.
    overrun) echo "overrun-prob=0.5,overrun-factor=2,seed=13" ;;
  esac
}

fault_args() {
  local spec
  spec="$(fault_spec "$1")"
  [ -n "$spec" ] && echo "--faults $spec" || echo ""
}

# The full parity matrix as a `dagsched sweep --cells` file: cell ids keep
# the ${sched}_${engine}_${wl}_${fmode} tag naming, so per-cell event logs
# land under the same file names the per-process loop used to write.
gen_cells() {
  local out="$1" line sched engine wl fmode
  : > "$out"
  while read -r line; do
    read -r sched engine wl <<<"$line"
    for fmode in $fault_modes; do
      printf '{"id":"%s_%s_%s_%s","workload":"%s","scheduler":"%s","engine":"%s","fault":"%s","faults":"%s"}\n' \
        "$sched" "$engine" "$wl" "$fmode" "$workdir/$wl.wl" "$sched" \
        "$engine" "$fmode" "$(fault_spec "$fmode")" >> "$out"
    done
  done < <(combos)
}

emit() {
  local out="$1"
  mkdir -p "$out"
  gen_workloads
  gen_cells "$workdir/cells.jsonl"
  # The merged report has no .jsonl suffix so diff mode's *.jsonl glob
  # only ever sees event logs.
  "$cli" sweep --cells "$workdir/cells.jsonl" --m 16 \
    --sweep-jobs "$jobs" --events-dir "$out" --out "$out/sweep.report" \
    --quiet >/dev/null
  echo "emitted $(ls "$out"/*.jsonl | wc -l) event logs to $out" \
    "(merged sweep report: $out/sweep.report)"
}

diff_dirs() {
  local pre="$1" post="$2" fail=0 f base
  for f in "$pre"/*.jsonl; do
    base="$(basename "$f")"
    if [ ! -f "$post/$base" ]; then
      echo "MISSING in post: $base"; fail=1; continue
    fi
    if ! cmp -s "$f" "$post/$base"; then
      echo "DIVERGED: $base"
      "$cli" trace diff "$f" "$post/$base" --decisions || true
      fail=1
    fi
  done
  if [ ! -f "$pre/sweep.report" ] || [ ! -f "$post/sweep.report" ]; then
    echo "MISSING sweep.report in $pre or $post"; fail=1
  else
    local diverged
    diverged="$(awk -F '\t' '
      NR == FNR { want[$1] = $2; next }
      { got[$1] = $2 }
      END {
        for (id in want) {
          if (!(id in got)) print "MISSING cell metrics in post: " id
          else if (want[id] != got[id])
            print "METRICS DIVERGED: " id " pre=" want[id] " post=" got[id]
        }
      }' <(cell_metrics "$pre/sweep.report") \
         <(cell_metrics "$post/sweep.report") | sort)"
    if [ -n "$diverged" ]; then
      echo "$diverged"; fail=1
    fi
  fi
  [ "$fail" -eq 0 ] && echo "decision-log parity: all $(ls "$pre"/*.jsonl | wc -l) combos byte-identical, cell metrics identical"
  return "$fail"
}

# One "ID<TAB>{metrics}" line per cell of a merged sweep report.  The
# metrics object is flat, so it ends at the first closing brace.
cell_metrics() {
  sed -n 's/.*"id":"\([^"]*\)".*"metrics":\({[^}]*}\).*/\1\t\2/p' "$1"
}

telemetry_check() {
  gen_workloads
  gen_cells "$workdir/cells.jsonl"
  "$cli" sweep --cells "$workdir/cells.jsonl" --m 16 --sweep-jobs "$jobs" \
    --no-telemetry --events-dir "$workdir/events_off" --quiet >/dev/null
  "$cli" sweep --cells "$workdir/cells.jsonl" --m 16 --sweep-jobs "$jobs" \
    --events-dir "$workdir/events_on" --quiet >/dev/null
  local fail=0 n=0 f base
  for f in "$workdir/events_off"/*.jsonl; do
    base="$(basename "$f")"
    n=$((n + 1))
    if ! cmp -s "$f" "$workdir/events_on/$base"; then
      echo "TELEMETRY DIVERGED: ${base%.jsonl}"
      "$cli" trace diff "$f" "$workdir/events_on/$base" --decisions || true
      fail=1
    fi
  done
  [ "$fail" -eq 0 ] && \
    echo "telemetry parity: all $n combos byte-identical with telemetry attached"
  return "$fail"
}

# A `dagsched run` summary without the lines that name the run's own files:
# `resumed from:` and the event log's `wrote N events to PATH` (the log
# itself is compared separately).
summary_counters() {
  grep -v -e '^resumed from:' -e '^wrote ' "$1"
}

# One kill/resume combo; always returns 0 and records the outcome as a
# status file so the parallel pool can aggregate after `wait`.
resume_one() {
  local sched="$1" engine="$2" wl="$3" fmode="$4"
  local fargs tag decisions kill_at interval status emitted
  fargs="$(fault_args "$fmode")"
  tag="${sched}_${engine}_${wl}_${fmode}"
  # Uninterrupted reference run.
  # shellcheck disable=SC2086
  "$cli" run "$workdir/$wl.wl" --scheduler "$sched" --engine "$engine" \
    --m 16 $fargs --events "$workdir/$tag.full.jsonl" \
    > "$workdir/$tag.summary.txt"
  decisions="$(awk '/^decisions:/{print $2}' "$workdir/$tag.summary.txt")"
  if [ "$decisions" -lt 3 ]; then
    : > "$workdir/status/$tag.skip"
    return 0
  fi
  # Kill a checkpointing run halfway; the interval guarantees at least
  # one snapshot lands before the kill point.
  kill_at=$((decisions / 2))
  [ "$kill_at" -lt 2 ] && kill_at=2
  interval=$((kill_at / 3))
  [ "$interval" -lt 1 ] && interval=1
  status=0
  # shellcheck disable=SC2086
  "$cli" run "$workdir/$wl.wl" --scheduler "$sched" --engine "$engine" \
    --m 16 $fargs --events "$workdir/$tag.killed.jsonl" \
    --checkpoint "$workdir/$tag.ckpt" --checkpoint-interval "$interval" \
    --die-at-decision "$kill_at" >/dev/null || status=$?
  if [ "$status" -ne 9 ]; then
    echo "KILL DID NOT EXIT 9 (got $status): $tag" > "$workdir/status/$tag.fail"
    return 0
  fi
  emitted="$("$cli" checkpoint info "$workdir/$tag.ckpt" \
    | awk '/^events_emitted:/{print $2}')"
  # Resume and compare against the reference log's suffix, then the
  # restored counters against the reference summary.
  # shellcheck disable=SC2086
  "$cli" run "$workdir/$wl.wl" --scheduler "$sched" --engine "$engine" \
    --m 16 $fargs --resume "$workdir/$tag.ckpt" \
    --events "$workdir/$tag.resumed.jsonl" \
    > "$workdir/$tag.resumed_summary.txt"
  if ! cmp -s <(tail -n +$((emitted + 1)) "$workdir/$tag.full.jsonl") \
      "$workdir/$tag.resumed.jsonl"; then
    echo "RESUME DIVERGED: $tag (checkpoint events_emitted=$emitted)" \
      > "$workdir/status/$tag.fail"
    return 0
  fi
  if ! cmp -s <(summary_counters "$workdir/$tag.summary.txt") \
      <(summary_counters "$workdir/$tag.resumed_summary.txt"); then
    echo "RESUME SUMMARY DIVERGED: $tag" > "$workdir/status/$tag.fail"
    diff <(summary_counters "$workdir/$tag.summary.txt") \
      <(summary_counters "$workdir/$tag.resumed_summary.txt") \
      >> "$workdir/status/$tag.fail" || true
    return 0
  fi
  : > "$workdir/status/$tag.ok"
}

resume_check() {
  gen_workloads
  mkdir -p "$workdir/status"
  local line sched engine wl fmode
  while read -r line; do
    read -r sched engine wl <<<"$line"
    for fmode in $fault_modes; do
      while [ "$(jobs -rp | wc -l)" -ge "$jobs" ]; do wait -n || true; done
      resume_one "$sched" "$engine" "$wl" "$fmode" &
    done
  done < <(combos)
  wait
  local fails skips runs
  fails="$(find "$workdir/status" -name '*.fail' | wc -l)"
  skips="$(find "$workdir/status" -name '*.skip' | wc -l)"
  runs="$(find "$workdir/status" -name '*.ok' | wc -l)"
  if [ "$fails" -ne 0 ]; then
    cat "$workdir/status"/*.fail
    return 1
  fi
  echo "crash-recovery parity: all $runs kill-resume" \
    "combos byte-identical with equal summaries ($skips skipped as too short)"
}

case "$mode" in
  emit) emit "${3:?missing OUT_DIR}" ;;
  diff) diff_dirs "${3:?missing PRE_DIR}" "${4:?missing POST_DIR}" ;;
  telemetry) telemetry_check ;;
  resume) resume_check ;;
  *) echo "unknown mode $mode" >&2; exit 2 ;;
esac
