#!/usr/bin/env sh
# Profile one benchmark and print its CPU share by layer.
#
# Usage:
#   scripts/profile.sh <bench regex>
#   scripts/profile.sh 'StoreSweepWorkers/workers=1$'
#   PKG=./internal/register scripts/profile.sh VerifyStoreRun
#   BENCHTIME=5s scripts/profile.sh StoreSweepWorkers
#   PROFILE_DIR=prof scripts/profile.sh StoreSweepWorkers   # keep the profile
#
# The benchmark runs once (go test -count=1, BENCHTIME default 2s) with
# -cpuprofile. Every sample is charged to the innermost frame of its stack
# that belongs to a layer, so runtime work (allocation, map access) counts
# toward the layer that called it, and garbage collection counts on its own:
#
#   gc        background marking and sweeping, mark assists
#   extract   register op-history extraction (keyedHistory, ExtractKeyedOps)
#   check     the linearizability checker and VerifyStoreRun*
#   node      the rest of package register: StoreNode, its wire batches,
#             the stop predicate
#   sched     the sim scheduler and the pending-message test it calls
#   runner    the rest of package sim: step loop, inboxes, faults, reset
#   trace     package trace (trace recording on traced runs)
#   fd        failure-detector oracles (package fd)
#   sweep     package sweep: run loop, merging
#   other     everything else (other packages, the Go scheduler, testing)
set -eu

if [ $# -ne 1 ]; then
  echo "usage: scripts/profile.sh <bench regex>" >&2
  exit 2
fi

cd "$(dirname "$0")/.."

PKG="${PKG:-.}"
BENCHTIME="${BENCHTIME:-2s}"
if [ -n "${PROFILE_DIR:-}" ]; then
  OUT="$PROFILE_DIR"
  mkdir -p "$OUT"
else
  OUT="$(mktemp -d)"
  trap 'rm -rf "$OUT"' EXIT
fi

go test -run=NONE "-bench=$1" -benchmem -count=1 "-benchtime=$BENCHTIME" \
  -cpuprofile "$OUT/cpu.prof" -o "$OUT/bench.test" "$PKG" | grep -E '^(Benchmark|ok|FAIL)'

go tool pprof -traces "$OUT/bench.test" "$OUT/cpu.prof" 2>/dev/null | awk '
  function ms(v) {
    if (v ~ /ms$/) return substr(v, 1, length(v) - 2) + 0
    if (v ~ /us$/) return (substr(v, 1, length(v) - 2) + 0) / 1000
    if (v ~ /ns$/) return (substr(v, 1, length(v) - 2) + 0) / 1e6
    if (v ~ /s$/) return (substr(v, 1, length(v) - 1) + 0) * 1000
    return v + 0
  }
  function layer(f) {
    if (f ~ /^runtime\.(gcBgMarkWorker|gcAssistAlloc|bgsweep|bgscavenge|gcDrain|markroot)/) return "gc"
    if (f ~ /^repro\/internal\/register\.(\(\*keyedHistory\)\.(extract|byKey)|keyedDesc|ExtractKeyedOps|ExtractOps)/) return "extract"
    if (f ~ /^repro\/internal\/register\.(\(\*keyedHistory\)\.check|\(\*linChecker\)|CheckKeyedLinearizable|CheckLinearizable|VerifyStoreRun)/) return "check"
    if (f ~ /^repro\/internal\/register\./) return "node"
    if (f ~ /^repro\/internal\/sim\.(\(\*(RandomScheduler|RoundRobinScheduler|ScriptedScheduler|lrsList)\)|\(\*Runner\)\.(viewHasPending|hasPending))/) return "sched"
    if (f ~ /^repro\/internal\/sim\./) return "runner"
    if (f ~ /^repro\/internal\/trace\./) return "trace"
    if (f ~ /^repro\/internal\/fd\./) return "fd"
    if (f ~ /^repro\/internal\/sweep\./) return "sweep"
    return ""
  }
  function flush() {
    if (n == 0) return
    got = ""
    for (i = 1; i <= n && got == ""; i++) if (layer(frames[i]) == "gc") got = "gc"
    for (i = 1; i <= n && got == ""; i++) got = layer(frames[i])
    if (got == "") got = "other"
    share[got] += val
    total += val
    n = 0
  }
  /^-+\+-+$/ { flush(); next }
  /^ +[0-9.]+(ns|us|ms|s) +[^ ]/ { flush(); val = ms($1); frames[++n] = $2; next }
  /^ +[^ ]/ && n > 0 { frames[++n] = $1; next }
  END {
    flush()
    if (total == 0) { print "no samples" > "/dev/stderr"; exit 1 }
    printf "%-8s %10s %7s\n", "layer", "cpu_ms", "share"
    split("runner sched node extract check trace fd sweep gc other", order, " ")
    for (k = 1; k <= 10; k++) {
      l = order[k]
      printf "%-8s %10.0f %6.1f%%\n", l, share[l], 100 * share[l] / total
    }
    printf "%-8s %10.0f %6.1f%%\n", "total", total, 100
  }
'
