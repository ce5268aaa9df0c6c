#!/usr/bin/env bash
# bench.sh — run the repo's benchmark suite with -benchmem and save a dated
# JSON snapshot for longitudinal comparison.
#
# Usage:
#   scripts/bench.sh                    # all benchmarks, one iteration each
#   scripts/bench.sh GridConstruction   # filter by benchmark name regex
#   BENCHTIME=2s scripts/bench.sh       # real measurement runs
#   scripts/bench.sh compare            # run fresh, diff vs newest committed
#                                       # BENCH_*.json, write nothing
#   scripts/bench.sh compare Sec65      # compare just the matching benchmarks
#   scripts/bench.sh guard Sec65Extraction 2.0
#                                       # exit 1 if any matching benchmark's
#                                       # allocs/op exceeds 2.0x its committed
#                                       # baseline, or has no baseline row
#                                       # (the ci tripwire)
#   NS_TOL=0.5 scripts/bench.sh guard Fig12Replay
#                                       # guard also fails when ns/op grows
#                                       # more than NS_TOL (fraction, default
#                                       # 0.20 = +20%) over the baseline
#   scripts/bench.sh scale1             # the full-scale flagship: tab3 at
#                                       # -scale 1 through the operand cache,
#                                       # sharded cold + merged + warm, with
#                                       # the warm-cache speedup guard; writes
#                                       # BENCH_scale1_<date>.json
#   SCALE=4 MIN_SPEEDUP=1.5 scripts/bench.sh scale1
#                                       # ci smoke variant: same pipeline at
#                                       # a reduced scale and a looser warm
#                                       # guard; writes no snapshot
#   scripts/bench.sh tracestore         # the persistent-trace-store flagship:
#                                       # the retimed sweep figures (fig12,
#                                       # fig15, fig16) run direct, cold
#                                       # (recording into a fresh store) and
#                                       # warm (fresh process replaying from
#                                       # disk), with byte-identity and
#                                       # minimum-warm-speedup guards; writes
#                                       # BENCH_tracestore_<date>.json
#   SCALE=32 MIN_SPEEDUP=2 scripts/bench.sh tracestore
#                                       # ci smoke variant: reduced scale,
#                                       # looser guard, no snapshot
#
# Guard tolerances (what ci runs, and why):
#   allocs/op factor (arg 2, default 2.0) — allocs at -benchtime 1x are
#     deterministic, so 2.0x only trips when a hot path genuinely
#     reacquired per-task allocation; applies to every guarded benchmark.
#   NS_TOL (default 0.20 local, 3.0 in ci) — fractional ns/op growth over
#     the newest committed snapshot. Local runs use the tight default;
#     ci's shared runners are noisy, so it guards only order-of-magnitude
#     timing cliffs (e.g. a sweep falling off the trace cache).
#   ci's guarded set is Sec65Extraction|Fig12Replay|Fig12ReplayBatched
#     (allocation-sensitive extraction/replay paths, including the batched
#     RetimeBatch sweep) plus Fig14Partition|Fig17MicroTile, the two
#     benchmarks that drifted in mid-2026 (trace-capture overhead on
#     one-shot sweep cells and retained-trace GC pressure, both since
#     fixed) — the guard pins them against the *newest* snapshot so the
#     recovered numbers stay recovered, while `drtmetrics -check` reports
#     the historical trend across all snapshots (see cmd/drtmetrics).
#
# The default mode writes BENCH_<YYYY-MM-DD>.json at the repo root (never
# clobbering an existing snapshot — same-day reruns get an _2, _3, …
# suffix): run metadata plus one entry per benchmark (ns/op, bytes/op,
# allocs/op). Commit a snapshot when a PR intentionally moves performance,
# so regressions have a baseline to diff against. `compare` prints per-
# benchmark deltas against the newest snapshot committed to git; `guard`
# is the non-interactive version ci runs on the allocation-sensitive
# extraction benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."

# host_stamp prints a snapshot's host fields as JSON members: the CPUs the
# OS offers this process, the GOMAXPROCS the runs used (Go's default is
# that CPU count) and the CPU model, so drtmetrics can tell which host
# each snapshot measured.
host_stamp() {
  local ncpu model
  ncpu="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"
  model="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -1 || true)"
  if [ -z "$model" ]; then
    model="$(sysctl -n machdep.cpu.brand_string 2>/dev/null || echo unknown)"
  fi
  model="${model//\\/\\\\}"
  model="${model//\"/\\\"}"
  printf '  "num_cpu": %s,\n  "gomaxprocs": %s,\n  "cpu_model": "%s",\n' \
    "$ncpu" "${GOMAXPROCS:-$ncpu}" "$model"
}

mode=run
case "${1:-}" in
  compare) mode=compare; shift ;;
  guard) mode=guard; shift ;;
  scale1) mode=scale1; shift ;;
  tracestore) mode=tracestore; shift ;;
esac

if [ "$mode" = tracestore ]; then
  # Persistent-trace-store flagship: the retimed sweep figures — fig12,
  # fig15, fig16, which share their prepared workloads, so the warm floor
  # is one preparation pass — run three ways: direct (store off), cold
  # (recording every schedule into a fresh store) and warm (a fresh
  # process replaying everything from disk). Three checks:
  #   1. all three runs print byte-identical tables (replay is bit-for-bit
  #      equal to direct simulation; only the wall-clock lines differ),
  #   2. the warm run is at least MIN_SPEEDUP x faster than the cold one,
  #   3. at the default scale a BENCH_tracestore_<date>.json snapshot is
  #      written — its own drtmetrics series, never mixed with the scaled
  #      BENCH_* drift.
  scale="${SCALE:-16}"
  minspeed="${MIN_SPEEDUP:-5}"
  figs="${FIGS:-fig12,fig15,fig16}"
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
  store="$work/traces"

  go build -o "$work/drtbench" ./cmd/drtbench

  now_ns() { date +%s%N; }
  # The tables are byte-identical; only drtbench's per-experiment
  # wall-clock lines differ between runs.
  norm() { grep -v 'completed in' "$1"; }

  echo "tracestore: direct run ($figs, scale $scale, store off)"
  t0=$(now_ns)
  "$work/drtbench" -exp "$figs" -scale "$scale" -trace-store off > "$work/direct.txt"
  direct=$(( $(now_ns) - t0 ))

  echo "tracestore: cold recording run"
  t0=$(now_ns)
  "$work/drtbench" -exp "$figs" -scale "$scale" -trace-store "$store" > "$work/cold.txt"
  cold=$(( $(now_ns) - t0 ))

  echo "tracestore: warm replay run (fresh process, same store)"
  t0=$(now_ns)
  "$work/drtbench" -exp "$figs" -scale "$scale" -trace-store "$store" > "$work/warm.txt"
  warm=$(( $(now_ns) - t0 ))

  for v in cold warm; do
    if ! diff <(norm "$work/direct.txt") <(norm "$work/$v.txt") > /dev/null; then
      echo "bench.sh: tracestore: $v run's tables differ from direct simulation" >&2
      diff <(norm "$work/direct.txt") <(norm "$work/$v.txt") | head -20 >&2
      exit 1
    fi
  done
  echo "tracestore: cold and warm tables == direct simulation (ok)"

  entries=$(find "$store" -name '*.drtt' | wc -l)
  echo "tracestore: direct $((direct / 1000000)) ms, cold $((cold / 1000000)) ms, warm $((warm / 1000000)) ms ($entries stored traces)"
  if ! awk -v c="$cold" -v w="$warm" -v m="$minspeed" 'BEGIN { exit !(c >= w * m) }'; then
    echo "bench.sh: tracestore: warm store run only $(awk -v c="$cold" -v w="$warm" 'BEGIN{printf "%.1f", c/w}')x faster than cold (need ${minspeed}x)" >&2
    exit 1
  fi
  echo "tracestore: warm speedup $(awk -v c="$cold" -v w="$warm" 'BEGIN{printf "%.1f", c/w}')x (>= ${minspeed}x, ok)"

  if [ "$scale" != 16 ]; then
    echo "tracestore: scale $scale smoke run — no snapshot written"
    exit 0
  fi
  out="BENCH_tracestore_$(date +%F).json"
  n=2
  while [ -e "$out" ]; do
    out="BENCH_tracestore_$(date +%F)_$((n)).json"
    n=$((n + 1))
  done
  {
    printf '{\n  "date": "%s",\n  "go": "%s",\n  "benchtime": "wall",\n' \
      "$(date -u +%FT%TZ)" "$(go env GOVERSION)"
    printf '  "goos": "%s",\n  "goarch": "%s",\n' \
      "$(go env GOOS)" "$(go env GOARCH)"
    host_stamp
    printf '  "note": "%s",\n' "${NOTE:-}"
    printf '  "benchmarks": [\n'
    printf '    {"name":"TracestoreDirect","iterations":1,"ns_per_op":%d},\n' "$direct"
    printf '    {"name":"TracestoreCold","iterations":1,"ns_per_op":%d},\n' "$cold"
    printf '    {"name":"TracestoreWarm","iterations":1,"ns_per_op":%d}\n' "$warm"
    printf '  ]\n}\n'
  } > "$out"
  echo "wrote $out"
  exit 0
fi

if [ "$mode" = scale1 ]; then
  # Full-scale flagship run: tab3 (the matrix inventory — generation and
  # stats, the operand-cache hot path) at -scale 1, run cold as two shards,
  # merged with drtmetrics -merge, then warm unsharded. Three checks:
  #   1. merged shard dump == warm unsharded dump (tables byte-identical;
  #      only per-run meta/counter/timing fields may differ),
  #   2. warm (cache-served) run is at least MIN_SPEEDUP x faster than the
  #      cold (generating) run,
  #   3. at scale 1 a BENCH_scale1_<date>.json snapshot is written — its
  #      own drtmetrics series, never mixed with the scaled BENCH_* drift.
  scale="${SCALE:-1}"
  minspeed="${MIN_SPEEDUP:-10}"
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
  export DRT_OPERAND_CACHE="${DRT_OPERAND_CACHE:-$work/cache}"

  go build -o "$work/drtbench" ./cmd/drtbench
  go build -o "$work/drtmetrics" ./cmd/drtmetrics

  now_ns() { date +%s%N; }

  echo "scale1: cold sharded run (scale $scale, cache $DRT_OPERAND_CACHE)"
  t0=$(now_ns)
  "$work/drtbench" -exp tab3 -scale "$scale" -shard 0/2 -metrics-out "$work/s0.json" > /dev/null
  "$work/drtbench" -exp tab3 -scale "$scale" -shard 1/2 -metrics-out "$work/s1.json" > /dev/null
  cold=$(( $(now_ns) - t0 ))

  "$work/drtmetrics" -merge -o "$work/merged.json" "$work/s0.json" "$work/s1.json"

  echo "scale1: warm unsharded run"
  t0=$(now_ns)
  "$work/drtbench" -exp tab3 -scale "$scale" -metrics-out "$work/warm.json" > /dev/null
  warm=$(( $(now_ns) - t0 ))

  # Strip the per-run fields (the flat meta and counters maps, seconds)
  # and require the remaining table content to match exactly. The
  # counters differ by design: the cold shards count operand-cache
  # misses where the warm run counts hits.
  norm() {
    awk 'BEGIN{inmeta=0}
         /"(meta|counters)": \{/{inmeta=1; next}
         inmeta && /^  \},?$/{inmeta=0; next}
         inmeta{next}
         /"seconds":/{next}
         {print}' "$1"
  }
  if ! diff <(norm "$work/merged.json") <(norm "$work/warm.json") > /dev/null; then
    echo "bench.sh: scale1: merged shard dump differs from unsharded run" >&2
    diff <(norm "$work/merged.json") <(norm "$work/warm.json") | head -20 >&2
    exit 1
  fi
  echo "scale1: shard merge == unsharded (ok)"

  echo "scale1: cold $((cold / 1000000)) ms, warm $((warm / 1000000)) ms"
  if ! awk -v c="$cold" -v w="$warm" -v m="$minspeed" 'BEGIN { exit !(c >= w * m) }'; then
    echo "bench.sh: scale1: warm cache run only $(awk -v c="$cold" -v w="$warm" 'BEGIN{printf "%.1f", c/w}')x faster than cold (need ${minspeed}x)" >&2
    exit 1
  fi
  echo "scale1: warm cache speedup $(awk -v c="$cold" -v w="$warm" 'BEGIN{printf "%.1f", c/w}')x (>= ${minspeed}x, ok)"

  if [ "$scale" != 1 ]; then
    echo "scale1: scale $scale smoke run — no snapshot written"
    exit 0
  fi
  out="BENCH_scale1_$(date +%F).json"
  n=2
  while [ -e "$out" ]; do
    out="BENCH_scale1_$(date +%F)_$((n)).json"
    n=$((n + 1))
  done
  {
    printf '{\n  "date": "%s",\n  "go": "%s",\n  "benchtime": "wall",\n' \
      "$(date -u +%FT%TZ)" "$(go env GOVERSION)"
    printf '  "goos": "%s",\n  "goarch": "%s",\n' \
      "$(go env GOOS)" "$(go env GOARCH)"
    host_stamp
    printf '  "benchmarks": [\n'
    printf '    {"name":"Scale1Tab3ColdSharded","iterations":1,"ns_per_op":%d},\n' "$cold"
    printf '    {"name":"Scale1Tab3Warm","iterations":1,"ns_per_op":%d}\n' "$warm"
    printf '  ]\n}\n'
  } > "$out"
  echo "wrote $out"
  exit 0
fi
pattern="${1:-.}"
benchtime="${BENCHTIME:-1x}"
threshold="${2:-2.0}"   # guard mode: allowed allocs/op growth factor
nstol="${NS_TOL:-0.20}" # guard mode: allowed fractional ns/op growth

raw="$(mktemp)"
fresh="$(mktemp)"
trap 'rm -f "$raw" "$fresh"' EXIT

# newest_baseline prints the path of the newest default-series BENCH_*.json
# committed to git (dated names sort chronologically; _N suffixes sort
# after the base). Tagged series — BENCH_scale1_*, BENCH_tracestore_* —
# are excluded: their wall-clock entries carry none of the guarded
# benchmark names and would otherwise shadow the real baseline (tags sort
# after date digits, so the newest file overall is usually a tagged one).
newest_baseline() {
  git ls-files 'BENCH_*.json' | grep -E '^BENCH_[0-9]' | LC_ALL=C sort | tail -1 || true
}

go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -benchmem ./... | tee "$raw"

# The -N GOMAXPROCS suffix is stripped from names so snapshots taken on
# machines with different core counts stay comparable.
{
  printf '{\n  "date": "%s",\n  "go": "%s",\n  "benchtime": "%s",\n' \
    "$(date -u +%FT%TZ)" "$(go env GOVERSION)" "$benchtime"
  printf '  "goos": "%s",\n  "goarch": "%s",\n' \
    "$(go env GOOS)" "$(go env GOARCH)"
  host_stamp
  printf '  "benchmarks": [\n'
  awk '
    /^Benchmark/ && NF >= 4 {
      sub(/-[0-9]+$/, "", $1)
      if (n++) printf ",\n"
      printf "    {\"name\":\"%s\",\"iterations\":%s,\"ns_per_op\":%s", $1, $2, $3
      if (NF >= 8) printf ",\"bytes_per_op\":%s,\"allocs_per_op\":%s", $5, $7
      printf "}"
    }
    END { print "" }
  ' "$raw"
  printf '  ]\n}\n'
} > "$fresh"

# parse_snapshot emits "name ns bytes allocs" per benchmark from a JSON
# snapshot, whatever its layout (this script writes one benchmark object
# per line; hand-curated snapshots are pretty-printed). Missing fields
# print as "-".
parse_snapshot() {
  jq -r '.benchmarks[] | [(.name | sub("-[0-9]+$"; "")), (.ns_per_op // "-"),
    (.bytes_per_op // "-"), (.allocs_per_op // "-")] | map(tostring) | join(" ")' "$1"
}

case "$mode" in
run)
  out="BENCH_$(date +%F).json"
  n=2
  while [ -e "$out" ]; do
    out="BENCH_$(date +%F)_$((n)).json"
    n=$((n + 1))
  done
  cp "$fresh" "$out"
  echo "wrote $out"
  ;;
compare | guard)
  base="$(newest_baseline)"
  if [ -z "$base" ]; then
    echo "bench.sh: no committed BENCH_*.json baseline to compare against" >&2
    exit 1
  fi
  echo
  echo "baseline: $base"
  parse_snapshot "$base" > "$raw"
  parse_snapshot "$fresh" | awk -v basefile="$raw" -v mode="$mode" -v thr="$threshold" -v nstol="$nstol" -v pat="$pattern" '
    function pct(old, new) {
      if (old + 0 == 0) return "    n/a"
      return sprintf("%+6.1f%%", (new - old) * 100.0 / old)
    }
    BEGIN {
      while ((getline line < basefile) > 0) {
        split(line, f, " ")
        ns[f[1]] = f[2]; bytes[f[1]] = f[3]; allocs[f[1]] = f[4]
        fmt = "%-45s %14s %8s %14s %8s %12s %8s\n"
      }
      close(basefile)
      printf fmt, "benchmark", "ns/op", "Δ", "B/op", "Δ", "allocs/op", "Δ"
      bad = 0
    }
    {
      name = $1
      ran++
      if (!(name in ns)) {
        printf fmt, name, $2, "(new)", $3, "", $4, ""
        # A guarded benchmark with no baseline row is checked against
        # nothing, so the guard cannot pass it.
        if (mode == "guard") {
          printf "bench.sh: %s has no row in the committed baseline\n", name > "/dev/stderr"
          bad = 1
        }
        next
      }
      printf fmt, name, $2, pct(ns[name], $2), $3, pct(bytes[name], $3), $4, pct(allocs[name], $4)
      if (mode == "guard" && allocs[name] != "-" && $4 != "-" && allocs[name] + 0 > 0 &&
          $4 + 0 > allocs[name] * thr) {
        printf "bench.sh: %s allocs/op %s exceeds %.2gx committed baseline %s\n", \
          name, $4, thr, allocs[name] > "/dev/stderr"
        bad = 1
      }
      if (mode == "guard" && ns[name] != "-" && $2 != "-" && ns[name] + 0 > 0 &&
          $2 + 0 > ns[name] * (1 + nstol)) {
        printf "bench.sh: %s ns/op %s exceeds committed baseline %s by more than %.0f%%\n", \
          name, $2, ns[name], nstol * 100 > "/dev/stderr"
        bad = 1
      }
      seen[name] = 1
    }
    END {
      if (mode == "guard" && ran == 0) {
        print "bench.sh: no benchmark matched the guard pattern" > "/dev/stderr"
        bad = 1
      }
      # With a filter pattern most baseline entries were intentionally not
      # run; only flag gaps on a full compare.
      if (mode == "compare" && pat == ".")
        for (name in ns) if (!(name in seen))
          printf "%-45s (in baseline, not run)\n", name
      exit bad
    }
  '
  ;;
esac
