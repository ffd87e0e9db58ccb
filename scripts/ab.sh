#!/usr/bin/env bash
# A/B the repository benchmark: a parent revision against the working tree.
#
#   scripts/ab.sh PARENT_REV [--workload W]... [--pairs N] [--seed S]
#
# Exports PARENT_REV (`git archive`) and the working tree (tracked and
# untracked files that .gitignore does not exclude — so uncommitted edits are
# what gets measured) into two fresh temporary directories, builds each
# side's `benchmark/` there from its own sources, and runs BENCHMARK.json's
# command on both, N pairs per workload (default 10, every workload),
# alternating which side goes first. Touches nothing under benchmark/ and
# leaves nothing behind.
#
# Per workload it prints, for every end-to-end metric, each side's median
# and quartiles, the ratio of the medians, and how many pairs the change won
# (ties count for neither side) — the rule a claimed gain is held to is nine
# pairs in ten and a median shift beyond the parent's own quartile distance.
#
# Read the `host slowdown` rows first. Batch timings and every set-up are
# divided by a calibration kernel each binary runs on itself, and that
# kernel's machine code is not independent of the program's: it shares
# `sort::<u64>` and hash-map instantiations with the generic mb-core
# functions instantiated downstream (CHANGES.md, PR 13). When the two sides'
# slowdown medians differ by more than their run-to-run spread under the
# same host, the change has moved the kernel, every normalised metric is off
# by that ratio, and no timing below means what it says — visible here in
# the first pair. The `as_measured_*` rows under them are the same run's
# throughput and p50 before that scaling: a metric that moved while its
# as-measured row did not is the kernel's shift, not the program's.
#
# Under the slowdown rows comes each side's calibration-kernel fingerprint:
# the sizes (`nm -S -C` on the two `erbench` binaries) of the functions the
# kernel runs — SipHash's `write` (or "inlined"), `StepBy::spec_fold`, the
# `calibrate` functions themselves, and every unstable `quicksort` /
# `small_sort_network` instance — and one line, `kernel codegen: same` or
# `DIFFERS`. The list covers the whole binary, so a change that adds a sort
# of its own also reads DIFFERS: compare the lines to see which symbol moved.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() { sed -n '2,6p' "$0" >&2; exit 2; }
[ $# -ge 1 ] || usage
parent_rev="$1"; shift
workloads=() pairs=10 seed=13
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    *) usage ;;
  esac
done
git rev-parse --verify --quiet "$parent_rev^{commit}" >/dev/null \
  || { echo "ab.sh: '$parent_rev' is not a commit" >&2; exit 2; }

spec=BENCHMARK.json
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$spec")"
if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' "$spec")
fi
# "name better" per end-to-end metric, in BENCHMARK.json's order.
metrics="$(sed -n '/"end_to_end"/,/\]/p' "$spec" \
  | awk -F'"' '/"name"/ {name=$4} /"better"/ {print name, $4}')"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent" "$work/change"
git archive "$parent_rev" | tar -x -C "$work/parent"
git ls-files -co --exclude-standard -z | while IFS= read -r -d '' f; do
  [ -e "$f" ] && printf '%s\0' "$f"
done | tar -c --null -T - | tar -x -C "$work/change"
for side in parent change; do
  echo "==> building $side ($([ $side = parent ] && echo "$parent_rev" || echo "working tree"))" >&2
  (cd "$work/$side" && env -u CARGO_TARGET_DIR \
    cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml) >&2
done

# fingerprint SIDE: the calibration kernel's codegen on one line, "symbol:
# sizes" per group, instance sizes ascending.
fingerprint() {
  nm -S -C "$work/$1/benchmark/target/release/erbench" | awk '
    NF < 4 { next }
    { name = $0; sub(/^[0-9a-f]+ +[0-9a-f]+ +[A-Za-z] +/, "", name); group = "" }
    name ~ /^<core::hash::sip::Hasher<.*> as core::hash::Hasher>::write$/ { group = "sip::Hasher::write" }
    name ~ /StepByImpl<.*>>::spec_fold$/ { group = "StepBy::spec_fold" }
    name ~ /^erbench::calibrate::/ { group = name; sub(/^erbench::/, "", group) }
    name ~ /^core::slice::sort::unstable::quicksort::quicksort/ { group = "sort::unstable::quicksort" }
    name ~ /^core::slice::sort::shared::smallsort::small_sort_network/ { group = "smallsort::small_sort_network" }
    group != "" { print group "\t" $2 }' | sort | awk -F'\t' '
    { size = $2; sub(/^0+/, "", size); sizes[$1] = sizes[$1] " 0x" size; if (!($1 in seen)) { seen[$1] = 1; order[++n] = $1 } }
    END {
      line = ("sip::Hasher::write" in seen) ? "" : "sip::Hasher::write: inlined; "
      for (i = 1; i <= n; i++) line = line order[i] ":" sizes[order[i]] (i < n ? "; " : "")
      print line
    }'
}
prints="$work/fingerprints"
if command -v nm >/dev/null 2>&1; then
  for side in parent change; do fingerprint "$side" >"$work/$side.fingerprint"; done
  {
    for side in parent change; do
      sed "s/^/kernel fingerprint, $side: /" "$work/$side.fingerprint"
    done
    if cmp -s "$work/parent.fingerprint" "$work/change.fingerprint"; then
      echo "kernel codegen: same"
    else
      echo "kernel codegen: DIFFERS"
    fi
  } >"$prints"
else
  echo "kernel codegen: not compared (no nm on this host)" >"$prints"
fi

# run SIDE WORKLOAD PAIR: one measured run; appends "workload side pair name value" rows.
rows="$work/rows"
run() {
  local side="$1" w="$2" pair="$3" out="$work/$side.$2.$3.out"
  (cd "$work/$side" && env -u CARGO_TARGET_DIR \
    bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0) >"$out" 2>/dev/null \
    || { echo "ab.sh: $side $w pair $pair exited nonzero" >&2; }
  local result; result="$(tail -n 1 "$out")"
  case "$result" in
    *'"correct":true'*) ;;
    *) echo "ab.sh: $side $w pair $pair was NOT correct: $result" >&2 ;;
  esac
  echo "$result" | grep -o '"[a-z_0-9]*":{"value":[-+0-9.eE]*' \
    | sed 's/"\([^"]*\)":{"value":\(.*\)/\1 \2/' \
    | while read -r name value; do echo "$w $side $pair $name $value"; done >>"$rows"
  echo "$w $side $pair failed $(echo "$result" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')" >>"$rows"
  sed -n 's/.*as measured: throughput_per_s \([0-9.]*\) latency_p50_us \([0-9.]*\); host slowdown median \([0-9.]*\) over set-ups, \([0-9.]*\) (.*/\1 \2 \3 \4/p' "$out" \
    | while read -r throughput p50 setups reps; do
        echo "$w $side $pair host_slowdown_setups $setups"
        echo "$w $side $pair host_slowdown_repetitions $reps"
        echo "$w $side $pair as_measured_throughput_per_s $throughput"
        echo "$w $side $pair as_measured_latency_p50_us $p50"
      done >>"$rows"
}

for w in "${workloads[@]}"; do
  for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
      echo "==> $w pair $pair/$pairs: $side" >&2
      run "$side" "$w" "$pair"
    done
  done
  echo
  echo "== $w: $pairs pairs, seed $seed, ${seconds} s runs, parent $parent_rev vs working tree"
  awk -v w="$w" -v metrics="$metrics" -v prints="$prints" '
    function quantile(v, n, p,    pos, lo, frac) {
      pos = (n - 1) * p; lo = int(pos); frac = pos - lo
      return lo + 1 >= n ? v[n] : v[lo + 1] + frac * (v[lo + 2] - v[lo + 1])
    }
    # The runs of one side in ascending order (insertion sort: mawk has no asort).
    function sorted(side, name, v,    n, i, j, x) {
      n = 0
      for (i = 1; i <= maxpair; i++) if ((side, i, name) in val) {
        x = val[side, i, name]
        for (j = n; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
        v[j + 1] = x; n++
      }
      return n
    }
    function summary(side, name,    n, v) {
      n = sorted(side, name, v)
      if (n == 0) return "-"
      return sprintf("%.6g [%.6g, %.6g]", quantile(v, n, 0.5), quantile(v, n, 0.25), quantile(v, n, 0.75))
    }
    function median(side, name,    n, v) {
      n = sorted(side, name, v)
      return n == 0 ? 0 : quantile(v, n, 0.5)
    }
    $1 == w { val[$2, $3, $4] = $5 + 0; if ($3 > maxpair) maxpair = $3 }
    END {
      printf "%-28s %-38s %-38s %-8s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "pairs won by change"
      nm = split(metrics, m, "\n")
      for (k = 1; k <= nm; k++) {
        split(m[k], f, " "); name = f[1]; better = f[2]
        won = 0; lost = 0
        for (i = 1; i <= maxpair; i++) {
          if (!(("parent", i, name) in val) || !(("change", i, name) in val)) continue
          d = val["change", i, name] - val["parent", i, name]
          if (better == "lower") d = -d
          if (d > 0) won++; else if (d < 0) lost++
        }
        pm = median("parent", name); cm = median("change", name)
        printf "%-28s %-38s %-38s %-8s %d of %d (lost %d), %s is better\n", name, summary("parent", name), summary("change", name), (pm ? sprintf("%.3f", cm / pm) : "-"), won, maxpair, lost, better
      }
      nn = split("host_slowdown_setups host_slowdown_repetitions as_measured_throughput_per_s as_measured_latency_p50_us", raw, " ")
      for (k = 1; k <= nn; k++) {
        name = raw[k]
        pm = median("parent", name); cm = median("change", name)
        printf "%-28s %-38s %-38s %-8s %s\n", name, summary("parent", name), summary("change", name), (pm ? sprintf("%.3f", cm / pm) : "-"), (k <= 2 ? "must agree: the kernel is not under test" : "before scaling by host slowdown")
        if (k == 2) while ((getline line < prints) > 0) print line
      }
      pf = 0; cf = 0
      for (i = 1; i <= maxpair; i++) { pf += val["parent", i, "failed"]; cf += val["change", i, "failed"] }
      printf "%-28s %-38d %-38d\n", "failed operations", pf, cf
    }' "$rows"
done
