#!/usr/bin/env bash
# The benchmark's one entry point. Builds `erbench` from source, runs each
# workload in its own process, checks outputs, prints every metric by name
# with its unit.
#
#   benchmark/run.sh                      all six workloads, untraced (end-to-end metrics)
#   benchmark/run.sh --trace              ... each followed by its traced run (per-layer metrics)
#   benchmark/run.sh --workload NAME      only that workload
#   benchmark/run.sh --seed N             another input seed (default 13)
#   benchmark/run.sh --smoke              same code paths on the `tiny` preset, one repetition;
#                                         for compile-and-run coverage, numbers meaningless
#   benchmark/run.sh --aa                 the untraced suite twice on one build: per metric x
#                                         workload difference against its bound, written into
#                                         benchmark/README.md; exits 1 on a breach
#   benchmark/run.sh --spread             ten seeds per workload: quartile spread of every
#                                         end-to-end metric against its bound; exits 1 on a breach
#
# One measured run, as BENCHMARK.json's `command` is invoked (result object
# on the last line of standard output, nothing else built or tested):
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root or anywhere else; it never changes
# directory, so a relative CARGO_TARGET_DIR means what the caller meant.
set -euo pipefail

here="$(dirname "$0")"
root="$here/.."
spec="$root/BENCHMARK.json"
out="$here/out"

workload="" seed=13 seconds="" trace=0 mode=suite smoke=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; mode=one; shift 2 ;;
    --trace)
      case "${2:-}" in 0|1) trace="$2"; shift 2 ;; *) trace=1; shift ;; esac ;;
    --smoke) smoke=(--smoke); shift ;;
    --aa) mode=aa; shift ;;
    --spread) mode=spread; shift ;;
    -h|--help) sed -n '2,26p' "$0"; exit 0 ;;
    *) echo "run.sh: unknown option '$1'" >&2; exit 2 ;;
  esac
done

# Build parity: the benchmark must be compiled exactly as `er` is.
release_profile() {
  awk '/^\[profile\.release\]/ {on=1; next} /^\[/ {on=0} on && !/^[[:space:]]*(#|$)/' "$1" | sort
}
[ -f "$root/Cargo.toml" ] || { echo "run.sh: no workspace manifest beside benchmark/" >&2; exit 2; }
if [ "$(release_profile "$root/Cargo.toml")" != "$(release_profile "$here/Cargo.toml")" ]; then
  echo "run.sh: benchmark/Cargo.toml's [profile.release] differs from the root manifest's" >&2
  exit 2
fi

manifest=(--offline --manifest-path "$here/Cargo.toml")
bin="${CARGO_TARGET_DIR:-$here/target}/release/erbench"

if [ "$mode" = one ]; then
  [ -n "$workload" ] || { echo "run.sh: --seconds needs --workload" >&2; exit 2; }
  cargo build --release --quiet "${manifest[@]}" >&2
  exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
    --out-dir "$out" ${smoke[@]+"${smoke[@]}"}
fi

[ -f "$spec" ] || { echo "run.sh: $spec not found" >&2; exit 2; }
echo "==> cargo test (benchmark)"
cargo test --release --quiet "${manifest[@]}"
echo "==> cargo build --release (benchmark)"
cargo build --release "${manifest[@]}"

seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$spec")"
[ ${#smoke[@]} -eq 0 ] || seconds=0
if [ -n "$workload" ]; then
  workloads=("$workload")
else
  mapfile -t workloads < <(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' "$spec")
fi

only="$(IFS=,; echo "${workloads[*]}")"

# run_one WORKLOAD SEED TRACE FILE: one process; its output is shown and kept.
failed=0
run_one() {
  mkdir -p "$(dirname "$4")"
  "$bin" --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" --out-dir "$out" \
    ${smoke[@]+"${smoke[@]}"} | tee "$4"
  tail -n 1 "$4" | grep -q '"correct":true' || { echo "run.sh: $1 was NOT correct" >&2; failed=1; }
}

case "$mode" in
  suite)
    for w in "${workloads[@]}"; do
      echo "==> $w"
      run_one "$w" "$seed" 0 "$out/run/$w.json"
      if [ "$trace" = 1 ]; then
        echo "==> $w (traced)"
        run_one "$w" "$seed" 1 "$out/run/$w.layers.json"
      fi
    done
    ;;
  aa)
    for side in a b; do
      for w in "${workloads[@]}"; do
        echo "==> A/A run $side: $w"
        run_one "$w" "$seed" 0 "$out/aa-$side/$w.json" >/dev/null
      done
    done
    "$bin" aa --a "$out/aa-a" --b "$out/aa-b" --spec "$spec" --workloads "$only" \
      --readme "$here/README.md" || failed=1
    ;;
  spread)
    seeds=(1 2 3 4 5 6 7 8 9 10)
    for w in "${workloads[@]}"; do
      for s in "${seeds[@]}"; do
        echo "==> spread: $w seed $s"
        run_one "$w" "$s" 0 "$out/spread/$w.$s.json" >/dev/null
      done
    done
    "$bin" spread --dir "$out/spread" --spec "$spec" --workloads "$only" \
      --seeds "$(IFS=,; echo "${seeds[*]}")" || failed=1
    ;;
esac
exit "$failed"
