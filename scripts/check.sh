#!/usr/bin/env bash
# The full local gate, in dependency order: style, compile, lint (with
# structural guards on mb-core, er-blocking, er-model and mb-serve beside
# it), tests,
# then a serving-layer smoke: generate a tiny bundle, freeze it into a
# snapshot, re-load it (full checksum + invariant validation) and query it,
# and compare two builds' bytes against committed digests,
# then an online-serving smoke: `er serve` on an ephemeral port, query it
# over the wire, hot-reload a second snapshot with zero downtime, re-query,
# and drain it with `er client shutdown`, then the streaming example (every
# arrival an append to a live generation that started empty), and last the
# repository benchmark's smoke mode: the public calls and correctness checks
# of all six BENCHMARK.json workloads, so what the driver runs cannot break
# unnoticed.
# ROADMAP.md's tier-1 verify line is the `build` + `test` subset; this script
# is the superset a change should pass before review.
#
# --bench-smoke additionally compiles every bench target without running it,
# so bench-only breakage is caught by CI without paying bench runtime.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --bench-smoke) BENCH_SMOKE=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo clippy --workspace --all-targets -D warnings"
# The MSRV-gated lints follow the workspace `rust-version`.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> er-lint --workspace --format json (results/lint.json)"
mkdir -p results
cargo run -q -p er-lint -- --workspace --format json > results/lint.json
# One validator, every committed JSON document: the fresh lint report and
# the bench results a change may have hand-edited or re-recorded.
cargo run -q -p er-bench --bin validate_bench_json -- results/lint.json \
  BENCH_pipeline.json BENCH_query.json BENCH_delta.json BENCH_pruning.json

echo "==> one fan-out per run, one formula table, one pivot loop (structural guard on crates/*/src)"
# A run reaches threads through `mb_core::parallel::sweep_windows` alone,
# each Figure 7 workflow has one entry point for any thread count, and
# mb-core's weights come from `weights::edge_weight`: a sharded build, a
# `*_threads` twin of an entry point or a second copy of the formulas must
# not come back unnoticed. (`! grep` would be exempt from `set -e`, hence
# the explicit exit.)
if grep -rnE 'fn (build_parallel|new_parallel|chunk_ranges|run_graph_free\w*|graph_free_meta_blocking_threads|comparison_propagation_threads)\b' crates/*/src; then
  echo "a second fan-out or a *_threads entry point is back (use parallel::sweep_windows)" >&2; exit 1
fi
# Non-test code (what precedes a file's `#[cfg(test)] mod`) opens a thread
# scope only in the sweep driver and in the snapshot loader's `fork_join`.
scopes=$(grep -rl 'thread::scope' crates/*/src | while read -r f; do
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { t = 1; next } t && /^mod / { exit } { t = 0 }
    /thread::scope/ { print f ":" FNR ": " $0 }' "$f"
done | grep -vE '^crates/(core/src/parallel|serve/src/view)\.rs:' || true)
if [ -n "$scopes" ]; then
  echo "$scopes"
  echo "a thread scope outside parallel.rs and view.rs (use parallel::sweep_windows)" >&2; exit 1
fi
if grep -nE 'fn probe_weight|probe_flags' crates/core/src/scorer.rs; then
  echo "scorer.rs carries its own probe scan or weight formulas again" >&2; exit 1
fi
# Every sweep runs one pivot loop (`weighting::optimized::pivots_in`); the
# per-edge loop it replaced must not come back beside it.
if grep -rn 'fn edges_in' crates/core/src; then
  echo "mb-core has a second edge-sweep loop again (use optimized::pivots_in)" >&2; exit 1
fi

echo "==> no per-profile key sort (structural guard on crates/blocking/src, crates/serve/src and crates/er-model/src)"
# `TokenInterner::intern_all` and `SnapshotView::find_tokens` take a
# profile's keys unsorted, with repeats, and their callers byte-sort only the
# keys they have to number: a builder, a probe or an upsert that sorts every
# key first pays for a sort that decides nothing.
if grep -rn 'sort_dedup' crates/blocking/src crates/serve/src crates/er-model/src; then
  echo "a profile's keys are sorted again (intern_all and find_tokens take them as they come)" >&2; exit 1
fi

echo "==> one reused top-k scratch (structural guard on crates/core/src/prune)"
# Node-centric top-k selection runs in the sweeping thread's `TopK` and
# two-phase CNP keeps its stacks in one pool plus offsets: a selection that
# builds its own kernel per node, or a vector of per-node stacks, allocates
# per node again (BENCH_pipeline.json's `prune` row).
if grep -rnE 'fn top_k_neighbors|Vec<Vec<u32>>' crates/core/src/prune; then
  echo "node-centric top-k allocates per node again (select through Sweep::top_k)" >&2; exit 1
fi

echo "==> one tokenizer (structural guard on crates/*/src)"
# `KeyScratch::fill_tokens` states which tokens a profile has, for
# blocking, serving and Jaccard matching alike; `TokenInterner` numbers them
# at build time through a `KeyTable`, and a loaded snapshot finds them
# through the same `KeyTable`, seated at load. A `String` tokenizer, a
# two-table interner or a q-gram / suffix helper beside them must not come
# back. The second pattern is narrower on purpose: `Snapshot::tokens()` in
# mb-serve is a different thing.
if grep -rnE 'pub struct Interner\b|fn token_id_set\b|pub fn (qgrams|suffixes)\b' crates/*/src \
  || grep -rnE 'pub fn tokens\b' crates/er-model/src; then
  echo "a second tokenizer is back (use KeyScratch::fill_tokens + TokenInterner)" >&2; exit 1
fi

echo "==> one key table (structural guard on crates/serve/src)"
# `er_model::tokenize::KeyTable` owns how a key is hashed, homed, probed and
# seated, for the interner and the loaded view alike: a second
# open-addressing token table in mb-serve must not come back beside it.
if grep -rnE 'fn seat_tokens|struct TokenTable|fn table_home|fn token_hash' crates/serve/src; then
  echo "mb-serve has its own token table again (seat and look up through KeyTable)" >&2; exit 1
fi

echo "==> a key is hashed where it is cut (structural guard on crates/er-model/src)"
# `KeyScratch` computes each committed key's `key_hash` once, as the key is
# cut, and `intern_all` and `find_all` read it: a batch lookup that hashes
# its keys again, or takes a hash function beside the carried hashes, must
# not come back.
if grep -rnE 'fn (hash_and_touch|find_all_with)\b' crates/er-model/src; then
  echo "a batch lookup hashes its keys again (read the hashes KeyScratch carries)" >&2; exit 1
fi

echo "==> one snapshot build (structural guard on crates/serve/src and crates/blocking/src)"
# `Snapshot::build` is the only way a snapshot is made, and the blocking
# front end has one block emission: a second, disk-backed build path must
# not come back beside them.
if grep -rnE 'SpillSort|fn build_out_of_core|fn stream_postings' crates/serve/src crates/blocking/src; then
  echo "a second snapshot build path is back (Snapshot::build is the one build)" >&2; exit 1
fi

echo "==> a snapshot stores only what load cannot derive (structural guard on crates/serve/src)"
# The block splits and the entity index are derived at load, the index by
# `EntityIndex::from_arena` (the routine `EntityIndex::build` runs): a
# persisted split or index section must not come back.
if grep -rnE 'indexlists|indexoffs|SECTION_SPLITS|SECTION_INDEX' crates/serve/src; then
  echo "a snapshot persists what load derives again (splits and index come from the arena)" >&2; exit 1
fi

echo "==> one checksum kernel (structural guard on crates/serve/src)"
# Snapshot sections and wire frames are both checksummed by
# `codec::fnv1a_wide`, four word lanes at a time: a byte-wise FNV-1a (a
# `fnv1a` function, or a loop that xors in one byte widened to u64) must not
# come back beside it.
if grep -rnE 'fn fnv1a\b|\^=? *\(?\*?[a-z_]+ as u64|\^=? *u64::from\(\*?[a-z_]+\)' crates/serve/src; then
  echo "a byte-wise FNV-1a is back (checksum through codec::fnv1a_wide)" >&2; exit 1
fi

echo "==> a member run is a native slice (structural guard on crates/*/src)"
# A member run is `&[EntityId]` and a block list `&[u32]` on every path: the
# snapshot loader decodes its sections into owned vectors, so nothing reads
# little-endian bytes in place. A borrowed multi-storage view (`U32s`, or the
# loader's `U32Range` into the file) must not come back: it put a three-way
# match in every accessor and a copy of every scan loop per storage.
if grep -rnwE 'U32s|U32Range' crates/*/src; then
  echo "a borrowed u32 view is back (members_of and block_list return native slices)" >&2; exit 1
fi

echo "==> a loaded snapshot is a Snapshot (structural guard on crates/serve/src)"
# `SnapshotView` keeps the build's `BlockCollection` and `KeyArena` and adds
# only what load derives, and a block's ‖b‖ is `BlockRef::cardinality`. A
# second representation of the same arrays in mb-serve — a token slicer, a
# CSR bracket helper, a decoded token blob or member pool held beside the
# snapshot, or an overlay block's own ‖b‖ — must not come back: it mirrored
# every accessor of `Snapshot` and wrote each formula out again.
if grep -rnE 'fn token_at\b|fn bounds\b|tok_blob: Vec<u8>|members: Vec<EntityId>|fn cardinality\b' \
  crates/serve/src; then
  echo "mb-serve holds a second arena representation again (read view.snapshot())" >&2; exit 1
fi

echo "==> a profile is one buffer (structural guard on crates/er-model/src/profile.rs)"
# `EntityProfile` keeps its uri, names and values back to back in one
# `String` behind `u32` end offsets: an owned per-pair field would bring two
# heap `String`s per name–value pair back.
if grep -nE 'pub (name|value): String|Vec<Attribute' crates/er-model/src/profile.rs; then
  echo "profile.rs stores owned per-pair fields again (keep one buffer plus u32 ends)" >&2; exit 1
fi

echo "==> one recv per frame (structural guard on crates/serve/src/server.rs)"
# A connection — the server's handler and `Client` alike — reads through its
# `FrameReader` and writes through its `FrameWriter`: `read_frame` is two
# `recv`s and a payload allocation per frame, `write_frame` an allocation per
# frame, and neither may come back on the serving path.
if grep -nE 'read_frame\(|write_frame\(' crates/serve/src/server.rs; then
  echo "server.rs frames through read_frame/write_frame again (use FrameReader/FrameWriter)" >&2; exit 1
fi

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test --workspace --features sanitize -q"
cargo test --workspace --features sanitize -q

echo "==> snapshot round-trip smoke (er snapshot build/inspect + er query)"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
cargo run -q --release -p er-cli -- generate --preset tiny --out "$SMOKE_DIR" --seed 7
cargo run -q --release -p er-cli -- snapshot build --dataset "$SMOKE_DIR" \
  --out "$SMOKE_DIR/index.mbsnap" --scheme cbs --pruning cnp --filter 0.8
cargo run -q --release -p er-cli -- snapshot inspect --snapshot "$SMOKE_DIR/index.mbsnap" \
  | tee "$SMOKE_DIR/inspect.txt"
grep -Eq '^format version: +5$' "$SMOKE_DIR/inspect.txt" \
  && grep -Eq '^sections: +6$' "$SMOKE_DIR/inspect.txt" \
  || { echo "inspect did not report format version 5 with 6 sections" >&2; exit 1; }
cargo run -q --release -p er-cli -- snapshot inspect --snapshot "$SMOKE_DIR/index.mbsnap" --full
# The bytes of two builds of the same bundle are pinned: Token Blocking's
# vocabulary and block order, the pipeline's output and the framing all
# reach them, so any drift fails here. A change that means to move them
# records the new digests in scripts/snapshot-digests.sha256 and says why.
cargo run -q --release -p er-cli -- snapshot build --dataset "$SMOKE_DIR" \
  --out "$SMOKE_DIR/tiny-js-cnp-0.8.mbsnap" --scheme js --pruning cnp --filter 0.8
cargo run -q --release -p er-cli -- snapshot build --dataset "$SMOKE_DIR" \
  --out "$SMOKE_DIR/tiny-arcs-reciprocal-wnp.mbsnap" --scheme arcs --pruning reciprocal-wnp
DIGESTS="$PWD/scripts/snapshot-digests.sha256"
(cd "$SMOKE_DIR" && sha256sum --check --strict "$DIGESTS") \
  || { echo "snapshot bytes drifted from scripts/snapshot-digests.sha256" >&2; exit 1; }
cargo run -q --release -p er-cli -- query --snapshot "$SMOKE_DIR/index.mbsnap" \
  --entity 0 --top 5
# A file of the previous format (the magic's last digit patched to 4) is
# refused by name, by the header-only reader and by the full loader alike.
cp "$SMOKE_DIR/index.mbsnap" "$SMOKE_DIR/v4.mbsnap"
printf '4' | dd of="$SMOKE_DIR/v4.mbsnap" bs=1 seek=7 conv=notrunc status=none
for refused in "snapshot inspect --snapshot $SMOKE_DIR/v4.mbsnap" \
               "query --snapshot $SMOKE_DIR/v4.mbsnap --entity 0 --top 5"; do
  # shellcheck disable=SC2086
  if cargo run -q --release -p er-cli -- $refused > "$SMOKE_DIR/refused.txt" 2>&1; then
    echo "er $refused accepted an MBSNAP04 file" >&2; exit 1
  fi
  grep -q "snapshot format version 4 unsupported" "$SMOKE_DIR/refused.txt" \
    && ! grep -q "panicked" "$SMOKE_DIR/refused.txt" \
    || { echo "er $refused: wrong refusal:" >&2; cat "$SMOKE_DIR/refused.txt" >&2; exit 1; }
done

echo "==> online-serving smoke (er serve + er client query/reload/shutdown)"
cargo run -q --release -p er-cli -- snapshot build --dataset "$SMOKE_DIR" \
  --out "$SMOKE_DIR/index2.mbsnap" --scheme js --pruning cnp --filter 0.8
cargo run -q --release -p er-cli -- serve --snapshot "$SMOKE_DIR/index.mbsnap" \
  --port-file "$SMOKE_DIR/port" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
  if [ -s "$SMOKE_DIR/port" ]; then ADDR="$(cat "$SMOKE_DIR/port")"; break; fi
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "er serve never wrote its port file" >&2; exit 1; }
cargo run -q --release -p er-cli -- client query --addr "$ADDR" --entity 0 --top 5
cargo run -q --release -p er-cli -- client reload --addr "$ADDR" \
  --snapshot "$SMOKE_DIR/index2.mbsnap"
cargo run -q --release -p er-cli -- client query --addr "$ADDR" --entity 0 --top 5 \
  | grep -q "generation 2" || { echo "reload did not advance the generation" >&2; exit 1; }

echo "==> incremental-delta smoke (er client upsert/delete/compact + pinned cmp)"
UPSERT_OUT="$(cargo run -q --release -p er-cli -- client upsert --addr "$ADDR" \
  --text "john smith 42 main st springfield" --uri smoke-upsert)"
echo "$UPSERT_OUT" | grep -q "generation 3" \
  || { echo "upsert did not advance the generation" >&2; exit 1; }
UPSERTED="$(echo "$UPSERT_OUT" | sed -n 's/^upserted entity \([0-9]*\).*/\1/p')"
[ -n "$UPSERTED" ] || { echo "upsert did not report the new entity id" >&2; exit 1; }
cargo run -q --release -p er-cli -- client query --addr "$ADDR" \
  --entity "$UPSERTED" --top 5 \
  | grep -q "generation 3" || { echo "post-upsert query missed generation 3" >&2; exit 1; }
cargo run -q --release -p er-cli -- client delete --addr "$ADDR" --entity "$UPSERTED" \
  | grep -q "generation 4" || { echo "delete did not advance the generation" >&2; exit 1; }
cargo run -q --release -p er-cli -- client compact --addr "$ADDR" \
  --dataset "$SMOKE_DIR" --out "$SMOKE_DIR/compacted.mbsnap" \
  | grep -q "generation 5" || { echo "compact did not advance the generation" >&2; exit 1; }
# The upsert and the delete cancel, so compaction must pin the output
# bit-identical to the from-scratch build over the same profiles.
cmp "$SMOKE_DIR/compacted.mbsnap" "$SMOKE_DIR/index2.mbsnap" \
  || { echo "compacted snapshot differs from the from-scratch build" >&2; exit 1; }
cargo run -q --release -p er-cli -- client query --addr "$ADDR" --entity 0 --top 5 \
  | grep -q "generation 5" || { echo "post-compaction query missed generation 5" >&2; exit 1; }
cargo run -q --release -p er-cli -- client shutdown --addr "$ADDR"
wait "$SERVE_PID"

echo "==> offline delta smoke (er snapshot apply + er query replay)"
cargo run -q --release -p er-cli -- snapshot apply --snapshot "$SMOKE_DIR/index.mbsnap" \
  --out "$SMOKE_DIR/staged.mbsnap" --text "john smith 42 main st springfield" --uri smoke-staged
cargo run -q --release -p er-cli -- snapshot inspect --snapshot "$SMOKE_DIR/staged.mbsnap" --full \
  | grep -q "delta runs" || { echo "staged snapshot lost its delta run" >&2; exit 1; }
cargo run -q --release -p er-cli -- query --snapshot "$SMOKE_DIR/staged.mbsnap" \
  --text "john smith 42 main st springfield" --top 5

echo "==> streaming smoke (examples/incremental_stream: arrivals through the served overlay)"
# The one from-nothing stream in the repository, run rather than only
# compiled: 450 arrivals must find all but a handful of the 150 duplicates.
cargo run -q --release --example incremental_stream | tee "$SMOKE_DIR/stream.txt"
grep -Eq '^final: recall (0\.9[0-9]*|1\.0*) ' "$SMOKE_DIR/stream.txt" \
  || { echo "the streamed run lost recall" >&2; exit 1; }

echo "==> benchmark smoke (benchmark/run.sh --smoke: all six workloads on the tiny preset)"
benchmark/run.sh --smoke

if [ "$BENCH_SMOKE" -eq 1 ]; then
  echo "==> cargo bench -p er-bench --no-run (bench smoke)"
  cargo bench -p er-bench --no-run
fi

echo "All checks passed."
