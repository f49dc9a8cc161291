#!/usr/bin/env bash
# Tier-1 verification, fully offline.
#
# The workspace is hermetic: no external crates, so a path-only Cargo.lock
# is committed and `CARGO_NET_OFFLINE=true` must never be a constraint.
# Run from anywhere inside the repository.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# Scratch space for the persistence smoke; removed however the run ends.
CI_TMP="$(mktemp -d "${TMPDIR:-/tmp}/stcfa-ci.XXXXXX")"
trap 'rm -rf "$CI_TMP"' EXIT INT TERM

echo "== tier-1: formatting =="
cargo fmt --check

echo "== tier-1: release build =="
cargo build --release --offline

echo "== tier-1: test suite =="
cargo test -q --offline

echo "== tier-1: clippy (warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tier-1: query-engine properties =="
# Every query reads its component's row off the one summary sweep; the
# differential properties check that read path against the BFS
# reference, the cubic CFA and a transitive-closure oracle, at a raised
# case count.
STCFA_PROP_CASES=300 cargo test -q --offline --test query_engine

echo "== front end: pins, limits, round trip and properties =="
# The parse pin (every token, span, name, label and error message the
# front end produces over its fixed inputs), source at the nesting
# limits through every consumer, and the printer's round trip. Then the
# two front-end properties at a raised case count: source-text fuzzing
# (token soup and corpus mutations: parse never panics, an accepted
# program validates and its printed form re-parses, a refusal points
# into the source and repeats the lexer's error) and the one-pass
# validator against its four-pass reference on damaged arenas.
cargo test -q --offline --test parse_pin --test nesting_limit --test pretty_roundtrip
STCFA_PROP_CASES=4000 cargo test -q --offline --test source_fuzz --test validate_pin

echo "== lint: machine-readable corpus report is stable =="
# `stcfa lint --format json` over the whole corpus, digested. The digest is
# pinned so a renderer or rule change that shifts any diagnostic shows up
# here as well as in tests/lint_snapshot.rs (which pins the same reports).
LINT_DIGEST_WANT="1591454845"
lint_report="$(for f in corpus/*.ml; do
  echo "== $f"
  ./target/release/stcfa lint "$f" --format json
done)"
LINT_DIGEST_GOT="$(printf '%s\n' "$lint_report" | cksum | cut -d' ' -f1)"
if [ "$LINT_DIGEST_GOT" != "$LINT_DIGEST_WANT" ]; then
  echo "lint digest drifted: want $LINT_DIGEST_WANT got $LINT_DIGEST_GOT" >&2
  printf '%s\n' "$lint_report" >&2
  exit 1
fi
echo "-- corpus lint digest ok ($LINT_DIGEST_GOT)"

echo "== rules: STCFA007/008 oracle gate =="
# The rule-engine lints against the cubic 0-CFA oracle: every STCFA007
# operator is exactly mixed-purity and every STCFA008 target is the
# exact singleton, over the corpus, and each rule fires at least once
# there (so the gate is never vacuous). The same suite confirms every
# STCFA001/006 finding under the c1, c2 and forget policies.
cargo test -q --offline --test lint_soundness
# The rule analyses against their programs: the dominator tree, taint
# and STCFA007's mixed-purity candidates are computed without rule
# evaluation, and must equal their programs evaluated by the generic
# `Evaluator` over the corpus (every policy), synthesized programs and
# linked 32-module workspaces.
cargo test -q --offline --test dominators_oracle

echo "== reference implementations stay off production paths =="
# Each reference implementation is the oracle for one production
# implementation, as the cubic references are for the engine: the rule
# `Evaluator` for the shipped rule analyses, `CalledOnce::via_queries`
# for the called-once sweep and `effects_via_cfa0` for the effects
# colouring. No production source may name one. Allowed: each defining
# module, the crates' `lib.rs` re-exports, the bench crate's sources
# (which time the references against the production paths), tests,
# comments, and each file's top-level `#[cfg(test)] mod` (test modules
# close their files).
reference_users="$(for f in $(find src crates/*/src -name '*.rs' | sort); do
  case "$f" in
    crates/rules/src/eval.rs | crates/apps/src/called_once.rs | crates/apps/src/effects.rs \
      | crates/bench/src/*) continue ;;
  esac
  awk -v f="$f" '
    /^#\[cfg\(test\)\]$/ { in_cfg = 1; next }
    in_cfg && /^mod [A-Za-z_]+ \{/ { exit }
    { in_cfg = 0 }
    /^[[:space:]]*\/\// { next }
    f == "crates/rules/src/lib.rs" && /^pub use eval::/ { next }
    f == "crates/apps/src/lib.rs" && /^pub use effects::/ { next }
    /(^|[^A-Za-z0-9_])(Evaluator|via_queries|effects_via_cfa0)([^A-Za-z0-9_]|$)/ { print f ":" FNR ": " $0 }
  ' "$f"
done)"
if [ -n "$reference_users" ]; then
  echo "a reference implementation reached a production source:" >&2
  printf '%s\n' "$reference_users" >&2
  exit 1
fi
echo "-- no production source names Evaluator, via_queries or effects_via_cfa0"

echo "== rules: corpus STCFA007/008 findings are pinned =="
# The new rule-backed lints, extracted from the corpus-wide JSON report
# and digested separately from LINT_DIGEST_WANT so a drift in the rule
# layer is attributed to it directly.
RULES_DIGEST_WANT="2082882043"
rules_report="$(for f in corpus/*.ml; do
  echo "== $f"
  ./target/release/stcfa lint "$f" --format json \
    | grep -E '"code":"STCFA00[78]"' || true
done)"
RULES_DIGEST_GOT="$(printf '%s\n' "$rules_report" | cksum | cut -d' ' -f1)"
if [ "$RULES_DIGEST_GOT" != "$RULES_DIGEST_WANT" ]; then
  echo "rules digest drifted: want $RULES_DIGEST_WANT got $RULES_DIGEST_GOT" >&2
  printf '%s\n' "$rules_report" >&2
  exit 1
fi
echo "-- corpus rules digest ok ($RULES_DIGEST_GOT)"

echo "== rules: corpus dominator relation is pinned =="
# `stcfa rule --name dominators` over the whole corpus: every reachable
# call-graph node with its dominator list. The relation is computed as a
# dominator tree and specified by the stratified nd/dom program; this pin
# was taken from the program's evaluation, so the tree must reproduce
# its output byte for byte (tests/dominators_oracle.rs checks the same
# agreement pair by pair).
DOMINATORS_DIGEST_WANT="3106577595"
dominators_report="$(for f in corpus/*.ml; do
  echo "== $f"
  ./target/release/stcfa rule "$f" --name dominators
done)"
DOMINATORS_DIGEST_GOT="$(printf '%s\n' "$dominators_report" | cksum | cut -d' ' -f1)"
if [ "$DOMINATORS_DIGEST_GOT" != "$DOMINATORS_DIGEST_WANT" ]; then
  echo "dominators digest drifted: want $DOMINATORS_DIGEST_WANT got $DOMINATORS_DIGEST_GOT" >&2
  printf '%s\n' "$dominators_report" >&2
  exit 1
fi
echo "-- corpus dominators digest ok ($DOMINATORS_DIGEST_GOT)"

echo "== rules: corpus taint answers are pinned =="
# `stcfa rule --name taint` over the whole corpus, from the default
# sources (every effectful-bodied abstraction). The CLI prints the answer
# object the daemon's `rule` op returns (tests/cli.rs checks that the two
# agree), so this pins both surfaces' bytes.
TAINT_DIGEST_WANT="3883165449"
taint_report="$(for f in corpus/*.ml; do
  echo "== $f"
  ./target/release/stcfa rule "$f" --name taint
done)"
TAINT_DIGEST_GOT="$(printf '%s\n' "$taint_report" | cksum | cut -d' ' -f1)"
if [ "$TAINT_DIGEST_GOT" != "$TAINT_DIGEST_WANT" ]; then
  echo "taint digest drifted: want $TAINT_DIGEST_WANT got $TAINT_DIGEST_GOT" >&2
  printf '%s\n' "$taint_report" >&2
  exit 1
fi
echo "-- corpus taint digest ok ($TAINT_DIGEST_GOT)"

echo "== rules: clippy on the rule crate (warnings are errors) =="
cargo clippy -p stcfa-rules --all-targets --offline -- -D warnings

echo "== opt: corpus differential gate =="
# The optimizer must agree with the CBV evaluator on every corpus program
# under all 16 pass combinations, never grow a program, and never create
# warning-severity findings.
cargo test -q --offline --test opt_differential

echo "== opt: corpus reports are pinned =="
# `stcfa opt --report json` over the whole corpus under the default
# pipeline: every pass invocation, skip reason and direct call. The
# daemon's `opt` op answers with the same object plus `performed`
# (tests/cli.rs checks that the two agree).
OPT_DIGEST_WANT="3895781332"
opt_report="$(for f in corpus/*.ml; do
  echo "== $f"
  ./target/release/stcfa opt "$f" --report json
done)"
OPT_DIGEST_GOT="$(printf '%s\n' "$opt_report" | cksum | cut -d' ' -f1)"
if [ "$OPT_DIGEST_GOT" != "$OPT_DIGEST_WANT" ]; then
  echo "opt digest drifted: want $OPT_DIGEST_WANT got $OPT_DIGEST_GOT" >&2
  printf '%s\n' "$opt_report" >&2
  exit 1
fi
echo "-- corpus opt digest ok ($OPT_DIGEST_GOT)"

echo "== opt: pretty-printer round-trip gate =="
# `--emit` output must re-parse to the same arena (size, label count,
# per-abstraction shape) and print as a fixed point.
cargo test -q --offline --test pretty_roundtrip

echo "== opt: clippy on the optimizer crate (warnings are errors) =="
cargo clippy -p stcfa-opt --all-targets --offline -- -D warnings

echo "== opt: CLI smoke (dead_code.ml must shrink) =="
opt_json="$(./target/release/stcfa opt corpus/dead_code.ml --report json)"
echo "$opt_json"
opt_before="$(printf '%s' "$opt_json" | sed -n 's/.*"nodes_before":\([0-9]*\).*/\1/p')"
opt_after="$(printf '%s' "$opt_json" | sed -n 's/.*"nodes_after":\([0-9]*\).*/\1/p')"
[ -n "$opt_before" ] && [ -n "$opt_after" ] && [ "$opt_after" -lt "$opt_before" ] \
  || { echo "opt smoke: dead_code.ml did not shrink (${opt_before:-?} -> ${opt_after:-?})" >&2; exit 1; }
./target/release/stcfa opt corpus/dead_code.ml --emit >/dev/null \
  || { echo "opt smoke: --emit failed" >&2; exit 1; }
echo "-- opt smoke ok ($opt_before -> $opt_after nodes)"

echo "== precision: differential gate =="
# Every graded answer must be monotone against Tier 0, sound against the
# cubic oracle, exact-when-claimed, and byte-identically transcribed by
# two independent scheduler builds.
cargo test -q --offline --test precision_differential

echo "== precision: corpus --precision labels are pinned =="
# `stcfa <file> --call-sites --precision` over the whole corpus: grade,
# tier and suspicion per site. Pinned as a digest (like the lint report)
# so a drifted detector score or escalation decision is caught before
# the protocol surface ships it.
PRECISION_DIGEST_WANT="4167118286"
precision_report="$(for f in corpus/*.ml; do
  echo "== $f"
  ./target/release/stcfa "$f" --call-sites --precision
done)"
PRECISION_DIGEST_GOT="$(printf '%s\n' "$precision_report" | cksum | cut -d' ' -f1)"
if [ "$PRECISION_DIGEST_GOT" != "$PRECISION_DIGEST_WANT" ]; then
  echo "precision digest drifted: want $PRECISION_DIGEST_WANT got $PRECISION_DIGEST_GOT" >&2
  printf '%s\n' "$precision_report" >&2
  exit 1
fi
echo "-- corpus precision digest ok ($PRECISION_DIGEST_GOT)"

echo "== precision: clippy on the scheduler crate (warnings are errors) =="
cargo clippy -p stcfa-precision --all-targets --offline -- -D warnings

echo "== server: stdio smoke round-trip =="
# A full analyze -> warm analyze -> query -> lint -> shutdown conversation
# through the release daemon. Gates: clean exit, every response ok:true,
# the second analyze served from the cache, and stdio served as the one
# connection of the fleet (its --summary line counts exactly one).
smoke_err="$CI_TMP/smoke.err"
smoke_out="$(printf '%s\n' \
  '{"id":1,"op":"analyze","source":"fun id x = x; id (fn u => u)"}' \
  '{"id":2,"op":"analyze","source":"fun id x = x; id (fn u => u)"}' \
  '{"id":3,"op":"query","kind":"label-set","source":"fun id x = x; id (fn u => u)"}' \
  '{"id":4,"op":"lint","source":"fun id x = x; id (fn u => u)"}' \
  '{"id":5,"op":"shutdown"}' \
  | ./target/release/stcfa serve --stdio --threads 2 --summary 2>"$smoke_err")"
echo "$smoke_out"
[ "$(printf '%s\n' "$smoke_out" | wc -l)" = "5" ] || { echo "server smoke: expected 5 responses" >&2; exit 1; }
if printf '%s\n' "$smoke_out" | grep -q '"ok":false'; then
  echo "server smoke: a request failed" >&2; exit 1
fi
printf '%s\n' "$smoke_out" | sed -n '2p' | grep -q '"cached":true' \
  || { echo "server smoke: warm analyze was not a cache hit" >&2; exit 1; }
grep -q '^fleet summary: connections_total=1 ' "$smoke_err" \
  || { echo "server smoke: stdio was not served as one fleet connection" >&2; cat "$smoke_err" >&2; exit 1; }

echo "== server: deep-nesting smoke =="
# Source nested far past the parser's limits is refused with a structured
# parse error; the daemon then answers stats and exits 0 instead of
# overflowing a worker's stack (which aborts the process and drops every
# connection). Then source at the limits, in the shapes that cost the
# most stack per level, must run analyze, lint and opt --emit through the
# release CLI on a 2 MiB stack, and through the daemon's request workers.
# Both limits are read back from the parse errors that name them.
deep_src="$(printf '(%.0s' $(seq 100000))fn x => x$(printf ')%.0s' $(seq 100000))"
if ! deep_out="$(printf '%s\n' \
  "{\"id\":1,\"op\":\"analyze\",\"source\":\"$deep_src\"}" \
  '{"id":2,"op":"stats"}' \
  | ./target/release/stcfa serve --stdio --threads 2)"; then
  echo "deep-nesting smoke: the daemon did not exit 0" >&2; exit 1
fi
printf '%s\n' "$deep_out" | cut -c1-160
[ "$(printf '%s\n' "$deep_out" | wc -l)" = "2" ] \
  || { echo "deep-nesting smoke: expected 2 responses" >&2; exit 1; }
printf '%s\n' "$deep_out" | sed -n '1p' | grep -q '"kind":"parse"' \
  || { echo "deep-nesting smoke: deep source was not a parse error" >&2; exit 1; }
printf '%s\n' "$deep_out" | sed -n '2p' | grep -q '"ok":true,"result":{"protocol"' \
  || { echo "deep-nesting smoke: stats went unanswered" >&2; exit 1; }
nesting="$(printf '%s\n' "$deep_out" | sed -n '1s/.*nests deeper than the limit of \([0-9]*\) levels.*/\1/p')"
printf 'val x = 1;\n%.0s' $(seq 100000) > "$CI_TMP/tall.ml"
height="$(./target/release/stcfa "$CI_TMP/tall.ml" --summary 2>&1 >/dev/null \
  | sed -n 's/.*taller than the limit of \([0-9]*\) levels.*/\1/p')" || true
[ -n "$nesting" ] && [ -n "$height" ] \
  || { echo "deep-nesting smoke: the parse errors do not name both limits" >&2; exit 1; }
nested_src() { # shape, levels
  case "$1" in
    let) printf 'let val x = 1 in %.0s' $(seq "$2"); printf 'x'; printf ' end%.0s' $(seq "$2") ;;
    record) printf '(1, %.0s' $(seq "$2"); printf '1'; printf ')%.0s' $(seq "$2") ;;
    not) printf 'not %.0s' $(seq "$2"); printf 'true' ;;
    if) printf 'if true then 1 else %.0s' $(seq "$2"); printf '1' ;;
    # A declaration chain over a `not` chain at the nesting limit.
    vals+not) printf 'val x = 1;\n%.0s' $(seq "$2"); nested_src not "$((nesting - 2))" ;;
  esac
}
for shape_levels in "let $((nesting - 2))" "record $((nesting / 2 - 1))" "not $((nesting - 2))" \
  "if $((nesting - 2))" "vals+not $((height - nesting + 1))"; do
  set -- $shape_levels
  nested_src "$1" "$(($2 + 1))" > "$CI_TMP/over.ml"
  if ./target/release/stcfa "$CI_TMP/over.ml" --summary > /dev/null 2>&1; then
    echo "deep-nesting smoke: $1 at $(($2 + 1)) levels should be past a limit" >&2; exit 1
  fi
  nested_src "$1" "$2" > "$CI_TMP/at.ml"
  for cmd in "$CI_TMP/at.ml --summary" "lint $CI_TMP/at.ml" "opt $CI_TMP/at.ml --emit"; do
    # shellcheck disable=SC2086
    if ! (ulimit -s 2048; exec ./target/release/stcfa $cmd > /dev/null 2>&1); then
      echo "deep-nesting smoke: \`stcfa $cmd\` failed on the $1 shape at the limit" >&2; exit 1
    fi
  done
  at_src="$(tr '\n' ' ' < "$CI_TMP/at.ml")"
  printf '%s\n' \
    "{\"op\":\"analyze\",\"source\":\"$at_src\"}" \
    "{\"op\":\"lint\",\"source\":\"$at_src\"}" \
    "{\"v\":2,\"op\":\"opt\",\"source\":\"$at_src\",\"emit\":true}" >> "$CI_TMP/at_limit.jsonl"
done
if ! at_out="$(./target/release/stcfa serve --stdio --threads 2 < "$CI_TMP/at_limit.jsonl")"; then
  echo "deep-nesting smoke: the daemon did not exit 0 on source at the limits" >&2; exit 1
fi
at_requests="$(wc -l < "$CI_TMP/at_limit.jsonl")"
[ "$(printf '%s\n' "$at_out" | grep -c '"ok":true')" = "$at_requests" ] \
  || { echo "deep-nesting smoke: the daemon failed a request at the limits" >&2; printf '%s\n' "$at_out" | cut -c1-200 >&2; exit 1; }
echo "-- 100,000-deep source refused with a parse error, stats answered, exit 0; source at the limits ($nesting levels of nesting, $height of tree) runs analyze, lint and opt --emit on a 2 MiB stack and on the daemon's workers ($at_requests requests)"

echo "== persist: warm restart smoke over stdio =="
# Three daemon generations sharing one --cache-dir. The first builds and
# persists; the second must answer the same conversation from disk —
# cached:true on its first analyze, zero misses, one disk hit — with the
# query/lint response lines byte-identical across the restart. The third
# finds the image stamped with an older format version and must rebuild
# it (version skew is a cache miss, never a migration). The generations
# that must build run one worker: with two, the inline-source query can
# take the build slot first, and the analyze then coalesces onto it and
# reports cached:true.
persist_dir="$CI_TMP/cache"
persist_requests="$(printf '%s\n' \
  '{"id":1,"op":"analyze","source":"fun id x = x; id (fn u => u)"}' \
  '{"id":2,"op":"query","kind":"label-set","source":"fun id x = x; id (fn u => u)"}' \
  '{"id":3,"op":"lint","source":"fun id x = x; id (fn u => u)"}' \
  '{"id":4,"op":"shutdown"}')"
cold_out="$(printf '%s\n' "$persist_requests" | ./target/release/stcfa serve --stdio --threads 1 --cache-dir "$persist_dir")"
warm_out="$(printf '%s\n' "$persist_requests" | ./target/release/stcfa serve --stdio --threads 2 --cache-dir "$persist_dir")"
for out in "$cold_out" "$warm_out"; do
  if printf '%s\n' "$out" | grep -q '"ok":false'; then
    echo "persist smoke: a request failed" >&2; printf '%s\n' "$out" >&2; exit 1
  fi
done
printf '%s\n' "$cold_out" | sed -n '1p' | grep -q '"cached":false' \
  || { echo "persist smoke: first generation should build" >&2; exit 1; }
printf '%s\n' "$warm_out" | sed -n '1p' | grep -q '"cached":true' \
  || { echo "persist smoke: restarted daemon rebuilt instead of loading" >&2; exit 1; }
if [ "$(printf '%s\n' "$cold_out" | sed -n '2,3p')" != "$(printf '%s\n' "$warm_out" | sed -n '2,3p')" ]; then
  echo "persist smoke: answers changed across the restart" >&2
  diff <(printf '%s\n' "$cold_out") <(printf '%s\n' "$warm_out") >&2 || true
  exit 1
fi
ls "$persist_dir"/*.stcfa >/dev/null 2>&1 \
  || { echo "persist smoke: no snapshot file in $persist_dir" >&2; exit 1; }
# The format version is the little-endian u32 at byte offset 8.
image_version() { od -An -tu4 -j8 -N4 "$1" | tr -d ' '; }
skew_file="$(ls "$persist_dir"/*.stcfa | head -n1)"
printf '\002\000\000\000' | dd of="$skew_file" bs=1 seek=8 count=4 conv=notrunc 2>/dev/null
[ "$(image_version "$skew_file")" = "2" ] \
  || { echo "persist smoke: could not stamp $skew_file as version 2" >&2; exit 1; }
skew_err="$CI_TMP/skew.err"
skew_out="$(printf '%s\n' "$persist_requests" | ./target/release/stcfa serve --stdio --threads 1 --cache-dir "$persist_dir" 2>"$skew_err")"
if printf '%s\n' "$skew_out" | grep -q '"ok":false'; then
  echo "persist smoke: a request failed after version skew" >&2; printf '%s\n' "$skew_out" >&2; exit 1
fi
printf '%s\n' "$skew_out" | sed -n '1p' | grep -q '"cached":false' \
  || { echo "persist smoke: a version-2 image was served instead of rebuilt" >&2; exit 1; }
grep -q 'kind=version-skew action=rebuild' "$skew_err" \
  || { echo "persist smoke: no version-skew log line" >&2; cat "$skew_err" >&2; exit 1; }
if [ "$(printf '%s\n' "$cold_out" | sed -n '2,3p')" != "$(printf '%s\n' "$skew_out" | sed -n '2,3p')" ]; then
  echo "persist smoke: answers changed across the version-skew rebuild" >&2
  diff <(printf '%s\n' "$cold_out") <(printf '%s\n' "$skew_out") >&2 || true
  exit 1
fi
[ "$(image_version "$skew_file")" = "3" ] \
  || { echo "persist smoke: rebuilt image has version $(image_version "$skew_file"), want 3" >&2; exit 1; }
echo "-- warm restart served from disk, transcripts identical; version-2 image rebuilt as version 3"

echo "== session: multi-module smoke over stdio =="
# Split a corpus program into 3 modules and drive a full protocol-v2
# session conversation (open -> query -> update one module -> query ->
# lint -> close) through the release daemon. Gates: every response
# ok:true, the update relinks exactly the edited module, and the
# transcript is byte-identical at 1, 2 and 8 worker threads.
session_requests="$(./target/release/stcfa session corpus/higher_order.ml --split 3 --emit-requests --update-last)"
session_ref=""
for t in 1 2 8; do
  out="$(printf '%s\n' "$session_requests" | ./target/release/stcfa serve --stdio --threads "$t")"
  if printf '%s\n' "$out" | grep -q '"ok":false'; then
    echo "session smoke: a request failed at --threads $t" >&2
    printf '%s\n' "$out" >&2
    exit 1
  fi
  if [ -z "$session_ref" ]; then
    session_ref="$out"
    printf '%s\n' "$out" | sed -n '1p' | grep -q '"relinked":3' \
      || { echo "session smoke: open did not link 3 modules" >&2; exit 1; }
    printf '%s\n' "$out" | sed -n '3p' | grep -q '"reused":2,"relinked":1' \
      || { echo "session smoke: update did not reuse the unchanged prefix" >&2; exit 1; }
  elif [ "$out" != "$session_ref" ]; then
    echo "session smoke: transcript differs between --threads 1 and --threads $t" >&2
    diff <(printf '%s\n' "$session_ref") <(printf '%s\n' "$out") >&2 || true
    exit 1
  fi
done
echo "-- session transcripts byte-identical at threads 1/2/8"

echo "== server: fleet fault-injection gate =="
# The connection-level fault suite (mid-burst disconnect, half-written
# lines, slow-reader backpressure and overload shedding on both
# transports, transcript invariance across shard/thread geometry and
# transport, the line cap and invalid UTF-8 answered alike on stdio and
# TCP, queries pipelined behind an inline-source analyze never
# overtaking it, and the router's agreement with the parsed request on
# generated and mutated lines) must pass explicitly, not just ride along
# in the tier-1 run. So must the worker pool's own tests: an idle worker
# takes the tasks queued behind a busy owner, one digest's tasks never
# overlap and start in dispatch order at every geometry, and stop drains
# every queued task. Lost wake-ups and ordering races show only under
# repetition, so the pool tests run 20 times.
cargo test -q --offline --test server -- fleet mid_burst half_written \
  overload slow_reader persist_tier idle same_answers_over_stdio_and_tcp \
  never_overtake router
cargo test -q --offline -p stcfa-server -- \
  an_idle_worker_runs_tasks_queued_behind_a_busy_owner \
  one_digest_runs_on_one_worker_at_a_time_in_dispatch_order \
  stop_drains_queued_tasks_before_workers_exit
for i in $(seq 1 20); do
  if ! pool_out="$(cargo test -q --offline -p stcfa-server shard 2>&1)"; then
    printf '%s\n' "$pool_out" >&2
    echo "pool tests failed on repetition $i of 20" >&2; exit 1
  fi
done
echo "-- pool tests green 20 times"

echo "== server: TCP soak smoke (64 connections) =="
# A short bursty run against the release daemon through the fleet
# transport. Gates: no connection fails, responses stay in per-stream
# order, cross-connection transcripts are byte-identical, nothing is
# shed at nominal load, and p99 stays sane.
soak_log="$CI_TMP/serve.err"
./target/release/stcfa serve --addr 127.0.0.1:0 --threads 2 --summary 2>"$soak_log" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$CI_TMP"' EXIT INT TERM
soak_addr=""
for _ in $(seq 1 200); do
  soak_addr="$(sed -n 's/^stcfa-server listening on //p' "$soak_log" | head -n1)"
  [ -n "$soak_addr" ] && break
  sleep 0.05
done
[ -n "$soak_addr" ] || { echo "soak smoke: daemon never announced its port" >&2; exit 1; }
# `stcfa soak` itself exits nonzero on failed connections or reordering.
soak_out="$(./target/release/stcfa soak --addr "$soak_addr" --connections 64 --bursts 2 --burst 4)"
echo "$soak_out"
printf '%s\n' "$soak_out" | grep -q '"overloaded":0,' \
  || { echo "soak smoke: requests shed at nominal load" >&2; exit 1; }
printf '%s\n' "$soak_out" | grep -q '"transcript_identical":true' \
  || { echo "soak smoke: transcripts diverged across connections" >&2; exit 1; }
soak_p99="$(printf '%s\n' "$soak_out" | sed -n 's/.*"p99_ns":\([0-9]*\).*/\1/p')"
[ -n "$soak_p99" ] && [ "$soak_p99" -lt 2000000000 ] \
  || { echo "soak smoke: p99 ${soak_p99:-missing} ns exceeds the 2 s sanity bound" >&2; exit 1; }
./target/release/stcfa client --addr "$soak_addr" --request '{"op":"shutdown"}' >/dev/null
wait "$serve_pid"
grep -q '^fleet summary:.* stolen=[0-9]' "$soak_log" \
  || { echo "soak smoke: --summary line missing from stderr, or without stolen=" >&2; cat "$soak_log" >&2; exit 1; }
echo "-- soak clean: 64 connections, zero shed, p99 ${soak_p99} ns"

echo "== benches compile (not run) =="
cargo bench --no-run --offline

echo "== benchmark package builds =="
# benchmark/ is its own package on stcfa-server's public API (Json,
# Server, SnapshotKey, SnapshotStore, proto::parse_policy,
# soak::percentile); no other stage compiles it.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "ci.sh: all green"
