#!/bin/sh
# Format gate for a container without ocamlformat: OCaml sources and
# dune files must be tab-free, carry no trailing whitespace, and end
# with a newline.  Library code must also raise the structured
# Error.t instead of failwith.  Run via `dune build @fmt` (or directly
# from the repository root).
set -eu

fail=0
tab=$(printf '\t')

# Error-discipline gate: lib/ raises Cyclesteal.Error (Error.invalid,
# Error.unknown, ...), never failwith — that is what keeps CLI and
# daemon error output structured.  Allowlist files here (as
# "path:reason") if a stdlib-flavoured exception is ever the right
# call; lib/util is exempt wholesale as a modelling-free substrate
# whose contract violations stay stdlib Invalid_argument.
failwith_allowlist=""

for f in $(find lib -type f \( -name '*.ml' -o -name '*.mli' \) \
             -not -path 'lib/util/*' | sort); do
  case " $failwith_allowlist " in
    *" $f:"*) continue ;;
  esac
  if grep -nE '(^|[^A-Za-z0-9_.])failwith([^A-Za-z0-9_]|$)' "$f" \
       >/dev/null 2>&1; then
    echo "error-discipline: failwith in $f (use Error.invalid / Error.unknown):" >&2
    grep -nE '(^|[^A-Za-z0-9_.])failwith([^A-Za-z0-9_]|$)' "$f" | head -3 >&2
    fail=1
  fi
done

# Parallelism gate: domains are spawned in exactly two places — the
# worker pool in lib/util/par.ml and the shard-worker topology in
# lib/service/router.ml (dedicated shard workers and the watchdog,
# whose restart-on-failure lifecycle a pool cannot express).
# Everything else takes a Pool (or Par.map) so parallelism stays
# deadlock-free (a nested run only ever waits on tasks already
# running) and capped; ad-hoc Domain.spawn calls escape both
# guarantees.
for f in $(find lib bin bench examples -type f \
             \( -name '*.ml' -o -name '*.mli' \) \
             -not -path 'lib/util/par.ml' -not -path 'lib/util/par.mli' \
             -not -path 'lib/service/router.ml' \
           | sort); do
  if grep -nE 'Domain\.spawn' "$f" >/dev/null 2>&1; then
    echo "parallelism: Domain.spawn in $f (use Csutil.Par.Pool):" >&2
    grep -nE 'Domain\.spawn' "$f" | head -3 >&2
    fail=1
  fi
done

# Dispatch gate: in the serving layer a fan-out costs a domain
# wake-up (tens of µs), more than a line parse or a resident group
# takes.  So lib/service fans out at exactly one site: the group
# fan-out of a batch with fill, grow or solver-build work
# (lib/service/batch.ml).  Anything else — per-line parsing in
# particular — runs on the calling domain.  The binaries fan out at
# no site at all: a sweep of cache work (csched precompute) goes
# through Service.Batch, which fetches each cache identity once, so
# no two of its jobs race one cold identity.
for f in $(find lib/service bin -type f -name '*.ml' | sort); do
  case "$f" in
    lib/service/batch.ml) allowed=1 ;;
    *) allowed=0 ;;
  esac
  n=$(grep -cE 'Par\.(map|init|map_reduce)([^A-Za-z0-9_]|$)' "$f" || true)
  if [ "$n" -gt "$allowed" ]; then
    echo "dispatch: $n Csutil.Par fan-out site(s) in $f, $allowed allowed:" >&2
    grep -nE 'Par\.(map|init|map_reduce)([^A-Za-z0-9_]|$)' "$f" | head -3 >&2
    fail=1
  fi
done

# Lock-free gate: Atomic.compare_and_set is how lock-free structures
# settle ownership of an element, and the tree has none: the pool
# hands out tasks through fetch_and_add cursors and keeps everything
# else under its lock.  A CAS loop is an ad-hoc concurrent queue in
# the making — build on Pool / Router instead.
# (Monotone counters and cursors via Atomic.fetch_and_add / incr stay
# allowed everywhere: each caller gets a distinct value, so nothing is
# arbitrated.)
for f in $(find lib bin bench examples -type f \
             \( -name '*.ml' -o -name '*.mli' \) | sort); do
  if grep -nE 'Atomic\.compare_and_set' "$f" >/dev/null 2>&1; then
    echo "lock-free: Atomic.compare_and_set in $f (build on Csutil.Par.Pool):" >&2
    grep -nE 'Atomic\.compare_and_set' "$f" | head -3 >&2
    fail=1
  fi
done

# Blocking-coordination gate: Mutex+Condition park/wake protocols are
# easy to get wrong (missed wakeups, waits outside the predicate
# loop), so they live only in the audited sites: the pool's worker
# parking and joins and the one blocking channel (lib/util/par.ml,
# which the router's shard jobs queue on; the server's connection
# slots each accept for themselves), the router's job completion
# (lib/service/router.ml),
# and the DP kernel's wavefront barrier (lib/core/dp.ml).  The cache
# parks nobody: its mutexes only guard metadata, and one solve per
# identity comes from Batch grouping and shard ownership.  Everywhere else, coordinate through those layers —
# a fresh condvar protocol needs a review and a line here.
condition_allowlist="lib/util/par.ml lib/service/router.ml lib/core/dp.ml"

for f in $(find lib bin test bench examples -type f \
             \( -name '*.ml' -o -name '*.mli' \) | sort); do
  case " $condition_allowlist " in
    *" $f "*) continue ;;
  esac
  if grep -nE 'Condition\.' "$f" >/dev/null 2>&1; then
    echo "coordination: Condition.* in $f (coordinate through Pool/Router/Server):" >&2
    grep -nE 'Condition\.' "$f" | head -3 >&2
    fail=1
  fi
done

# Serving gate: accepting connections and spawning raw threads happen
# in exactly one place, the serving loop in lib/service/server.ml (its
# worker slots come from Csutil.Par.Pool).  Ad-hoc accept loops or
# Thread.create calls elsewhere would bypass the server's connection
# accounting, its disconnect handling and the SIGPIPE guard.
for f in $(find lib bin bench examples -type f \
             \( -name '*.ml' -o -name '*.mli' \) \
             -not -path 'lib/service/server.ml' | sort); do
  if grep -nE 'Thread\.create|Unix\.accept' "$f" >/dev/null 2>&1; then
    echo "serving: Thread.create/Unix.accept in $f (route through Service.Server):" >&2
    grep -nE 'Thread\.create|Unix\.accept' "$f" | head -3 >&2
    fail=1
  fi
done

# Unsafe-access gate: bounds-unchecked Bigarray reads and writes are
# earned by kernels whose index arithmetic has been audited — the DP
# fill and its packed-row binary search (lib/core/dp.ml) and the
# snapshot / CRC layer (lib/store/).  The game memo's audited table
# probe in lib/core/game.ml is the other: every slot index it forms is
# masked below the power-of-two slot count, key words sit at 2i and
# 2i+1 of a 2 * slots array, and a bank-loaded table passes the
# load-time structure check before any probe runs over it.  A new
# unsafe_get / unsafe_set site needs a
# bounds argument in review and a line here; everywhere else, indexed
# access stays checked.
unsafe_allowlist="lib/core/game.ml"

for f in $(find lib bin test bench examples -type f \
             \( -name '*.ml' -o -name '*.mli' \) \
             -not -path 'lib/core/dp.ml' -not -path 'lib/store/*' \
           | sort); do
  case " $unsafe_allowlist " in
    *" $f "*) continue ;;
  esac
  if grep -nE 'Array1\.unsafe_(get|set)' "$f" >/dev/null 2>&1; then
    echo "unsafe-access: Array1.unsafe_get/set in $f (use checked access, or audit + allowlist):" >&2
    grep -nE 'Array1\.unsafe_(get|set)' "$f" | head -3 >&2
    fail=1
  fi
done

# Store gate: file mappings are created in exactly one place, the
# snapshot layer in lib/store/.  Mapping lifetimes are subtle (a
# Bigarray can outlive its fd; a shared mapping writes through to the
# file), so every map_file call site stays in the one module whose
# save/load protocol — atomic rename, CRC before trust, MAP_PRIVATE
# reads — has been audited.
for f in $(find lib bin test bench examples -type f \
             \( -name '*.ml' -o -name '*.mli' \) \
             -not -path 'lib/store/*' | sort); do
  if grep -nE 'Unix\.map_file' "$f" >/dev/null 2>&1; then
    echo "store: Unix.map_file in $f (route through Store.Snapshot):" >&2
    grep -nE 'Unix\.map_file' "$f" | head -3 >&2
    fail=1
  fi
done

# Clock gate: durations and deadlines are read on the monotonic clock
# (Csutil.Clock.now).  The wall clock steps under NTP or an operator
# reset, so an interval measured across a step comes out negative or
# hours long — in a latency histogram, a watchdog deadline or a bench
# series alike.
for f in $(find lib bin bench -type f \( -name '*.ml' -o -name '*.mli' \) \
           | sort); do
  if grep -nE 'Unix\.gettimeofday' "$f" >/dev/null 2>&1; then
    echo "clock: Unix.gettimeofday in $f (time durations with Csutil.Clock.now):" >&2
    grep -nE 'Unix\.gettimeofday' "$f" | head -3 >&2
    fail=1
  fi
done

# Float-printing gate: one float printer.  The C float formatter
# (caml_format_float) is bound in exactly one place,
# lib/service/json.ml, whose read-back chain is the wire format's
# float rule; a second binding elsewhere would be a second printer
# that replies could drift from.
for f in $(find lib bin test bench examples -type f \
             \( -name '*.ml' -o -name '*.mli' \) \
             -not -path 'lib/service/json.ml' | sort); do
  if grep -nE 'format_float' "$f" >/dev/null 2>&1; then
    echo "float-printing: format_float in $f (print numbers through Service.Json):" >&2
    grep -nE 'format_float' "$f" | head -3 >&2
    fail=1
  fi
done

# Oracle gate: the exhaustive references live in the test-only dune
# library test/oracle/ (no public_name), which lib/ cannot name without
# a dependency cycle; the build enforces that.  The binaries could list
# it, so bin/dune must not.  The serving path reads a request line with
# the one-pass scanner Protocol.parse_line and builds no JSON tree but
# the id, so no file under lib/service/ but json.ml calls
# Json.of_string.  A name in a doc link ([Json.of_string]) is not a use.
if grep -nwE 'oracle' bin/dune >/dev/null 2>&1; then
  echo "oracle: bin/dune lists the test-only oracle library:" >&2
  grep -nwE 'oracle' bin/dune | head -3 >&2
  fail=1
fi
use_of() { grep -nE "$1"'([^]}'"'"'A-Za-z0-9_]|$)' "$2"; }
for f in $(find lib/service -type f -name '*.ml' \
             -not -path 'lib/service/json.ml' | sort); do
  if use_of 'Json\.of_string' "$f" >/dev/null 2>&1; then
    echo "oracle: Json.of_string in $f (scan with Protocol.parse_line):" >&2
    use_of 'Json\.of_string' "$f" | head -3 >&2
    fail=1
  fi
done

for f in $(find lib bin test bench examples -type f \
             \( -name '*.ml' -o -name '*.mli' -o -name 'dune' \) \
           | sort); do
  if grep -n "$tab" "$f" >/dev/null 2>&1; then
    echo "format: tab character in $f:" >&2
    grep -n "$tab" "$f" | head -3 >&2
    fail=1
  fi
  if grep -nE "[ $tab]+\$" "$f" >/dev/null 2>&1; then
    echo "format: trailing whitespace in $f:" >&2
    grep -nE "[ $tab]+\$" "$f" | head -3 >&2
    fail=1
  fi
  if [ -s "$f" ] && [ "$(tail -c 1 "$f" | od -An -c | tr -d ' ')" != '\n' ]; then
    echo "format: missing final newline in $f" >&2
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "format check: OK"
fi
exit "$fail"
