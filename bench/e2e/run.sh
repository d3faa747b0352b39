#!/usr/bin/env bash
# Builds cadrl_e2e from the sources of this checkout and runs one workload:
#
#   bash bench/e2e/run.sh --workload <name> --seed <S> --seconds <N> --trace <0|1>
#
# Run it from the root of the checkout. The build directory is
# $CARGO_TARGET_DIR (default .bench_build); build output goes to stderr so
# the benchmark's JSON lines are the only standard output. `--trace 1`
# writes the spans to <build dir>/spans.json; any other value than 0 or 1
# is taken as the span file's path.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"

generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
cmake -S "$here" -B "$build" "${generator[@]}" >&2
cmake --build "$build" --target cadrl_e2e -j "$(nproc)" >&2

args=()
while (($#)); do
  if [[ "$1" == --trace && $# -ge 2 ]]; then
    case "$2" in
      0) ;;
      1) args+=(--trace "$build/spans.json") ;;
      *) args+=(--trace "$2") ;;
    esac
    shift 2
  else
    args+=("$1")
    shift
  fi
done

mkdir -p "$build/tmp"
exec "$build/cadrl_e2e" --tmpdir "$build/tmp" "${args[@]}"
