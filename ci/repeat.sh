#!/usr/bin/env bash
# Runs test binaries COUNT times over, each built once, failing on the
# first red run:
#
#   ci/repeat.sh COUNT SELECTOR [FILTER...] [SELECTOR [FILTER...]]...
#
# A SELECTOR is cargo's `--test NAME`, `-p CRATE --lib` or
# `-p CRATE --test NAME`. Each FILTER after it is one run of that binary
# per round; a selector without filters runs its whole binary. The
# `ci_steps_name_tests_that_exist` test in `tests/surface.rs` checks
# that every filter the workflow hands this script selects a test.
set -euo pipefail

count=$1
shift
selectors=() # the cargo arguments naming each binary
filters=()   # its filters, space-separated; none runs the whole binary
while (($#)); do
  case $1 in
    -p)
      if [[ $3 == --test ]]; then
        selectors+=("-p $2 --test $4")
        shift 4
      else
        selectors+=("-p $2 $3")
        shift 3
      fi
      filters+=("")
      ;;
    --test)
      selectors+=("--test $2")
      filters+=("")
      shift 2
      ;;
    *)
      filters[-1]+=" $1"
      shift
      ;;
  esac
done

binaries=()
for selector in "${selectors[@]}"; do
  # A selector is several cargo arguments: split it. Only the test
  # harness counts: a package's binaries are built beside it, and may
  # be listed after it.
  # shellcheck disable=SC2086
  binaries+=("$(cargo test $selector --no-run --message-format=json |
    grep -E '"profile":\{[^}]*"test":true' |
    sed -n 's/.*"executable":"\([^"]*\)".*/\1/p' | tail -1)")
done

for i in $(seq "$count"); do
  for b in "${!binaries[@]}"; do
    read -ra runs <<<"${filters[b]}"
    for filter in "${runs[@]:-}"; do
      "${binaries[b]}" ${filter:+"$filter"} ||
        { echo "${selectors[b]} $filter: red on run $i"; exit 1; }
    done
  done
done
