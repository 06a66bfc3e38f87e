#!/bin/sh
# Build the Echo benchmark from the sources of this checkout, then run it.
#   sh echobench/run.sh --workload aes_edit --seed 1 --seconds 25 --trace 0
#   sh echobench/run.sh --self-check
# Build output goes to stderr, so the last line of stdout is the result.
# Without the repository's sources the build fails and no result is printed.
cd "$(dirname "$0")/.." || exit 1
dune build --root . --build-dir .bench_build --profile release \
  ./echobench/main.exe 1>&2 || exit 1
exec ./.bench_build/default/echobench/main.exe "$@"
