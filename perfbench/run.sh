#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every build and
# run artefact under .bench_build/ in the current directory (the root of
# a checkout):
#
#   bash perfbench/run.sh --workload select-warm --seed 1 --seconds 10 --trace 0
#
# All arguments are passed to the benchmark binary; see perfbench/README.md.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gotmp" "${out}/gopath"
export GOCACHE="${out}/gocache"
export GOTMPDIR="${out}/gotmp"
export GOPATH="${out}/gopath"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" "$@"
