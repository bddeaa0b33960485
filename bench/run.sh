#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout — binary, Go build cache and the toolchain's own scratch files
# all stay inside the checkout — and runs it with the given arguments.
# Run it from the repository root:  bash bench/run.sh -seed 1
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the root of a checkout that holds the program (go.mod) and bench/" >&2
	exit 3
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
(
	cd "$root/bench"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOENV=off \
		GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
		GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/ediflow-bench" .
)
exec "$build/ediflow-bench" "$@"
