#!/usr/bin/env bash
# Prints the three design-size baselines tracked in ROADMAP.md:
#   - non-test Go lines of code, excluding examples/, perfbench/ and the
#     benchmark build directory .bench_build/;
#   - func/type lines in `go doc -all .` (the root package's exported
#     API: exported functions, types and methods);
#   - sync.Mutex/sync.RWMutex declarations in the root package's
#     non-test files.
#
# Usage: bash scripts/design_baseline.sh   (from anywhere in the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

loc=$(find . -name '*.go' ! -name '*_test.go' \
	-not -path './examples/*' -not -path './perfbench/*' -not -path './.bench_build/*' \
	-print0 | xargs -0 cat | wc -l)
api=$(go doc -all . | grep -cE '^(func|type) ')
locks=$(grep -hE '^[[:space:]]*[A-Za-z_][A-Za-z0-9_]*([[:space:]]*,[[:space:]]*[A-Za-z_][A-Za-z0-9_]*)*[[:space:]]+(\[\])?sync\.(RW)?Mutex\b' \
	$(ls ./*.go | grep -v '_test\.go$') | wc -l)

printf 'non-test Go LoC (excl. examples/, perfbench/, .bench_build/): %d\n' "$loc"
printf 'exported func/type lines in go doc -all .:                    %d\n' "$api"
printf 'sync.Mutex/RWMutex declarations in the root package:          %d\n' "$locks"
