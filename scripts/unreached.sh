#!/bin/sh
# unreached.sh — which functions does no binary in this repository reach?
#
# The roots are what this repository runs: the benchmark (bench/), the
# commands (cmd/), the examples (examples/) and the paper's assertions
# (the TestPaper* tests of paper_test.go). Build the binaries with coverage
# instrumentation over every package, run them and the assertions the way
# they are run, merge the counters and print
#
#   1. every function outside bench/, cmd/, examples/ and internal/analysis
#      that no root entered, under a per-package count of them,
#   2. the packages no root links at all,
#   3. the non-test line count outside bench/.
#
# Package tests are not roots: a function only they call is on list 1.
# It is the list to read before keeping a second way of doing something.
#
# POSIX sh and the go tool; nothing to install. Run from anywhere:
#
#	scripts/unreached.sh > unreached.txt
set -eu

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
bin=$tmp/bin cov=$tmp/cov out=$tmp/out
mkdir -p "$bin" "$cov" "$out"

go build -buildvcs=false -cover -coverpkg=./... -o "$bin/" \
	./bench ./cmd/moccaload ./cmd/moccad ./examples/...

# run: one instrumented invocation; its output is noise unless it fails.
run() {
	GOCOVERDIR=$cov "$@" >"$out/run.log" 2>&1 || {
		echo "unreached.sh: $* failed:" >&2
		tail -n 40 "$out/run.log" >&2
		exit 1
	}
}
for w in org_mesh org_gossip services store_mixed; do
	for t in 0 1; do
		run "$bin/bench" --workload "$w" --seed 1992 --seconds 1 --trace "$t" --out "$out/$w-$t"
	done
done
run "$bin/bench" -seed 1992 -out "$out/full"
run "$bin/moccaload" -durable -torn 1 -crashes 1 -partitions 1 -slowlinks 1
run "$bin/moccaload" -topology gossip
run "$bin/moccad" -trace "$out/moccad-trace.json"
run go test -count=1 -cover -coverpkg=./... -run '^TestPaper' . -args -test.gocoverdir="$cov"
for ex in channeltunnel conference federation quickstart; do
	run "$bin/$ex"
done

outside='^mocca/(bench|cmd|examples|internal/analysis)(/|$)'

go tool covdata func -i="$cov" |
	awk '$NF == "0.0%" { print $1, $2 }' | grep -Ev "$outside" | sort -t: -k1,1 -k2,2n >"$tmp/unreached"

echo "# functions no binary reaches, per package ($(wc -l <"$tmp/unreached" | tr -d ' ') in all)"
sed 's|/[^/]*$||' "$tmp/unreached" | sort | uniq -c

echo
echo "# functions no binary reaches (go tool covdata func, 0.0%)"
cat "$tmp/unreached"

echo
echo "# packages no binary links"
go tool covdata pkglist -i="$cov" | sort >"$tmp/linked"
go list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./... | grep -Ev "$outside" | sort | comm -23 - "$tmp/linked"

echo
echo "# non-test lines outside bench/"
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec cat {} + | wc -l
