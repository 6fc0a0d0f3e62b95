#!/usr/bin/env bash
# prodcover.sh reports which statements the shipped programs run. It builds
# cmd/nvmetro-bench, cmd/nvmetroctl, every example and the bench/ binary with
# coverage of every nvmetro package, then runs all quick experiments, the
# nvmetroctl invocations TestCLIGolden pins, every example and one short
# bench run. It merges their counters and prints, per file, the statements
# no run executed out of the file's total, the overall share run, and every
# function no run entered. Builds, counters and outputs go to a temporary
# directory; nothing is written in the checkout. Run from anywhere:
# `make prodcover` or `bash scripts/prodcover.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin=$tmp/bin
export GOCOVERDIR=$tmp/cov
mkdir -p "$bin" "$GOCOVERDIR" "$tmp/out"

cover=(-cover -coverpkg=nvmetro/...)
go build "${cover[@]}" -o "$bin/" ./cmd/nvmetro-bench ./cmd/nvmetroctl ./examples/...
go build -C bench "${cover[@]}" -o "$bin/bench" .

"$bin/nvmetro-bench" -run all -quick >/dev/null
"$bin/nvmetroctl" >/dev/null
for sub in qos chaos scrub snap shard; do
	"$bin/nvmetroctl" "$sub" >/dev/null
done
for ex in examples/*/; do
	"$bin/$(basename "$ex")" >/dev/null
done
"$bin/bench" -seconds 0.2 -out "$tmp/out" >/dev/null

# The bench/ module's own files are not in this module, so `go tool cover`
# could not find them; only nvmetro's packages are reported.
go tool covdata textfmt -i="$GOCOVERDIR" -o "$tmp/all.txt"
grep -v '^nvmetro/bench/' "$tmp/all.txt" >"$tmp/prof.txt"

# A block's statements count once however many runs executed it.
awk 'NR > 1 {
	split($1, at, ":")
	file[$1] = at[1]
	stmts[$1] = $2
	if ($3 > 0) hit[$1] = 1
}
END {
	for (b in stmts) {
		total[file[b]] += stmts[b]
		if (!(b in hit)) unrun[file[b]] += stmts[b]
	}
	for (f in total) printf "  %-50s %5d/%d\n", f, unrun[f], total[f]
}' "$tmp/prof.txt" | sort >"$tmp/files.txt"
echo "unexecuted/total statements per file:"
cat "$tmp/files.txt"
awk '{ split($2, n, "/"); unrun += n[1]; total += n[2] }
END { printf "%.1f%% of %d statements run\n", 100 * (total - unrun) / total, total }' "$tmp/files.txt"

echo "functions no run entered:"
go tool cover -func="$tmp/prof.txt" | awk '$NF == "0.0%" { print "  " $1, $2 }'
