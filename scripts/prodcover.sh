#!/usr/bin/env bash
# prodcover.sh checks which functions the shipped programs never enter. It
# builds cmd/nvmetro-bench, cmd/nvmetroctl, cmd/nvmetro-asm, every example
# and the bench/ binary with coverage of every nvmetro package, then runs all
# quick experiments (one of them again with -csv), the nvmetroctl
# invocations TestCLIGolden pins, nvmetro-asm over every shipped classifier,
# every example and one short bench run. It merges their counters, prints
# the share of statements run, and compares the functions with statements
# that no run entered against testdata/prodcover.txt. It fails on a
# never-entered function the list does not name or names twice, on a row
# that names no never-entered function (it runs now, or is gone), and on a
# row whose class is not one of the five the list's header defines. Builds, counters and
# outputs go to a temporary directory; nothing is written in the checkout.
# Run from anywhere: `make prodcover` or `bash scripts/prodcover.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."
list=testdata/prodcover.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin=$tmp/bin
export GOCOVERDIR=$tmp/cov
mkdir -p "$bin" "$GOCOVERDIR" "$tmp/out"

cover=(-cover -coverpkg=nvmetro/...)
go build "${cover[@]}" -o "$bin/" ./cmd/... ./examples/...
go build -C bench "${cover[@]}" -o "$bin/bench" .

"$bin/nvmetro-bench" -run all -quick >/dev/null
"$bin/nvmetro-bench" -run table1 -quick -csv "$tmp/out" >/dev/null
"$bin/nvmetroctl" >/dev/null
for sub in qos chaos scrub snap shard; do
	"$bin/nvmetroctl" "$sub" >/dev/null
done
"$bin/nvmetro-asm" -builtin >/dev/null
for c in $("$bin/nvmetro-asm" -builtin | tail -n +2); do
	"$bin/nvmetro-asm" -dump "$c" >"$tmp/out/$c.s"
	"$bin/nvmetro-asm" -hex -compile "$tmp/out/$c.s" >/dev/null
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
	stmts[$1] = $2
	if ($3 > 0) hit[$1] = 1
}
END {
	for (b in stmts) {
		total += stmts[b]
		if (b in hit) run += stmts[b]
	}
	printf "%.1f%% of %d statements run\n", 100 * run / total, total
}' "$tmp/prof.txt"

# The functions no run entered, as "file Recv.Func" (or "file Func"), file
# relative to the module root. `go tool cover -func` prints 0.0% for a
# function without statements too, entered or not; a function's statements
# are those of the blocks that start between its line and the next
# function's in the same file.
go tool cover -func="$tmp/prof.txt" | awk -v prof="$tmp/prof.txt" '
BEGIN {
	while ((getline l < prof) > 0) {
		if (l ~ /^mode:/) continue
		split(l, f, " "); split(f[1], at, ":"); split(at[2], pos, ".")
		n = ++nb[at[1]]; bline[at[1], n] = pos[1]; bstmts[at[1], n] = f[2]
	}
}
$1 != "total:" {
	split($1, at, ":")
	n = ++nf; file[n] = at[1]; line[n] = at[2]; name[n] = $2; zero[n] = ($NF == "0.0%")
}
END {
	for (i = 1; i <= nf; i++) {
		if (!zero[i]) continue
		end = (i < nf && file[i + 1] == file[i]) ? line[i + 1] : 1e9
		s = 0
		for (j = 1; j <= nb[file[i]]; j++)
			if (bline[file[i], j] >= line[i] && bline[file[i], j] < end) s += bstmts[file[i], j]
		if (s > 0) print file[i], line[i], name[i]
	}
}' | while read -r file line name; do
	rel=${file#nvmetro/}
	recv=$(sed -n "${line}s/^func ([^)]*[ *]\([A-Za-z0-9_]*\)\(\[[^]]*\]\)\?) .*/\1./p" "$rel")
	echo "$rel $recv$name"
done | sort >"$tmp/unentered.txt"

awk -v list="$list" '
BEGIN {
	split("error paper diag bench ref", cls, " ")
	for (i in cls) valid[cls[i]] = 1
	while ((getline l < list) > 0) {
		if (l ~ /^[ \t]*(#|$)/) continue
		nf = split(l, f, " ")
		n = ++rows; class[n] = f[1]; rfile[n] = f[2]; rfunc[n] = f[3]; text[n] = l
		if (!(f[1] in valid) || nf < 3 || f[1] ~ /^(error|paper)$/ && nf < 4) {
			printf "%s: malformed row (want: class file func|* [reason]): %s\n", list, l
			bad = 1
		}
	}
}
{
	listed = 0
	for (n = 1; n <= rows; n++)
		if (rfile[n] == $1 && (rfunc[n] == "*" || rfunc[n] == $2)) { used[n] = 1; listed++; count[class[n]]++ }
	if (!listed) { printf "unlisted: %s %s is entered by no shipped program\n", $1, $2; bad = 1 }
	if (listed > 1) { printf "listed %d times: %s %s\n", listed, $1, $2; bad = 1 }
	total++
}
END {
	for (n = 1; n <= rows; n++)
		if (!used[n]) { printf "stale row: %s: no never-entered function matches it\n", text[n]; bad = 1 }
	printf "functions no run entered: %d (", total
	for (i = 1; i <= 5; i++) printf "%s%s %d", (i > 1 ? ", " : ""), cls[i], count[cls[i]]
	print ")"
	exit bad
}' "$tmp/unentered.txt"
