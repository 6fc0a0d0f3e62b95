#!/usr/bin/env bash
# equiv.sh checks that the working tree models exactly what a parent revision
# models: `make equiv PARENT=<rev>` or `bash scripts/equiv.sh <rev>`.
#
# It exports the parent (git archive) and a snapshot of the working tree,
# tracked and untracked files that .gitignore does not exclude, into one
# temporary directory. On both sides it renders every experiment's CSVs
# (`nvmetro-bench -run all -csv`, full and quick, at seeds 1 and 3) and runs
# the end-to-end benchmark traced (`bash bench/run.sh -trace 1`) at seeds 1, 3
# and 7, reading each workload's attempted and failed counts and its
# model.digest. It prints one line per CSV and per (workload, seed):
# "identical", or the first line or field that differs. It exits 1 if
# anything differs, a file exists on one side only, or a render fails.
#
# A full render takes about a minute per side and seed on a 2-CPU machine,
# and the benchmark about ten seconds per workload, side and seed. Builds and
# outputs stay in the temporary directory (removed on exit); nothing is
# written in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
parent=${1:?usage: equiv.sh <parent revision>}
rev=$(git rev-parse --verify "$parent^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/parent" "$tmp/child"
git archive "$rev" | tar -x -C "$tmp/parent"
git ls-files -z --cached --others --exclude-standard |
	while IFS= read -r -d '' f; do
		if [ -e "$f" ]; then printf '%s\0' "$f"; fi # skip deleted, unstaged files
	done |
	tar --null -T - -cf - | tar -x -C "$tmp/child"

status=0
# same prints whether two files are identical, else the first differing
# line, and records a difference.
same() {
	local label=$1 a=$2 b=$3
	if [ ! -e "$a" ] || [ ! -e "$b" ]; then
		printf '%-44s only in %s\n' "$label" "$([ -e "$a" ] && echo parent || echo child)"
		status=1
	elif cmp -s "$a" "$b"; then
		printf '%-44s identical\n' "$label"
	else
		local n
		n=$(cmp "$a" "$b" 2>/dev/null | sed -n 's/.* line \([0-9]*\).*/\1/p' || true)
		if [ -z "$n" ]; then # one file is a prefix of the other
			local la lb
			la=$(wc -l <"$a") lb=$(wc -l <"$b")
			n=$(((la < lb ? la : lb) + 1))
		fi
		printf '%-44s differs at line %s\n' "$label" "$n"
		printf '    parent: %s\n    child:  %s\n' "$(sed -n "${n}p" "$a")" "$(sed -n "${n}p" "$b")"
		status=1
	fi
}

for side in parent child; do
	(cd "$tmp/$side" && go build -o "$tmp/$side.bin" ./cmd/nvmetro-bench)
	for seed in 1 3; do
		for mode in full quick; do
			out=$tmp/$side-csv/$mode-$seed
			mkdir -p "$out"
			flags=(-run all -seed "$seed" -csv "$out")
			[ "$mode" = quick ] && flags+=(-quick)
			if ! "$tmp/$side.bin" "${flags[@]}" >/dev/null 2>"$tmp/$side-$mode-$seed.err"; then
				echo "$side: -run all ($mode, seed $seed) failed:"
				tail -5 "$tmp/$side-$mode-$seed.err"
				status=1
			fi
		done
	done
	for seed in 1 3 7; do
		# Keep each workload's heading line, less its host-time figure.
		(cd "$tmp/$side" && bash bench/run.sh -trace 1 -seed "$seed" -out "$tmp/$side-trace") 2>&1 |
			sed -n 's/^\([a-z0-9_]*\) (traced): \(attempted=[0-9]* failed=[0-9]*\) measured=[^ ]* \(model.digest=[^ ]*\)$/\1 \2 \3/p' \
				>"$tmp/$side-bench-$seed.txt" || true
	done
done

for seed in 1 3; do
	for mode in full quick; do
		names=$( (cd "$tmp/parent-csv/$mode-$seed" && ls; cd "$tmp/child-csv/$mode-$seed" && ls) | sort -u)
		for f in $names; do
			same "$mode seed=$seed $f" "$tmp/parent-csv/$mode-$seed/$f" "$tmp/child-csv/$mode-$seed/$f"
		done
	done
done
for seed in 1 3 7; do
	for w in $(cut -d' ' -f1 "$tmp/parent-bench-$seed.txt" "$tmp/child-bench-$seed.txt" | sort -u); do
		grep "^$w " "$tmp/parent-bench-$seed.txt" >"$tmp/p" || true
		grep "^$w " "$tmp/child-bench-$seed.txt" >"$tmp/c" || true
		if [ -s "$tmp/p" ] && [ -s "$tmp/c" ]; then
			same "bench $w seed=$seed" "$tmp/p" "$tmp/c"
		else
			printf '%-44s only in %s\n' "bench $w seed=$seed" "$([ -s "$tmp/p" ] && echo parent || echo child)"
			status=1
		fi
	done
	if [ ! -s "$tmp/parent-bench-$seed.txt" ]; then
		echo "bench seed=$seed: no workload ran"
		status=1
	fi
done
[ "$status" = 0 ] && echo "equiv: identical to $parent" || echo "equiv: differs from $parent"
exit "$status"
