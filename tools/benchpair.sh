#!/usr/bin/env bash
# Compares the repository benchmark (perfbench/) at a base revision with the
# working tree, in alternating pairs of runs of one workload. Run from the
# repository root, usually through make:
#
#   make benchpair BASE=main W=io_tail PAIRS=10 SECONDS=28 SEED=11
#   bash tools/benchpair.sh BASE WORKLOAD [PAIRS] [SECONDS] [SEED]
#
# The base revision is exported with git archive into .benchpair/base; each
# side builds and runs its own perfbench/run.sh. Odd pairs run the base
# first, even pairs the working tree. Every run prints one line: side, pair,
# the end-to-end metrics BENCHMARK.json lists (in its order), correct and
# failed. Then each metric gets both sides' median and quartiles, the
# relative change of the medians and the number of pairs the working tree
# won (did better than the base run of the same pair).
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: tools/benchpair.sh BASE WORKLOAD [PAIRS] [SECONDS] [SEED]" >&2
	exit 2
fi
base=$1 workload=$2 pairs=${3:-10} seconds=${4:-28} seed=${5:-1}
root=$(pwd)
dir="$root/.benchpair/base"
rm -rf "$dir"
mkdir -p "$dir"
git archive "$base" | tar -x -C "$dir"

# "name better" for each end-to-end metric, from lines such as
#   {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
metrics=$(sed -n '/"end_to_end"/,/]/p' BENCHMARK.json |
	sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([a-z]*\)".*/\1 \2/p')
names=$(echo "$metrics" | cut -d' ' -f1 | paste -sd' ')

log="$root/.benchpair/runs.txt"
: >"$log"
echo "side pair $names correct failed"
run() { # side pair directory
	local line v out="$1 $2"
	line=$(cd "$3" && bash perfbench/run.sh --workload "$workload" --seconds "$seconds" --seed "$seed" | tail -1)
	for m in $names; do
		v=$(echo "$line" | grep -o "\"$m\":{\"value\":[^,}]*" | sed 's/.*://')
		out="$out ${v:-NaN}"
	done
	out="$out $(echo "$line" | grep -o '"correct":[a-z]*' | cut -d: -f2)"
	out="$out $(echo "$line" | grep -o '"failed":[0-9]*' | cut -d: -f2)"
	echo "$out" | tee -a "$log"
}
for p in $(seq 1 "$pairs"); do
	if [ $((p % 2)) -eq 1 ]; then
		run base "$p" "$dir"
		run head "$p" "$root"
	else
		run head "$p" "$root"
		run base "$p" "$dir"
	fi
done

echo
echo "metric base_median base_q1 base_q3 head_median head_q1 head_q3 change wins"
echo "$metrics" | awk -v runs="$log" -v pairs="$pairs" '
# q returns the p-quantile of the sorted values s[1..n], interpolated.
function q(s, n, p,    h, i) {
	h = (n - 1) * p + 1
	i = int(h)
	return i >= n ? s[n] : s[i] + (h - i) * (s[i + 1] - s[i])
}
function sorted(side, col, s,    n, i, j, t) {
	n = 0
	for (i = 1; i <= pairs; i++) s[++n] = v[side, i, col]
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
	return n
}
{ name[NR] = $1; better[NR] = $2 }
END {
	while ((getline line < runs) > 0) {
		split(line, f, " ")
		for (c = 1; c <= NR; c++) v[f[1], f[2], c] = f[c + 2]
	}
	for (c = 1; c <= NR; c++) {
		nb = sorted("base", c, sb); nh = sorted("head", c, sh)
		mb = q(sb, nb, 0.5); mh = q(sh, nh, 0.5)
		wins = 0
		for (i = 1; i <= pairs; i++) {
			d = v["head", i, c] - v["base", i, c]
			if ((better[c] == "lower" && d < 0) || (better[c] == "higher" && d > 0)) wins++
		}
		printf "%s %.6g %.6g %.6g %.6g %.6g %.6g %+.1f%% %d/%d\n", name[c], mb, q(sb, nb, 0.25), q(sb, nb, 0.75),
			mh, q(sh, nh, 0.25), q(sh, nh, 0.75), mb == 0 ? 0 : 100 * (mh - mb) / mb, wins, pairs
	}
}'
