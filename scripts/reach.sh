#!/usr/bin/env bash
# Reachability report: build every entry point (cmd/lightvm-bench,
# cmd/chaos, cmd/tinyx-build and each examples/* program) with
# statement coverage over the whole module, run a fixed invocation set
# (fixed seeds, sequential), and list the functions none of the runs
# reached. The list must equal reach-baseline.txt, whose every line
# names one such function and why it stays:
#
#	<file> <func>  # <class>: <reason>
#
# An unreached function the baseline does not list fails the report
# (delete it, or list it with its reason); so does a baseline entry
# that is now reached or gone (drop the line). Build outputs and
# coverage data go to .reach/.
#
# Usage: scripts/reach.sh        (from anywhere; `make reach` runs it)
set -euo pipefail

GO=${GO:-go}
# Build with the local toolchain only; the module needs nothing fetched.
export GOTOOLCHAIN=local GOPROXY=off
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=.reach
rm -rf "$out"
mkdir -p "$out/bin" "$out/cov" "$out/run"

entries="cmd/lightvm-bench cmd/chaos cmd/tinyx-build $(ls -d examples/*/ | sed 's:/$::')"
for e in $entries; do
	"$GO" build -cover -coverpkg=lightvm/... -o "$out/bin/$(echo "$e" | tr / -)" "./$e"
done

export GOCOVERDIR="$root/$out/cov"
bench="$out/bin/cmd-lightvm-bench"
chaos="$out/bin/cmd-chaos"
quiet() { "$@" > /dev/null; }

quiet "$bench" -list
quiet "$bench" -exp all -scale 0.05 -parallel 1 -fsck -json -out "$out/run/all.json" -plot
quiet "$bench" -exp ext-faults -scale 1 -seed 4 -parallel 1 -fsck
quiet "$bench" -exp fig12a -scale 0.05 -parallel 1 -profile cpu,heap -profile-dir "$out/run/profiles" -json -out "$out/run/profile.json"
for op in create checkpoint migrate stats console; do
	for mode in xl xs split noxs lightvm; do
		quiet "$chaos" -op "$op" -mode "$mode" -trace
	done
done
quiet "$chaos" -op images
quiet "$chaos" -op modes
for cfg in scripts/reach/*.cfg; do
	quiet "$chaos" -op create -n 3 -config "$cfg"
done
quiet "$out/bin/cmd-tinyx-build" -list
quiet "$out/bin/cmd-tinyx-build" -app nginx -platform xen
quiet "$out/bin/cmd-tinyx-build" -app nginx -platform kvm
for e in examples/*/; do
	quiet "$out/bin/$(echo "${e%/}" | tr / -)"
done

# A package no entry point links would be missing from the coverage
# data altogether, so it is reported here instead. cmd/benchdiff
# compares benchmark reports and imports no package of the module.
linked=$("$GO" list -deps $(printf './%s ' $entries) | LC_ALL=C sort)
unlinked=$("$GO" list lightvm/... | grep -vx lightvm/cmd/benchdiff | LC_ALL=C sort | LC_ALL=C comm -23 - <(echo "$linked"))
if [ -n "$unlinked" ]; then
	echo "reach: FAIL: packages no entry point links:"
	printf '  %s\n' $unlinked
	exit 1
fi

# Unreached functions, as "<file> <func>" with the module prefix and
# line numbers dropped.
"$GO" tool covdata func -i "$out/cov" > "$out/func.txt"
awk '$NF == "0.0%" { f = $1; sub(/^lightvm\//, "", f); sub(/:[0-9]+:$/, "", f); print f, $2 }' \
	"$out/func.txt" | LC_ALL=C sort > "$out/unreached.txt"
sed -e 's/[[:space:]]*#.*$//' -e '/^[[:space:]]*$/d' reach-baseline.txt | LC_ALL=C sort > "$out/baseline.txt"

# Statements: one line per coverage block, merged over every run.
"$GO" tool covdata textfmt -i "$out/cov" -o "$out/cover.txt"
awk 'NR > 1 { n[$1] = $2; if ($3 > 0) hit[$1] = 1 }
	END {
		for (b in n) { total += n[b]; if (b in hit) reached += n[b] }
		printf "reach: %d of %d statements reached (%.1f%%), %d unreached\n", reached, total, 100 * reached / total, total - reached
	}' "$out/cover.txt"
echo "reach: $(wc -l < "$out/unreached.txt") functions unreached, $(wc -l < "$out/baseline.txt") listed in reach-baseline.txt"

new=$(LC_ALL=C comm -23 "$out/unreached.txt" "$out/baseline.txt")
stale=$(LC_ALL=C comm -13 "$out/unreached.txt" "$out/baseline.txt")
if [ -n "$new" ]; then
	echo "reach: FAIL: unreached and not in reach-baseline.txt (delete it, or list it with a reason):"
	printf '  %s\n' "$new"
fi
if [ -n "$stale" ]; then
	echo "reach: FAIL: listed in reach-baseline.txt but now reached or gone (drop the line):"
	printf '  %s\n' "$stale"
fi
if [ -n "$new" ] || [ -n "$stale" ]; then
	exit 1
fi
echo "reach: every unreached function is listed in reach-baseline.txt"
