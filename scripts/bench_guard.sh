#!/bin/sh
# bench_guard.sh BASELINE: allocation-regression tripwire. Runs every
# benchmark recorded in the committed baseline BASELINE (BENCH_<date>.json,
# written by `make bench`) once and fails if any benchmark's allocs/op or B/op exceed
# 2x its baseline (plus a small absolute slack — 512 allocs / 256 KiB —
# since sync.Pool refills after GC make near-zero baselines jittery; the
# slack is kept well under the smallest baselines so the 2x gate stays
# meaningful even for the sub-thousand-alloc streaming trials). Time per
# op is too noisy for
# shared CI runners to gate on; allocation counts are deterministic modulo
# pool refills, and they are exactly what the arena/cache/streaming
# engineering of PRs 1 and 3 bought.
set -eu

# The baseline is named in one place only, the Makefile's BENCH_BASELINE;
# a fallback here would silently go stale when that baseline moves on.
if [ $# -ne 1 ]; then
	echo "usage: $0 BENCH_<date>.json (make bench-guard passes the Makefile's BENCH_BASELINE)" >&2
	exit 2
fi
baseline_file=$1

names=$(grep -o '"name":"[^"]*"' "$baseline_file" | cut -d'"' -f4)
if [ -z "$names" ]; then
	echo "bench-guard: no benchmarks in $baseline_file" >&2
	exit 1
fi

# A baseline recorded from a single iteration bakes first-run warm-up
# (process-wide PET caches, sync.Pool fills) into its allocs/op — roughly
# double the steady state for the trial benches — which silently loosens
# the 2x gate to ~4x. Refuse such baselines; `make bench` records at
# -benchtime 3x precisely so every committed entry is steady-state.
cold=$(grep -o '"name":"[^"]*","iterations":1,' "$baseline_file" | cut -d'"' -f4)
if [ -n "$cold" ]; then
	for name in $cold; do
		echo "bench-guard: $name in $baseline_file was recorded from a single iteration (warm-up, not steady state)" >&2
	done
	echo "bench-guard: re-record the baseline with 'make bench' (-benchtime 3x)" >&2
	exit 1
fi
pattern=$(printf '%s|' $names | sed 's/|$//')

out=$(go test -run xxx -bench "^($pattern)\$" -benchtime 1x -benchmem .)
echo "$out"

# Structural coverage gate, before any metric parsing: every benchmark in
# the baseline must have produced a result line in this run. A renamed or
# deleted benchmark otherwise shrinks the guarded surface silently — the
# bench run exits 0 on a pattern that matches nothing.
missing=
for name in $names; do
	if ! echo "$out" | awk -v n="$name" '$1 ~ "^"n"(-[0-9]+)?$" { found = 1 } END { exit !found }'; then
		missing="$missing $name"
	fi
done
if [ -n "$missing" ]; then
	for name in $missing; do
		echo "bench-guard: $name is in $baseline_file but produced no result — renamed, deleted, or failed to run" >&2
	done
	echo "bench-guard: refresh the baseline with 'make bench' if the removal is intentional" >&2
	exit 1
fi

status=0
for name in $names; do
	# Extract exactly this benchmark's entry (up to its metrics object's
	# closing brace) so the lookup is immune to JSON formatting.
	entry=$(grep -o "\"name\":\"$name\"[^{]*{[^}]*}" "$baseline_file" | head -n1)
	base_allocs=$(echo "$entry" | grep -o '"allocs/op":[0-9]*' | head -n1 | cut -d: -f2)
	base_bytes=$(echo "$entry" | grep -o '"B/op":[0-9]*' | head -n1 | cut -d: -f2)
	now_allocs=$(echo "$out" | awk -v n="$name" \
		'$1 ~ "^"n"(-[0-9]+)?$" { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i }' | head -n1)
	now_bytes=$(echo "$out" | awk -v n="$name" \
		'$1 ~ "^"n"(-[0-9]+)?$" { for (i = 1; i < NF; i++) if ($(i+1) == "B/op") print $i }' | head -n1)
	if [ -z "$now_allocs" ] || [ -z "$now_bytes" ]; then
		echo "bench-guard: $name present in baseline but did not run" >&2
		status=1
		continue
	fi
	if [ -n "$base_allocs" ]; then
		limit=$((base_allocs * 2 + 512))
		echo "bench-guard: $name allocs/op now=$now_allocs baseline=$base_allocs limit=$limit"
		if [ "$now_allocs" -gt "$limit" ]; then
			echo "bench-guard: $name allocs/op regressed more than 2x against $baseline_file" >&2
			status=1
		fi
	fi
	if [ -n "$base_bytes" ]; then
		limit=$((base_bytes * 2 + 262144))
		echo "bench-guard: $name B/op now=$now_bytes baseline=$base_bytes limit=$limit"
		if [ "$now_bytes" -gt "$limit" ]; then
			echo "bench-guard: $name B/op regressed more than 2x against $baseline_file" >&2
			status=1
		fi
	fi
done

# Telemetry-overhead gate: the single-trial benchmark with a live
# registry + sampler + phase timers must stay within 1.1x of the disabled
# variant's allocs/op, measured side by side in the same run (plus a
# 64-alloc absolute slack for pool-refill jitter). This pins the cheap
# half of the telemetry contract — probes are counter bumps and reused
# sampler rows, not per-event allocations; the free-when-disabled half is
# pinned by the baseline gate on BenchmarkSingleTrialPAM above.
tel_out=$(go test -run xxx -bench '^BenchmarkSingleTrialPAM(Telemetry)?$' -benchtime 3x -benchmem .)
echo "$tel_out"
allocs_of() {
	echo "$tel_out" | awk -v n="$1" \
		'$1 ~ "^"n"(-[0-9]+)?$" { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") print $i }' | head -n1
}
off_allocs=$(allocs_of BenchmarkSingleTrialPAM)
on_allocs=$(allocs_of BenchmarkSingleTrialPAMTelemetry)
if [ -z "$off_allocs" ] || [ -z "$on_allocs" ]; then
	echo "bench-guard: telemetry-overhead pair did not both run (off='${off_allocs:-}' on='${on_allocs:-}')" >&2
	status=1
else
	limit=$((off_allocs * 11 / 10 + 64))
	echo "bench-guard: telemetry allocs/op live=$on_allocs disabled=$off_allocs limit=$limit"
	if [ "$on_allocs" -gt "$limit" ]; then
		echo "bench-guard: live telemetry exceeds 1.1x the disabled allocs/op" >&2
		status=1
	fi
fi
exit $status
