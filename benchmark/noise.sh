#!/usr/bin/env bash
# Does the benchmark repeat? Two sets of three runs per workload, the sets
# interleaved (A1 B1 A2 B2 A3 B3) and on the same seeds, so that what is
# left between their medians is noise. Prints each end-to-end metric's
# per-set median and the relative gap, and exits non-zero when a gap is
# above the metric's bound.
#   bash benchmark/noise.sh          # on a quiet box
#   bash benchmark/noise.sh --hog    # with one thread spinning beside it
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

if [ "${1:-}" = "--hog" ]; then
    ( while :; do :; done ) &
    hog=$!
    trap 'kill "$hog" 2>/dev/null; wait "$hog" 2>/dev/null || true' EXIT
    echo "hog: one spinning thread (pid $hog)"
fi

manifest="$(bash "$here/run.sh" --print-manifest)"
metrics="$(echo "$manifest" | sed -n 's/.*"name": "\([^"]*\)".*"bound": \([0-9.]*\).*/\1 \2/p')"
workloads="$(echo "$manifest" | sed -n 's/.*"name": "\([^"]*\)", "why".*/\1/p')"

value() { # <result line> <metric>
    echo "$1" | sed -n "s/.*\"$2\": {\"value\": \([0-9.e+-]*\),.*/\1/p"
}
median3() { printf '%s\n' "$@" | sort -g | sed -n 2p; }

status=0
printf '%-11s %-12s %16s %16s %8s %6s\n' workload metric set_A set_B gap bound
for workload in $workloads; do
    declare -A a=() b=()
    for run in 1 2 3; do
        for set in a b; do
            line="$(bash "$here/run.sh" --workload "$workload" --seed "$run" --trace 0 | tail -n 1)"
            case "$line" in
                '{"correct": true, '*'"failed": 0, '*) ;;
                *) echo "FAIL $workload seed $run: $line"; exit 1 ;;
            esac
            while read -r metric _; do
                eval "$set[\$metric]+=\" \$(value \"\$line\" \"\$metric\")\""
            done <<<"$metrics"
        done
    done
    while read -r metric bound; do
        # shellcheck disable=SC2086
        ma="$(median3 ${a[$metric]})" mb="$(median3 ${b[$metric]})"
        read -r gap over < <(awk -v a="$ma" -v b="$mb" -v bound="$bound" \
            'BEGIN { g = (a > b ? a - b : b - a) / a; print g, (g > bound) }')
        printf '%-11s %-12s %16.4f %16.4f %7.2f%% %5.0f%%\n' \
            "$workload" "$metric" "$ma" "$mb" "$(awk -v g="$gap" 'BEGIN { print 100 * g }')" \
            "$(awk -v b="$bound" 'BEGIN { print 100 * b }')"
        [ "$over" = 0 ] || status=1
    done <<<"$metrics"
    unset a b
done
exit "$status"
