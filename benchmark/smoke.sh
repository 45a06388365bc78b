#!/usr/bin/env bash
# Every workload for one second, checks only, no timing gate: under a minute.
#   bash benchmark/smoke.sh
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
for workload in serve_hit serve_miss place refresh loop; do
    result="$(bash "$here/run.sh" --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
    case "$result" in
        '{"correct": true, '*'"failed": 0, '*) echo "ok   $workload" ;;
        *) echo "FAIL $workload: $result"; exit 1 ;;
    esac
done
