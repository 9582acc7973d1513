#!/usr/bin/env bash
# One-second windows over all six workloads (under 30 s): every workload
# still builds, runs, passes its output checks and writes its trace. Numbers
# from a one-second window mean nothing; this is for CI, not for measuring.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bash "$here/run.sh" --seconds 1 --out "$here/out/smoke" "$@"
for workload in dnn-single dnn-jobsN polybench-hir fig10-sweep fig10-store explore-grids; do
    test -s "$here/out/smoke/trace-$workload.json"
done
echo "smoke: ok"
