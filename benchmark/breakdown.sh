#!/usr/bin/env bash
# Self time per span name in a trace written by run.sh: where one op goes.
#
#   benchmark/breakdown.sh benchmark/out/trace-dnn-single.json [subject]
#
# With a subject (a model, a `.hir` name, a grid point label) only that
# subject's ops count. Prints, per span name, the median duration and median
# self time (duration minus direct children) over the ops, and the self time
# as a share of core.compile + core.drop.
set -euo pipefail
exec python3 - "$@" <<'PY'
import collections, json, statistics, sys

if len(sys.argv) < 2:
    sys.exit("usage: breakdown.sh trace.json [subject]")
with open(sys.argv[1]) as f:
    events = json.load(f)
subject = sys.argv[2] if len(sys.argv) > 2 else None
dur, own = collections.defaultdict(list), collections.defaultdict(list)
for e in events:
    if subject is None or e["args"]["subject"] == subject:
        dur[e["name"]].append(e["dur"])
        own[e["name"]].append(e["args"]["self_us"])
if not dur:
    sys.exit(f"no spans for subject {subject!r}")
median = statistics.median
whole = sum(median(dur[n]) for n in ("core.compile", "core.drop") if n in dur) or None
print(f"{'span':<30} {'ops':>6} {'dur_us':>10} {'self_us':>10} {'share':>7}")
for name in sorted(own, key=lambda n: -median(own[n])):
    # Sweeps and explorations are not part of one compile: no share for them.
    share = f"{median(own[name]) / whole:7.1%}" if whole and median(own[name]) <= whole else "      -"
    print(f"{name:<30} {len(dur[name]):>6} {median(dur[name]):>10.1f} {median(own[name]):>10.1f} {share}")
PY
