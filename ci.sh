#!/bin/sh
# Every check of the repository, from a checkout with nothing installed:
#
#     sh ci.sh
#
# Runs the Tier-1 tests, an untraced and a traced smoke run of every benchmark
# workload, and the benchmark self-test. Each step runs even when an earlier
# one failed; each prints one PASS or FAIL line, and the exit status is 1 if
# any step failed.

cd "$(dirname "$0")" || exit 1
failed=0

step() {
    name=$1
    shift
    if "$@"; then
        echo "PASS $name"
    else
        echo "FAIL $name"
        failed=1
    fi
}

tier1() {
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors
}

traced_smoke() {
    # every workload runs traced with the same flags, so a name that the tracer
    # or the probes reach is still there; solve and catalog run the one
    # multistart search, so the traced catalog sweep records its span
    trace=.perfbench/catalog-sweep-seed0-trace1.json
    rm -f "$trace"
    python3 perfbench/run.py --workload all --smoke --seconds 1 --trace 1 > /dev/null &&
        python3 -c 'import json, sys; assert json.load(open(sys.argv[1]))["layers"]["solver.multistart_search"]["calls"] > 0' "$trace"
}

step "Tier-1 tests" tier1
# every workload once, each output checked against its oracle
step "benchmark oracles (untraced smoke run)" python3 perfbench/run.py --workload all --smoke --seconds 1
step "traced smoke run and the multistart span" traced_smoke
step "benchmark self-test" python3 perfbench/selftest.py
exit $failed
