#!/usr/bin/env python3
"""Self-test of the dwred ledger benchmark.

    python3 ledger/selftest.py

Runs every workload of BENCHMARK.json through ledger/run.py, untraced and
traced, at toy scale for 3 seconds each, and fails unless
  * the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, correct, no failed operation, and the
    metrics are exactly the end-to-end set (untraced) or the per-layer set
    (traced) of BENCHMARK.json, each with its declared unit;
  * every end-to-end metric of the ledger that applies to the workload is
    printed on a `metric` line with a unit;
  * every output check the workload owns ran and passed;
  * the traced run states its unattributed residual and wrote its trace.
It then prints the tracing overhead: traced minus untraced end-to-end values.
Run from the root of a checkout.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = 3

COMMON_METRICS = {"setup_s", "query_p50_ms", "query_p99_ms", "query_per_s",
                  "ops_per_s", "stored_bytes_per_input_fact", "error_rate"}
EXTRA_METRICS = {
    "serve_repeat": set(),
    "query_adhoc": set(),
    "ingest_mixed": {"insert_p50_ms", "insert_facts_per_s", "sync_p50_ms"},
    "reduce_durable": {"insert_p50_ms", "insert_facts_per_s", "reduce_p50_ms",
                       "recover_s"},
}
CHECKS = {
    "serve_repeat": {"setup.sum_conserved", "wire.sampled_answers",
                     "wire.snapshot_crc"},
    "query_adhoc": {"setup.sum_conserved", "adhoc.fig9_equals_synchronized",
                    "adhoc.fig9_sampled", "adhoc.subresults",
                    "adhoc.sum_conserved"},
    "ingest_mixed": {"setup.sum_conserved", "replay.writer_ops",
                     "ingest.sum_conserved", "wire.sampled_answers",
                     "ingest.replay_sum_conserved",
                     "ingest.stored_day_reached", "wire.snapshot_crc",
                     "ingest.live_sum_conserved"},
    "reduce_durable": {"durable.sum_conserved", "durable.dashboard_total",
                       "durable.reopen_matches", "durable.journal_replayed"},
}
TRACED_CHECKS = {"reduce_durable": {"durable.plain_replay"}}
METRIC_LINE = re.compile(r"^(?:traced-)?metric (\S+) (\S+) (\S+) n=\d+$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", str(SECONDS), "--trace",
           str(trace), "--scale", "toy"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise AssertionError("%s trace=%d exited %d" %
                             (workload, trace, done.returncode))
    return done.stdout.strip().splitlines()


def check_run(workload, trace, lines, declared):
    where = "%s trace=%d" % (workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, where + ": an output check failed"
    assert result["failed"] == 0, where + ": operations failed"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == list(declared), (
        where + ": metric set differs from BENCHMARK.json")
    for name, unit in declared.items():
        got = result["metrics"][name]
        assert set(got) == {"value", "unit"} and got["unit"] == unit, (
            where + ": " + name)
        assert isinstance(got["value"], (int, float)), where + ": " + name

    printed = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            assert UNIT.match(m.group(3)), where + ": bad unit " + line
            printed[m.group(1)] = float(m.group(2))
    want = COMMON_METRICS | EXTRA_METRICS[workload]
    assert want <= set(printed), "%s: missing %s" % (where, want - set(printed))
    assert printed["error_rate"] == 0, where

    checks = {}
    for line in lines:
        if line.startswith("check "):
            _, name, verdict = line.split()
            checks[name] = verdict
    owned = CHECKS[workload] | (TRACED_CHECKS.get(workload, set())
                                if trace else set())
    assert owned <= set(checks), "%s: checks not run: %s" % (
        where, owned - set(checks))
    failed = [n for n, v in checks.items() if v != "pass"]
    assert not failed, "%s: checks failed: %s" % (where, failed)

    if trace:
        assert any(l.startswith("unattributed ") for l in lines), where
        path = [l.split()[1] for l in lines if l.startswith("trace ")][0]
        assert os.path.getsize(path) > 0, where + ": empty trace"
    return printed


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        plain = check_run(name, 0, run(name, 0), end_to_end)
        traced = check_run(name, 1, run(name, 1), per_layer)
        print("%s: ok" % name)
        for metric in sorted(plain):
            if metric in traced:
                print("  tracing overhead %-28s %+.6g (untraced %.6g)" %
                      (metric, traced[metric] - plain[metric], plain[metric]))
    print("selftest passed")


if __name__ == "__main__":
    main()
