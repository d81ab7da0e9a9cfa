#!/usr/bin/env python3
"""Smoke self-test of the benchmark at a tiny scale.

Run from the root of a checkout:

    python3 perfbench/selftest.py [workload ...]

For each workload (default: all) it runs the benchmark on tiny inputs, once
untraced while recording the answers into a scratch answers file and once
traced, and checks that:
  - the last line of output is the result object, with `correct` true;
  - every end-to-end and per-layer metric of BENCHMARK.json is emitted, with
    its unit, and no other;
  - the answer gate fires when a stored answer or the input fingerprint is
    corrupted, and passes on the stored values.
Exits non-zero on the first failure.
"""
import copy
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SCRATCH = os.path.join(run.OUT, "selftest")


def bench(workload, trace, answers, record=False):
    cmd = [sys.executable, os.path.join(run.BENCH, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
           "--answers", answers] + (["--record"] if record else [])
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    assert out.returncode == 0, "%s exited with %d" % (" ".join(cmd), out.returncode)
    return json.loads(out.stdout.strip().splitlines()[-1])


def expect_metrics(result, section, spec):
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, "%s metrics differ: %s" % (section, sorted(set(got.items()) ^ set(want.items())))
    for k, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), "%s has no numeric value" % k


def expect_gate_fires(workload, answers):
    """Re-judge the recorded run against corrupted expected values."""
    with open(os.path.join(run.OUT, "result-%s-seed1-trace0.json" % workload)) as f:
        result = json.load(f)
    with open(answers) as f:
        stored = json.load(f)["seeds"]["1"]
    fp_ok, attempted, failed, _ = run.check(result, stored)
    assert fp_ok and failed == 0 and attempted > 0, "gate rejects the stored answers"
    for qid, ans in stored["answers"].items():
        bad = copy.deepcopy(stored)
        key = next(iter(ans))
        v = ans[key]
        bad["answers"][qid][key] = ([x + 1 for x in v] or [1.0]) if isinstance(v, list) else v + 1
        _, _, failed, problems = run.check(result, bad)
        assert failed > 0 and problems, "gate missed a corrupted answer for %s" % qid
    bad = copy.deepcopy(stored)
    bad["fingerprint"]["interactions"] += 1
    fp_ok, attempted, failed, _ = run.check(result, bad)
    assert not fp_ok and failed == attempted, "gate missed a corrupted input fingerprint"


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(SCRATCH, exist_ok=True)
    for workload in sys.argv[1:] or run.WORKLOADS:
        answers = os.path.join(SCRATCH, workload + ".json")
        if os.path.exists(answers):
            os.remove(answers)
        r = bench(workload, 0, answers, record=True)
        assert r["correct"] and r["attempted"] >= 1 and r["failed"] == 0, r
        expect_metrics(r, "end_to_end", spec)
        assert all(v["value"] > 0 for v in r["metrics"].values()), "an end-to-end metric is 0: %s" % r
        expect_gate_fires(workload, answers)
        r = bench(workload, 1, answers)
        assert r["correct"] and r["failed"] == 0, r
        expect_metrics(r, "per_layer", spec)
        print("ok  %s" % workload, flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
