#!/usr/bin/env python3
"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py [--seconds 2]

Checks, from the checkout root, that:
  * BENCHMARK.json, perfbench/layers.json and the metrics the program emits
    name the same metrics with the same units;
  * every workload (BENCHMARK.json's and service_stream) emits every
    end-to-end metric (--trace 0) and every per-layer metric (--trace 1),
    passes its correctness gates and reports a whole-number
    attempted/failed count;
  * a corrupted routed-geometry digest (--corrupt-digest) trips the
    determinism gate: exit status 1 and "correct": false;
  * a directory holding only BENCHMARK.json and perfbench/ exits non-zero
    without printing a result.
Exits 0 when all hold. Scratch files go under the build directory.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
# Workloads the program runs beyond those BENCHMARK.json lists.
PROGRAM_ONLY = ["service_stream"]


def load(path):
    with open(path) as f:
        return json.load(f)


def run(args, cwd=ROOT):
    p = subprocess.run([sys.executable, RUN] + args, cwd=cwd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return p.returncode, result, p


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", default="2")
    opts = ap.parse_args()
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    layers = load(os.path.join(HERE, "layers.json"))
    problems = []

    def check(ok, what):
        if not ok:
            problems.append(what)
            print("FAIL: " + what, flush=True)

    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    mapped = [m["name"] for m in layers["layers"]]
    check(sorted(mapped) == sorted(per_layer),
          "layers.json and BENCHMARK.json per_layer name different metrics")
    workloads = [w["name"] for w in bench["workloads"]]
    for m in layers["layers"]:
        check(set(m["moves"]) <= set(e2e) | {"failed_frac", "max_error_pct"},
              "layers.json: %s moves an unknown metric" % m["name"])
        check(set(m["workloads"]) <= set(workloads + PROGRAM_ONLY),
              "layers.json: %s names an unknown workload" % m["name"])

    for w in workloads + PROGRAM_ONLY:
        for trace, want in (("0", e2e), ("1", per_layer)):
            rc, res, p = run(["--workload", w, "--seed", "7", "--seconds", opts.seconds,
                              "--trace", trace])
            tag = "%s --trace %s" % (w, trace)
            if rc != 0 or res is None:
                check(False, "%s: exit %d, no result\n%s" % (tag, rc, p.stdout[-2000:] + p.stderr[-2000:]))
                continue
            check(res.get("correct") is True, tag + ": correct is not true")
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  tag + ": result keys are " + str(sorted(res)))
            check(isinstance(res["attempted"], int) and res["attempted"] >= 1
                  and isinstance(res["failed"], int), tag + ": bad attempted/failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, "%s: emitted metrics differ from BENCHMARK.json: %s" % (
                tag, sorted(set(got) ^ set(want)) or "units"))
            if trace == "0":
                zero = [k for k, v in res["metrics"].items() if not v["value"] > 0]
                check(not zero, tag + ": end-to-end metrics not above 0: " + str(zero))
            print("ok: " + tag, flush=True)

    rc, res, _ = run(["--workload", workloads[0], "--seed", "7", "--seconds", opts.seconds,
                      "--trace", "0", "--corrupt-digest"])
    check(rc == 1 and res is not None and res.get("correct") is False,
          "a corrupted digest did not trip the determinism gate (exit %d)" % rc)
    print("ok: corrupted digest trips the gate", flush=True)

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    bare = os.path.join(base, "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    p = subprocess.run(bench["command"] + ["--workload", workloads[0], "--seed", "1",
                                           "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, env=env, timeout=180)
    check(p.returncode != 0 and not p.stdout.strip(),
          "a bare benchmark directory did not fail cleanly (exit %d)" % p.returncode)
    shutil.rmtree(bare, ignore_errors=True)
    print("ok: bare directory exits %d without a result" % p.returncode, flush=True)

    print("selfcheck: %s" % ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
