#!/usr/bin/env python3
"""Strip the volatile context from a bench result document.

The single script-side twin of ``lmr::bench::strip_volatile``
(src/bench_harness/report.cpp): removes the ``run`` object, the
``scaling``, ``edit_storm``, ``service`` and ``fault_storm`` sections,
the parallelism context (``threads_used``, ``pool_policy``) and every
``*_s``-suffixed key. Two runs with the same seeds — at any thread
count — must strip to identical documents. The bench_harness unit tests diff this
script's output against the C++ implementation byte for byte, so the two
cannot drift apart silently.

Usage:
    strip_volatile.py FILE            # print the stripped document
    strip_volatile.py FILE FILE       # compare: exit 0 iff identical
"""

import json
import sys

VOLATILE_KEYS = {
    "run",
    "scaling",
    "edit_storm",
    "service",
    "fault_storm",
    "threads_used",
    "pool_policy",
}


def strip(obj):
    if isinstance(obj, dict):
        return {
            k: strip(v)
            for k, v in obj.items()
            if k not in VOLATILE_KEYS and not k.endswith("_s")
        }
    if isinstance(obj, list):
        return [strip(x) for x in obj]
    return obj


def main(argv):
    if len(argv) == 2:
        json.dump(strip(json.load(open(argv[1]))), sys.stdout, indent=2)
        print()
        return 0
    if len(argv) == 3:
        a, b = (strip(json.load(open(p))) for p in argv[1:3])
        if a != b:
            print(f"stripped documents differ: {argv[1]} vs {argv[2]}", file=sys.stderr)
            return 1
        print("stripped documents identical")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
