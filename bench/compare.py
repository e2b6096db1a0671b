"""Compare two benchmark results made on like settings.

    python3 bench/compare.py BASE/result.json NEW/result.json

Refuses (exit 2) unless both results name the same workload, episode count,
seed, run length, trace mode, CPU count and model, and Python and numpy
versions. Otherwise prints every metric of both with NEW / BASE.
"""

from __future__ import annotations

import json
import sys

SETTINGS = ("workload", "episodes", "seed", "seconds", "trace",
            "cpu_count", "cpu_model", "python", "numpy")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    unlike = [k for k in SETTINGS if base["metadata"].get(k) != new["metadata"].get(k)]
    if unlike:
        for k in unlike:
            print(f"unlike {k}: {base['metadata'].get(k)!r} vs {new['metadata'].get(k)!r}",
                  file=sys.stderr)
        return 2
    print(f"{'metric':28s} {'base':>14s} {'new':>14s} {'new/base':>9s}")
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            print(f"{name:28s} {b['value']:14.6g} {'-':>14s}")
            continue
        ratio = f"{n['value'] / b['value']:9.4f}" if b["value"] else f"{'-':>9s}"
        print(f"{name:28s} {b['value']:14.6g} {n['value']:14.6g} {ratio} {b['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
