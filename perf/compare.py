#!/usr/bin/env python3
"""Compare two result files written by ``perf/run.py``.

``python3 perf/compare.py BASE.json NEW.json`` prints one row per
workload x end-to-end metric: base median, new median, new/base, the
bound and a verdict.

``ok``          no worse than the bound allows
``improved``    better by more than the bound
``REGRESSION``  worse by more than the bound (for ``setup_s`` also by
                more than 0.25 s), or a larger ``failed_share``
``unresolved``  a side's round-to-round spread is wider than the bound,
                so the medians cannot settle it - unless every round of
                one side beats every round of the other
``identical`` / ``changed``  for results that are exact per seed
                (virtual time, failure share): bit-equal, or moved but
                by no more than the bound

Exit status is 1 when any row is a REGRESSION, else 0.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perf.metrics import SETUP_ABS_BOUND_S, worse_by  # noqa: E402


def _separated(base: list, new: list, better: str) -> bool:
    """Every round of one side reads better than every round of the
    other."""
    if better == "higher":
        base, new = [-v for v in base], [-v for v in new]
    return max(new) < min(base) or max(base) < min(new)


def verdict(metric: str, base: dict, new: dict) -> str:
    better, bound = base["better"], base["bound"]
    worse = worse_by(base["median"], new["median"], better)
    if base["exact"]:
        if base["rounds"] == new["rounds"]:
            return "identical"
        if metric == "failed_share":
            return "REGRESSION" if worse > 0 else "changed"
        return "REGRESSION" if worse > bound else "changed"
    regressed = worse > bound
    if metric == "setup_s":
        regressed = regressed and (
            new["median"] - base["median"] > SETUP_ABS_BOUND_S
        )
    noisy = base["spread"] > bound or new["spread"] > bound
    if noisy and not _separated(base["rounds"], new["rounds"], better):
        return "unresolved"
    if regressed:
        return "REGRESSION"
    return "improved" if worse < -bound else "ok"


def compare(base: dict, new: dict) -> tuple[list[tuple], bool]:
    rows, failed = [], False
    for name, b_entry in base["workloads"].items():
        n_entry = new["workloads"].get(name)
        if n_entry is None:
            rows.append((name, "-", None, None, None, None, "MISSING"))
            failed = True
            continue
        for metric, b in b_entry["end_to_end"].items():
            n = n_entry["end_to_end"].get(metric)
            if n is None:
                rows.append((name, metric, b["median"], None, None,
                             b["bound"], "MISSING"))
                failed = True
                continue
            status = verdict(metric, b, n)
            failed = failed or status == "REGRESSION"
            ratio = n["median"] / b["median"] if b["median"] else None
            rows.append((name, metric, b["median"], n["median"], ratio,
                         b["bound"], status))
    return rows, failed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    base, new = (json.loads(pathlib.Path(p).read_text()) for p in argv)
    for label, doc in (("base", base), ("new", new)):
        env = doc["environment"]
        print(
            f"{label}: commit {env['commit']} dirty={env['dirty']} "
            f"seed {env['seed']} rounds {env['rounds']} "
            f"seconds {env['seconds']:g} python {env['python']} "
            f"cpus {env['cpu_count']}"
        )
    if base["environment"]["seed"] != new["environment"]["seed"]:
        print("note: different seeds - exact results are expected to differ")
    rows, failed = compare(base, new)
    print(
        f"{'workload':<13} {'metric':<26} {'base':>12} {'new':>12} "
        f"{'new/base':>9} {'bound':>6}  verdict"
    )
    for name, metric, b, n, ratio, bound, status in rows:
        fmt = lambda v: "-" if v is None else f"{v:.6g}"  # noqa: E731
        print(
            f"{name:<13} {metric:<26} {fmt(b):>12} {fmt(n):>12} "
            f"{fmt(ratio):>9} {fmt(bound):>6}  {status}"
        )
    for doc, label in ((base, "base"), (new, "new")):
        for error in doc.get("errors", []):
            print(f"{label} run recorded an error: {error}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
