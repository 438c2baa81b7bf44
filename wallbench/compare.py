"""``wallbench compare A.json B.json``: is B no worse than A?

For every workload and end-to-end metric, the difference of B from A in
the worse direction, as a share of A, against the bound
``BENCHMARK.json`` fixes.  Failed-op shares, input digests and exact
counts must be identical.  This is the tool for the repeatability
criterion: two runs of the same code must agree.
"""

from __future__ import annotations

import json
from typing import List, Tuple

from wallbench import spec


def worse_by(metric: dict, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    change = (b - a) / a
    return change if metric["better"] == "lower" else -change


def compare(a: dict, b: dict) -> Tuple[List[str], bool]:
    lines, ok = [], True
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec.benchmark()["end_to_end"]:
            va = wa["end_to_end"][metric["name"]]
            vb = wb["end_to_end"][metric["name"]]
            worse = worse_by(metric, va, vb)
            breach = worse > metric["bound"]
            ok = ok and not breach
            lines.append(
                f"{name:<14}{metric['name']:<14}{va:>12.5g}{vb:>12.5g}"
                f"{worse:>+9.1%}  bound {metric['bound']:.0%}"
                + ("  BREACH" if breach else "")
            )
        exact = [
            ("failed_ops_share", wa["failed_ops_share"], wb["failed_ops_share"]),
        ]
        if a.get("seed") == b.get("seed"):
            exact.append(("inputs_sha256", wa["inputs_sha256"], wb["inputs_sha256"]))
            exact.append(("sim", wa["sim"], wb["sim"]))
            for key, va in wa.get("per_layer", {}).items():
                if key.endswith("stored_bytes_per_user_byte") or key.startswith("sim."):
                    exact.append((key, va, wb.get("per_layer", {}).get(key, va)))
        for key, va, vb in exact:
            if va != vb:
                ok = False
                lines.append(f"{name:<14}{key}: {va} != {vb}  BREACH")
    return lines, ok


def main(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        lines, ok = compare(json.load(fa), json.load(fb))
    print(f"{'workload':<14}{'metric':<14}{'A':>12}{'B':>12}{'B worse':>9}")
    print("\n".join(lines))
    print("agree within bounds" if ok else "BREACH: the two sets disagree")
    return 0 if ok else 1
