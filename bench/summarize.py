"""Summarize the runs in ``bench/results/`` as a baseline.

    python3 bench/summarize.py [ROADMAP_TABLE_JSON] > bench/baseline.json

For every workload: each end-to-end metric's median, quartiles and spread
(interquartile distance over median) across the untraced runs, with their
seeds and failure counts.  Also each workload's traced per-layer metrics
(the traced run with the lowest seed) and, if given, the JSON line that
``roadmap_table.py`` printed last.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RESULTS = BENCH_DIR / "results"


def main(argv: list[str]) -> int:
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(RESULTS.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        record = doc["record"]
        runs.setdefault((record["workload"], record["trace"]), []).append(doc)
    out: dict = {"workloads": {}}
    for (workload, traced), docs in sorted(runs.items()):
        docs.sort(key=lambda d: d["record"]["seed"])
        entry = out["workloads"].setdefault(workload, {})
        if traced:
            first = docs[0]
            entry["traced"] = {
                "seed": first["record"]["seed"],
                "metrics": {k: m["value"] for k, m in first["metrics"].items()},
            }
            continue
        summary = {}
        for name in docs[0]["metrics"]:
            values = [d["metrics"][name]["value"] for d in docs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            summary[name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else None,
                "unit": docs[0]["metrics"][name]["unit"],
            }
        entry["untraced"] = {
            "seeds": [d["record"]["seed"] for d in docs],
            "failed": [len(d["record"]["failures"]) for d in docs],
            "passes": [d["record"]["passes"] for d in docs],
            "metrics": summary,
        }
        entry["record"] = {
            k: docs[0]["record"][k]
            for k in ("python", "implementation", "nproc", "git_rev", "hash_seed",
                      "address_randomization", "seconds", "operations")
        }
    if len(argv) > 1:
        out["roadmap_table"] = json.loads(Path(argv[1]).read_text(encoding="utf-8").splitlines()[-1])
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
