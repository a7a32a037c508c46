"""Reproduce the checker-cost table of ROADMAP item 1 at widths 1 and 2.

    env PYTHONHASHSEED=0 python3 bench/roadmap_table.py

Sums over the 27-program corpus, each program compiled for its own machine
(two registers per level, one cell per declaration): parse + compile, SS,
POni at depth 4 and PNI at depth 3 against the uniform attacker with
epsilon 1/4, both on ``default_scope`` (4 bits).  Every verdict must be
``secure-up-to-bound``.  Prints a table, then the same numbers as one JSON
line.  Takes about 40 s on a 2-CPU machine.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from ftnilab import corpus, lang, seccomp, verify  # noqa: E402

import workloads as W  # noqa: E402


def row(width: int) -> dict:
    sums = {"compile": 0.0, "ss": 0.0, "poni": 0.0, "pni": 0.0}
    insecure = []
    for name, text in corpus.CORPUS:
        start = time.perf_counter()
        src = lang.parse(text)
        cfg = corpus.config_for_source(src, width)
        program = seccomp.compile_program(src, cfg).program
        sums["compile"] += time.perf_counter() - start
        scope = W.scope_of(program, cfg)
        checks = (
            ("ss", lambda: verify.check_strong_security(program, cfg)),
            ("poni", lambda: verify.check_poni(
                program, cfg, verify.CheckConfig(depth=4, fault_scope=scope))),
            ("pni", lambda: verify.check_pni(
                program, cfg, W.uniform(scope), verify.CheckConfig(depth=3, fault_scope=scope))),
        )
        for kind, check in checks:
            start = time.perf_counter()
            verdict = check()
            sums[kind] += time.perf_counter() - start
            if not verdict.secure:
                insecure.append(f"{name} {kind}")
    return {"width": width, **{f"{k}_s": v for k, v in sums.items()}, "insecure": insecure}


def main() -> int:
    rows = [row(width) for width in (1, 2)]
    print("| width | compile | SS | POni | PNI |")
    print("|-------|---------|----|------|-----|")
    for r in rows:
        print(f"| {r['width']} | {r['compile_s']:.3f} s | {r['ss_s']:.2f} s"
              f" | {r['poni_s']:.2f} s | {r['pni_s']:.2f} s |")
    print(json.dumps(rows))
    return 0 if not any(r["insecure"] for r in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
