"""Frontier run: how far each checker reaches as the machine word widens.

    python3 tools/frontier.py [--widths 1,2,3,4,5,8] > frontier.json

Runs three checkers, under the default budget, on two suites of programs:

* ``ss``, strong security;
* ``poni``, possibilistic noninterference at depth 4 over every faulty bit;
* ``pni``, probabilistic noninterference at depth 4 over every faulty bit,
  against ``uniform_environment(1/4)`` on every data bit, building the
  attacker included in its time.

The suites are ``corpus``, every corpus program compiled at the width with
two registers per level (``config_for_source``), and ``raw``, two
hand-written programs on two registers per level and no memory: ``masked``
(noninterferent without faults, but one flip of ``rl1`` makes it leak) and
``overwritten`` (not strongly secure, but secure under faults).

Each (checker, suite, width) cell runs in a child process of its own, so its
peak RSS (``ru_maxrss``) is its own.  Each check gets 20 s of wall time
(``signal.alarm``) and the child at most 512 MiB of address space;
a check that runs out of either stops the cell, and the checks after it are
recorded as not run.  A violation's witness is replayed.  Per cell the
record holds the seconds spent in the checks, the verdict counts, the
budget exits with the charge that tripped, the timeouts, the checks not
run, the slowest check with its seconds and the peak RSS in MB; per
checker and suite, ``reach`` is the largest width up to which every check
of every cell returned a verdict.

The JSON document goes to stdout, and each cell's record, as it is made,
to stderr.  The exit code is 1 if a witness fails to replay or a child
fails, else 0.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ftnilab import corpus, seccomp, verify  # noqa: E402
from ftnilab.faultlab import uniform_environment  # noqa: E402
from ftnilab.machine import HIGH, LOW, MachineConfig, assemble  # noqa: E402

CHECKERS = ("ss", "poni", "pni")
SUITES = ("corpus", "raw")
DEPTH = 4
EPSILON = Fraction(1, 4)
LIMIT_S = 20
MEMORY_CAP = 512 << 20
RAW = {
    "masked": "movek rl1 0\nmover rl0 rh0\nand rl0 rl1\nout low rl0\n",
    "overwritten": "mover rl0 rh0\nmovek rl0 0\nout low rl0\n",
}
EXIT_RE = re.compile(r"^(.*): (\d+) exceeds the limit of (\d+)$")


class Timeout(Exception):
    """A check outran its wall limit."""


def suite_programs(suite: str, width: int):
    """(name, program, config) for every program of the suite at the width."""
    if suite == "raw":
        regs = (("rl0", LOW), ("rl1", LOW), ("rh0", HIGH), ("rh1", HIGH))
        cfg = MachineConfig(width, regs, ())
        return [(name, assemble(text), cfg) for name, text in RAW.items()]
    programs = []
    for name, src in corpus.corpus_sources():
        cfg = corpus.config_for_source(src, width)
        programs.append((name, seccomp.compile_program(src, cfg).program, cfg))
    return programs


def check(checker: str, program, cfg):
    """The checker's verdict, and a function that replays its witness."""
    bound = verify.CheckConfig(depth=DEPTH)
    if checker == "ss":
        verdict = verify.check_strong_security(program, cfg)
        return verdict, lambda: verify.replay_ss_witness(program, cfg, verdict.witness)
    if checker == "poni":
        verdict = verify.check_poni(program, cfg, bound)
        return verdict, lambda: verify.replay_poni_witness(program, cfg, verdict.witness)
    env = uniform_environment(EPSILON, cfg.layout.faulty_names)
    verdict = verify.check_pni(program, cfg, env, bound)
    return verdict, lambda: verify.replay_pni_witness(program, cfg, env, verdict.witness, bound)


def _alarm(signum, frame):
    raise Timeout


def _bounded(fn):
    """``fn()`` under the wall limit: (its value, None), or (None, the budget
    exit, timeout or memory error that stopped it)."""
    signal.alarm(LIMIT_S)
    try:
        return fn(), None
    except (verify.BudgetExceeded, Timeout, MemoryError) as exc:
        return None, exc.with_traceback(None)  # frees the frames it stopped
    finally:
        signal.alarm(0)


def run_cell(checker: str, suite: str, width: int) -> dict:
    """Every check of one cell, in this process."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    signal.signal(signal.SIGALRM, _alarm)
    cell = {
        "seconds": 0.0,
        "verdicts": {},
        "exits": [],
        "timeouts": [],
        "out_of_memory": [],
        "not_run": [],
        "replayed": 0,
        "replay_failures": [],
        "slowest": None,
    }
    stopped = False
    for name, program, cfg in suite_programs(suite, width):
        if stopped:
            cell["not_run"].append(name)
            continue
        start = time.perf_counter()
        found, stop = _bounded(lambda: check(checker, program, cfg))
        seconds = time.perf_counter() - start
        cell["seconds"] += seconds
        if cell["slowest"] is None or seconds > cell["slowest"][1]:
            cell["slowest"] = [name, round(seconds, 3)]
        if isinstance(stop, verify.BudgetExceeded):
            tripped = EXIT_RE.match(str(stop))
            what, charge = (tripped[1], int(tripped[2])) if tripped else (str(stop), None)
            cell["exits"].append({"program": name, "what": what, "charge": charge})
            continue
        if stop is not None:
            cell["timeouts" if isinstance(stop, Timeout) else "out_of_memory"].append(name)
            stopped = True
            continue
        verdict, replay = found
        cell["verdicts"][verdict.status] = cell["verdicts"].get(verdict.status, 0) + 1
        if not verdict.secure:
            if _bounded(replay)[0]:
                cell["replayed"] += 1
            else:
                cell["replay_failures"].append(name)
    cell["seconds"] = round(cell["seconds"], 3)
    cell["max_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return cell


def returned(cell: dict) -> bool:
    """Every check of the cell ran and returned a verdict."""
    return "verdicts" in cell and not any(
        cell[key] for key in ("exits", "timeouts", "out_of_memory", "not_run")
    )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--widths", default="1,2,3,4,5,8")
    parser.add_argument("--cell", nargs=3, help=argparse.SUPPRESS)  # one cell, in a child
    args = parser.parse_args(argv)
    if args.cell:
        checker, suite, width = args.cell
        print(json.dumps(run_cell(checker, suite, int(width))))
        return 0
    widths = [int(w) for w in args.widths.split(",")]
    cells, reach, failed = [], {}, False
    for checker in CHECKERS:
        for suite in SUITES:
            reach.setdefault(checker, {})[suite] = 0
            reaching = True
            for width in widths:
                cell = {"checker": checker, "suite": suite, "width": width}
                child = subprocess.run(
                    [sys.executable, __file__, "--cell", checker, suite, str(width)],
                    capture_output=True,
                    text=True,
                )
                if child.returncode == 0:
                    cell.update(json.loads(child.stdout))
                else:
                    cell["child_failed"] = child.stderr.strip().splitlines()[-1:]
                failed = failed or child.returncode != 0 or bool(cell.get("replay_failures"))
                reaching = reaching and returned(cell)
                if reaching:
                    reach[checker][suite] = width
                cells.append(cell)
                print(json.dumps(cell), file=sys.stderr)
    doc = {
        "setting": {
            "python": platform.python_version(),
            "depth": DEPTH,
            "epsilon": str(EPSILON),
            "budget": verify.DEFAULT_BUDGET,
            "limit_s": LIMIT_S,
            "memory_cap_mb": MEMORY_CAP >> 20,
            "widths": widths,
        },
        "reach": reach,
        "cells": cells,
    }
    print(json.dumps(doc, indent=1, sort_keys=True))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
