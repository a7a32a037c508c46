"""Pin the benchmark's expected answers: ``expected.json`` and ``demo_hash.golden``.

Run once, from the repository root, on the commit whose answers the
benchmark should hold later commits to:

    env PYTHONHASHSEED=0 python3 bench/make_expected.py

It draws the random pool with ``verify.random_risc_program``, records each
draw's assembly and its SS/POni/PNI verdicts, and cross-checks every POni
and PNI verdict of the first ``ORACLE_DRAWS`` draws against the
brute-force oracles ``faultlab.enumerate_augmented_runs`` and
``faultlab.enumerate_runs`` where their run count stays under
``ORACLE_LIMIT``.  A strongly secure draw must
also be POni-secure by the oracle.  Any disagreement aborts without
writing.  An SS check that raises while building its witness is recorded
as a violation: ``_ss_witness`` is reached only after the verdict is known.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from ftnilab import cli, faultlab, machine, verify  # noqa: E402

import workloads as W  # noqa: E402

# Largest number of oracle runs (per initial state, times initial states)
# worth enumerating for one draw, and how many draws per checker get the
# oracle: POni at width 1, depth 4 enumerates about 1M runs, 15 s a draw.
ORACLE_LIMIT = 1_100_000
ORACLE_DRAWS = {"poni": 12, "pni": 100}


def initial_groups(system, cfg):
    """Encoded initial states grouped by their low part, all cells over the full range."""
    slots = [("reg", i, lev) for i, (_, lev) in enumerate(cfg.registers)]
    slots += [("mem", a, lev) for a, lev in enumerate(cfg.memory_levels)]
    lows = [s for s in slots if s[2] is machine.LOW]
    highs = [s for s in slots if s[2] is machine.HIGH]
    values = range(cfg.word_values)
    for lo in itertools.product(values, repeat=len(lows)):
        group = []
        for hi in itertools.product(values, repeat=len(highs)):
            regs = [0] * len(cfg.registers)
            mem = [0] * cfg.memory_size
            for (kind, idx, _), v in list(zip(lows, lo)) + list(zip(highs, hi)):
                (regs if kind == "reg" else mem)[idx] = v
            group.append(system.encode(machine.MachineState(0, tuple(regs), tuple(mem))))
        yield group


def oracle_poni(program, cfg, scope, depth) -> str:
    system = machine.RiscSystem(program, cfg)
    for group in initial_groups(system, cfg):
        sets = [
            frozenset(run.trace for run in faultlab.enumerate_augmented_runs(system, s, depth, scope))
            for s in group
        ]
        if any(s != sets[0] for s in sets[1:]):
            return W.VIOLATION
    return W.SECURE


def oracle_pni(program, cfg, env, depth) -> str:
    system = machine.RiscSystem(program, cfg)
    for group in initial_groups(system, cfg):
        dists = []
        for s in group:
            dist: dict = {}
            for run in faultlab.enumerate_runs(system, env, s, env.initial, depth):
                dist[run.trace] = dist.get(run.trace, 0) + run.probability
            dists.append({t: p for t, p in dist.items() if p})
        if any(d != dists[0] for d in dists[1:]):
            return W.VIOLATION
    return W.SECURE


def oracle_fits(index: int, checker: str, scope_bits: int, depth: int, cfg) -> bool:
    states = cfg.word_values ** (len(cfg.registers) + cfg.memory_size)
    runs = (1 << scope_bits) ** depth * states
    return index < ORACLE_DRAWS[checker] and runs <= ORACLE_LIMIT


def ss_status(program, cfg) -> str:
    try:
        return verify.check_strong_security(program, cfg).status
    except AttributeError:
        return W.VIOLATION


def pin_draw(program, cfg, index: int, stats: dict) -> dict:
    entry = {"asm": machine.disassemble(program), "ss": ss_status(program, cfg)}
    width = cfg.width
    if index >= (W.POOL_PONI_W1 if width == 1 else W.POOL_PONI_W2):
        return entry
    scope = W.scope_of(program, cfg)
    check = verify.CheckConfig(depth=W.PONI_DEPTH, fault_scope=scope)
    entry["poni"] = verify.check_poni(program, cfg, check).status
    if oracle_fits(index, "poni", len(scope), W.PONI_DEPTH, cfg):
        truth = oracle_poni(program, cfg, scope, W.PONI_DEPTH)
        if truth != entry["poni"]:
            raise SystemExit(f"w{width} draw {index}: POni {entry['poni']}, oracle {truth}")
        if entry["ss"] == W.SECURE and truth != W.SECURE:
            raise SystemExit(f"w{width} draw {index}: SS-secure but POni-leaky by the oracle")
        stats["poni_oracle"] += 1
    if width == 1:
        env = W.uniform(scope)
        check = verify.CheckConfig(depth=W.PNI_DEPTH_W1, fault_scope=scope)
        entry["pni"] = verify.check_pni(program, cfg, env, check).status
        if oracle_fits(index, "pni", len(scope), W.PNI_DEPTH_W1, cfg):
            truth = oracle_pni(program, cfg, env, W.PNI_DEPTH_W1)
            if truth != entry["pni"]:
                raise SystemExit(f"w1 draw {index}: PNI {entry['pni']}, oracle {truth}")
            stats["pni_oracle"] += 1
    return entry


def main() -> int:
    stats = {"poni_oracle": 0, "pni_oracle": 0}
    pool = {}
    for width in (1, 2):
        cfg = W.pool_config(width)
        rng = Random(W.POOL_SEED)
        pool[f"w{width}"] = [
            pin_draw(verify.random_risc_program(rng, cfg, W.POOL_LENGTH), cfg, i, stats)
            for i in range(W.POOL_SIZE)
        ]
    doc = {
        "about": "Random raw programs (verify.random_risc_program, Random(pool_seed) per"
        " width, machine.standard_config(width, 1, 1, (LOW, HIGH))) and their verdicts,"
        " pinned by bench/make_expected.py.",
        "pool_seed": W.POOL_SEED,
        "length": W.POOL_LENGTH,
        "oracle_checked": stats,
        "pool": pool,
    }
    W.EXPECTED_FILE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["demo-hash"])
    if code != 0:
        raise SystemExit(f"demo-hash exited {code}")
    W.DEMO_GOLDEN_FILE.write_bytes(buffer.getvalue().encode("utf-8"))
    print(json.dumps(stats))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
