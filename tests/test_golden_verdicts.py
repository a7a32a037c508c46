"""Golden verdicts: checker output pinned byte for byte.

``golden_verdicts.json`` holds the verdict JSON of the three checkers on the
compiled corpus and on two fixed pools of random programs, each with SS,
POni and PNI: 60 at width 1, and 20 at width 2, where the default scope's
masks and the 1/4 environment's weights reach two-bit words.
Any change to the machine semantics, the faulted step or the checkers that
alters a verdict or a witness shows up here.

The width-1 pool keeps every witness, SS ones included: most of its draws
leak, and its configuration interleaves low and high cells (``rl0``,
``rh0``, ``m0`` low, ``m1`` high), so the SS witnesses pin how the
checkers lay out and name the cells of each level.  The width-2 pool keeps
its SS witnesses too: 16 of its 20 draws leak, with chains of 1 to 8 steps,
so they pin which reached point pair the pair walk reports and the path it
takes there.  Every stored witness is also replayed as read from the file,
so a replay cannot come to refuse what a checker writes.

Regenerate (only when a verdict change is intended) with
``PYTHONPATH=src python tests/test_golden_verdicts.py > tests/golden_verdicts.json``.
"""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path
from random import Random

from ftnilab.corpus import config_for_source, corpus_sources
from ftnilab.faultlab import uniform_environment
from ftnilab.machine import HIGH, LOW, RiscSystem, assemble, disassemble, standard_config
from ftnilab.seccomp import compile_program
from ftnilab.verify import (
    CheckConfig,
    check_pni,
    check_poni,
    check_strong_security,
    default_scope,
    random_risc_program,
    replay_pni_witness,
    replay_poni_witness,
    replay_ss_witness,
)

GOLDEN = Path(__file__).with_name("golden_verdicts.json")
DEPTH = 3
EPSILON = Fraction(1, 4)
RANDOM_DRAWS = 60
RANDOM_DRAWS_W2 = 20


def _fault_verdicts(program, cfg) -> dict:
    scope = default_scope(RiscSystem(program, cfg))
    check = CheckConfig(depth=DEPTH, fault_scope=scope)
    env = uniform_environment(EPSILON, scope)
    return {
        "poni": check_poni(program, cfg, check).to_json(),
        "pni": check_pni(program, cfg, env, check).to_json(),
    }


def compute_golden() -> dict:
    corpus = {}
    for name, src in corpus_sources():
        entry = {}
        for width in (1, 2):
            cfg = config_for_source(src, width)
            program = compile_program(src, cfg).program
            entry[f"ss_w{width}"] = check_strong_security(program, cfg).to_json()
            if width == 1:
                for mode, doc in _fault_verdicts(program, cfg).items():
                    entry[f"{mode}_w1"] = doc
        corpus[name] = entry
    rng = Random(7)
    cfg = standard_config(1, 1, 1, (LOW, HIGH))
    pool = []
    for _ in range(RANDOM_DRAWS):
        program = random_risc_program(rng, cfg, 8)
        entry = {"asm": disassemble(program), "ss": check_strong_security(program, cfg).to_json()}
        entry.update(_fault_verdicts(program, cfg))
        pool.append(entry)
    rng = Random(7)
    cfg = standard_config(2, 1, 1, (LOW, HIGH))
    pool_w2 = []
    for _ in range(RANDOM_DRAWS_W2):
        program = random_risc_program(rng, cfg, 8)
        ss = check_strong_security(program, cfg).to_json()
        pool_w2.append({"asm": disassemble(program), "ss": ss, **_fault_verdicts(program, cfg)})
    return {"corpus": corpus, "random_w1": pool, "random_w2": pool_w2}


def render(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def test_verdicts_match_golden_file():
    assert render(compute_golden()) == GOLDEN.read_text(encoding="utf-8")


def test_every_stored_witness_replays_as_loaded():
    """Each violation witness of the golden file, read back from its JSON,
    replays on its program: the pool's stored assembly on the pool's config,
    with PNI against the uniform attacker on the default scope.  (No corpus
    program leaks.)"""
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    replayed = Counter()
    for pool, width in (("random_w1", 1), ("random_w2", 2)):
        cfg = standard_config(width, 1, 1, (LOW, HIGH))
        for entry in doc[pool]:
            program = assemble(entry["asm"])
            scope = default_scope(RiscSystem(program, cfg))
            check = CheckConfig(depth=DEPTH, fault_scope=scope)
            env = uniform_environment(EPSILON, scope)
            replays = {
                "ss": lambda witness: replay_ss_witness(program, cfg, witness),
                "poni": lambda witness: replay_poni_witness(program, cfg, witness),
                "pni": lambda witness: replay_pni_witness(program, cfg, env, witness, check),
            }
            for kind, replay in replays.items():
                if entry[kind]["status"] == "violation":
                    assert replay(entry[kind]["witness"]), (pool, entry["asm"], kind)
                    replayed[kind] += 1
    assert replayed == {"ss": 65, "poni": 4, "pni": 4}


if __name__ == "__main__":
    print(render(compute_golden()), end="")
