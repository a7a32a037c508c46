"""Command-line interface: exit codes, output formats, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ftnilab.cli import _load_program, main
from ftnilab.faultlab import environment_to_text, uniform_environment
from ftnilab.machine import RiscSystem
from ftnilab.verify import replay_ss_witness

GOOD_SOURCE = "low x; high h;\nx := 1;\nout low x\n"
LEAKY_SOURCE = "low x; high h;\nout low h\n"


def invoke(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cli(*argv, timeout=30, **env):
    """Run ``ftni`` in a fresh interpreter, with ``env`` added to the environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ftnilab.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def compile_ok(tmp_path, capsys, source=GOOD_SOURCE, **flags):
    src = write(tmp_path, "prog.src", source)
    out = str(tmp_path / "prog.s")
    meta = str(tmp_path / "prog.meta.json")
    argv = ["compile", src, "--out", out, "--meta", meta]
    for key, value in flags.items():
        argv.extend([f"--{key}", str(value)])
    code, _, err = invoke(capsys, *argv)
    assert code == 0, err
    return out, meta


def test_compile_writes_assembly_and_meta(tmp_path, capsys):
    out, meta = compile_ok(tmp_path, capsys)
    assert Path(out).read_text().startswith("movek")
    doc = json.loads(Path(meta).read_text())
    assert set(doc) >= {"timing", "write_effect", "v2p", "register_levels"}
    assert doc["v2p"] == {"x": 0, "h": 1}


def test_compile_type_error_exits_2_and_names_rule(tmp_path, capsys):
    src = write(tmp_path, "bad.src", LEAKY_SOURCE)
    code, _, err = invoke(
        capsys, "compile", src, "--out", str(tmp_path / "o.s"), "--meta", str(tmp_path / "o.json")
    )
    assert code == 2
    assert "rule out" in err and "level-mismatch" in err


def test_compile_missing_file_exits_1(tmp_path, capsys):
    code, _, _ = invoke(
        capsys, "compile", str(tmp_path / "absent.src"),
        "--out", str(tmp_path / "o.s"), "--meta", str(tmp_path / "o.json"),
    )
    assert code == 1


def test_compile_parse_error_exits_1(tmp_path, capsys):
    src = write(tmp_path, "syn.src", "low x; while x+1 do skip")
    code, _, err = invoke(
        capsys, "compile", src, "--out", str(tmp_path / "o.s"), "--meta", str(tmp_path / "o.json")
    )
    assert code == 1 and "parse error" in err


def nested_source(kind, depth):
    """``depth`` nested blocks around ``skip``, conditionals or loops each with
    a block for a body, or parentheses around ``1``."""
    if kind == "blocks":
        return "low x;\n" + "{ " * depth + "skip" + " }" * depth + "\n"
    if kind == "braced-if":
        return "low x; " + "if x then { " * depth + "skip" + " } else skip" * depth + "\n"
    if kind == "braced-while":
        return "low x; " + "while x do { " * depth + "skip" + " }" * depth + "\n"
    return "low x; x := " + "(" * depth + "1" + ")" * depth + "\n"


@pytest.mark.parametrize("kind", ["blocks", "parentheses", "braced-if", "braced-while"])
def test_compile_source_nested_400_deep_exits_0(tmp_path, kind):
    src = write(tmp_path, "deep.src", nested_source(kind, 400))
    run = _cli("compile", src, "--out", str(tmp_path / "o.s"), "--meta", str(tmp_path / "o.json"))
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize(
    "text",
    [nested_source("blocks", 3000), nested_source("parentheses", 3000)],
    ids=["deep-blocks", "deep-parentheses"],
)
def test_compile_deeply_nested_source_exits_1_without_traceback(tmp_path, text):
    src = write(tmp_path, "deep.src", text)
    run = _cli("compile", src, "--out", str(tmp_path / "o.s"), "--meta", str(tmp_path / "o.json"))
    assert run.returncode == 1
    assert run.stderr.startswith("source error: ") and run.stderr.count("\n") == 1
    assert "Traceback" not in run.stderr


def test_compile_long_sequence_exits_0(tmp_path):
    src = write(tmp_path, "long.src", "low x;\n" + "skip;\n" * 9999 + "skip\n")
    run = _cli("compile", src, "--out", str(tmp_path / "o.s"), "--meta", str(tmp_path / "o.json"))
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("compiled 10000 instructions; timing exact:10000")


def test_compile_type_error_in_long_block_exits_2(tmp_path):
    block = "x := 1;" + " skip;" * 1199 + " skip"
    src = write(tmp_path, "long.src", f"high h; low x; if h then {{ {block} }} else skip\n")
    run = _cli("compile", src, "--out", str(tmp_path / "o.s"), "--meta", str(tmp_path / "o.json"))
    assert run.returncode == 2
    assert run.stderr.startswith("type error: rule if-any: implicit-flow: ")
    assert "Traceback" not in run.stderr


def test_run_prints_trace(tmp_path, capsys):
    out, _ = compile_ok(tmp_path, capsys)
    code, stdout, _ = invoke(capsys, "run", out)
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[-1].startswith("2; low!1; flipped={}")


def test_run_zero_steps_prints_nothing(tmp_path, capsys):
    out, _ = compile_ok(tmp_path, capsys)
    code, stdout, _ = invoke(capsys, "run", out, "--steps", "0")
    assert code == 0 and stdout == ""


def test_run_with_fault_script_changes_output(tmp_path, capsys):
    out, _ = compile_ok(tmp_path, capsys)
    script = write(tmp_path, "faults.txt", "1: rl0_0\n")
    code, stdout, _ = invoke(capsys, "run", out, "--faults", script)
    assert code == 0
    lines = stdout.strip().splitlines()
    assert "flipped={rl0_0}" in lines[1]
    assert lines[-1].endswith("low!0; flipped={}")  # the flip cleared the bit


def test_run_rejects_fault_on_protected_bit(tmp_path, capsys):
    out, _ = compile_ok(tmp_path, capsys)
    script = write(tmp_path, "faults.txt", "0: pc_0\n")
    code, _, err = invoke(capsys, "run", out, "--faults", script)
    assert code == 1 and "non-flippable" in err


@pytest.mark.parametrize("command", ["run", "inject"])
@pytest.mark.parametrize("steps", [[], ["--steps", "2"]], ids=["no-steps", "steps-2"])
def test_run_rejects_a_later_fault_on_an_unknown_bit_before_the_first_step(
    tmp_path, capsys, command, steps
):
    out, _ = compile_ok(tmp_path, capsys)
    script = write(tmp_path, "faults.txt", "0: rl0_0\n3: bogus\n")
    code, stdout, err = invoke(capsys, command, out, *steps, "--faults", script)
    assert code == 1 and stdout == ""
    assert "fault script names non-flippable locations: ['bogus']" in err


@pytest.mark.parametrize("command", ["run", "inject"])
@pytest.mark.parametrize("item", ["5=1", "-1=3"])
def test_run_rejects_memory_address_outside_memory(tmp_path, capsys, command, item):
    out, _ = compile_ok(tmp_path, capsys)
    script = write(tmp_path, "faults.txt", "0: -\n")
    code, stdout, err = invoke(capsys, command, out, f"--mem={item}", "--faults", script)
    assert code == 64 and stdout == ""
    assert "outside memory of 2 cells" in err


@pytest.mark.parametrize("command", ["run", "inject"])
@pytest.mark.parametrize("value", [-3, 2**8])
def test_run_rejects_memory_value_outside_the_word(tmp_path, capsys, command, value):
    asm = write(tmp_path, "y.s", "load rl0 0\nout low rl0\n")  # no side-car: width 8
    script = write(tmp_path, "faults.txt", "0: -\n")
    code, stdout, err = invoke(capsys, command, asm, f"--mem=0={value}", "--faults", script)
    assert code == 64 and stdout == ""
    assert f"--mem value {value} outside the 8-bit word" in err


@pytest.mark.parametrize("command", ["run", "inject"])
def test_run_rejects_a_second_value_for_one_memory_address(tmp_path, capsys, command):
    asm = write(tmp_path, "y.s", "load rl0 0\nout low rl0\n")
    script = write(tmp_path, "faults.txt", "0: -\n")
    code, stdout, err = invoke(capsys, command, asm, "--mem=0=1", "--mem=0=2", "--faults", script)
    assert code == 64 and stdout == ""
    assert "a second --mem for address 0" in err


@pytest.mark.parametrize("command", ["run", "inject"])
@pytest.mark.parametrize("item", ["+0=1_0", "\u0660=\u0661", "0=+3", " 0 = 2", "0", "0=--3"])
def test_run_rejects_a_memory_entry_that_is_not_ascii_decimal(tmp_path, capsys, command, item):
    asm = write(tmp_path, "y.s", "load rl0 0\nout low rl0\n")
    script = write(tmp_path, "faults.txt", "0: -\n")
    code, stdout, err = invoke(capsys, command, asm, f"--mem={item}", "--faults", script)
    assert code == 64 and stdout == ""
    assert f"bad --mem entry {item!r}" in err


def test_run_accepts_the_largest_word_value(tmp_path, capsys):
    asm = write(tmp_path, "y.s", "load rl0 0\nout low rl0\n")
    code, stdout, _ = invoke(capsys, "run", asm, "--mem=0=255")
    assert code == 0 and stdout.splitlines()[-1] == "1; low!255; flipped={}"


def test_run_rejects_a_negative_fault_step(tmp_path, capsys):
    out, _ = compile_ok(tmp_path, capsys)
    script = write(tmp_path, "faults.txt", "0: -\n-1: rl0_0\n")
    code, stdout, err = invoke(capsys, "run", out, "--faults", script)
    assert code == 1 and stdout == ""
    assert "fault script line 2: bad step index '-1'" in err


@pytest.mark.parametrize("command", ["run", "inject"])
def test_run_rejects_a_second_line_for_a_fault_step(tmp_path, capsys, command):
    out, _ = compile_ok(tmp_path, capsys)
    script = write(tmp_path, "faults.txt", "0: rl0_0\n0: rh0_0\n")
    code, stdout, err = invoke(capsys, command, out, "--faults", script)
    assert code == 1 and stdout == ""
    assert "fault script error: fault script line 2: a second line for step 0" in err


@pytest.mark.parametrize("command", ["run", "inject"])
def test_run_strips_the_names_of_a_fault_step(tmp_path, capsys, command):
    out, _ = compile_ok(tmp_path, capsys)
    spaced = write(tmp_path, "spaced.txt", "1:  rl0_0 ,\trh0_0  \n")
    tight = write(tmp_path, "tight.txt", "1: rl0_0,rh0_0\n")
    code, stdout, err = invoke(capsys, command, out, "--faults", spaced)
    assert code == 0, err
    assert invoke(capsys, command, out, "--faults", tight) == (0, stdout, err)
    assert "rl0_0" in stdout and "rh0_0" in stdout


@pytest.mark.parametrize("command", ["run", "inject"])
@pytest.mark.parametrize("names", ["rl0_0,", ", rl0_0", "rl0_0,,rh0_0", ","])
def test_run_rejects_an_empty_name_in_a_fault_step(tmp_path, capsys, command, names):
    out, _ = compile_ok(tmp_path, capsys)
    script = write(tmp_path, "faults.txt", f"0: -\n1: {names}\n")
    code, stdout, err = invoke(capsys, command, out, "--faults", script)
    assert code == 1 and stdout == ""
    assert "fault script error: fault script line 2: an empty location name in" in err


@pytest.mark.parametrize("command", ["run", "inject"])
@pytest.mark.parametrize("head", ["\u0663", "1_0", "+3"])
def test_run_rejects_a_fault_step_that_is_not_ascii_digits(tmp_path, capsys, command, head):
    out, _ = compile_ok(tmp_path, capsys)
    script = write(tmp_path, "faults.txt", f"0: -\n{head}: -\n")
    code, stdout, err = invoke(capsys, command, out, "--faults", script)
    assert code == 1 and stdout == ""
    assert f"fault script error: fault script line 2: bad step index {head!r}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{asm}", "--mode", "ss", "--width", "\u0662"],
        ["check", "{asm}", "--mode", "ss", "--depth", "1_0"],
        ["check", "{asm}", "--mode", "ss", "--depth", "+3"],
        ["compile", "{src}", "--width", "\u0662", "--out", "{out}", "--meta", "{meta}"],
        ["run", "{asm}", "--steps", "\u0663"],
        ["run", "{asm}", "--steps", "+3"],
        ["inject", "{asm}", "--steps", "1_0", "--faults", "{faults}"],
        ["demo-hash", "--width", "\u0668"],
        ["demo-hash", "--width", "1_0"],
    ],
    ids=[
        "check-width-arabic-indic",
        "check-depth-underscore",
        "check-depth-plus",
        "compile-width-arabic-indic",
        "run-steps-arabic-indic",
        "run-steps-plus",
        "inject-steps-underscore",
        "demo-hash-width-arabic-indic",
        "demo-hash-width-underscore",
    ],
)
def test_integer_options_take_only_ascii_digits(tmp_path, capsys, argv):
    asm, _ = compile_ok(tmp_path, capsys)
    paths = {
        "asm": asm,
        "src": write(tmp_path, "other.src", GOOD_SOURCE),
        "out": str(tmp_path / "other.s"),
        "meta": str(tmp_path / "other.meta.json"),
        "faults": write(tmp_path, "faults.txt", "0: -\n"),
    }
    code, stdout, err = invoke(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 64 and stdout == ""
    value = next(argv[i + 1] for i, arg in enumerate(argv) if arg in ("--width", "--depth", "--steps"))
    assert f"invalid int value: {value!r}" in err
    assert not (tmp_path / "other.s").exists()


def test_run_rejects_a_non_ascii_digit_without_a_traceback(tmp_path):
    asm = write(tmp_path, "sup.s", "movek rl0 \u00b3\nout low rl0\n")
    run = _cli("run", asm)
    assert run.returncode == 1 and run.stdout == ""
    assert "expected a decimal number, got '\u00b3' (line 1)" in run.stderr
    assert "Traceback" not in run.stderr


def test_inject_requires_fault_script(tmp_path, capsys):
    out, _ = compile_ok(tmp_path, capsys)
    code, _, _ = invoke(capsys, "inject", out)
    assert code == 64


def test_check_ss_secure_exit_0(tmp_path, capsys):
    out, _ = compile_ok(tmp_path, capsys)
    code, stdout, _ = invoke(capsys, "check", out, "--mode", "ss", "--width", "1")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["checker"] == "ss" and doc["status"] == "secure-up-to-bound"


def test_check_poni_violation_exit_3_with_witness(tmp_path, capsys):
    asm = write(tmp_path, "leak.s", "load rh0 0\nout low rh0\n")
    code, stdout, _ = invoke(capsys, "check", asm, "--mode", "poni", "--width", "1", "--depth", "3")
    assert code == 3
    doc = json.loads(stdout)
    assert doc["status"] == "violation"
    assert doc["witness"]["trace"]


def test_check_pni_requires_env(tmp_path, capsys):
    out, _ = compile_ok(tmp_path, capsys)
    code, _, err = invoke(capsys, "check", out, "--mode", "pni")
    assert code == 64 and "--env" in err


def test_check_pni_with_env_file(tmp_path, capsys):
    asm = write(tmp_path, "leak.s", "load rh0 0\nout low rh0\n")
    env = write(
        tmp_path,
        "env.txt",
        "start E0\ntrans E0 * E0\nfault E0 - 1\n",
    )
    code, stdout, _ = invoke(
        capsys, "check", asm, "--mode", "pni", "--width", "1", "--depth", "3", "--env", env
    )
    assert code == 3
    doc = json.loads(stdout)
    assert doc["witness"]["probabilities"] == ["1", "0"]


@pytest.mark.parametrize(
    "fault_line, message",
    [
        ("fault E0 bogus_0 1", "not within faulty locations"),
        ("fault E0 - 1/2", "sums to 1/2"),
        ("fault E0 - 3/2\nfault E0 rl0_0 -1/2", "negative probability"),
        (
            "fault E0 rl0_0 1/2\nfault E0 rl0_0 1/2\nfault E0 - 1/2",
            "line 4: a second fault set rl0_0 for E0",
        ),
        ("trans E0 * E0\nfault E0 - 1", "line 3: a second transition of E0 on *"),
        ("start E0\nfault E0 - 1", "line 3: a second start state 'E0'"),
    ],
)
def test_check_pni_rejects_bad_environment(tmp_path, capsys, fault_line, message):
    out, _ = compile_ok(tmp_path, capsys)
    env = write(tmp_path, "env.txt", f"start E0\ntrans E0 * E0\n{fault_line}\n")
    code, stdout, err = invoke(
        capsys, "check", out, "--mode", "pni", "--width", "1", "--depth", "3", "--env", env
    )
    assert code == 1 and stdout == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "{asm}", "--mode", "pni", "--depth", "-1", "--env", "{env}"], "--depth"),
        (["check", "{asm}", "--mode", "poni", "--depth", "-1"], "--depth"),
        (["check", "{asm}", "--mode", "poni", "--depth", "0"], "--depth"),
        (["check", "{asm}", "--mode", "poni", "--width", "-1"], "--width"),
        (["check", "{asm}", "--mode", "pni", "--width", "-1", "--env", "{env}"], "--width"),
        (["check", "{asm}", "--mode", "poni", "--width", "0"], "--width"),
        (["compile", "{src}", "--width", "-2", "--out", "{out}", "--meta", "{meta}"], "--width"),
        (["run", "{asm}", "--steps", "-1"], "--steps"),
        (["inject", "{asm}", "--steps", "-1", "--faults", "{faults}"], "--steps"),
    ],
    ids=[
        "check-pni-depth--1",
        "check-poni-depth--1",
        "check-poni-depth-0",
        "check-poni-width--1",
        "check-pni-width--1",
        "check-poni-width-0",
        "compile-width--2",
        "run-steps--1",
        "inject-steps--1",
    ],
)
def test_out_of_range_numbers_exit_64(tmp_path, capsys, argv, message):
    asm, _ = compile_ok(tmp_path, capsys)
    paths = {
        "asm": asm,
        "env": write(tmp_path, "env.txt", "start E0\ntrans E0 * E0\nfault E0 - 1\n"),
        "src": write(tmp_path, "other.src", GOOD_SOURCE),
        "out": str(tmp_path / "other.s"),
        "meta": str(tmp_path / "other.meta.json"),
        "faults": write(tmp_path, "faults.txt", "0: -\n"),
    }
    code, stdout, err = invoke(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 64 and stdout == ""
    assert message in err and "must be at least" in err
    assert "Traceback" not in err
    assert not (tmp_path / "other.s").exists()


def test_check_budget_exit_4(tmp_path, capsys, monkeypatch):
    # the padded conditional's first level walks 6 faulted step pairs
    out = compile_padded_if(tmp_path, capsys, 1)
    monkeypatch.setenv("FTNI_BUDGET", "2")
    code, _, err = invoke(capsys, "check", out, "--mode", "poni", "--width", "1", "--depth", "6")
    assert code == 4
    assert "faulted step pairs: 6 exceeds the limit of 2" in err


FAULT_FREE_ENV = "start E0\ntrans E0 * E0\nfault E0 - 1\n"
# No side-car: every cell is high.  At width 8 a brute-force witness search
# over the six high cells would take 256**6 steps.
SIX_HIGH_CELLS_LEAK = "load rh1 1\nstore 2 rh1\nstore 3 rh1\nout low rh0\n"


@pytest.mark.parametrize("mode", ["ss", "poni", "pni"])
@pytest.mark.parametrize("value", ["abc", "1e3", "-5", "0"])
def test_check_rejects_malformed_budget(tmp_path, capsys, monkeypatch, value, mode):
    monkeypatch.setenv("FTNI_BUDGET", value)
    out, _ = compile_ok(tmp_path, capsys)
    env = write(tmp_path, "env.txt", FAULT_FREE_ENV)
    code, stdout, err = invoke(
        capsys, "check", out, "--mode", mode, "--width", "1", "--env", env
    )
    assert code == 64 and stdout == ""
    assert "FTNI_BUDGET" in err and "Traceback" not in err


def test_check_pni_budget_trips_before_building_initial_states(tmp_path):
    # every high cell is read before it is written, so all six are live at
    # pc 0: 16**6 initial states
    asm = write(
        tmp_path,
        "live.s",
        "out low rh0\nout high rh1\n" + "".join(f"load rh1 {a}\n" for a in range(4)),
    )
    env = write(tmp_path, "env.txt", FAULT_FREE_ENV)
    run = _cli(
        "check", asm, "--mode", "pni", "--depth", "2", "--width", "4", "--env", env,
        timeout=5, FTNI_BUDGET="1000",
    )
    assert run.returncode == 4
    assert "initial states: 16777216 exceeds the limit of 1000" in run.stderr


def test_check_ss_witness_searches_only_the_high_cells_read(tmp_path):
    asm = write(tmp_path, "leak.s", SIX_HIGH_CELLS_LEAK)
    run = _cli("check", asm, "--mode", "ss", "--width", "8", timeout=5)
    assert run.returncode == 3, run.stderr
    program, cfg, _ = _load_program(asm, 8)
    assert replay_ss_witness(program, cfg, json.loads(run.stdout)["witness"])


def test_outputs_are_deterministic(tmp_path, capsys):
    out, meta = compile_ok(tmp_path, capsys)
    first = (Path(out).read_text(), Path(meta).read_text())
    out2, meta2 = compile_ok(tmp_path, capsys)
    assert (Path(out2).read_text(), Path(meta2).read_text()) == first
    code1, stdout1, _ = invoke(capsys, "check", out, "--mode", "poni", "--width", "1")
    code2, stdout2, _ = invoke(capsys, "check", out, "--mode", "poni", "--width", "1")
    assert (code1, stdout1) == (code2, stdout2)


def test_demo_hash_passes(tmp_path, capsys):
    code, stdout, _ = invoke(capsys, "demo-hash")
    assert code == 0
    assert "structural shape check: ok" in stdout
    assert "MISMATCH" not in stdout


def test_demo_hash_rejects_small_width(capsys):
    code, _, _ = invoke(capsys, "demo-hash", "--width", "4")
    assert code == 64


def test_console_entry_point_runs():
    proc = _cli("demo-hash")
    assert proc.returncode == 0


def test_check_ss_witness_is_the_same_under_every_hash_seed(tmp_path):
    asm = write(tmp_path, "leak.s", "load rh0 0\nout low rh0\n")
    runs = [
        _cli("check", asm, "--mode", "ss", "--width", "2", PYTHONHASHSEED=str(seed))
        for seed in range(4)
    ]
    assert {(run.returncode, run.stdout) for run in runs} == {(3, runs[0].stdout)}
    witness = json.loads(runs[0].stdout)["witness"]
    program, cfg, _ = _load_program(asm, 2)
    assert replay_ss_witness(program, cfg, witness)


def compile_padded_if(tmp_path, capsys, width):
    """A padded high conditional with 6 * width faulty bits; returns the assembly path."""
    src = write(
        tmp_path, "p.src", "high h; low x; if h then h := 1 else skip; out low 3\n"
    )
    out = str(tmp_path / "p.s")
    code, _, err = invoke(
        capsys, "compile", src, "--out", out, "--meta", str(tmp_path / "p.meta.json"),
        "--width", str(width),
    )
    assert code == 0, err
    return out


def test_check_poni_budget_trips_before_building_the_cuts_of_a_level(tmp_path, capsys):
    # 24 faulty bits at width 4: the first level's pairs have 4,080 cuts in
    # all, charged from their relevance masks before any cut list is built
    out = compile_padded_if(tmp_path, capsys, 4)
    run = _cli(
        "check", out, "--mode", "poni", "--depth", "2", "--width", "4",
        timeout=5, FTNI_BUDGET="1000",
    )
    assert run.returncode == 4
    assert "faulted step pairs: 4080 exceeds the limit of 1000" in run.stderr


def test_check_poni_budget_trips_before_walking_a_level(tmp_path, capsys):
    # 12 faulty bits at width 2: the 4 starts over the cell live at pc 0
    # (the 2 bits of h) are under the limit, but their 3 seed pairs walk
    # 3 * 2**2 faulted step pairs at the first level
    out = compile_padded_if(tmp_path, capsys, 2)
    run = _cli(
        "check", out, "--mode", "poni", "--depth", "3", "--width", "2",
        timeout=5, FTNI_BUDGET="8",
    )
    assert run.returncode == 4
    assert "faulted step pairs: 12 exceeds the limit of 8" in run.stderr


def test_check_poni_full_scope_returns_a_verdict_under_the_default_budget(
    tmp_path, capsys, monkeypatch
):
    # 12 faulty bits at width 2: without the liveness quotient the first
    # level alone is 16,515,072 faulted step pairs, far over the budget
    monkeypatch.delenv("FTNI_BUDGET", raising=False)
    out = compile_padded_if(tmp_path, capsys, 2)
    code, stdout, err = invoke(capsys, "check", out, "--mode", "poni", "--depth", "4", "--width", "2")
    assert code == 0, err
    assert json.loads(stdout)["status"] == "secure-up-to-bound"


# The padded conditional of ``compile_padded_if`` without its padding: the
# branch that writes h takes three more steps to the low output, so the
# program is not strongly secure, on the same machine of 12 faulty bits at
# width 2.
UNPADDED_IF = "load rh0 0\njz br0 rh0\nmovek rh1 1\nstore 0 rh1\nbr0: movek rl0 3\nout low rl0\n"
PADDED_IF_MACHINE = {
    "width": 2,
    "register_levels": {"rh0": "H", "rh1": "H", "rl0": "L", "rl1": "L"},
    "memory_levels": ["H", "L"],
}


def _uniform_env_file(tmp_path, asm_path):
    """A uniform attacker on every faulty bit of the program at ``asm_path``."""
    program, cfg, _ = _load_program(asm_path, 2)
    env = uniform_environment(Fraction(1, 4), RiscSystem(program, cfg).faulty_names)
    return write(tmp_path, "env.txt", environment_to_text(env))


def test_check_pni_budget_trips_while_composing(tmp_path):
    # a uniform attacker on all 12 faulty bits; strong security splits, so
    # the composition runs, charged per cut of the 4,096 fault sets
    out = write(tmp_path, "u.s", UNPADDED_IF)
    write(tmp_path, "u.meta.json", json.dumps(PADDED_IF_MACHINE))
    run = _cli(
        "check", out, "--mode", "pni", "--depth", "3", "--width", "2",
        "--env", _uniform_env_file(tmp_path, out), timeout=5, FTNI_BUDGET="30",
    )
    assert run.returncode == 4
    assert "faulted steps composed: 34 exceeds the limit of 30" in run.stderr


def test_check_pni_answers_a_strongly_secure_program_without_composing(tmp_path, capsys):
    # the attacker and budget above: composing the padded conditional would
    # take 34 faulted steps, but strong security settles it within the budget
    out = compile_padded_if(tmp_path, capsys, 2)
    run = _cli(
        "check", out, "--mode", "pni", "--depth", "3", "--width", "2",
        "--env", _uniform_env_file(tmp_path, out), timeout=5, FTNI_BUDGET="30",
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {
        "bound": 3, "checker": "pni", "status": "secure-up-to-bound"
    }


@pytest.mark.parametrize(
    "asm, width, budget, evaluations",
    [
        pytest.param("out low rh0\n", 16, "1000", 2**16, id="out-w16"),
        pytest.param(
            "jz l1 rh0\nl1: jz l2 rh1\nl2: jz l3 rh0\nl3: out low rh1\n", 8, "1000", 4 * 2**8,
            id="four-jumps-w8",
        ),
        pytest.param("jz l1 rh1\nout low rl0\nl1: nop\n", 40, None, 2**40, id="jz-w40-default"),
    ],
)
def test_check_ss_budget_trips_before_a_summary(tmp_path, asm, width, budget, evaluations):
    # no side-car: rh* are high, and a summary enumerates every word of a high
    # register whose value reaches the low side (an `out low` or a jump), while
    # the walk charges one low assignment per pair, as these touch no low cell;
    # the second case trips on the running total, at its fourth summary of 256
    path = write(tmp_path, "b.s", asm)
    env = {} if budget is None else {"FTNI_BUDGET": budget}
    run = _cli("check", path, "--mode", "ss", "--width", str(width), timeout=5, **env)
    assert run.returncode == 4 and run.stdout == ""
    limit = budget or "2000000"
    assert f"summary evaluations: {evaluations} exceeds the limit of {limit}" in run.stderr
    assert "Traceback" not in run.stderr


PADDED_IF = "high h; low x; if h then h := 1 else skip; out low 3\n"
LEVELS_WITH_X = {"rl0": "L", "rl1": "L", "rh0": "X", "rh1": "H"}


@pytest.mark.parametrize(
    "command, meta, message",
    [
        ("check", "{not json", "Expecting property name enclosed in double quotes"),
        ("check", "[]", "not a JSON object"),
        ("check", "{}", "no 'register_levels' entry"),
        ("check", {"width": -1}, "width must be a positive integer, not -1"),
        ("check", {"width": "8"}, "width must be a positive integer, not '8'"),
        ("run", {"width": 0}, "width must be a positive integer, not 0"),
        ("run", {"register_levels": LEVELS_WITH_X}, "register 'rh0' has level 'X'"),
        ("check", {"memory_levels": ["H", "low"]}, "memory cell 1 has level 'low'"),
    ],
)
def test_bad_sidecar_exits_1(tmp_path, capsys, command, meta, message):
    out, meta_path = compile_ok(tmp_path, capsys, PADDED_IF)
    if isinstance(meta, dict):
        meta = json.dumps({**json.loads(Path(meta_path).read_text()), **meta})
    Path(meta_path).write_text(meta)
    argv = [command, out] + (["--mode", "ss"] if command == "check" else [])
    code, stdout, err = invoke(capsys, *argv)
    assert code == 1 and stdout == ""
    assert err.startswith("side-car error: ") and message in err


CLASH_COMMANDS = ["check-ss", "check-poni", "check-pni", "run", "inject"]


def _refused_with_assembly_error(tmp_path, capsys, command, asm, register):
    """Each command refuses the config before it reads the environment or
    the fault script, both left empty here."""
    env, faults = write(tmp_path, "env.txt", ""), write(tmp_path, "faults.txt", "")
    argv = {
        "check-ss": ["check", asm, "--mode", "ss"],
        "check-poni": ["check", asm, "--mode", "poni", "--width", "1"],
        "check-pni": ["check", asm, "--mode", "pni", "--env", env],
        "run": ["run", asm],
        "inject": ["inject", asm, "--faults", faults],
    }[command]
    code, stdout, err = invoke(capsys, *argv)
    assert code == 1 and stdout == ""
    assert err == (
        f"assembly error: register {register!r} clashes with another location's bit names\n"
    )


@pytest.mark.parametrize("command", CLASH_COMMANDS)
@pytest.mark.parametrize(
    "text, register",
    [
        pytest.param("movek m0 1\nstore 0 m0\nout low m0\n", "m0", id="memory-cell"),
        pytest.param("movek pc 1\nout low pc\n", "pc", id="pc"),
    ],
)
def test_an_inferred_register_named_like_another_location_exits_1(
    tmp_path, capsys, command, text, register
):
    asm = write(tmp_path, "clash.s", text)
    _refused_with_assembly_error(tmp_path, capsys, command, asm, register)


@pytest.mark.parametrize("command", CLASH_COMMANDS)
@pytest.mark.parametrize("register", ["m0", "pc"])
def test_a_sidecar_register_named_like_another_location_exits_1(
    tmp_path, capsys, command, register
):
    out, meta_path = compile_ok(tmp_path, capsys)
    meta = json.loads(Path(meta_path).read_text())
    assert len(meta["memory_levels"]) == 2
    meta["register_levels"][register] = "H"
    Path(meta_path).write_text(json.dumps(meta))
    _refused_with_assembly_error(tmp_path, capsys, command, out, register)
