"""Command-line interface: exit codes, output formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ftnilab.cli import _load_program, main
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
@pytest.mark.parametrize("item", ["5=1", "-1=3"])
def test_run_rejects_memory_address_outside_memory(tmp_path, capsys, command, item):
    out, _ = compile_ok(tmp_path, capsys)
    script = write(tmp_path, "faults.txt", "0: -\n")
    code, stdout, err = invoke(capsys, command, out, f"--mem={item}", "--faults", script)
    assert code == 64 and stdout == ""
    assert "outside memory of 2 cells" in err


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


def test_check_budget_exit_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FTNI_BUDGET", "2")
    out, _ = compile_ok(tmp_path, capsys)
    code, _, err = invoke(capsys, "check", out, "--mode", "poni", "--width", "1", "--depth", "6")
    assert code == 4 and "budget" in err


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


def test_check_poni_budget_trips_before_enumerating_masks(tmp_path, capsys):
    # 24 faulty bits at width 4: 2**24 fault masks, charged before any is built
    src = write(
        tmp_path, "p.src", "high h; low x; if h then h := 1 else skip; out low 3\n"
    )
    out = str(tmp_path / "p.s")
    code, _, err = invoke(
        capsys, "compile", src, "--out", out, "--meta", str(tmp_path / "p.meta.json"),
        "--width", "4",
    )
    assert code == 0, err
    run = _cli(
        "check", out, "--mode", "poni", "--depth", "2", "--width", "4",
        timeout=5, FTNI_BUDGET="1000",
    )
    assert run.returncode == 4 and "budget" in run.stderr
