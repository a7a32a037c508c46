"""Verdict benchmark for ftnilab.

    env PYTHONHASHSEED=0 setarch -R python3 bench/run.py --workload typed-ss --seed 1 --seconds 40 --trace 0

Runs one workload (see ``workloads.py``) from the repository root, in one
process with no threads, against the library under ``src/``.  Every
operation checks its own answer.  The workload is run in passes until
``--seconds`` would be exceeded; each operation's time is its median over
the passes.  Between operations, every 20 ms, a fixed interpreter loop
that does not use ftnilab is timed; each operation's time divided by the
loop time around it is its cost in calibration units (``cal``).  On a
shared machine whose speed drifts by up to 2x over minutes, the gated
metrics are in these units (NOTES.md, Noise); the seconds are printed too.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics (call counts, self time, cache hit ratios, tracing
overhead).  The lines before it print every metric with unit and sample
count, the run record and any failed operation.  Results and spans are
written under ``bench/results/``.

Exit codes: 0 measured (failed operations are counted, not fatal), 2 the
library or the benchmark inputs are missing.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

# Set iteration order decides which witness the SS checker builds, and
# with it whether the known witness defect fires (NOTES.md).  It depends on
# string hashes, fixed by PYTHONHASHSEED, and on hash(None), which CPython
# before 3.12 takes from None's address, fixed by running under
# ``setarch -R``.  The command in BENCHMARK.json does both; the record
# shows whether they took effect.
ADDR_NO_RANDOMIZE = 0x0040000
SETUPS_PER_PASS = 2
CHECKER_KINDS = ("ss", "poni", "pni")
CALIBRATE_EVERY_S = 0.02
# setup_s is in seconds at a fixed machine speed: each set-up's time over
# the calibration loop's median time around it, times this loop time (its
# median in a quiet phase of a 2-vCPU 2.0 GHz Xeon, Python 3.11.7).
CAL_REFERENCE_S = 150e-6
SETUP_CALIBRATIONS = 15
# Operation costs come in clusters, and in typed-ss the 90th percentile
# falls in the gap between two of them, where a plain percentile jumps
# with small reorderings.  p90 is the mean of percentiles 85 to 95.
P90_BAND = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("typed-ss", "fault-secure", "leaky"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fresh_setup(workload: str, seed: int):
    """Import ftnilab and the workloads afresh and build the workload's operations.

    Returns the set-up's seconds, the calibration loop's median time around
    it, the workloads module and the operations.
    """
    for name in list(sys.modules):
        if name == "workloads" or name == "ftnilab" or name.startswith("ftnilab."):
            del sys.modules[name]
    # Every set-up starts from an empty collector, so that one does not pay
    # for the garbage of the pass or the set-up before it.
    gc.collect()
    before = median_calibration(SETUP_CALIBRATIONS)
    start = time.perf_counter()
    module = importlib.import_module("workloads")
    ops = module.WORKLOADS[workload](seed)
    seconds = time.perf_counter() - start
    unit = (before + median_calibration(SETUP_CALIBRATIONS)) / 2
    return seconds, unit, module, ops


def calibration_loop() -> dict:
    """A fixed interpreter workload, independent of ftnilab: tuple keys into a dict."""
    counts: dict = {}
    for i in range(600):
        key = (i & 63, i >> 4)
        counts[key] = counts.get(key, 0) + 1
    return counts


def time_calibration(calibrations: list[float]) -> float:
    start = time.perf_counter()
    calibration_loop()
    elapsed = time.perf_counter() - start
    calibrations.append(elapsed)
    return elapsed


def median_calibration(repeats: int) -> float:
    samples: list[float] = []
    for _ in range(repeats):
        time_calibration(samples)
    return statistics.median(samples)


def run_pass(W, ops, times, scaled, calibrations, failures, tracer=None) -> float:
    """Run every operation once; record its time, its time in calibration
    units (over the mean of the loop timings before and after it), and the
    first failure of each."""
    begin = time.perf_counter()
    before = time_calibration(calibrations)
    since = time.perf_counter()
    pending: list[int] = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = index
        problem = None
        start = time.perf_counter()
        try:
            op.run()
        except W.Wrong as exc:
            problem = ("wrong", str(exc))
        except W.verify.BudgetExceeded as exc:
            problem = ("budget", str(exc))
        except Exception as exc:  # a crash is counted as a failed operation
            problem = ("raised", f"{type(exc).__name__}: {exc}")
            if index not in failures:
                print(f"{op.label}: {traceback.format_exc()}", file=sys.stderr)
        times[index].append(time.perf_counter() - start)
        if problem is not None and index not in failures:
            failures[index] = problem
        pending.append(index)
        if time.perf_counter() - since >= CALIBRATE_EVERY_S or index == len(ops) - 1:
            after = time_calibration(calibrations)
            unit = (before + after) / 2
            for i in pending:
                scaled[i].append(times[i][-1] / unit)
            pending.clear()
            before = after
            since = time.perf_counter()
    return time.perf_counter() - begin


def percentile(values: list[float], pct: int, band: int = 0) -> float:
    """The pct-th percentile; with a band, the mean of percentiles pct-band to pct+band."""
    return statistics.fmean(
        statistics.quantiles(values, n=100, method="inclusive")[pct - 1 - band : pct + band]
    )


def kind_sums(ops, per_op: list[float]) -> dict[str, float]:
    sums = {kind: 0.0 for kind in ("compile",) + CHECKER_KINDS}
    for op, seconds in zip(ops, per_op):
        if op.kind in sums:
            sums[op.kind] += seconds
    return sums


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def end_to_end(ops, times, scaled, calibrations, setups, setup_units, passes, peak_rss_kb: int) -> dict:
    per_op = [statistics.median(t) for t in times]
    per_op_cal = [statistics.median(t) for t in scaled]
    sums = kind_sums(ops, per_op)
    cal_sums = kind_sums(ops, per_op_cal)
    latencies_ms = [s * 1000 for s in per_op]
    n_ops, n_passes = len(ops), len(passes)
    return {
        "setup_s": metric(
            statistics.median(s / u for s, u in zip(setups, setup_units)) * CAL_REFERENCE_S,
            "s",
            len(setups),
        ),
        "wall_cal": metric(sum(per_op_cal), "cal", n_passes),
        "compile_cal": metric(cal_sums["compile"], "cal", n_passes),
        "op_p50_cal": metric(percentile(per_op_cal, 50), "cal", n_ops),
        "op_p90_cal": metric(percentile(per_op_cal, 90, P90_BAND), "cal", n_ops),
        "peak_rss_mb": metric(peak_rss_kb / 1024, "MB", 1),
        "setup_raw_s": metric(statistics.median(setups), "s", len(setups)),
        "wall_s": metric(sum(per_op), "s", n_passes),
        "compile_s": metric(sums["compile"], "s", n_passes),
        "op_p50_ms": metric(percentile(latencies_ms, 50), "ms", n_ops),
        "op_p90_ms": metric(percentile(latencies_ms, 90, P90_BAND), "ms", n_ops),
    } | {
        f"{kind}_s": metric(sums[kind], "s", n_passes) for kind in CHECKER_KINDS
    } | {
        "calibration_ms": metric(statistics.median(calibrations) * 1000, "ms", len(calibrations)),
    }


def per_layer(ops, untraced, traced_wall, tracer) -> dict:
    out = {}
    for name, _, _ in tracing.LAYERS:
        out[f"{name}.calls"] = metric(tracer.calls[name], "count", 1)
        out[f"{name}.self_s"] = metric(tracer.self_s[name], "s", 1)
    for name, value in tracer.hit_ratios().items():
        out[name] = metric(value, "ratio", 1)
    sums = kind_sums(ops, untraced)
    for kind in CHECKER_KINDS:
        out[f"{kind}_s"] = metric(sums[kind], "s", 1)
    out["trace.wall_s"] = metric(traced_wall, "s", 1)
    out["trace.overhead_s"] = metric(traced_wall - sum(untraced), "s", 1)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ftnilab" / "__init__.py").is_file():
        print(f"ftnilab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setups: list[float] = []
    setup_units: list[float] = []

    def setup():
        seconds, unit, module, operations = fresh_setup(args.workload, args.seed)
        setups.append(seconds)
        setup_units.append(unit)
        return module, operations

    try:
        W, ops = setup()
    except (ImportError, OSError) as exc:
        print(f"cannot set up workload {args.workload}: {exc}", file=sys.stderr)
        return 2
    first_op_after = time.perf_counter() - STARTED

    times: list[list[float]] = [[] for _ in ops]
    scaled: list[list[float]] = [[] for _ in ops]
    calibrations: list[float] = []
    failures: dict[int, tuple[str, str]] = {}
    passes: list[float] = []
    tracer = None
    if args.trace:
        passes.append(run_pass(W, ops, times, scaled, calibrations, failures))
        untraced = [t[0] for t in times]
        W, ops = setup()
        gc.collect()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_wall = run_pass(
                W, ops, [[] for _ in ops], [[] for _ in ops], [], failures, tracer
            )
        finally:
            tracer.uninstall()
        metrics = per_layer(ops, untraced, traced_wall, tracer)
    else:
        # Set-up samples are spread over the run, between passes, so that
        # their median does not hang on one moment's machine load.
        begin = time.perf_counter()
        while True:
            passes.append(run_pass(W, ops, times, scaled, calibrations, failures))
            if len(passes) == 1:
                # Peak memory of one set-up and one pass; later set-ups would
                # add re-import garbage in proportion to the pass count.
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            for _ in range(SETUPS_PER_PASS):
                W, ops = setup()
            gc.collect()
            elapsed = time.perf_counter() - begin
            if elapsed + statistics.median(passes) > args.seconds:
                break
        metrics = end_to_end(
            ops, times, scaled, calibrations, setups, setup_units, passes, peak_rss_kb
        )

    failed = len(failures)
    wrong = sum(1 for kind, _ in failures.values() if kind == "wrong")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "address_randomization": address_randomization(),
        "hash_none": hash(None),
        "operations": len(ops),
        "passes": len(passes),
        "pass_s": passes,
        "setup_samples_s": setups,
        "setup_calibration_s": setup_units,
        "first_op_after_s": first_op_after,
        "ops_failed_frac": failed / len(ops),
        "failures": {ops[i].label: list(p) for i, p in sorted(failures.items())},
    }
    for name, m in metrics.items():
        print(f"{args.workload:13} {name:48} {m['value']:>14.6g} {m['unit']:6} n={m['n']}")
    print(f"{args.workload:13} {'ops_failed_frac':48} {failed / len(ops):>14.6g} {'share':6} n={len(ops)}")
    for label, (kind, why) in record["failures"].items():
        print(f"FAILED [{kind}] {label}: {why}")
    print("record " + json.dumps(record, sort_keys=True))
    try:
        RESULTS.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (RESULTS / f"{stem}.json").write_text(
            json.dumps(
                {
                    "record": record,
                    "metrics": metrics,
                    "op_times_s": [[op.label, t] for op, t in zip(ops, times)],
                    "op_cal": [[op.label, t] for op, t in zip(ops, scaled)],
                },
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
        if tracer is not None:
            tracer.write_spans(RESULTS / f"{stem}-spans.csv", [op.label for op in ops])
    except OSError as exc:
        print(f"cannot write results: {exc}", file=sys.stderr)

    listed = load_listed(args.trace)
    result = {
        "correct": wrong == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
            for name in listed
        },
    }
    print(json.dumps(result))
    return 0


def load_listed(trace: int) -> list[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def address_randomization() -> bool | None:
    """Whether address-space randomization is on for this process; None if unknown."""
    try:
        persona = int(Path("/proc/self/personality").read_text(), 16)
    except (OSError, ValueError):
        return None
    return not persona & ADDR_NO_RANDOMIZE


if __name__ == "__main__":
    raise SystemExit(main())
