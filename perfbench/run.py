#!/usr/bin/env python3
"""Benchmark of the vqspectral pipeline, measured from outside the package.

    python3 perfbench/run.py --workload helm1d --seed 1 --seconds 20 --trace 0

Runs one workload through its public CLI function (``cli.cmd_run``,
``cli.cmd_signflip`` or ``cli.cmd_scaling``) with the same inputs at least
three times and until ``--seconds`` is used up, checks every output outside
the timed region, and prints readable lines followed by one JSON line with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. Only two clocks are hooked in:
the entry into ``loss.grad_total`` (``pauli.decompose`` on pauli_scaling),
which ends set-up and starts each epoch, and the duration of
``training.evaluate_split``. The JSON carries ``wall_s`` (median over the
operations, from ``parse_config`` to the CLI function's return),
``setup_s`` (median of the operations' set-up times and of extra runs cut
short at the end of set-up, spread over the run) and ``peak_rss_mb`` (after
the first operation). The readable lines add, where they apply,
``epoch_ms_p50``/``epoch_ms_p90`` with their sample counts, ``eval_ms``,
``test_rel_l2``, ``train_loss``, ``failed_share``, the output fingerprint and
the run metadata.

``--trace 1`` alternates untraced and traced operations; the traced ones wrap
the public functions of every module and report per-function calls and self
time, the derived counts, and the tracing overhead (median traced minus median
untraced wall time). Spans are written to ``.bench_out/spans_<workload>.csv``.

BENCHMARK.json lists helm1d and pauli_scaling; joint_helm2d and signflip run
the same way when named.

The package is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


class SetupReached(Exception):
    """Raised at the end of set-up to stop a set-up-only probe."""


def _entry_clock(times: list, stop: bool = False):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            times.append(time.perf_counter())
            if stop:
                raise SetupReached
            return fn(*args, **kwargs)

        return wrapper

    return make


def _eval_clock(samples: list):
    """Times training.evaluate_split and notes how many instances it evaluated."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            features = args[3] if len(args) > 3 else kwargs["features"]
            samples.append((time.perf_counter() - start, len(features)))
            return result

        return wrapper

    return make


def _capture(results: list):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            results.append((args[0] if args else kwargs["expansion"], result))
            return result

        return wrapper

    return make


def _locate(name: str):
    return next((m, a) for n, m, a in harness.TRACED if n == name)


def run_rep(workload, seed: int, out_dir: Path, tracer=None):
    """One operation; returns the rep with its clocks, captures and exit code."""
    rep = Rep(out_dir=out_dir, traced=tracer is not None)
    with harness.Patch() as patch:
        patch.wrap("pauli", "normal_operator", _capture(rep.normals))
        patch.wrap("pauli", "group_commuting", _capture(rep.groupings))
        if tracer is None:
            patch.wrap(*_locate(workload.setup_end), _entry_clock(rep.entries))
            patch.wrap("training", "evaluate_split", _eval_clock(rep.evals))
        else:
            tracer.install(patch)
        rep.start = time.perf_counter()
        try:
            rep.cfg = workload.configure(ROOT, seed)
            rep.code = workload.invoke(rep.cfg, out_dir)
        except Exception as err:  # counted as failed operations by the checks
            traceback.print_exc(file=sys.stderr)
            rep.error = repr(err)
        rep.end = time.perf_counter()
    return rep


def probe_setup(workload, seed: int, out_dir: Path) -> float:
    """Set-up time of one operation cut short at the end of its set-up."""
    times: list = []
    with harness.Patch() as patch:
        patch.wrap(*_locate(workload.setup_end), _entry_clock(times, stop=True))
        start = time.perf_counter()
        try:
            workload.invoke(workload.configure(ROOT, seed), out_dir)
        except SetupReached:
            return times[0] - start
    raise RuntimeError(f"{workload.name}: {workload.setup_end} was never entered")


def measure(workload, seed: int, seconds: float, trace: bool, out=None) -> dict:
    out = out or sys.stdout
    meta = harness.metadata(ROOT, seed)
    scratch = ROOT / ".bench_out" / f"{workload.name}-{os.getpid()}"
    spans_path = ROOT / ".bench_out" / f"spans_{workload.name}.csv"
    reps, tracers, setups = [], [], []
    try:
        begin = time.perf_counter()
        if trace:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text("rep,index,name,start,end,parent,trace\n", encoding="utf-8")
        while True:
            tracer = None
            if trace and len(reps) % 2 == 1:
                tracer = harness.Tracer(workload.roots)
                tracers.append(tracer)
            rep = run_rep(workload, seed, scratch / f"rep{len(reps)}", tracer)
            reps.append(rep)
            if len(reps) == 1:  # later operations hold earlier ones' captures for the checks
                rss = harness.peak_rss_mb()
            if tracer is not None:
                tracer.write_spans(spans_path, f"rep{len(reps) - 1}")
            elif not trace:
                # set-up samples spread over the run, so their median sees what the operations saw
                if rep.setup is not None:
                    setups.append(rep.setup)
                for _ in range(workload.probes_per_op):
                    setups.append(probe_setup(workload, seed, scratch / "probe"))
            elapsed = time.perf_counter() - begin
            enough = len(reps) >= max(workload.min_ops, 2 * trace)  # trace: one of each kind
            if enough and elapsed + harness.median(r.wall for r in reps) > seconds:
                break
        checks = check_all(workload, seed, reps)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    meta["loadavg_end"] = list(os.getloadavg())
    failed = sum(c.failed for c in checks)
    attempted = workload.ops * len(reps)
    problems = [p for c in checks for p in c.problems]

    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}  operations {len(reps)}", file=out)
    print("meta " + json.dumps(meta), file=out)
    for problem in dict.fromkeys(problems):
        print(f"FAILED: {problem}", file=out)
    print(f"fingerprint {checks[0].fingerprint} " + json.dumps(checks[0].values), file=out)
    if trace:
        metrics, guard_ok = layer_report(workload, reps, tracers, out)
        if not guard_ok:  # every traced operation counts as failed
            failed = min(attempted, failed + workload.ops * len(tracers))
    else:
        metrics = end_to_end_report(workload, reps, setups, rss, checks, out)
    print(f"failed_share {failed / attempted!r}  ({failed}/{attempted} operations)", file=out)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def check_all(workload, seed: int, reps) -> list:
    """Checks every rep's outputs; a fingerprint that differs from the first fails."""
    try:
        context = workload.check_context(ROOT, seed)
    except Exception as err:
        return [Check(workload.ops, "", {}, (f"check set-up raised {err!r}",)) for _ in reps]
    checks = []
    for rep in reps:
        try:
            checks.append(workload.check(rep, context))
        except Exception as err:
            checks.append(Check(workload.ops, "", {}, (f"check raised {err!r}",)))
    reference = next((c.fingerprint for c in checks if c.fingerprint), "")
    for i, check in enumerate(checks):
        if check.fingerprint and check.fingerprint != reference:
            problem = f"operation {i} fingerprint {check.fingerprint} != {reference}"
            checks[i] = Check(workload.ops, check.fingerprint, check.values, check.problems + (problem,))
    return checks


def _line(out, name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<14} {value!r:>24} {unit:<5} {note}", file=out)


def end_to_end_report(workload, reps, setups, rss, checks, out) -> dict:
    walls = [r.wall for r in reps]
    metrics = {
        "wall_s": {"value": harness.median(walls), "unit": "s"},
        "setup_s": {"value": harness.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    _line(out, "wall_s", metrics["wall_s"]["value"], "s", f"median of {len(walls)}: {walls}")
    _line(out, "setup_s", metrics["setup_s"]["value"], "s", f"median of {len(setups)}")
    cfg = next((r.cfg for r in reps if r.cfg is not None), None)
    period = workload.period(cfg) if cfg is not None else None
    if period:
        intervals = [
            rep.entries[k] - rep.entries[k - 1]
            for rep in reps
            for k in range(1, len(rep.entries))
            if k % period
        ]
        if intervals:
            p50, p90 = np.percentile(intervals, [50, 90]) * 1e3
            _line(out, "epoch_ms_p50", float(p50), "ms", f"n={len(intervals)}")
            _line(out, "epoch_ms_p90", float(p90), "ms", f"n={len(intervals)}")
        evals = [s for rep in reps for s, n in rep.evals if n == cfg.test_size]
        if evals:
            _line(out, "eval_ms", harness.median(evals) * 1e3, "ms", f"median of {len(evals)}")
    values = checks[0].values
    if "test_rel_l2" in values:
        _line(out, "test_rel_l2", values["test_rel_l2"], "1", "final evaluation")
        _line(out, "train_loss", values["train_loss"], "1", "final evaluation")
    _line(out, "peak_rss_mb", rss, "MB", "after the first operation")
    return metrics


def layer_report(workload, reps, tracers, out):
    """Per-layer metrics: medians over the traced operations."""
    summaries = [t.summary() for t in tracers]
    traced = [r.wall for r in reps if r.traced]
    plain = [r.wall for r in reps if not r.traced]
    overhead = harness.median(traced) - harness.median(plain)
    metrics = {}
    for key, (unit, _) in harness.per_layer_units().items():
        value = overhead if key == "trace.overhead_s" else harness.median(s[key] for s in summaries)
        metrics[key] = {"value": value, "unit": unit}
    traced_ms = harness.median(traced) * 1e3

    print(f"{'function':<40} {'calls':>9} {'self_ms':>11} {'share':>7}  moves", file=out)
    layers: dict = {}
    for name, _, _ in harness.TRACED:
        layer = name.split(".")[0]
        self_ms = metrics[f"{name}.self_ms"]["value"]
        layers[layer] = layers.get(layer, 0.0) + self_ms
        print(
            f"{name:<40} {metrics[f'{name}.calls']['value']:>9g} {self_ms:>11.2f} "
            f"{self_ms / traced_ms:>7.1%}  {harness.MOVES[layer]}",
            file=out,
        )
    for layer, self_ms in layers.items():
        print(f"layer {layer:<34} {'':>9} {self_ms:>11.2f} {self_ms / traced_ms:>7.1%}", file=out)
    for name, unit, _, moves in harness.DERIVED:
        print(f"{name:<40} {metrics[name]['value']!r:>21} {unit:<12}  {moves}", file=out)
    print(
        f"tracing overhead {overhead:.4f} s on {harness.median(plain):.4f} s untraced "
        f"({len(traced)} traced, {len(plain)} untraced operations)",
        file=out,
    )
    guard_ok = True
    for name in workload.guard:
        if any(s[f"{name}.calls"] == 0 for s in summaries):
            message = f"trace guard: {name} recorded no calls on {workload.name}"
            print(f"FAILED: {message}", file=out)
            print(message, file=sys.stderr)
            guard_ok = False
    return metrics, guard_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = measure(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def _import_package() -> None:
    """Import vqspectral from src/ of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "vqspectral" / "__init__.py").is_file():
        print(f"no vqspectral package under {src}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import vqspectral

    if Path(vqspectral.__file__).resolve().parent != (src / "vqspectral").resolve():
        print(f"vqspectral imported from {vqspectral.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


_import_package()

import harness  # noqa: E402
from workloads import WORKLOADS, Check, Rep  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
