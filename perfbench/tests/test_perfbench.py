"""Self-tests of the benchmark: smoke-sized runs and corrupted outputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)
from workloads import WORKLOADS, is_qubit_wise_partition  # noqa: E402

from vqspectral import anglenet, cli, pauli, training  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

SMOKE = {
    "helm1d": dataclasses.replace(WORKLOADS["helm1d"], epochs=4, eval_every=2, min_ops=1),
    "joint_helm2d": dataclasses.replace(WORKLOADS["joint_helm2d"], epochs=4, eval_every=2, min_ops=1),
    "signflip": dataclasses.replace(WORKLOADS["signflip"], seeds=1, epochs=20, min_ops=1),
    "pauli_scaling": dataclasses.replace(WORKLOADS["pauli_scaling"], modes=(4, 8), min_ops=1),
}


def _main(monkeypatch, capsys, workload, trace: int):
    monkeypatch.setitem(run.WORKLOADS, workload.name, workload)
    code = run.main(["--workload", workload.name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_benchmark_json_lists_the_workloads_and_layers():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == run.harness.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(SMOKE))
def test_smoke_run_prints_every_metric_with_its_unit(monkeypatch, capsys, name, trace):
    code, lines, result = _main(monkeypatch, capsys, SMOKE[name], trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float)) and np.isfinite(value["value"])
    text = "\n".join(lines[:-1])
    if trace:
        for m in wanted:
            assert m["name"].removesuffix(".calls").removesuffix(".self_ms") in text
    else:
        for m in wanted:
            assert any(l.split()[:1] == [m["name"]] and f" {m['unit']} " in l for l in lines)
        assert "failed_share" in text and "fingerprint" in text and '"blas_threads"' in text


def test_missing_function_trips_the_trace_guard(monkeypatch, capsys):
    workload = dataclasses.replace(SMOKE["pauli_scaling"], guard=("qsim.run_batch",))
    code, lines, result = _main(monkeypatch, capsys, workload, 1)
    assert code == 0
    assert not result["correct"]
    assert result["failed"] == workload.ops  # the one traced operation
    assert any("trace guard: qsim.run_batch" in l for l in lines)


def _signflip_csv(standard, aware, residual=0.0) -> str:
    rows = [",".join(cli.SIGNFLIP_COLUMNS)]
    rows += [f"{i},{s!r},{a!r},{residual!r}" for i, (s, a) in enumerate(zip(standard, aware))]
    return "\n".join(rows) + "\n"


def test_signflip_check_counts_corrupted_arms():
    check = dataclasses.replace(WORKLOADS["signflip"], seeds=10).check_table
    good = check(_signflip_csv([-1.0] * 10, [1.0] * 10))
    assert good.failed == 0
    flipped = check(_signflip_csv([-1.0] * 10, [1.0] * 9 + [-1.0]))
    assert flipped.failed == 1
    assert flipped.fingerprint != good.fingerprint
    assert check(_signflip_csv([1.0] * 10, [1.0] * 10)).failed == 10
    assert check(_signflip_csv([-1.0] * 10, [1.0] * 10, residual=1e-9)).failed == 20
    assert check(_signflip_csv([-1.0] * 9, [1.0] * 9)).failed == 2


def _scaling_rep(tmp_path):
    workload = dataclasses.replace(SMOKE["pauli_scaling"], dims=(1,))
    rep = run.run_rep(workload, 0, tmp_path / "rep")
    context = workload.check_context(run.ROOT, 0)
    assert rep.code == 0
    assert workload.check(rep, context).failed == 0
    return workload, rep, context


def test_scaling_check_counts_a_dropped_pauli_term(tmp_path):
    workload, rep, context = _scaling_rep(tmp_path)
    path = rep.out_dir / "expansion_cd1d_d1_n8.txt"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[1:]), encoding="utf-8")
    check = workload.check(rep, context)
    assert check.failed == 1
    assert any("cd1d d=1 N=8" in p for p in check.problems)


def test_scaling_check_counts_a_wrong_count_and_a_bad_grouping(tmp_path):
    workload, rep, context = _scaling_rep(tmp_path)
    path = rep.out_dir / "scaling.csv"
    path.write_text(path.read_text(encoding="utf-8").replace(",11,6,", ",11,5,"), encoding="utf-8")
    assert workload.check(rep, context).failed == 1

    expansion, grouping = rep.groupings[0]
    merged = dataclasses.replace(
        grouping,
        groups=(tuple(i for g in grouping.groups for i in g),),
        basis_rotations=grouping.basis_rotations[:1],
    )
    assert is_qubit_wise_partition(expansion, grouping)
    assert not is_qubit_wise_partition(expansion, merged)


def test_training_check_counts_a_tampered_checkpoint_and_fingerprint(tmp_path):
    workload = SMOKE["helm1d"]
    reps = [run.run_rep(workload, 0, tmp_path / f"rep{i}") for i in range(2)]
    assert [c.failed for c in run.check_all(workload, 0, reps)] == [0, 0]

    record = reps[1].out_dir / "run_record.csv"
    rows = training.read_run_record(record)
    rows[0].test_loss *= 1.5
    training.write_run_record(training.RunRecord(rows, 0, 0.0, None, None), record)
    assert [c.failed for c in run.check_all(workload, 0, reps)] == [0, 1]

    path = reps[0].out_dir / "checkpoint_final.bin"
    net = anglenet.load_checkpoint(path)
    net.weights[0][0, 0] += 1e-9
    anglenet.save_checkpoint(net, path)
    checks = run.check_all(workload, 0, reps)
    assert checks[0].failed == 1
    assert any("checkpoint_final.bin" in p for p in checks[0].problems)


def test_qubit_wise_partition_rejects_a_missing_term():
    expansion = pauli.PauliExpansion.deserialize("XI 1 0\nZZ 1 0\nIZ 1 0\n")
    grouping = pauli.group_commuting(expansion)
    assert is_qubit_wise_partition(expansion, grouping)
    short = dataclasses.replace(grouping, groups=tuple(g[:-1] for g in grouping.groups))
    assert not is_qubit_wise_partition(expansion, short)
