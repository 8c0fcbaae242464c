"""The four workloads, each run through a public CLI function, and the checks
on what each one writes.

Every check runs outside the timed region and returns the number of failed
operations. An operation is one training run, one signflip arm or one
scaling size.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from vqspectral import anglenet, cli, config, pauli, qsim, training

DATA = Path(__file__).resolve().parent / "data"


def fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Rep:
    """One operation of a workload: its clocks, captures and artifacts."""

    out_dir: Path
    start: float = 0.0
    end: float = 0.0
    code: int | None = None
    error: str = ""
    entries: list = dataclasses.field(default_factory=list)  # set-up end / epoch entries
    evals: list = dataclasses.field(default_factory=list)  # (seconds, instances)
    normals: list = dataclasses.field(default_factory=list)  # (A, A^dag A)
    groupings: list = dataclasses.field(default_factory=list)  # (expansion, grouping)
    traced: bool = False
    cfg: object = None

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def setup(self) -> float | None:
        return self.entries[0] - self.start if self.entries else None


@dataclass(frozen=True)
class Check:
    failed: int
    fingerprint: str
    values: dict  # non-timing outputs, printed with full precision
    problems: tuple = ()


# ---------------------------------------------------------------------------
# helm1d and joint_helm2d: cmd_run with a reduced epoch count


@dataclass(frozen=True)
class TrainingRun:
    name: str
    config: str
    epochs: int
    eval_every: int
    guard: tuple
    probes_per_op: int
    min_ops: int = 3
    ops = 1
    setup_end = "loss.grad_total"
    roots = {"loss.grad_total": "epoch", "training.evaluate_split": "eval"}

    def configure(self, root: Path, seed: int):
        cfg = config.parse_config(root / self.config).with_seed(seed)
        return dataclasses.replace(cfg, epochs=self.epochs, eval_every=self.eval_every)

    def invoke(self, cfg, out_dir: Path) -> int:
        return cli.cmd_run(cfg, out_dir)

    def period(self, cfg) -> int:
        return cfg.eval_every  # the interval after epoch k holds an evaluation

    def check_context(self, root: Path, seed: int):
        """The test split, circuit and system, rebuilt through public functions."""
        cfg = self.configure(root, seed)
        system = config.build_system(cfg)
        spec = training.DatasetSpec(
            family=cfg.family,
            n_train=cfg.train_size,
            n_test=cfg.test_size,
            seed=cfg.data_seed,
            k_min=cfg.k_min,
            k_max=cfg.k_max,
            k_is_squared=cfg.k_is_squared,
        )
        dataset = training.generate_dataset(spec, system)
        n_qubits = system.size.bit_length() - 1
        if cfg.ansatz == "hardware_efficient_ry":
            program = qsim.build_hardware_efficient_ry(n_qubits, cfg.layers)
        else:
            program = qsim.build_strongly_entangling(n_qubits, cfg.layers)
        return {"cfg": cfg, "system": system, "dataset": dataset, "program": program}

    def check(self, rep: Rep, context: dict) -> Check:
        problems = []
        if rep.code != 0:
            problems.append(f"exit code {rep.code} {rep.error}".strip())
            return Check(1, "", {}, tuple(problems))
        rows = training.read_run_record(rep.out_dir / "run_record.csv")
        values = {
            "test_rel_l2": rows[-1].test_rel_l2,
            "train_loss": rows[-1].train_loss,
            "first_train_loss": rows[0].train_loss,
        }
        numbers = [getattr(r, f) for r in rows for f in ("train_loss", "test_loss", "test_rel_l2")]
        if not np.all(np.isfinite(numbers)):
            problems.append("non-finite loss or error in run_record.csv")
        if len(rows) < 2 or not rows[-1].train_loss < rows[0].train_loss:
            problems.append("training loss did not fall between the first and last evaluation")
        net = anglenet.load_checkpoint(rep.out_dir / "checkpoint_final.bin")
        if "data" not in context:  # the loss context is costly on joint problems: build it once
            context["data"] = training.TrainData.from_dataset(
                context["dataset"], context["system"], net.spec.input_shape
            )
        data = context["data"]
        again = training.evaluate_split(
            data.ctx_test,
            context["program"],
            net,
            data.test_features,
            data.test_truth,
            context["cfg"].objective,
        )
        if again["rel_l2"] != rows[-1].test_rel_l2:
            problems.append(
                f"checkpoint_final.bin gives test rel L2 {again['rel_l2']!r}, "
                f"run record has {rows[-1].test_rel_l2!r}"
            )
        record = [
            [r.epoch, r.train_loss, r.test_loss, r.train_rel_l2, r.test_rel_l2, r.test_rel_linf, r.test_mae]
            for r in rows
        ]
        table = (rep.out_dir / "error_table.csv").read_text(encoding="utf-8")
        return Check(
            1 if problems else 0, fingerprint(repr(record) + table), values, tuple(problems)
        )


# ---------------------------------------------------------------------------
# signflip: cmd_signflip on the shipped config


@dataclass(frozen=True)
class SignFlip:
    name: str
    config: str
    guard: tuple
    seeds: int = 2  # 4 of the config's 20 arms: about 5 s, so a run holds several operations
    epochs: int | None = None  # None keeps the config's step count
    probes_per_op: int = 0
    min_ops: int = 3
    setup_end = "loss.grad_total"
    roots = {"loss.grad_total": "epoch"}

    def configure(self, root: Path, seed: int):
        cfg = config.parse_config(root / self.config).with_seed(seed)
        cfg = dataclasses.replace(cfg, signflip_seeds=self.seeds)
        return cfg if self.epochs is None else dataclasses.replace(cfg, epochs=self.epochs)

    def invoke(self, cfg, out_dir: Path) -> int:
        return cli.cmd_signflip(cfg, out_dir)

    def period(self, cfg) -> int:
        return cfg.epochs  # the interval after the last step of an arm spans two arms

    @property
    def ops(self) -> int:
        return 2 * self.seeds

    def check_context(self, root: Path, seed: int):
        return None

    def check(self, rep: Rep, context) -> Check:
        if rep.code != 0:
            return Check(self.ops, "", {}, (f"exit code {rep.code} {rep.error}".strip(),))
        path = rep.out_dir / "signflip.csv"
        return self.check_table(path.read_text(encoding="utf-8"))

    def check_table(self, text: str) -> Check:
        """Criterion 5's rule, counted per arm."""
        rows = list(csv.DictReader(text.splitlines()))
        standard = [float(r["overlap_standard"]) for r in rows]
        aware = [float(r["overlap_phase_aware"]) for r in rows]
        residual = max((float(r["identity_residual"]) for r in rows), default=np.inf)
        problems = []
        failed = self.ops - 2 * len(rows)  # arms that wrote no row
        if failed:
            problems.append(f"{len(rows)} seeds written, {self.ops // 2} expected")
        if not residual <= 1e-12:
            problems.append(f"sign-flip identity residual {residual:.3e} above 1e-12")
            return Check(self.ops, fingerprint(text), {}, tuple(problems))
        bad_aware = [i for i, v in enumerate(aware) if not v > 0]
        if bad_aware:
            problems.append(f"phase-aware overlap not above 0 for seeds {bad_aware}")
        failed += len(bad_aware)
        if not any(v < 0 for v in standard):
            problems.append("no standard-arm overlap below 0")
            failed += len(standard)
        else:
            failed += sum(1 for v in standard if not np.isfinite(v))
        values = {"overlap_standard": standard, "overlap_phase_aware": aware, "identity_residual": residual}
        return Check(failed, fingerprint(text), values, tuple(problems))


# ---------------------------------------------------------------------------
# pauli_scaling: cmd_scaling on the convection-diffusion family


@dataclass(frozen=True)
class PauliScaling:
    name: str
    config: str
    guard: tuple
    modes: tuple = (4, 8, 16)
    dims: tuple = (1, 2)
    probes_per_op: int = 5
    min_ops: int = 3
    setup_end = "pauli.decompose"
    roots = {"config.build_system": "size"}

    def configure(self, root: Path, seed: int):
        cfg = config.parse_config(root / self.config)  # fixed operators: the seed is unused
        return dataclasses.replace(cfg, scaling_modes=self.modes, scaling_dims=self.dims)

    def invoke(self, cfg, out_dir: Path) -> int:
        return cli.cmd_scaling(cfg, out_dir)

    def period(self, cfg) -> None:
        return None

    @property
    def ops(self) -> int:
        return len(self.modes) * len(self.dims)

    def sizes(self, cfg):
        """(pde, d, N, sub-config) in the order cmd_scaling visits them."""
        out = []
        for d in self.dims:
            for n_modes in self.modes:
                pde = cfg.pde[:-2] + ("2d" if d == 2 else "1d")
                out.append((pde, d, n_modes, dataclasses.replace(cfg, pde=pde, n_modes=n_modes, dimensions=d)))
        return out

    def check_context(self, root: Path, seed: int):
        cfg = self.configure(root, seed)
        expected = json.loads((DATA / "scaling_counts.json").read_text(encoding="utf-8"))
        systems = [config.build_system(sub).matrix for _, _, _, sub in self.sizes(cfg)]
        return cfg, expected, systems

    def check(self, rep: Rep, context) -> Check:
        cfg, expected, systems = context
        if rep.code != 0:
            return Check(self.ops, "", {}, (f"exit code {rep.code} {rep.error}".strip(),))
        with open(rep.out_dir / "scaling.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        problems = []
        bad = set()
        for i, (pde, d, n_modes, _) in enumerate(self.sizes(cfg)):
            label = f"{pde} d={d} N={n_modes}"
            want = expected.get(label)
            if i >= len(rows) or want is None or rows[i] != want:
                problems.append(f"{label}: counts {rows[i] if i < len(rows) else None} != recorded {want}")
                bad.add(i)
            path = rep.out_dir / f"expansion_{pde}_d{d}_n{n_modes}.txt"
            if not path.exists():
                problems.append(f"{label}: {path.name} missing")
                bad.add(i)
                continue
            expansion = pauli.PauliExpansion.deserialize(path.read_text(encoding="utf-8"))
            gap = float(np.linalg.norm(expansion.to_matrix() - systems[i]))
            if not gap <= 1e-10:
                problems.append(f"{label}: expansion reconstructs A to {gap:.3e}, above 1e-10")
                bad.add(i)
            if i >= len(rep.normals):
                problems.append(f"{label}: no normal operator captured")
                bad.add(i)
                continue
            a, normal = rep.normals[i]
            rel = relative_gap(normal, pauli.normal_operator(a, method="dense"))
            if not rel <= 1e-10:
                problems.append(f"{label}: pairwise A^dag A differs from dense by {rel:.3e}")
                bad.add(i)
            groupings = [(e, g) for e, g in rep.groupings if e is a or e is normal]
            if len(groupings) != 2:
                problems.append(f"{label}: {len(groupings)} groupings captured, 2 expected")
                bad.add(i)
            if not all(is_qubit_wise_partition(e, g) for e, g in groupings):
                problems.append(f"{label}: grouping is not a qubit-wise commuting partition")
                bad.add(i)
        values = {"scaling_rows": [list(r.values()) for r in rows]}
        text = "".join(p.read_text(encoding="utf-8") for p in sorted(rep.out_dir.glob("*.*")))
        return Check(len(bad), fingerprint(text), values, tuple(problems))


def relative_gap(expansion, reference) -> float:
    """||E - R||_F / ||R||_F from the coefficients: Pauli strings are orthogonal
    and all share the Frobenius norm 2^(n/2), so no dense matrix is needed."""
    coefs = {(s.x_bits, s.z_bits): c for s, c in reference.terms}
    ref_norm = np.sqrt(sum(abs(c) ** 2 for c in coefs.values()))
    for s, c in expansion.terms:
        key = (s.x_bits, s.z_bits)
        coefs[key] = coefs.get(key, 0.0) - c
    return float(np.sqrt(sum(abs(c) ** 2 for c in coefs.values())) / ref_norm)


def is_qubit_wise_partition(expansion, grouping) -> bool:
    indices = sorted(i for group in grouping.groups for i in group)
    if indices != list(range(len(expansion))):
        return False
    strings = [s for s, _ in expansion.terms]
    for group in grouping.groups:
        for pos, a in enumerate(group):
            for b in group[pos + 1 :]:
                if not strings[a].commutes_qubit_wise(strings[b]):
                    return False
    return True


# Functions each workload must reach at least once in a traced operation: the
# traced functions of the layers the workload is meant to exercise that run on
# it at this revision. Pauli functions are required only on pauli_scaling,
# because building Pauli artifacts lazily is expected to take them off the
# training path.
_TRAINING_GUARD = (
    "qsim.run_batch",
    "qsim.adjoint_gradient",
    "loss.grad_total",
    "loss.recover_solution",
    "loss.context_for_system",
    "loss.with_targets",
    "loss.loss_phase_aware",
    "spectral.assemble_system",
    "spectral.forward_transform",
    "spectral.reconstruct",
    "spectral.metrics",
    "config.parse_config",
    "config.build_system",
)

WORKLOADS = {
    w.name: w
    for w in (
        TrainingRun(
            name="helm1d",
            config="configs/helm1d_dirichlet.cfg",
            epochs=300,
            eval_every=100,
            probes_per_op=2,
            guard=_TRAINING_GUARD
            + (
                "spectral.classical_solve",
                "anglenet.forward",
                "anglenet.backward",
                "anglenet.save_checkpoint",
            ),
        ),
        TrainingRun(
            name="joint_helm2d",
            config="configs/joint_helm2d.cfg",
            epochs=30,
            eval_every=10,
            probes_per_op=1,
            guard=_TRAINING_GUARD,
        ),
        SignFlip(
            name="signflip",
            config="configs/signflip_rd1d.cfg",
            guard=(
                "qsim.run_batch",
                "qsim.run",
                "qsim.adjoint_gradient",
                "training.generate_dataset",
                "training.adam_step",
                "config.parse_config",
                "config.build_system",
            ),
        ),
        PauliScaling(
            name="pauli_scaling",
            config="configs/cd1d_dirichlet.cfg",
            guard=(
                "pauli.decompose",
                "pauli.adjoint_product",
                "pauli.normal_operator",
                "pauli.group_commuting",
                "spectral.assemble_system",
                "config.parse_config",
                "config.build_system",
            ),
        ),
    )
}
