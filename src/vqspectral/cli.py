"""Command-line harness: run, truncation, scaling, signflip, table.

Every verb reads a sectioned key=value config, resolves it canonically, and
emits fixed-layout CSV artifacts under --out. One experiment per invocation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np

from . import anglenet, loss as loss_mod, pauli, qsim, spectral, training
from .config import (
    MAX_SYSTEM_SIZE, ExperimentConfig, _with_setting, build_system, canonical_text, parse_config,
    scaling_config,
)
from .errors import ConfigurationError, TruncationDegenerateError, VqSpectralError

ERROR_TABLE_COLUMNS = (
    "benchmark",
    "bc",
    "n_modes",
    "n_qubits",
    "rel_l2_mean",
    "rel_l2_sd",
    "rel_linf_mean",
    "rel_linf_sd",
    "mae_mean",
    "mae_sd",
)
SCALING_COLUMNS = (
    "pde",
    "d",
    "n_modes",
    "system_size",
    "terms_a",
    "groups_a",
    "terms_ada",
    "groups_ada",
    "vqls_pairwise",
)
TRUNCATION_COLUMNS = (
    "threshold",
    "term_count",
    "rel_frobenius",
    "condition_number",
    "solution_rel_l2",
    "degenerate",
)
SIGNFLIP_COLUMNS = ("seed", "overlap_standard", "overlap_phase_aware", "identity_residual")


def _write_results(cfg: ExperimentConfig, out_dir: Path, name: str, columns, rows) -> None:
    """The resolved config and a verb's result table, written under out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved_config.txt").write_text(canonical_text(cfg), encoding="utf-8")
    training.write_csv(out_dir / name, columns, rows)


def _qubit_count(size: int) -> int:
    n = size.bit_length() - 1
    if (1 << n) != size:
        raise ConfigurationError(f"system size {size} is not a power of two")
    return n


def _build_program(cfg: ExperimentConfig, n_qubits: int) -> qsim.GateProgram:
    if cfg.ansatz == "hardware_efficient_ry":
        return qsim.build_hardware_efficient_ry(n_qubits, cfg.layers)
    return qsim.build_strongly_entangling(n_qubits, cfg.layers)


def _build_network_spec(cfg: ExperimentConfig, input_shape, n_slots: int) -> anglenet.NetworkSpec:
    layers: list = []
    in_dim = int(np.prod(input_shape))
    if cfg.conv_channels:
        channels = input_shape[0]
        for out_channels in cfg.conv_channels:
            layers.append(anglenet.Conv2d(channels, out_channels, cfg.conv_kernel, cfg.activation))
            channels = out_channels
        in_dim = channels * input_shape[1] * input_shape[2]
    for width in cfg.hidden:
        layers.append(anglenet.Dense(in_dim, width, cfg.activation))
        in_dim = width
    layers.append(anglenet.Dense(in_dim, n_slots, "identity"))
    return anglenet.NetworkSpec(input_shape=input_shape, layers=tuple(layers))


def _dataset_spec(cfg: ExperimentConfig) -> training.DatasetSpec:
    return training.DatasetSpec(
        family=cfg.family,
        n_train=cfg.train_size,
        n_test=cfg.test_size,
        seed=cfg.data_seed,
        k_min=cfg.k_min,
        k_max=cfg.k_max,
        k_is_squared=cfg.k_is_squared,
    )


def _assemble(cfg: ExperimentConfig, n_train: int, n_test: int):
    """(system, qubit count, dataset) of an experiment, with the given split sizes."""
    system = build_system(cfg)
    n_qubits = _qubit_count(system.size)
    spec = dataclasses.replace(_dataset_spec(cfg), n_train=n_train, n_test=n_test)
    return system, n_qubits, training.generate_dataset(spec, system)


def _train_config(cfg: ExperimentConfig) -> training.TrainConfig:
    return training.TrainConfig(
        objective=cfg.objective,
        optimizer=cfg.optimizer,
        learning_rate=cfg.learning_rate,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        epsilon=cfg.adam_epsilon,
        epochs=cfg.epochs,
        eval_every=cfg.eval_every,
        gradient_mode=cfg.gradient_mode,
    )


def cmd_run(cfg: ExperimentConfig, out_dir: Path) -> int:
    system, n_qubits, dataset = _assemble(cfg, cfg.train_size, cfg.test_size)
    # config._validate admits conv_channels only with grid features
    input_shape = training.feature_shape(dataset.train, grid=bool(cfg.conv_channels))
    program = _build_program(cfg, n_qubits)
    net = anglenet.init(_build_network_spec(cfg, input_shape, program.n_slots), cfg.net_seed)
    data = training.TrainData.from_dataset(dataset, system, input_shape)
    record = training.train(_train_config(cfg), data, program, net)

    out_dir.mkdir(parents=True, exist_ok=True)
    training.write_run_record(record, out_dir / "run_record.csv")
    anglenet.save_checkpoint(record.checkpoint_best, out_dir / "checkpoint.bin")
    anglenet.save_checkpoint(record.checkpoint_final, out_dir / "checkpoint_final.bin")
    evaluation = record.best_evaluation or {}  # None when no evaluation succeeded
    stats = []  # mean and sd of each per-instance error of the best checkpoint
    for key in ("rel_l2", "rel_linf", "mae"):
        values = evaluation.get(f"per_instance_{key}")
        stats += [float(np.mean(values)), float(np.std(values))] if values else [float("nan")] * 2
    row = (cfg.pde, cfg.boundary, cfg.n_modes, n_qubits, *stats)
    _write_results(cfg, out_dir, "error_table.csv", ERROR_TABLE_COLUMNS, [row])
    print(
        f"{cfg.pde}: mean test rel L2 {stats[0]:.3e} (sd {stats[1]:.3e}), "
        f"rel Linf {stats[2]:.3e}, mae {stats[4]:.3e}"
    )
    if record.aborted:
        print(f"training aborted: {record.abort_reason}", file=sys.stderr)
        return 1
    return 0


def cmd_truncation(cfg: ExperimentConfig, out_dir: Path) -> int:
    system, _, dataset = _assemble(cfg, n_train=1, n_test=0)
    expansion = pauli.decompose(system.matrix, cfg.pde)
    rhs = dataset.train.raw_targets[0]
    reference = spectral.classical_solve(system, rhs)
    rows = []
    for threshold in cfg.thresholds:
        try:
            truncated, diag = pauli.truncate(expansion, threshold)
        except TruncationDegenerateError:
            rows.append((threshold, 0, float("nan"), float("nan"), float("nan"), 1))
            continue
        reduced = truncated.to_matrix()
        reduced = reduced.real if np.abs(reduced.imag).max() < 1e-12 else reduced
        alpha = np.linalg.solve(reduced, rhs.astype(reduced.dtype))
        approx = spectral.SolutionField(
            coefficients=np.real(alpha), nodal_values=spectral.reconstruct(system, np.real(alpha))
        )
        m = spectral.metrics(approx, reference, system)
        rows.append(
            (
                threshold,
                diag.term_count,
                diag.rel_frobenius_error,
                diag.condition_number,
                m["rel_l2"],
                0,
            )
        )
    _write_results(cfg, out_dir, "truncation.csv", TRUNCATION_COLUMNS, rows)
    for row in rows:
        print(
            f"threshold {row[0]:g}: {row[1]} terms, rel Frobenius {row[2]:.3e}, "
            f"solution rel L2 {row[4]:.3e}"
        )
    return 0


def cmd_scaling(cfg: ExperimentConfig, out_dir: Path) -> int:
    rows = []
    expansions = []
    for d in cfg.scaling_dims:
        for n_modes in cfg.scaling_modes:
            sub = dataclasses.replace(scaling_config(cfg, d), n_modes=n_modes)
            size = n_modes**sub.direction_count
            if size > MAX_SYSTEM_SIZE:
                print(f"skipping N={n_modes} d={d}: K={size} exceeds the memory guard")
                continue
            system = build_system(sub)
            expansion = pauli.decompose(system.matrix, sub.pde)
            normal = pauli.normal_operator(expansion)
            terms_a = pauli.count_measurements(expansion, grouped=False)
            groups_a = pauli.count_measurements(expansion, grouped=True)
            terms_n = pauli.count_measurements(normal, grouped=False)
            groups_n = pauli.count_measurements(normal, grouped=True)
            rows.append(
                (sub.pde, d, n_modes, system.size, terms_a, groups_a, terms_n, groups_n, terms_a**2)
            )
            expansions.append((f"expansion_{sub.pde}_d{d}_n{n_modes}.txt", expansion))
    _write_results(cfg, out_dir, "scaling.csv", SCALING_COLUMNS, rows)
    for name, expansion in expansions:
        (out_dir / name).write_text(expansion.serialize(), encoding="utf-8")
    for row in rows:
        print(
            f"{row[0]} d={row[1]} N={row[2]}: terms {row[4]} -> groups {row[5]}; "
            f"normal terms {row[6]} -> groups {row[7]}; pairwise {row[8]}"
        )
    return 0


def cmd_signflip(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Adversarial-initialization study of the sign ambiguity.

    Both arms start from a network biased to prepare the sign-flipped
    solution state. The fidelity-based baseline stays on the flipped ray (its
    loss cannot see the sign); the phase-aware objective recovers the correct
    sign for every seed.
    """
    system, n_qubits, dataset = _assemble(cfg, n_train=1, n_test=0)
    truth = dataset.train.truth
    alpha_unit = truth.coefficients[0] / np.linalg.norm(truth.coefficients[0])
    program = _build_program(cfg, n_qubits)
    data = training.TrainData.from_dataset(
        dataset, system, training.feature_shape(dataset.train, grid=False)
    )
    ctx = data.ctx_train

    theta_star = _prepare_state_angles(program, -alpha_unit.astype(complex), seed=cfg.net_seed)
    u_ref = truth.nodal_values[0].reshape(-1)
    u_ref = u_ref / np.linalg.norm(u_ref)

    rows = []
    rng_master = np.random.default_rng(cfg.net_seed)
    identity_probe = rng_master.standard_normal(system.size) + 1j * rng_master.standard_normal(
        system.size
    )
    identity_probe /= np.linalg.norm(identity_probe)
    lp = loss_mod.loss_phase_aware(ctx, identity_probe[None, :]).total
    lm = loss_mod.loss_phase_aware(ctx, -identity_probe[None, :]).total
    identity_residual = abs(lp + lm - 2.0)

    for seed in range(cfg.signflip_seeds):
        overlap_std = _signflip_arm(cfg, data, program, theta_star, u_ref, seed, objective="vqls")
        overlap_pa = _signflip_arm(
            cfg, data, program, theta_star, u_ref, seed, objective="normalized"
        )
        rows.append((seed, overlap_std, overlap_pa, identity_residual))
        print(
            f"seed {seed}: standard overlap {overlap_std:+.4f}, "
            f"phase-aware overlap {overlap_pa:+.4f}"
        )
    _write_results(cfg, out_dir, "signflip.csv", SIGNFLIP_COLUMNS, rows)
    negative = sum(1 for r in rows if r[1] < 0)
    positive = sum(1 for r in rows if r[2] > 0)
    print(
        f"standard arm: {negative}/{len(rows)} seeds kept the flipped sign; "
        f"phase-aware arm: {positive}/{len(rows)} seeds recovered the true sign; "
        f"sign-flip identity residual {identity_residual:.2e}"
    )
    return 0


def _prepare_state_angles(
    program: qsim.GateProgram, target: np.ndarray, seed: int, iters: int = 2000, lr: float = 0.05
) -> np.ndarray:
    """Fit circuit angles that prepare a given unit state (least squares)."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, program.n_slots)
    adam = training.AdamState.for_params(theta)
    tape = qsim.Tape()
    for _ in range(iters):
        psi = qsim.run_batch(program, theta[None, :], tape)
        grad = qsim.adjoint_gradient(program, theta[None, :], psi - target, tape)[0]
        training.adam_step(adam, theta, grad, lr=lr)
    return theta


def _signflip_arm(cfg, data, program, theta_star, u_ref, seed, objective) -> float:
    """Train one single-layer network from near theta_star; overlap of its solution with u_ref."""
    rng = np.random.default_rng(seed)
    input_shape = data.train_features.shape[1:]
    spec = anglenet.NetworkSpec(
        input_shape, (anglenet.Dense(input_shape[0], program.n_slots),)
    )
    net = anglenet.init(spec, seed)
    net.weights[0][...] = 0.0
    net.biases[0][...] = theta_star + 0.05 * rng.standard_normal(program.n_slots)
    config = training.TrainConfig(
        objective=objective,
        learning_rate=cfg.learning_rate,
        epochs=cfg.epochs,
        eval_every=cfg.epochs,
        gradient_mode=cfg.gradient_mode,
    )
    record = training.train(config, data, program, net)
    if record.aborted:
        raise VqSpectralError(f"sign-flip arm {objective!r}, seed {seed}: {record.abort_reason}")
    psi = qsim.run(program, anglenet.forward(net, data.train_features[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = loss_mod.recover_solution(psi[None, :], data.ctx_train)
    u_hat = rec.nodal_values.reshape(-1)
    u_hat = u_hat / np.linalg.norm(u_hat)
    return float(u_ref @ u_hat)


def cmd_table(run_dirs, out_dir: Path | None) -> int:
    rows = []
    for run_dir in run_dirs:
        path = Path(run_dir) / "error_table.csv"
        if not path.exists():
            print(f"warning: {path} missing, row skipped", file=sys.stderr)
            continue
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for entry in reader:
                rows.append([Path(run_dir).name] + [entry[c] for c in ERROR_TABLE_COLUMNS])
    columns = ("run",) + ERROR_TABLE_COLUMNS
    print(",".join(columns))
    for row in rows:
        print(",".join(str(v) for v in row))
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        training.write_csv(out_dir / "error_table.csv", columns, rows)
    return 0


_VERBS = {  # the verbs that run a config; "table" reads finished runs instead
    "run": cmd_run,
    "truncation": cmd_truncation,
    "scaling": cmd_scaling,
    "signflip": cmd_signflip,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="sectioned key=value config file")
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--seed", type=int, default=None, help="override data/net seeds")
    sub.add_argument("--dry-run", action="store_true", help="print resolved config and exit")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vqspectral",
        description="Spectral operator learning through simulated variational circuits",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _VERBS:
        _add_common(subs.add_parser(name))
    subs.choices["truncation"].add_argument(
        "--thresholds", default=None, help="comma list overriding [study] thresholds"
    )
    table = subs.add_parser("table")
    table.add_argument("run_dirs", nargs="*", help="run directories with error_table.csv")
    table.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    if args.command == "table":
        return cmd_table(args.run_dirs, None if args.out is None else Path(args.out))

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
        if args.command == "truncation" and args.thresholds:
            cfg = _with_setting(cfg, "study", "thresholds", args.thresholds)
        if args.dry_run:
            print(canonical_text(cfg), end="")
            return 0
        return _VERBS[args.command](cfg, Path(args.out))
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except VqSpectralError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
