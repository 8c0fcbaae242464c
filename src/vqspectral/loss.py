"""Phase-aware overlap losses, gradients through the full pipeline, recovery.

For each instance the loss compares the circuit state against the normalized
forward transform |F> of its forcing through

    gamma = Re <F|A psi>,     beta = ||A psi||^2 = <psi|A^dag A|psi>.

The normalized objective is 1 - gamma/sqrt(beta); the quadratic form
(gamma - sqrt(beta))^2 shares its global minimum and is the default training
objective because the fraction can destabilize early training. The standard
fidelity cost 1 - |<F|A psi>|^2/beta is kept as the comparison baseline; it
cannot distinguish psi from -psi, which is exactly the defect the phase-aware
form removes.

Training and evaluation apply the assembled dense operator: a fixed A, or
A_i = B + k_i^2 C per instance when the context carries wave numbers. For the
family, the Pauli expansions of B, C and their four cross-products are built
on first access; ``loss_parametric`` assembles gamma and beta from them as the
reference for the assembled operator.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import anglenet, qsim
from .errors import (
    ConfigurationError,
    ContractViolation,
    DegenerateDenominatorError,
    PhaseContaminationWarning,
)
from .pauli import PauliExpansion, adjoint_product, decompose
from .spectral import SolutionField, SpectralSystem, reconstruct

__all__ = [
    "LossContext",
    "LossValue",
    "build_loss_context",
    "context_for_system",
    "with_targets",
    "loss_phase_aware",
    "loss_unnormalized",
    "loss_vqls_standard",
    "loss_parametric",
    "grad_total",
    "imag_overlap_diagnostic",
    "recover_solution",
]

_BETA_TOL = 1e-12


@dataclass(frozen=True)
class LossContext:
    """Everything a loss evaluation needs for a batch of instances.

    With ``k_values`` set, instance i uses A_i = B + k_i^2 C from
    ``parametric_parts``; otherwise every instance uses ``a_matrix``.
    """

    a_matrix: np.ndarray  # the assembled operator
    target_states: np.ndarray  # (D, K), unit rows
    raw_norms: np.ndarray  # (D,)
    system: SpectralSystem | None = None
    parametric_parts: tuple[np.ndarray, np.ndarray] | None = None  # (B, C)
    k_values: np.ndarray | None = None  # per-instance wave numbers

    @property
    def n_instances(self) -> int:
        return self.target_states.shape[0]

    @cached_property
    def parametric_expansions(self) -> dict[str, PauliExpansion]:
        """Expansions of B, C and of B^dag B, B^dag C, C^dag B, C^dag C.

        Keyed "B", "C", "BB", "BC", "CB", "CC"; decomposed once and reused for
        every k.
        """
        if self.parametric_parts is None:
            raise ConfigurationError("context carries no parametric operator")
        parts = {name: decompose(m, name) for name, m in zip("BC", self.parametric_parts)}
        for left in "BC":
            for right in "BC":
                parts[left + right] = adjoint_product(
                    parts[left], parts[right], source_tag=f"{left}^dag {right}"
                )
        return parts


def _k_array(k_values) -> np.ndarray | None:
    return None if k_values is None else np.asarray(k_values, dtype=float)


def _targets(raw_targets: np.ndarray, dim: int) -> dict:
    """Unit target rows and their norms; rejects a dimension mismatch and zero rows."""
    raw_targets = np.atleast_2d(np.asarray(raw_targets, dtype=float))
    if raw_targets.shape[1] != dim:
        raise ContractViolation("target dimension does not match the operator")
    norms = np.linalg.norm(raw_targets, axis=1)
    if np.any(norms < 1e-300):
        raise ContractViolation("zero-norm target state")
    return {"target_states": raw_targets / norms[:, None], "raw_norms": norms}


def build_loss_context(
    matrix: np.ndarray,
    raw_targets: np.ndarray,
    *,
    system: SpectralSystem | None = None,
    parametric_parts=None,
    k_values: np.ndarray | None = None,
) -> LossContext:
    """Normalize the targets against the operator; Pauli data is built on demand."""
    matrix = np.asarray(matrix)
    if k_values is not None and parametric_parts is None:
        raise ContractViolation("wave numbers need a parametric operator")
    return LossContext(
        a_matrix=matrix,
        **_targets(raw_targets, matrix.shape[0]),
        system=system,
        parametric_parts=parametric_parts,
        k_values=_k_array(k_values),
    )


def context_for_system(
    system: SpectralSystem, raw_targets: np.ndarray, k_values=None
) -> LossContext:
    return build_loss_context(
        system.matrix,
        raw_targets,
        system=system,
        parametric_parts=system.parametric_parts,
        k_values=k_values,
    )


def with_targets(ctx: LossContext, raw_targets: np.ndarray, k_values=None) -> LossContext:
    """Same operator context, different instance set (e.g. held-out split)."""
    return dataclasses.replace(
        ctx, **_targets(raw_targets, ctx.a_matrix.shape[0]), k_values=_k_array(k_values)
    )


@dataclass(frozen=True)
class LossValue:
    total: float
    per_instance: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray


def _check_states(ctx: LossContext, states: np.ndarray) -> np.ndarray:
    states = np.atleast_2d(np.asarray(states, dtype=complex))
    if states.shape != ctx.target_states.shape:
        raise ContractViolation(
            f"states shaped {states.shape}, expected {ctx.target_states.shape}"
        )
    return states


def _apply(ctx: LossContext, rows: np.ndarray, adjoint: bool = False):
    """A_i (or A_i^dag) applied to rows[i, ..., :] for every instance i."""

    def matrix_side(mat):  # rows @ M.T == (M @ row) per row
        return mat.conj() if adjoint else mat.T

    if ctx.k_values is None:
        return rows @ matrix_side(ctx.a_matrix)
    b, c = ctx.parametric_parts
    k2 = np.square(ctx.k_values).reshape((-1,) + (1,) * (rows.ndim - 1))
    return rows @ matrix_side(b) + k2 * (rows @ matrix_side(c))


def _overlap_beta(ctx: LossContext, applied: np.ndarray):
    """(<F_i|A_i psi>, ||A_i psi||^2) for rows A_i psi shaped (D, ..., K)."""
    overlap = np.einsum("i...k,ik->i...", applied, ctx.target_states)
    beta = np.einsum("i...k,i...k->i...", applied.conj(), applied).real
    return overlap, beta


def _guard_beta(beta: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(beta)):
        raise DegenerateDenominatorError("denominator radicand is not finite")
    if np.any(beta <= _BETA_TOL):
        raise DegenerateDenominatorError(
            f"denominator radicand fell to {beta.min():.3e}; A|psi> is vanishing"
        )
    return beta


def _objective(objective: str, overlap: np.ndarray, beta: np.ndarray):
    """Per-instance loss L_i and cotangent weights (u_i, v_i).

    With z = <F|A psi>, dL_i/d(conj psi_i) = A_i^dag (u_i F_i + v_i A_i psi_i).
    """
    gamma = overlap.real
    root = np.sqrt(beta)
    if objective == "normalized":
        return 1.0 - gamma / root, -0.5 / root, gamma / (2.0 * beta * root)
    if objective == "unnormalized":
        return (gamma - root) ** 2, gamma - root, -(gamma - root) / root
    if objective == "vqls":
        fidelity = np.abs(overlap) ** 2 / beta
        return 1.0 - fidelity, -overlap / beta, fidelity / beta
    raise ConfigurationError(f"unknown objective {objective!r}")


def _loss(ctx: LossContext, states, objective: str) -> LossValue:
    overlap, beta = _overlap_beta(ctx, _apply(ctx, _check_states(ctx, states)))
    per, _, _ = _objective(objective, overlap, _guard_beta(beta))
    return LossValue(float(per.mean()), per, overlap.real, beta)


def loss_phase_aware(ctx: LossContext, states: np.ndarray) -> LossValue:
    """Normalized objective: mean over instances of 1 - gamma/sqrt(beta)."""
    return _loss(ctx, states, "normalized")


def loss_unnormalized(ctx: LossContext, states: np.ndarray) -> LossValue:
    """Quadratic objective: mean of (gamma - sqrt(beta))^2; default for training."""
    return _loss(ctx, states, "unnormalized")


def loss_vqls_standard(ctx: LossContext, states: np.ndarray) -> float:
    """Fidelity baseline: mean of 1 - |<F|A psi>|^2 / beta (sign-blind)."""
    return _loss(ctx, states, "vqls").total


def loss_parametric(
    ctx: LossContext,
    states: np.ndarray,
    k: np.ndarray | None = None,
    objective: str = "normalized",
) -> LossValue:
    """Loss for the operator family A(k) = B + k^2 C from the six fixed expansions.

    The reference for the assembled per-instance operator: the Pauli
    expansions of B, C and their cross-products are decomposed once, on first
    use, and reused across every k; only the scalar weights (1, k^2) for gamma
    and (1, k^2, k^2, k^4) for beta change.
    """
    states = _check_states(ctx, states)
    if k is None:
        k = ctx.k_values
    if k is None:
        raise ConfigurationError("per-instance wave numbers are required")
    k2 = np.broadcast_to(np.asarray(k, dtype=float), (states.shape[0],)) ** 2
    mats = {name: e.to_matrix() for name, e in ctx.parametric_expansions.items()}

    def form(bras, name):
        return np.einsum("ij,ij->i", bras.conj(), states @ mats[name].T)

    overlap = form(ctx.target_states, "B") + k2 * form(ctx.target_states, "C")
    cross = form(states, "BC") + form(states, "CB") + k2 * form(states, "CC")
    beta = (form(states, "BB") + k2 * cross).real
    per, _, _ = _objective(objective, overlap, _guard_beta(beta))
    return LossValue(float(per.mean()), per, overlap.real, beta)


# ---------------------------------------------------------------------------
# End-to-end gradients


def grad_total(
    ctx: LossContext,
    program: qsim.GateProgram,
    net: anglenet.NetworkState,
    batch_features,
    objective: str = "unnormalized",
    gradient_mode: str = "adjoint",
):
    """Mean-over-batch network-parameter gradients of the chosen objective.

    The chain runs features -> angles (network) -> state (circuit) -> loss,
    each stage once on the whole batch, and each backward pass walks the tape
    its forward pass recorded; batch_features is shaped (D, *input_shape).
    "adjoint" differentiates the statevector exactly in reverse from the
    circuit's tape; the "parameter_shift" mode reproduces the
    same d(loss)/d(angle) through qsim.parameter_shift, measuring the overlap
    <F|A psi> as its linear part and beta as its quadratic part. Returns
    (grads, LossValue) with grads shaped like the network parameters.
    """
    d = ctx.n_instances
    features = np.asarray(batch_features, dtype=float)
    net_tape, circuit_tape = anglenet.Tape(), qsim.Tape()
    angles = anglenet.forward(net, features, tape=net_tape)
    if angles.shape != (d, program.n_slots):
        raise ContractViolation(f"angles shaped {angles.shape}, expected ({d}, {program.n_slots})")
    states = qsim.run_batch(program, angles, circuit_tape)
    applied = _apply(ctx, states)
    overlap, beta = _overlap_beta(ctx, applied)
    per, u, v = _objective(objective, overlap, _guard_beta(beta))
    value = LossValue(float(per.mean()), per, overlap.real, beta)

    if gradient_mode == "adjoint":
        cot = _apply(ctx, u[:, None] * ctx.target_states + v[:, None] * applied, adjoint=True)
        dtheta = qsim.adjoint_gradient(program, angles, cot, circuit_tape)
    elif gradient_mode == "parameter_shift":
        dz, db = qsim.parameter_shift(
            program, angles, lambda shifted: _overlap_beta(ctx, _apply(ctx, shifted))
        )
        dtheta = 2.0 * (np.conj(u)[:, None] * dz).real + v[:, None] * db
    else:
        raise ConfigurationError(f"unknown gradient mode {gradient_mode!r}")

    grads, _ = anglenet.backward(net, features, dtheta / d, tape=net_tape)  # the mean's cotangent
    return grads, value


def imag_overlap_diagnostic(ctx: LossContext, states: np.ndarray) -> np.ndarray:
    """Optional diagnostic: per-instance Im <F|A psi> (vanishes at the optimum).

    Not part of any objective; useful for monitoring residual phase content of
    entangling ansaetze.
    """
    states = _check_states(ctx, states)
    return _overlap_beta(ctx, _apply(ctx, states))[0].imag


def recover_solution(states: np.ndarray, ctx: LossContext) -> SolutionField:
    """Rescale converged unit states, (D, K) rows of the context's instances,
    back to physical coefficients.

    alpha = Re(psi) * ||F_raw|| / sqrt(beta), so that A alpha reproduces the
    unnormalized right-hand side at the optimum. A non-negligible imaginary
    residue on a real-solution problem triggers a warning naming the
    instance, not an error.
    """
    rows = _check_states(ctx, states)
    applied = _apply(ctx, rows)
    beta = _guard_beta(np.einsum("ik,ik->i", applied.conj(), applied).real)
    residue = np.linalg.norm(rows.imag, axis=1) / np.maximum(np.linalg.norm(rows, axis=1), 1e-300)
    for i in np.flatnonzero(residue > 1e-6):
        message = f"instance {i}: imaginary residue {residue[i]:.3e} in recovered state"
        warnings.warn(message, PhaseContaminationWarning, stacklevel=2)
    scale = ctx.raw_norms / np.sqrt(beta)
    coeffs = rows.real * scale[:, None]
    nodal = coeffs.copy() if ctx.system is None else reconstruct(ctx.system, coeffs)
    return SolutionField(coefficients=coeffs, nodal_values=nodal, scale=scale)
