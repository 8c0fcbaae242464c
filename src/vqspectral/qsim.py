"""Exact statevector simulation of the parameterized circuits.

Gate programs are flat sequences of ry/rz/hadamard/cnot; every rotation reads
its angle from a distinct slot so the two-point shift rule applies per slot.
States are complex arrays shaped (..., 2^n) with qubit 0 as the most
significant bit, and every operation accepts a leading batch axis so that a
whole training batch advances through the same program in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .pauli import MeasurementGrouping, PauliExpansion, PauliString

__all__ = [
    "Gate",
    "GateProgram",
    "build_strongly_entangling",
    "build_hardware_efficient_ry",
    "build_ry_embedding",
    "zero_state",
    "run",
    "run_batch",
    "expectation",
    "expectation_of_expansion",
    "overlap",
    "overlap_of_expansion",
    "OverlapObservable",
    "grad_parameter_shift",
    "adjoint_gradient",
    "estimate_shots",
    "dump_amplitudes",
]

_H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
_SDG_MATRIX = np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=complex)


@dataclass(frozen=True)
class Gate:
    kind: str  # ry | rz | h | cnot
    target: int
    control: int = -1
    slot: int = -1


@dataclass(frozen=True)
class GateProgram:
    n_qubits: int
    gates: tuple[Gate, ...]
    n_slots: int

    def __post_init__(self):
        seen_slots = []
        for gate in self.gates:
            if not 0 <= gate.target < self.n_qubits:
                raise ContractViolation(f"target {gate.target} out of range")
            if gate.kind == "cnot":
                if not 0 <= gate.control < self.n_qubits or gate.control == gate.target:
                    raise ContractViolation("invalid cnot control")
            if gate.kind in ("ry", "rz"):
                if not 0 <= gate.slot < self.n_slots:
                    raise ContractViolation(f"slot {gate.slot} out of range")
                seen_slots.append(gate.slot)
        if sorted(seen_slots) != list(range(self.n_slots)):
            raise ContractViolation("each angle slot must feed exactly one rotation")


# ---------------------------------------------------------------------------
# Builders


def build_strongly_entangling(n: int, layers: int) -> GateProgram:
    """Per layer: general rotation RY RZ RY on every qubit (three slots each),
    then a CNOT ring with control-to-target offset (layer mod (n-1)) + 1."""
    if n < 2:
        raise ConfigurationError("strongly entangling ansatz needs n >= 2")
    if layers < 1:
        raise ConfigurationError("layers must be >= 1")
    gates: list[Gate] = []
    slot = 0
    for layer in range(layers):
        for q in range(n):
            # R(phi, theta, omega) = RY(phi) RZ(theta) RY(omega); omega acts first
            gates.append(Gate("ry", q, slot=slot + 2))
            gates.append(Gate("rz", q, slot=slot + 1))
            gates.append(Gate("ry", q, slot=slot))
            slot += 3
        offset = (layer % (n - 1)) + 1
        for q in range(n):
            gates.append(Gate("cnot", (q + offset) % n, control=q))
    return GateProgram(n_qubits=n, gates=tuple(gates), n_slots=slot)


def build_hardware_efficient_ry(n: int, layers: int) -> GateProgram:
    """Hadamards once on every qubit, then layers of RY rotations and a
    nearest-neighbour CNOT ring that closes between the last and first qubit."""
    if n < 2:
        raise ConfigurationError("hardware-efficient ansatz needs n >= 2")
    if layers < 1:
        raise ConfigurationError("layers must be >= 1")
    gates: list[Gate] = [Gate("h", q) for q in range(n)]
    slot = 0
    for _ in range(layers):
        for q in range(n):
            gates.append(Gate("ry", q, slot=slot))
            slot += 1
        for q in range(n):
            gates.append(Gate("cnot", (q + 1) % n, control=q))
    return GateProgram(n_qubits=n, gates=tuple(gates), n_slots=slot)


def build_ry_embedding(angles: np.ndarray) -> np.ndarray:
    """Product state (x)_i RY(theta_i)|0>: amplitudes kron(cos t/2, sin t/2)."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    state = np.array([1.0])
    for theta in angles:
        state = np.kron(state, np.array([np.cos(theta / 2.0), np.sin(theta / 2.0)]))
    return state.astype(complex)


# ---------------------------------------------------------------------------
# State evolution


def zero_state(n: int, batch: int | None = None) -> np.ndarray:
    dim = 1 << n
    if batch is None:
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
    else:
        state = np.zeros((batch, dim), dtype=complex)
        state[:, 0] = 1.0
    return state


def _ry_matrices(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    out = np.empty(theta.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def _rz_matrices(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(theta.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(-0.5j * theta)
    out[..., 1, 1] = np.exp(0.5j * theta)
    return out


def _apply_single(state: np.ndarray, mats: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Apply per-batch 2x2 matrices on one qubit; state shaped (B, 2^n)."""
    batch = state.shape[0]
    left = 1 << qubit
    right = 1 << (n - qubit - 1)
    s = state.reshape(batch, left, 2, right)
    if mats.ndim == 2:
        out = np.einsum("ij,aljr->alir", mats, s)
    else:
        out = np.einsum("aij,aljr->alir", mats, s)
    return out.reshape(batch, -1)


def _apply_cnot(state: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    batch = state.shape[0]
    s = state.reshape((batch,) + (2,) * n).copy()
    idx1 = [slice(None)] * (n + 1)
    idx1[1 + control] = 1
    sub = s[tuple(idx1)]  # view with control = 1
    t_axis = 1 + target - (1 if target > control else 0)
    s[tuple(idx1)] = np.flip(sub, axis=t_axis)
    return s.reshape(batch, -1)


def _apply_gate_batch(
    state: np.ndarray, gate: Gate, angles: np.ndarray, n: int, inverse: bool = False
) -> np.ndarray:
    if gate.kind == "cnot":
        return _apply_cnot(state, gate.control, gate.target, n)
    if gate.kind == "h":
        return _apply_single(state, _H_MATRIX, gate.target, n)
    theta = angles[..., gate.slot]
    if inverse:
        theta = -theta
    mats = _ry_matrices(theta) if gate.kind == "ry" else _rz_matrices(theta)
    return _apply_single(state, mats, gate.target, n)


def run_batch(program: GateProgram, angles: np.ndarray) -> np.ndarray:
    """Run the program for a batch of angle vectors; returns (B, 2^n)."""
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != program.n_slots:
        raise ContractViolation(
            f"expected angles shaped (batch, {program.n_slots}), got {angles.shape}"
        )
    state = zero_state(program.n_qubits, batch=angles.shape[0])
    for gate in program.gates:
        state = _apply_gate_batch(state, gate, angles, program.n_qubits)
    return state


def run(program: GateProgram, angles: np.ndarray) -> np.ndarray:
    """Run the program for one angle vector; returns the 2^n statevector."""
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (program.n_slots,):
        raise ContractViolation(
            f"expected {program.n_slots} angles, got shape {angles.shape}"
        )
    return run_batch(program, angles[None, :])[0]


# ---------------------------------------------------------------------------
# Observables


def expectation(state: np.ndarray, pauli: PauliString) -> float:
    """Re <s|P|s>; the imaginary part must vanish by Hermiticity."""
    value = np.vdot(state, pauli.apply(state))
    if abs(value.imag) > 1e-12 * max(1.0, abs(value.real)):
        raise ContractViolation(f"non-Hermitian expectation residue {value.imag:.3e}")
    return float(value.real)


def overlap(bra: np.ndarray, pauli: PauliString, ket: np.ndarray) -> complex:
    """Exact <bra|P|ket>."""
    return complex(np.vdot(bra, pauli.apply(ket)))


def expectation_of_expansion(state: np.ndarray, expansion: PauliExpansion) -> float:
    """Re sum_l c_l <s|P_l|s>."""
    total = 0.0 + 0.0j
    for string, coef in expansion:
        total += coef * np.vdot(state, string.apply(state))
    return float(total.real)


def overlap_of_expansion(bra: np.ndarray, expansion: PauliExpansion, ket: np.ndarray) -> complex:
    """sum_l c_l <bra|P_l|ket>."""
    total = 0.0 + 0.0j
    for string, coef in expansion:
        total += coef * np.vdot(bra, string.apply(ket))
    return complex(total)


@dataclass(frozen=True)
class OverlapObservable:
    """Linear functional Re sum_l c_l <bra|P_l|psi(theta)>."""

    bra: np.ndarray
    expansion: PauliExpansion


def grad_parameter_shift(program: GateProgram, angles: np.ndarray, observable) -> np.ndarray:
    """Two-point shift-rule gradient at +-pi/2 per slot.

    Expectation values of a PauliExpansion are trigonometric with period 2*pi
    in each angle, so the divisor is 2. An OverlapObservable is linear in the
    state and has period 4*pi, so the same +-pi/2 evaluations are divided by
    2*sqrt(2) = 4 sin(pi/4) instead.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (program.n_slots,):
        raise ContractViolation(f"expected {program.n_slots} angles")

    if isinstance(observable, PauliExpansion):
        evaluate = lambda a: expectation_of_expansion(run(program, a), observable)  # noqa: E731
        divisor = 2.0
    elif isinstance(observable, OverlapObservable):
        evaluate = lambda a: overlap_of_expansion(  # noqa: E731
            observable.bra, observable.expansion, run(program, a)
        ).real
        divisor = 2.0 * np.sqrt(2.0)
    else:
        raise ContractViolation("observable must be a PauliExpansion or OverlapObservable")

    grad = np.zeros(program.n_slots)
    for j in range(program.n_slots):
        shifted = angles.copy()
        shifted[j] += np.pi / 2.0
        plus = evaluate(shifted)
        shifted[j] -= np.pi
        minus = evaluate(shifted)
        grad[j] = (plus - minus) / divisor
    return grad


_GENERATORS = {"ry": "Y", "rz": "Z"}


def adjoint_gradient(
    program: GateProgram, angles: np.ndarray, states: np.ndarray, cotangents: np.ndarray
) -> np.ndarray:
    """Exact reverse-mode d L / d theta for a batch (Jones & Gacon, arXiv:2009.02823).

    states are the forward outputs run_batch(program, angles), which the
    caller already holds; cotangents hold dL/d(conj psi) per batch row, i.e.
    dL = 2 Re(lambda^dag d psi). Walks the gate list backwards, undoing each
    gate on both the state and the cotangent; for a rotation with generator P
    the slot gradient is Im(lambda^dag P psi) evaluated with the gate still
    applied.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != program.n_slots:
        raise ContractViolation("angles must be shaped (batch, n_slots)")
    n = program.n_qubits
    phi = np.asarray(states, dtype=complex)
    lam = np.asarray(cotangents, dtype=complex)
    if not phi.shape == lam.shape == (angles.shape[0], 1 << n):
        raise ContractViolation("states and cotangents must be shaped (batch, 2^n)")
    grads = np.zeros_like(angles)
    for gate in reversed(program.gates):
        if gate.kind in _GENERATORS:
            pauli = _single_qubit_pauli(_GENERATORS[gate.kind], gate.target, n)
            p_phi = pauli.apply(phi)
            grads[:, gate.slot] = np.einsum("bi,bi->b", lam.conj(), p_phi).imag
        phi = _apply_gate_batch(phi, gate, angles, n, inverse=True)
        lam = _apply_gate_batch(lam, gate, angles, n, inverse=True)
    return grads


def _single_qubit_pauli(letter: str, qubit: int, n: int) -> PauliString:
    bit = 1 << (n - 1 - qubit)
    x = bit if letter in ("X", "Y") else 0
    z = bit if letter in ("Z", "Y") else 0
    return PauliString(n, x, z)


# ---------------------------------------------------------------------------
# Shot-sampled estimation


def estimate_shots(
    state: np.ndarray,
    grouping: MeasurementGrouping,
    expansion: PauliExpansion,
    shots: int,
    rng_seed: int,
) -> dict:
    """Sampled estimate of Re sum_l c_l <P_l> using one circuit per group.

    Each group rotates the state into its shared measurement basis, draws a
    multinomial sample of bitstrings, and reuses those samples for every
    member term. Deterministic for a fixed seed.
    """
    if shots < 1:
        raise ContractViolation("shots must be >= 1")
    state = np.asarray(state, dtype=complex)
    n = expansion.n_qubits
    rng = np.random.default_rng(rng_seed)
    total = 0.0 + 0.0j
    for group, basis in zip(grouping.groups, grouping.basis_rotations):
        rotated = state[None, :]
        for q, letter in enumerate(basis):
            if letter == "X":
                rotated = _apply_single(rotated, _H_MATRIX, q, n)
            elif letter == "Y":
                rotated = _apply_single(rotated, _SDG_MATRIX, q, n)
                rotated = _apply_single(rotated, _H_MATRIX, q, n)
        probs = np.abs(rotated[0]) ** 2
        probs = probs / probs.sum()
        counts = rng.multinomial(shots, probs)
        nonzero = np.nonzero(counts)[0]
        for idx in group:
            string, coef = expansion.terms[idx]
            signs = 1.0 - 2.0 * (
                np.bitwise_count((nonzero & string.support_mask).astype(np.uint64)).astype(
                    np.int64
                )
                & 1
            )
            total += coef * float(np.sum(counts[nonzero] * signs) / shots)
    return {"estimate": float(total.real), "circuits_used": grouping.n_groups}


def dump_amplitudes(state: np.ndarray, path) -> None:
    """CSV dump index,re,im (debug aid)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,re,im\n")
        for i, amp in enumerate(np.asarray(state).reshape(-1)):
            fh.write(f"{i},{amp.real:.17g},{amp.imag:.17g}\n")
