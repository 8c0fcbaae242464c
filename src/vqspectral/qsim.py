"""Exact statevector simulation of the parameterized circuits.

Gate programs are flat sequences of ry/rz/hadamard/cnot; every rotation reads
its angle from a distinct slot so the two-point shift rule applies per slot.
States are complex arrays shaped (..., 2^n) with qubit 0 as the most
significant bit, and every operation accepts a leading batch axis so that a
whole training batch advances through the same program in lockstep.

A program is compiled once, on first use, into a short list of fused steps
(GateProgram.compiled): each run of CNOTs is one basis-index gather, each run of
hadamards one constant matrix, and each set of rotations on distinct qubits
one rotation step. The forward run and the adjoint sweep walk the same list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
# G = -i P per rotation kind, so that R(theta) = cos(theta/2) I + sin(theta/2) G
_GENERATOR = {
    "ry": np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex),
    "rz": np.array([[-1.0j, 0.0], [0.0, 1.0j]], dtype=complex),
}


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
            if gate.kind in _GENERATOR:
                if not 0 <= gate.slot < self.n_slots:
                    raise ContractViolation(f"slot {gate.slot} out of range")
                seen_slots.append(gate.slot)
            elif gate.kind not in ("h", "cnot"):
                raise ContractViolation(f"unknown gate kind {gate.kind!r}")
        if sorted(seen_slots) != list(range(self.n_slots)):
            raise ContractViolation("each angle slot must feed exactly one rotation")

    @cached_property
    def compiled(self) -> _Compiled:
        """The fused steps, compiled on first use and kept on the program."""
        return _compile(self)


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


def _apply_single(state: np.ndarray, matrix: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Apply one 2x2 matrix on one qubit; state shaped (B, 2^n)."""
    batch = state.shape[0]
    s = state.reshape(batch, 1 << qubit, 2, 1 << (n - qubit - 1))
    return np.einsum("ij,aljr->alir", matrix, s).reshape(batch, -1)


@dataclass(frozen=True, eq=False)
class _Gather:
    """A run of CNOTs as one basis permutation: out[..., i] = state[..., perm[i]]."""

    perm: np.ndarray
    inverse: np.ndarray

    def apply(self, state: np.ndarray, factors) -> np.ndarray:
        return state[..., self.perm]

    def undo(self, state: np.ndarray, factors) -> np.ndarray:
        return state[..., self.inverse]


@dataclass(frozen=True, eq=False)
class _Fixed:
    """A run of hadamards as one constant matrix M, applied as state @ M^T."""

    forward: np.ndarray  # M^T
    backward: np.ndarray  # (M^dag)^T

    def apply(self, state: np.ndarray, factors) -> np.ndarray:
        return (state.reshape(-1, state.shape[-1]) @ self.forward).reshape(state.shape)

    def undo(self, state: np.ndarray, factors) -> np.ndarray:
        return (state.reshape(-1, state.shape[-1]) @ self.backward).reshape(state.shape)


@dataclass(frozen=True, eq=False)
class _Rotations:
    """Rotations on distinct qubits, which commute, applied as one step.

    The step applies row `row` of the factors that _Compiled.factors builds:
    one 4x4 Kronecker factor per qubit pair (0, 1), (2, 3), ... and a lone
    2x2 for odd n. Each factor multiplies the state's leading qubits from the
    right, transposed, and leaves them last, so after all of them the state is
    back in its own qubit order; factors built from the negated angles undo
    the step the same way. For the step's k slots, the tables give
    (G_j psi)[i] = phase[j, i] * psi[index[j, i]], since every generator is
    diagonal or anti-diagonal.
    """

    row: int
    slots: np.ndarray  # (k,)
    index: np.ndarray  # (k, 2^n)
    phase: np.ndarray  # (k, 2^n)

    def apply(self, state: np.ndarray, factors) -> np.ndarray:
        shape = state.shape
        for group in factors:
            for factor in group[:, self.row].swapaxes(0, 1):
                width = factor.shape[-1]
                block = state.reshape(shape[:-1] + (width, -1)).swapaxes(-1, -2)
                state = (block.reshape(shape[0], -1, width) @ factor).reshape(shape)
        return state

    undo = apply

    def gradient(self, stacked: np.ndarray) -> np.ndarray:
        """Re(lambda^dag G_j phi) = d L / d theta_j for every slot, stacked (B, 2, 2^n)."""
        phi, lam = stacked[:, 0], stacked[:, 1]
        return np.einsum("bki,ki,bi->bk", phi[:, self.index], self.phase, lam.conj()).real


@dataclass(frozen=True, eq=False)
class _Compiled:
    """The fused steps of a program and the per-qubit data of its R rotation
    steps. Qubit q of rotation step r turns by cos(theta/2) I + sin(theta/2) G
    with theta from slot slot_of_qubit[r, q]; where the step leaves q alone,
    scale and G are 0, which gives I."""

    steps: tuple
    slot_of_qubit: np.ndarray  # (R, n)
    scale: np.ndarray  # (R, n): 0.5 where the step turns the qubit, else 0
    generators_t: np.ndarray  # (R, n, 2, 2), each G transposed

    def factors(self, angles: np.ndarray, sign: float) -> tuple[np.ndarray, np.ndarray]:
        """Every rotation step's factors for sign * angles in one vectorized pass:
        pair factors (B, R, n // 2, 4, 4) and lone factors (B, R, n % 2, 2, 2)."""
        half = angles[:, self.slot_of_qubit] * (sign * self.scale)
        mats = np.cos(half)[..., None, None] * np.eye(2) + np.sin(half)[..., None, None] * (
            self.generators_t
        )  # (B, R, n, 2, 2)
        pairs = mats.shape[2] // 2
        kron = mats[:, :, 0 : 2 * pairs : 2, :, None, :, None] * mats[:, :, 1::2, None, :, None, :]
        return kron.reshape(kron.shape[:3] + (4, 4)), mats[:, :, 2 * pairs :]


def _compile(program: GateProgram) -> _Compiled:
    """Fuse the gate list into steps along an as-soon-as-possible schedule.

    A gate joins the first step of its kind after the last step that touched
    its qubits, and a new step at the end when there is none; every step it
    passes acts on other qubits, so it commutes with them. An h or cnot may
    also join that last step itself, since a fixed step composes its gates in
    order; a rotation may not, so a rotation step holds each qubit once.
    """
    n = program.n_qubits
    runs: list[tuple[str, list[Gate]]] = []
    last = [-1] * n  # the last step that touched each qubit
    for gate in program.gates:
        kind = "rot" if gate.kind in _GENERATOR else gate.kind
        qubits = (gate.control, gate.target) if kind == "cnot" else (gate.target,)
        touched = max(last[q] for q in qubits)
        first = touched + 1 if kind == "rot" else max(touched, 0)
        at = next((i for i in range(first, len(runs)) if runs[i][0] == kind), len(runs))
        if at == len(runs):
            runs.append((kind, []))
        runs[at][1].append(gate)
        for q in qubits:
            last[q] = at

    steps, rotations = [], []
    for kind, gates in runs:
        if kind == "rot":
            steps.append(_build_rotations(gates, n, row=len(rotations)))
            rotations.append(gates)
        else:
            steps.append(_build_gather(gates, n) if kind == "cnot" else _build_fixed(gates, n))
    slot_of_qubit = np.zeros((len(rotations), n), dtype=int)
    scale = np.zeros((len(rotations), n))
    generators_t = np.zeros((len(rotations), n, 2, 2), dtype=complex)
    for row, gates in enumerate(rotations):
        for g in gates:
            slot_of_qubit[row, g.target] = g.slot
            scale[row, g.target] = 0.5
            generators_t[row, g.target] = _GENERATOR[g.kind].T
    return _Compiled(tuple(steps), slot_of_qubit, scale, generators_t)


def _build_gather(gates: list[Gate], n: int) -> _Gather:
    index = np.arange(1 << n)
    perm = index
    for gate in gates:
        control = 1 << (n - 1 - gate.control)
        target = 1 << (n - 1 - gate.target)
        perm = perm[np.where(index & control, index ^ target, index)]
    return _Gather(perm, np.argsort(perm))


def _build_fixed(gates: list[Gate], n: int) -> _Fixed:
    rows = np.eye(1 << n, dtype=complex)  # row j evolves to (M e_j)^T, so rows ends as M^T
    for gate in gates:
        rows = _apply_single(rows, _H_MATRIX, gate.target, n)
    return _Fixed(rows, rows.conj().T.copy())


def _build_rotations(gates: list[Gate], n: int, row: int) -> _Rotations:
    generators = np.stack([_GENERATOR[g.kind] for g in gates])  # (k, 2, 2)
    flips = (generators[:, 0, 0] == 0)[:, None]  # an anti-diagonal G flips its qubit's bit
    masks = np.array([1 << (n - 1 - g.target) for g in gates])[:, None]
    index = np.arange(1 << n)
    bits = (index & masks != 0).astype(int)  # (k, 2^n)
    return _Rotations(
        row=row,
        slots=np.array([g.slot for g in gates]),
        index=index ^ (masks * flips),
        phase=generators[np.arange(len(gates))[:, None], bits, bits ^ flips],
    )


def run_batch(program: GateProgram, angles: np.ndarray) -> np.ndarray:
    """Run the program for a batch of angle vectors; returns (B, 2^n)."""
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != program.n_slots:
        raise ContractViolation(
            f"expected angles shaped (batch, {program.n_slots}), got {angles.shape}"
        )
    compiled = program.compiled
    factors = compiled.factors(angles, 1.0)
    state = zero_state(program.n_qubits, batch=angles.shape[0])
    for step in compiled.steps:
        state = step.apply(state, factors)
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


def adjoint_gradient(
    program: GateProgram, angles: np.ndarray, states: np.ndarray, cotangents: np.ndarray
) -> np.ndarray:
    """Exact reverse-mode d L / d theta for a batch (Jones & Gacon, arXiv:2009.02823).

    states are the forward outputs run_batch(program, angles), which the
    caller already holds; cotangents hold dL/d(conj psi) per batch row, i.e.
    dL = 2 Re(lambda^dag d psi). Walks the compiled steps backwards, undoing
    each on the state and the cotangent stacked as one (B, 2, 2^n) array. A
    rotation R = exp(theta G / 2) contributes Re(lambda^dag G psi) evaluated
    with its step still applied; the rotations of one step commute, so every
    slot of the step reads the same pair.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != program.n_slots:
        raise ContractViolation("angles must be shaped (batch, n_slots)")
    phi = np.asarray(states, dtype=complex)
    lam = np.asarray(cotangents, dtype=complex)
    if not phi.shape == lam.shape == (angles.shape[0], 1 << program.n_qubits):
        raise ContractViolation("states and cotangents must be shaped (batch, 2^n)")
    compiled = program.compiled
    factors = compiled.factors(angles, -1.0)
    stacked = np.stack((phi, lam), axis=1)
    grads = np.zeros_like(angles)
    for step in reversed(compiled.steps):
        if isinstance(step, _Rotations):
            grads[:, step.slots] = step.gradient(stacked)
        stacked = step.undo(stacked, factors)
    return grads


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
