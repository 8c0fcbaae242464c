"""Exact statevector simulation of the parameterized circuits.

Gate programs are flat sequences of ry/rz/hadamard/cnot; every rotation reads
its angle from a distinct slot so the two-point shift rule applies per slot.
States are complex arrays shaped (..., 2^n) with qubit 0 as the most
significant bit, and every operation accepts a leading batch axis so that a
whole training batch advances through the same program in lockstep.

A program is compiled once, on first use, into a short list of fused steps
(GateProgram.compiled) of two kinds: each run of CNOTs is one basis-index
gather, and a local step turns every qubit by one 2x2 unitary, the hadamards
that reached it since its last step followed by at most one rotation. A
program of h, ry and cnot alone has real amplitudes, so it runs in float64.
A run builds every local step's factors at once from Kronecker tables of the
qubit blocks (pairs, and a lone last qubit for odd n) and a step applies them
by one matmul per block. The forward run can record a Tape, which the adjoint
sweep walks back on the conjugate cotangent alone, undoing each local step by
the plain transposes of its taped factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .pauli import MeasurementGrouping, PauliExpansion

__all__ = [
    "Gate",
    "GateProgram",
    "Tape",
    "build_strongly_entangling",
    "build_hardware_efficient_ry",
    "build_ry_embedding",
    "zero_state",
    "run",
    "run_batch",
    "parameter_shift",
    "adjoint_gradient",
    "estimate_shots",
]

_H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
# measuring a letter is measuring Z after H (X) or H S^dag (Y); transposed
_MEASURE_T = {
    "X": _H_MATRIX.T,
    "Y": np.array([[1.0, 1.0], [-1.0j, 1.0j]]) / np.sqrt(2.0),
    "Z": np.eye(2, dtype=complex),
}
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


def zero_state(n: int, batch: int | None = None, dtype=complex) -> np.ndarray:
    dim = 1 << n
    if batch is None:
        state = np.zeros(dim, dtype=dtype)
        state[0] = 1.0
    else:
        state = np.zeros((batch, dim), dtype=dtype)
        state[:, 0] = 1.0
    return state


def _block_tables(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per qubit block, the Kronecker products of one term per qubit, for
    mats shaped (R, n, T, 2, 2): T terms per qubit and step. Pairs come shaped
    (n // 2, R, T * T, 16), a lone last qubit (n % 2, R, T, 4), flattened."""
    r, n, t = mats.shape[:3]
    p = n // 2
    pairs = np.einsum("rqaik,rqbjl->qrabijkl", mats[:, 0 : 2 * p : 2], mats[:, 1 : 2 * p : 2])
    return pairs.reshape(p, r, t * t, 16), mats[:, 2 * p :].swapaxes(0, 1).reshape(n % 2, r, t, 4)


def _block_factors(weights: np.ndarray, pair_tables: np.ndarray, lone_tables: np.ndarray) -> tuple:
    """Per block, every step's factors shaped (R, B, w, w) from real per-qubit
    term weights shaped (n, T, R, B): a pair's weight outer product, or a lone
    qubit's weights, times the block's table (a complex one as its float view)."""
    n, t, r, b = weights.shape
    p = n // 2
    outer = weights[0 : 2 * p : 2, :, None] * weights[1 : 2 * p : 2, None, :]  # (p, T, T, R, B)
    outer = outer.transpose(0, 3, 4, 1, 2).reshape(p, r, b, t * t)
    pairs = (outer @ pair_tables.view(float)).view(pair_tables.dtype).reshape(p, r, b, 4, 4)
    lones = weights[2 * p :].transpose(0, 2, 3, 1) @ lone_tables.view(float)
    return (*pairs, *lones.view(lone_tables.dtype).reshape(n % 2, r, b, 2, 2))


def _turn(state: np.ndarray, factors: list) -> np.ndarray:
    """Turn every qubit of a (B, 2^n) state by its own 2x2 matrix M_q, given per
    block as the Kronecker product F of its M_q^T, shaped (B, w, w): the first
    block by F^T from the left, the last by F from the right, and one in between
    (n >= 5) from the left between two transposing copies that rotate it first."""
    b, dim = state.shape
    head = factors[0].shape[-1]  # the dimension of the qubits before the next block
    state = factors[0].swapaxes(-1, -2) @ state.reshape(b, head, dim // head)
    for factor in factors[1:-1]:
        width, rest = factor.shape[-1], dim // head
        rotated = state.reshape(b, head, rest).swapaxes(-1, -2).reshape(b, width, dim // width)
        state = (factor.swapaxes(-1, -2) @ rotated).reshape(b, rest, head).swapaxes(-1, -2)
        head *= width
    if len(factors) > 1:
        width = factors[-1].shape[-1]
        state = state.reshape(b, dim // width, width) @ factors[-1]
    return state.reshape(b, dim)


@dataclass(frozen=True, eq=False)
class _Gather:
    """A run of CNOTs as one basis permutation: out[..., i] = state[..., perm[i]]."""

    perm: np.ndarray
    inverse: np.ndarray

    def apply(self, state: np.ndarray, factors) -> np.ndarray:
        return state.take(self.perm, axis=-1)

    def undo(self, state: np.ndarray, factors) -> np.ndarray:
        return state.take(self.inverse, axis=-1)


@dataclass(frozen=True, eq=False)
class _Local:
    """One step that turns every qubit q by U_q = R_q(theta) C_q.

    C_q is the product of the hadamards that reached q since its last step,
    and R_q(theta) = cos(theta/2) I + sin(theta/2) G the rotation, if any,
    that follows them. The step applies slice `row` of _Compiled.factors;
    their plain transposes undo it on the conjugate cotangent. Since
    dU_q/dtheta = G U_q / 2, qubit q's slot (slot_of_qubit[row, q]) reads G on
    the state with the step applied, where (G psi)[i] = phase[q, i] * psi[index[q, i]].
    A qubit the step does not rotate has slot -1 and phase 0.
    """

    row: int
    index: np.ndarray  # (n, 2^n)
    phase: np.ndarray  # (n, 2^n)

    def apply(self, state: np.ndarray, factors) -> np.ndarray:
        return _turn(state, [block[self.row] for block in factors])

    undo = apply

    def gradient(self, phi: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """Re(mu^T G_q phi) = Re(lambda^dag G_q phi) = d L / d theta per qubit's
        slot, for mu = conj(lambda) and phi with the step applied."""
        return np.einsum("bki,ki,bi->bk", phi[:, self.index], self.phase, mu).real


@dataclass(frozen=True, eq=False)
class _Compiled:
    """The fused steps of a program and the per-qubit data of its R local
    steps. Qubit q of local step r turns by U = cos(theta/2) C + sin(theta/2) G C
    with theta from slot slot_of_qubit[r, q]; where the step rotates q not at
    all, the slot is -1, which reads a zero angle, and G C is 0, so U = C."""

    steps: tuple
    slot_of_qubit: np.ndarray  # (R, n)
    fixed_t: np.ndarray  # (R, n, 2, 2): each C transposed
    turned_t: np.ndarray  # (R, n, 2, 2): each G C transposed; float64 like fixed_t when real
    tables: tuple  # _block_tables of each C^T and (G C)^T, weighed by cos and sin

    def factors(self, angles: np.ndarray) -> tuple:
        """Every local step's block factors, the Kronecker products of the
        block's U^T, for a batch of angles (see _block_factors)."""
        padded = np.concatenate((angles, np.zeros((len(angles), 1))), axis=1)
        half = padded.T[self.slot_of_qubit.T] * 0.5  # (n, R, B)
        return _block_factors(np.stack((np.cos(half), np.sin(half)), axis=1), *self.tables)


def _compile(program: GateProgram) -> _Compiled:
    """Fuse the gate list into steps along an as-soon-as-possible schedule.

    A gate joins the first step of its kind after the last step that touched
    its qubits, and a new step at the end when there is none; every step it
    passes acts on other qubits, so it commutes with them. It may also join
    that last step itself where the step composes it in order: a cnot joins a
    gather, and an h or a rotation joins a local step that has not rotated
    its qubit yet. So a local step turns each qubit by its hadamards, then at
    most one rotation, and an h after a rotation starts the next local step.
    """
    n = program.n_qubits
    runs: list[tuple[str, list[Gate]]] = []
    last = [-1] * n  # the last step that touched each qubit
    open_turn = [False] * n  # whether that step is local and has not rotated the qubit
    for gate in program.gates:
        kind = "cnot" if gate.kind == "cnot" else "local"
        qubits = (gate.control, gate.target) if kind == "cnot" else (gate.target,)
        touched = max(last[q] for q in qubits)
        first = touched if kind == "cnot" or open_turn[gate.target] else touched + 1
        at = next((i for i in range(max(first, 0), len(runs)) if runs[i][0] == kind), len(runs))
        if at == len(runs):
            runs.append((kind, []))
        runs[at][1].append(gate)
        for q in qubits:
            last[q] = at
            open_turn[q] = gate.kind == "h"

    rows = [gates for kind, gates in runs if kind == "local"]
    slot_of_qubit = np.full((len(rows), n), -1)
    fixed_t = np.zeros((len(rows), n, 2, 2), dtype=complex) + np.eye(2)
    generators = np.zeros((len(rows), n, 2, 2), dtype=complex)
    for row, gates in enumerate(rows):
        for g in gates:
            if g.kind == "h":  # (H C)^T = C^T H^T
                fixed_t[row, g.target] = fixed_t[row, g.target] @ _H_MATRIX.T
            else:
                slot_of_qubit[row, g.target] = g.slot
                generators[row, g.target] = _GENERATOR[g.kind]
    # each G is diagonal, or anti-diagonal and flips its qubit's bit; an unrotated qubit's is 0
    masks = 1 << np.arange(n - 1, -1, -1)[:, None]  # (n, 1)
    bits = (np.arange(1 << n) & masks != 0).astype(int)  # (n, 2^n)
    flips = (generators[..., 0, 0] == 0)[..., None]  # (R, n, 1)
    index = np.arange(1 << n) ^ (masks * flips)  # (R, n, 2^n)
    phase = np.take_along_axis(  # G[b, b ^ flip] for the qubit's bit b of each basis index
        generators.reshape(len(rows), n, 4), 2 * bits + (bits ^ flips), axis=-1
    )
    tables = (fixed_t, fixed_t @ generators.swapaxes(-1, -2), phase)
    real = not any(np.any(table.imag) for table in tables)  # no rz: real amplitudes throughout
    fixed_t, turned_t, phase = (table.real.copy() if real else table for table in tables)
    steps, row = [], 0
    for kind, gates in runs:
        if kind == "cnot":
            steps.append(_build_gather(gates, n))
        else:
            steps.append(_Local(row, index[row], phase[row]))
            row += 1
    tables = _block_tables(np.stack((fixed_t, turned_t), axis=2))
    return _Compiled(tuple(steps), slot_of_qubit, fixed_t, turned_t, tables)


def _build_gather(gates: list[Gate], n: int) -> _Gather:
    index = np.arange(1 << n)
    perm = index
    for gate in gates:
        control = 1 << (n - 1 - gate.control)
        target = 1 << (n - 1 - gate.target)
        perm = perm[np.where(index & control, index ^ target, index)]
    return _Gather(perm, np.argsort(perm))


@dataclass
class Tape:
    """What run_batch leaves for adjoint_gradient: the block factors of every
    local step, and the state right after each, in the program's table dtype."""

    factors: tuple = ()
    states: list = field(default_factory=list)


def run_batch(program: GateProgram, angles: np.ndarray, tape: Tape | None = None) -> np.ndarray:
    """Run the program for a batch of angle vectors; returns (B, 2^n) complex128.
    A given tape records the run for adjoint_gradient on the same angles."""
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != program.n_slots:
        raise ContractViolation(
            f"expected angles shaped (batch, {program.n_slots}), got {angles.shape}"
        )
    compiled = program.compiled
    factors = compiled.factors(angles)
    state = zero_state(program.n_qubits, angles.shape[0], compiled.fixed_t.dtype)
    if tape is not None:
        tape.factors, tape.states = factors, []
    for step in compiled.steps:
        state = step.apply(state, factors)
        if tape is not None and isinstance(step, _Local):
            tape.states.append(state)
    return state.astype(complex, copy=False)


def run(program: GateProgram, angles: np.ndarray) -> np.ndarray:
    """Run the program for one angle vector; returns the 2^n statevector."""
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (program.n_slots,):
        raise ContractViolation(
            f"expected {program.n_slots} angles, got shape {angles.shape}"
        )
    return run_batch(program, angles[None, :])[0]


# ---------------------------------------------------------------------------
# Gradients


def parameter_shift(program: GateProgram, angles: np.ndarray, measure):
    """Two-point shift-rule derivatives for a batch (Schuld et al., arXiv:1811.11184).

    Runs every row's 2S angle vectors theta +- (pi/2) e_j in one run_batch and
    hands the states, shaped (B, 2S, 2^n) with the + shifts first, to measure.
    It returns a (linear, quadratic) pair shaped (B, 2S): a value linear in the
    state, like <F|A psi>, has period 4*pi in each angle, so its difference is
    divided by 2*sqrt(2) = 4 sin(pi/4); a quadratic one, like <psi|O|psi>, has
    period 2*pi and is divided by 2. Returns both derivatives, shaped (B, S).
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != program.n_slots:
        raise ContractViolation("angles must be shaped (batch, n_slots)")
    b, s = angles.shape
    shifts = (np.pi / 2.0) * np.concatenate([np.eye(s), -np.eye(s)])
    states = run_batch(program, (angles[:, None, :] + shifts).reshape(b * 2 * s, s))
    linear, quadratic = measure(states.reshape(b, 2 * s, 1 << program.n_qubits))
    return (
        (linear[:, :s] - linear[:, s:]) / (2.0 * np.sqrt(2.0)),
        (quadratic[:, :s] - quadratic[:, s:]) / 2.0,
    )


def adjoint_gradient(
    program: GateProgram, angles: np.ndarray, cotangents: np.ndarray, tape: Tape | None = None
) -> np.ndarray:
    """Exact reverse-mode d L / d theta for a batch (Jones & Gacon, arXiv:2009.02823).

    cotangents hold dL/d(conj psi) per row, i.e. dL = 2 Re(lambda^dag d psi), for
    psi = run_batch(program, angles, tape); without a tape this records one.
    Walks the steps backwards on mu = conj(lambda) alone, undoing a gather by its
    inverse permutation and a local step by the plain transposes of its taped
    factors (conj(U^dag lambda) = U^T mu). A rotation R = exp(theta G / 2)
    contributes Re(lambda^dag G psi), psi the taped state with its step applied;
    the turns of one step act on distinct qubits and commute, so every slot of
    the step reads the same pair. A real program walks only Re(mu) = Re(lambda).
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != program.n_slots:
        raise ContractViolation("angles must be shaped (batch, n_slots)")
    lam = np.asarray(cotangents, dtype=complex)
    if lam.shape != (angles.shape[0], 1 << program.n_qubits):
        raise ContractViolation("cotangents must be shaped (batch, 2^n)")
    if tape is None:
        tape = Tape()
        run_batch(program, angles, tape)
    compiled = program.compiled
    mu = lam.conj() if compiled.fixed_t.dtype == complex else lam.real
    factors = tuple(np.ascontiguousarray(f.swapaxes(-1, -2)) for f in tape.factors)
    states = reversed(tape.states)
    columns = [np.zeros((len(angles), 0))]  # per local step, last first
    for step in reversed(compiled.steps):
        if isinstance(step, _Local):
            columns.append(step.gradient(next(states), mu))
        mu = step.undo(mu, factors)
    grads = np.zeros((len(angles), program.n_slots + 1))  # slot -1 takes unrotated qubits
    grads[:, compiled.slot_of_qubit[::-1].ravel()] = np.concatenate(columns, axis=1)
    return grads[:, :-1]


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
    rng = np.random.default_rng(rng_seed)
    total = 0.0 + 0.0j
    supports = (expansion.x_bits | expansion.z_bits).tolist()
    coefs = expansion.coefficients.tolist()
    for group, basis in zip(grouping.groups, grouping.basis_rotations):
        turn = np.array([[[_MEASURE_T[letter]] for letter in basis]])  # (1, n, 1, 2, 2)
        factors = _block_factors(np.ones((len(basis), 1, 1, 1)), *_block_tables(turn))
        probs = np.abs(_turn(state[None, :], [block[0] for block in factors])[0]) ** 2
        probs = probs / probs.sum()
        counts = rng.multinomial(shots, probs)
        nonzero = np.nonzero(counts)[0]
        for idx in group:
            signs = 1.0 - 2.0 * (np.bitwise_count(nonzero & supports[idx]) & 1)
            total += coefs[idx] * float(np.sum(counts[nonzero] * signs) / shots)
    return {"estimate": float(total.real), "circuits_used": grouping.n_groups}

