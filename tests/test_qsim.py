import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqspectral import pauli as pl
from vqspectral import qsim
from vqspectral.errors import ConfigurationError, ContractViolation

from conftest import expectation, program_unitary, random_program, shift_gradient


# ---------------------------------------------------------------------------
# Builders


def test_strongly_entangling_slot_count():
    assert qsim.build_strongly_entangling(4, 12).n_slots == 144


def test_strongly_entangling_two_qubit_ring():
    program = qsim.build_strongly_entangling(2, 1)
    assert program.n_slots == 6
    cnots = [(g.control, g.target) for g in program.gates if g.kind == "cnot"]
    assert cnots == [(0, 1), (1, 0)]


def test_strongly_entangling_offset_varies_by_layer():
    program = qsim.build_strongly_entangling(4, 3)
    cnots = [(g.control, g.target) for g in program.gates if g.kind == "cnot"]
    # layer offsets cycle 1, 2, 3 for n = 4
    assert cnots[0] == (0, 1)
    assert cnots[4] == (0, 2)
    assert cnots[8] == (0, 3)


def test_zero_angles_prepare_vacuum():
    program = qsim.build_strongly_entangling(3, 2)
    state = qsim.run(program, np.zeros(program.n_slots))
    assert abs(state[0] - 1.0) <= 1e-12
    assert np.abs(state[1:]).max() <= 1e-12


def test_hardware_efficient_slot_count():
    assert qsim.build_hardware_efficient_ry(3, 2).n_slots == 6


def test_hardware_efficient_uniform_at_zero_angles():
    program = qsim.build_hardware_efficient_ry(2, 1)
    state = qsim.run(program, np.zeros(2))
    assert np.abs(state - 0.5).max() <= 1e-12


def test_hardware_efficient_states_are_real(rng):
    program = qsim.build_hardware_efficient_ry(3, 3)
    for _ in range(20):
        state = qsim.run(program, rng.uniform(0, 2 * np.pi, program.n_slots))
        assert np.abs(state.imag).max() <= 1e-12


def test_builders_reject_single_qubit():
    with pytest.raises(ConfigurationError):
        qsim.build_strongly_entangling(1, 1)
    with pytest.raises(ConfigurationError):
        qsim.build_hardware_efficient_ry(1, 1)


def test_ry_embedding_examples():
    assert np.abs(qsim.build_ry_embedding([0.0, 0.0]) - [1, 0, 0, 0]).max() <= 1e-12
    assert np.abs(qsim.build_ry_embedding([np.pi]) - [0, 1]).max() <= 1e-12
    assert np.abs(qsim.build_ry_embedding([np.pi / 2, np.pi / 2]) - 0.5).max() <= 1e-12


# ---------------------------------------------------------------------------
# Simulation vs dense oracle


def test_empty_program_is_vacuum():
    program = qsim.GateProgram(2, (), 0)
    state = qsim.run(program, np.zeros(0))
    assert np.array_equal(state, [1, 0, 0, 0])


def test_random_programs_match_dense_oracle(rng):
    for _ in range(100):
        n = int(rng.integers(1, 4))
        program = random_program(n, rng)
        angles = rng.uniform(0, 2 * np.pi, program.n_slots)
        fast = qsim.run(program, angles)
        dense = program_unitary(program, angles) @ qsim.zero_state(n)
        assert np.abs(fast - dense).max() <= 1e-12
        assert abs(np.linalg.norm(fast) - 1.0) <= 1e-12


def test_run_batch_matches_singles(rng):
    program = qsim.build_strongly_entangling(3, 2)
    angles = rng.uniform(0, 2 * np.pi, (5, program.n_slots))
    batch = qsim.run_batch(program, angles)
    for i in range(5):
        assert np.abs(batch[i] - qsim.run(program, angles[i])).max() <= 1e-14


def test_slot_mismatch_rejected():
    program = qsim.build_hardware_efficient_ry(2, 1)
    with pytest.raises(ContractViolation):
        qsim.run(program, np.zeros(3))


def test_multiuse_slot_rejected():
    gates = (qsim.Gate("ry", 0, slot=0), qsim.Gate("ry", 1, slot=0))
    with pytest.raises(ContractViolation):
        qsim.GateProgram(2, gates, 1)


def test_unknown_gate_kind_rejected():
    with pytest.raises(ContractViolation, match="'x'"):
        qsim.GateProgram(1, (qsim.Gate("x", 0),), 0)


# ---------------------------------------------------------------------------
# Compiled steps


@pytest.mark.parametrize("layers", [1, 2, 3, 8])
def test_compiled_step_counts_fixed_per_layer(layers):
    # each layer is one local step and one gather; HE-RY's hadamards join its
    # first local step, and SE's RY RZ RY take three local steps
    hardware = {len(qsim.build_hardware_efficient_ry(n, layers).compiled.steps) for n in range(2, 7)}
    entangling = {len(qsim.build_strongly_entangling(n, layers).compiled.steps) for n in range(2, 7)}
    assert hardware == {2 * layers}
    assert entangling == {4 * layers}


def test_program_compiles_once(monkeypatch, rng):
    compiled = []
    real = qsim._compile
    monkeypatch.setattr(qsim, "_compile", lambda program: compiled.append(program) or real(program))
    program = qsim.build_strongly_entangling(3, 2)
    angles = rng.uniform(0, 2 * np.pi, (2, program.n_slots))
    first = qsim.run_batch(program, angles)
    steps = program.compiled.steps
    second = qsim.run_batch(program, angles)
    qsim.adjoint_gradient(program, angles, first)
    assert compiled == [program] and program.compiled.steps is steps
    assert np.array_equal(first, second)


_G = qsim.Gate
SCHEDULING_CASES = {
    # after the CNOTs, each qubit turns again, though an earlier rotation
    # step (the rz on qubit 1 alone) has room for qubits 0 and 2
    "rotation_after_cnot": qsim.GateProgram(
        3,
        (
            _G("ry", 0, slot=0), _G("ry", 1, slot=1), _G("ry", 2, slot=2),
            _G("rz", 1, slot=3), _G("cnot", 1, control=0), _G("ry", 1, slot=4),
            _G("cnot", 0, control=2), _G("ry", 2, slot=5), _G("rz", 0, slot=6),
        ),
        7,
    ),
    "h_between_rotations": qsim.GateProgram(
        2,
        (
            _G("ry", 0, slot=0), _G("h", 0), _G("ry", 0, slot=1), _G("rz", 1, slot=2),
            _G("h", 1), _G("h", 0), _G("rz", 1, slot=3), _G("cnot", 1, control=0),
        ),
        4,
    ),
    "rz_between_rys": qsim.GateProgram(
        2,
        (
            _G("h", 0), _G("ry", 0, slot=0), _G("rz", 0, slot=1), _G("ry", 0, slot=2),
            _G("ry", 1, slot=3), _G("cnot", 0, control=1), _G("rz", 1, slot=4),
        ),
        5,
    ),
    # the h after qubit 0's last rotation leaves a trailing local step with no rotation
    "h_after_last_rotation": qsim.GateProgram(
        2,
        (
            _G("ry", 0, slot=0), _G("ry", 1, slot=1), _G("cnot", 1, control=0),
            _G("rz", 0, slot=2), _G("h", 0),
        ),
        3,
    ),
    # qubit 1 idles, so both of qubit 0's local steps turn it by the identity
    "h_ry_h_rz_beside_idle_qubit": qsim.GateProgram(
        2,
        (_G("h", 0), _G("ry", 0, slot=0), _G("h", 0), _G("rz", 0, slot=1)),
        2,
    ),
}


@pytest.mark.parametrize("name", sorted(SCHEDULING_CASES))
def test_scheduling_cases_match_references(name, rng):
    program = SCHEDULING_CASES[name]
    dim = 1 << program.n_qubits
    angles = rng.uniform(0, 2 * np.pi, (3, program.n_slots))
    states = qsim.run_batch(program, angles)
    for row, state in zip(angles, states):
        dense = program_unitary(program, row) @ qsim.zero_state(program.n_qubits)
        assert np.abs(state - dense).max() <= 1e-13
    matrix = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    observable = pl.decompose(matrix + matrix.conj().T)
    cotangents = states @ observable.to_matrix().T
    adj = qsim.adjoint_gradient(program, angles, cotangents)
    for grad, shift in zip(adj, shift_gradient(program, angles, observable)):
        assert np.abs(grad - shift).max() <= 1e-13 * max(1.0, np.abs(shift).max())


# ---------------------------------------------------------------------------
# Parameter-shift gradients


def test_shift_rule_single_rotation():
    program = qsim.GateProgram(1, (qsim.Gate("ry", 0, slot=0),), 1)
    observable = pl.PauliExpansion(1, ((pl.PauliString.from_text("Z"), 1.0 + 0j),))
    grad = shift_gradient(program, np.array([[np.pi / 3]]), observable)[0]
    assert grad[0] == pytest.approx(-np.sin(np.pi / 3), abs=1e-12)


def test_shift_rule_identity_observable_is_flat(rng):
    program = qsim.build_hardware_efficient_ry(2, 2)
    observable = pl.PauliExpansion(2, ((pl.PauliString.from_text("II"), 1.0 + 0j),))
    grad = shift_gradient(program, rng.uniform(0, 2 * np.pi, (1, program.n_slots)), observable)
    assert np.abs(grad).max() <= 1e-12


def _finite_difference(fn, angles, h=1e-5):
    out = np.zeros_like(angles)
    for j in range(len(angles)):
        plus = angles.copy()
        plus[j] += h
        minus = angles.copy()
        minus[j] -= h
        out[j] = (fn(plus) - fn(minus)) / (2 * h)
    return out


def test_shift_rule_matches_finite_difference_expectation(rng):
    program = qsim.build_hardware_efficient_ry(3, 2)
    matrix = rng.standard_normal((8, 8))
    observable = pl.decompose(matrix + matrix.T)
    angles = rng.uniform(0, 2 * np.pi, program.n_slots)
    grad = shift_gradient(program, angles[None], observable)[0]
    fd = _finite_difference(lambda a: expectation(qsim.run(program, a), observable), angles)
    scale = max(np.abs(fd).max(), 1e-12)
    assert np.abs(grad - fd).max() / scale <= 1e-5


def test_shift_rule_matches_finite_difference_overlap(rng):
    program = qsim.build_strongly_entangling(3, 1)
    matrix = rng.standard_normal((8, 8))
    expansion = pl.decompose(matrix)
    bra = rng.standard_normal(8).astype(complex)
    bra /= np.linalg.norm(bra)
    dense = expansion.to_matrix()

    def measure(states):  # Re <bra|E|psi> is linear in the state
        linear = np.einsum("i,ij,bsj->bs", bra.conj(), dense, states)
        return linear, np.zeros(linear.shape)

    angles = rng.uniform(0, 2 * np.pi, program.n_slots)
    grad = qsim.parameter_shift(program, angles[None], measure)[0][0].real
    fd = _finite_difference(lambda a: np.vdot(bra, dense @ qsim.run(program, a)).real, angles)
    scale = max(np.abs(fd).max(), 1e-12)
    assert np.abs(grad - fd).max() / scale <= 1e-5


def test_gradient_property_many_random_programs(rng):
    z_on_0 = {1: "Z", 2: "ZI", 3: "ZII"}
    checked = 0
    while checked < 100:
        n = int(rng.integers(1, 4))
        program = random_program(n, rng)
        if program.n_slots == 0:
            continue
        observable = pl.PauliExpansion(
            n, ((pl.PauliString.from_text(z_on_0[n]), 1.0 + 0j),)
        )
        angles = rng.uniform(0, 2 * np.pi, program.n_slots)
        grad = shift_gradient(program, angles[None], observable)[0]
        fd = _finite_difference(lambda a: expectation(qsim.run(program, a), observable), angles)
        assert np.abs(grad - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())
        checked += 1


def test_adjoint_gradient_matches_shift(rng):
    program = qsim.build_strongly_entangling(3, 2)
    matrix = rng.standard_normal((8, 8))
    observable = pl.decompose(matrix + matrix.T)
    dense = observable.to_matrix()
    angles = rng.uniform(0, 2 * np.pi, (2, program.n_slots))
    states = qsim.run_batch(program, angles)
    cotangents = np.stack([dense @ states[i] for i in range(2)])  # dE/d(conj psi)
    adj = qsim.adjoint_gradient(program, angles, cotangents)
    for grad, shift in zip(adj, shift_gradient(program, angles, observable)):
        assert np.abs(grad - shift).max() <= 1e-8 * max(1.0, np.abs(shift).max())


def test_adjoint_gradient_rejects_mismatched_states(rng):
    program = qsim.build_hardware_efficient_ry(2, 1)
    angles = rng.uniform(0, 2 * np.pi, (2, program.n_slots))
    states = qsim.run_batch(program, angles)
    with pytest.raises(ContractViolation):
        qsim.adjoint_gradient(program, angles, states[:1])
    with pytest.raises(ContractViolation):
        qsim.adjoint_gradient(program, angles, states[:, :2])


# ---------------------------------------------------------------------------
# Real programs and the tape


def _real_programs(rng, count=30):
    """HE-RY at n = 2..5, then random programs of h, ry and cnot alone."""
    programs = [qsim.build_hardware_efficient_ry(n, 3) for n in range(2, 6)]
    while len(programs) < count:
        program = random_program(int(rng.integers(1, 5)), rng, kinds=("ry", "h", "cnot"))
        if program.n_slots:
            programs.append(program)
    return programs


def _assert_adjoint_matches_shift(program, angles, rng):
    """Adjoint against shift gradients of a random complex Hermitian observable."""
    dim = 1 << program.n_qubits
    matrix = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    observable = pl.decompose(matrix + matrix.conj().T)
    states = qsim.run_batch(program, angles)
    cotangents = states @ observable.to_matrix().T  # complex, as the vqls objective's are
    assert np.abs(cotangents.imag).max() > 0
    adj = qsim.adjoint_gradient(program, angles, cotangents)
    for grad, shift in zip(adj, shift_gradient(program, angles, observable)):
        assert np.abs(grad - shift).max() <= 1e-13 * max(1.0, np.abs(shift).max())


def test_real_programs_run_in_float64_and_match_the_oracle(rng):
    for program in _real_programs(rng):
        compiled = program.compiled
        assert compiled.fixed_t.dtype == compiled.turned_t.dtype == np.float64
        angles = rng.uniform(0, 2 * np.pi, (3, program.n_slots))
        tape = qsim.Tape()
        states = qsim.run_batch(program, angles, tape)
        assert states.dtype == np.complex128
        assert all(state.dtype == np.float64 for state in tape.states)
        for row, state in zip(angles, states):
            dense = program_unitary(program, row) @ qsim.zero_state(program.n_qubits)
            assert np.abs(state - dense).max() <= 1e-13


def test_real_program_gradients_match_shift_with_complex_cotangents(rng):
    for program in _real_programs(rng):
        _assert_adjoint_matches_shift(program, rng.uniform(0, 2 * np.pi, (3, program.n_slots)), rng)


def test_one_rz_compiles_complex(rng):
    base = qsim.build_hardware_efficient_ry(3, 2)
    program = qsim.GateProgram(
        3, base.gates + (qsim.Gate("rz", 1, slot=base.n_slots),), base.n_slots + 1
    )
    assert base.compiled.fixed_t.dtype == np.float64
    assert program.compiled.fixed_t.dtype == program.compiled.turned_t.dtype == np.complex128
    angles = rng.uniform(0, 2 * np.pi, (3, program.n_slots))
    for row, state in zip(angles, qsim.run_batch(program, angles)):
        dense = program_unitary(program, row) @ qsim.zero_state(program.n_qubits)
        assert np.abs(state - dense).max() <= 1e-13
    _assert_adjoint_matches_shift(program, angles, rng)


@pytest.mark.parametrize("build", [qsim.build_hardware_efficient_ry, qsim.build_strongly_entangling])
def test_taped_and_untaped_adjoint_agree_bitwise(build, rng):
    program = build(4, 3)
    angles = rng.uniform(0, 2 * np.pi, (5, program.n_slots))
    tape = qsim.Tape()
    states = qsim.run_batch(program, angles, tape)
    cotangents = rng.standard_normal(states.shape) + 1j * rng.standard_normal(states.shape)
    taped = qsim.adjoint_gradient(program, angles, cotangents, tape)
    assert np.array_equal(taped, qsim.adjoint_gradient(program, angles, cotangents))


def _turns_t(compiled, angles):
    """Every local step's per-qubit U^T, shaped (B, R, n, 2, 2), from the per-qubit tables."""
    padded = np.concatenate((angles, np.zeros((len(angles), 1))), axis=1)
    half = padded[:, compiled.slot_of_qubit, None, None] / 2
    return np.cos(half) * compiled.fixed_t + np.sin(half) * compiled.turned_t


@pytest.mark.parametrize(
    "kinds", [("ry", "h", "cnot"), ("ry", "rz", "h", "cnot")], ids=["real", "complex"]
)
@pytest.mark.parametrize("n", range(1, 7))
def test_block_factors_are_kronecker_products_of_the_qubit_turns(n, kinds, rng):
    for _ in range(4):
        program = random_program(n, rng, max_gates=3 * n + 6, kinds=kinds)
        compiled = program.compiled
        angles = rng.uniform(0, 4 * np.pi, (3, program.n_slots))
        blocks = compiled.factors(angles)
        turns = _turns_t(compiled, angles)
        widths = [4] * (n // 2) + [2] * (n % 2)
        steps = len(compiled.fixed_t)
        assert [block.shape for block in blocks] == [(steps, 3, w, w) for w in widths]
        for b in range(3):
            for r in range(steps):
                pairs = [np.kron(turns[b, r, q], turns[b, r, q + 1]) for q in range(0, n - 1, 2)]
                expected = pairs + [turns[b, r, n - 1]] * (n % 2)
                for block, want in zip(blocks, expected):
                    assert np.abs(block[r, b] - want).max() <= 1e-15
                # the kernel turns a state as the full Kronecker product of the qubits' U does
                state = rng.standard_normal((2, 1 << n)) + 1j * rng.standard_normal((2, 1 << n))
                full = functools.reduce(np.kron, turns[b, r]).T
                factors = [block[r, b : b + 1].repeat(2, axis=0) for block in blocks]
                turned = qsim._turn(state, factors)
                assert np.abs(turned - state @ full.T).max() <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_empty_batches_and_rotation_free_programs_keep_their_shapes(n, rng):
    program = random_program(n, rng, max_gates=12)
    empty = np.zeros((0, program.n_slots))
    tape = qsim.Tape()
    assert qsim.run_batch(program, empty, tape).shape == (0, 1 << n)
    gradient = qsim.adjoint_gradient(program, empty, np.zeros((0, 1 << n)), tape)
    assert gradient.shape == (0, program.n_slots)
    cnots = qsim.GateProgram(
        n, tuple(qsim.Gate("cnot", (q + 1) % n, control=q) for q in range(n) if n > 1), 0
    )
    assert not any(isinstance(step, qsim._Local) for step in cnots.compiled.steps)
    states = qsim.run_batch(cnots, np.zeros((3, 0)))
    assert np.array_equal(states, np.eye(1 << n)[[0] * 3])
    assert qsim.adjoint_gradient(cnots, np.zeros((3, 0)), states).shape == (3, 0)


_random_programs = st.tuples(
    st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1)
)  # (qubits, batch, seed)


def _draw_program(case):
    n, batch, seed = case
    rng = np.random.default_rng(seed)
    program = random_program(n, rng)
    return program, rng.uniform(0, 2 * np.pi, (batch, program.n_slots)), rng


@settings(max_examples=80, deadline=None)
@given(_random_programs)
def test_run_batch_matches_dense_unitary_property(case):
    program, angles, _ = _draw_program(case)
    states = qsim.run_batch(program, angles)
    for row, state in zip(angles, states):
        dense = program_unitary(program, row) @ qsim.zero_state(program.n_qubits)
        assert np.abs(state - dense).max() <= 1e-12


@settings(max_examples=80, deadline=None)
@given(_random_programs)
def test_adjoint_gradient_matches_shift_property(case):
    program, angles, rng = _draw_program(case)
    dim = 1 << program.n_qubits
    matrix = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    observable = pl.decompose(matrix + matrix.conj().T)
    states = qsim.run_batch(program, angles)
    cotangents = states @ observable.to_matrix().T  # dE/d(conj psi) = O psi per row
    adj = qsim.adjoint_gradient(program, angles, cotangents)
    for grad, shift in zip(adj, shift_gradient(program, angles, observable)):
        gap = np.abs(grad - shift).max(initial=0.0)  # programs may hold no rotation
        assert gap <= 1e-8 * max(1.0, np.abs(shift).max(initial=0.0))


# ---------------------------------------------------------------------------
# Shot estimation


def test_shots_deterministic_outcome():
    observable = pl.PauliExpansion(1, ((pl.PauliString.from_text("Z"), 1.0 + 0j),))
    grouping = pl.group_commuting(observable)
    out = qsim.estimate_shots(qsim.zero_state(1), grouping, observable, shots=64, rng_seed=0)
    assert out == {"estimate": 1.0, "circuits_used": 1}


@pytest.mark.parametrize("seed", [0, 1, 2, 99])
def test_shots_exact_in_x_and_y_bases(seed):
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    plus_i = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    cases = [("X", plus), ("Y", plus_i), ("XY", np.kron(plus, plus_i))]  # +1 eigenstates
    for text, state in cases:
        observable = pl.PauliExpansion(len(text), ((pl.PauliString.from_text(text), 1.0 + 0j),))
        assert expectation(state, observable) == pytest.approx(1.0, abs=1e-12)
        grouping = pl.group_commuting(observable)
        out = qsim.estimate_shots(state, grouping, observable, shots=64, rng_seed=seed)
        assert out == {"estimate": 1.0, "circuits_used": 1}


def test_shots_converge_with_sample_size():
    observable = pl.PauliExpansion(1, ((pl.PauliString.from_text("Z"), 1.0 + 0j),))
    grouping = pl.group_commuting(observable)
    state = qsim.build_ry_embedding([np.pi / 3])
    errs = {}
    for shots in (1_000, 100_000):
        out = qsim.estimate_shots(state, grouping, observable, shots=shots, rng_seed=7)
        errs[shots] = abs(out["estimate"] - 0.5)
    # standard error ~ sqrt(0.75/shots): allow 4 sigma
    assert errs[1_000] <= 4 * np.sqrt(0.75 / 1_000)
    assert errs[100_000] <= 4 * np.sqrt(0.75 / 100_000)


def test_shots_grouped_diagonal_single_circuit():
    texts = ["II", "IZ", "ZI", "ZZ"]
    observable = pl.PauliExpansion(
        2, tuple((pl.PauliString.from_text(t), 0.25 + 0j) for t in texts)
    )
    grouping = pl.group_commuting(observable)
    out = qsim.estimate_shots(qsim.zero_state(2), grouping, observable, shots=10, rng_seed=3)
    assert out["circuits_used"] == 1
    assert out["estimate"] == pytest.approx(1.0)


def test_shot_estimator_unbiased(rng):
    program = qsim.build_hardware_efficient_ry(2, 2)
    angles = rng.uniform(0, 2 * np.pi, program.n_slots)
    state = qsim.run(program, angles)
    matrix = rng.standard_normal((4, 4))
    observable = pl.decompose(matrix + matrix.T)
    grouping = pl.group_commuting(observable)
    exact = expectation(state, observable)
    shots = 400
    estimates = [
        qsim.estimate_shots(state, grouping, observable, shots=shots, rng_seed=seed)["estimate"]
        for seed in range(200)
    ]
    mean = float(np.mean(estimates))
    stderr = float(np.std(estimates, ddof=1) / np.sqrt(len(estimates)))
    assert abs(mean - exact) <= 3 * max(stderr, 1e-12)


def test_shots_require_positive_count():
    observable = pl.PauliExpansion(1, ((pl.PauliString.from_text("Z"), 1.0 + 0j),))
    grouping = pl.group_commuting(observable)
    with pytest.raises(ContractViolation):
        qsim.estimate_shots(qsim.zero_state(1), grouping, observable, shots=0, rng_seed=0)

