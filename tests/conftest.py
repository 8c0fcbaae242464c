import numpy as np
import pytest

from vqspectral import qsim

RY = lambda t: np.array(  # noqa: E731
    [[np.cos(t / 2), -np.sin(t / 2)], [np.sin(t / 2), np.cos(t / 2)]], dtype=complex
)
RZ = lambda t: np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])  # noqa: E731
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def gate_unitary(gate: qsim.Gate, angles, n: int) -> np.ndarray:
    """Dense matrix of one gate, built independently of the simulator."""
    dim = 1 << n
    if gate.kind == "cnot":
        mat = np.zeros((dim, dim), dtype=complex)
        cbit = 1 << (n - 1 - gate.control)
        tbit = 1 << (n - 1 - gate.target)
        for b in range(dim):
            mat[b ^ (tbit if b & cbit else 0), b] = 1.0
        return mat
    single = {"h": H, "ry": None, "rz": None}[gate.kind]
    if single is None:
        single = RY(angles[gate.slot]) if gate.kind == "ry" else RZ(angles[gate.slot])
    ops = [np.eye(2, dtype=complex)] * n
    ops[gate.target] = single
    mat = ops[0]
    for op in ops[1:]:
        mat = np.kron(mat, op)
    return mat


def program_unitary(program: qsim.GateProgram, angles) -> np.ndarray:
    """Full dense unitary of a gate program (oracle for the simulator)."""
    dim = 1 << program.n_qubits
    mat = np.eye(dim, dtype=complex)
    for gate in program.gates:
        mat = gate_unitary(gate, angles, program.n_qubits) @ mat
    return mat


def expectation(state, observable) -> float:
    """Re <psi|O|psi> for a PauliExpansion O, summed densely through to_matrix."""
    return float(np.vdot(state, observable.to_matrix() @ state).real)


def shift_gradient(program: qsim.GateProgram, angles, observable) -> np.ndarray:
    """Shift-rule gradient of <psi|O|psi> for every row of angles, shaped (B, S)."""
    dense = observable.to_matrix()

    def measure(states):
        quadratic = np.einsum("bsi,ij,bsj->bs", states.conj(), dense, states).real
        return np.zeros_like(quadratic), quadratic

    return qsim.parameter_shift(program, angles, measure)[1]


def random_program(
    n: int, rng: np.random.Generator, max_gates: int = 14, kinds=("ry", "rz", "h", "cnot")
) -> qsim.GateProgram:
    gates = []
    slot = 0
    for _ in range(int(rng.integers(4, max_gates))):
        kind = rng.choice(list(kinds))
        target = int(rng.integers(0, n))
        if kind == "cnot":
            if n < 2:
                continue
            control = int(rng.integers(0, n))
            while control == target:
                control = int(rng.integers(0, n))
            gates.append(qsim.Gate("cnot", target, control=control))
        elif kind == "h":
            gates.append(qsim.Gate("h", target))
        else:
            gates.append(qsim.Gate(kind, target, slot=slot))
            slot += 1
    return qsim.GateProgram(n, tuple(gates), slot)


def fail_grad_total_at(monkeypatch, error, call):
    """Make loss.grad_total raise error on its call-th call (1-based)."""
    from vqspectral import loss

    calls = []
    real = loss.grad_total

    def grad_total(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(loss, "grad_total", grad_total)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
