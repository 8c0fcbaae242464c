import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vqspectral import anglenet as an
from vqspectral import loss as ls
from vqspectral import pauli as pl
from vqspectral import qsim
from vqspectral import spectral as sp
from vqspectral.errors import (
    ConfigurationError,
    ContractViolation,
    DegenerateDenominatorError,
    PhaseContaminationWarning,
)

BC_D = sp.BoundarySpec((sp.DirectionBC.dirichlet(),))
BC_2D = sp.BoundarySpec((sp.DirectionBC.dirichlet(), sp.DirectionBC.dirichlet()))


def identity_context(dim=4, scale=1.0, raw=None):
    if raw is None:
        raw = np.zeros((1, dim))
        raw[0, 0] = scale
    return ls.build_loss_context(scale * np.eye(dim), raw)


def joint_context(rng, instances=3, n_modes=8):
    system = sp.assemble_system("joint_helm", {"k_squared": 16.0}, BC_D, n_modes)
    raw = rng.standard_normal((instances, n_modes))
    return ls.context_for_system(system, raw, k_values=rng.uniform(4.0, 5.0, instances))


def instance_matrices(ctx):
    """Explicit A_i per instance: the fixed operator, or B + k_i^2 C."""
    if ctx.k_values is None:
        return [ctx.a_matrix] * ctx.n_instances
    b, c = ctx.parametric_parts
    return [b + k * k * c for k in ctx.k_values]


def one_instance(ctx, i):
    """ctx cut down to its instance i, operator and system kept."""
    rows = slice(i, i + 1)
    k = None if ctx.k_values is None else ctx.k_values[rows]
    return dataclasses.replace(
        ctx, target_states=ctx.target_states[rows], raw_norms=ctx.raw_norms[rows], k_values=k
    )


def instance_contexts(ctx):
    """One single-instance fixed-operator context per instance of ctx."""
    return [
        ls.build_loss_context(mat, ctx.target_states[i : i + 1])
        for i, mat in enumerate(instance_matrices(ctx))
    ]


# ---------------------------------------------------------------------------
# Loss values


def test_phase_aware_zero_at_solution():
    ctx = identity_context()
    state = ctx.target_states.astype(complex)
    assert ls.loss_phase_aware(ctx, state).total == pytest.approx(0.0, abs=1e-14)


def test_phase_aware_two_at_flipped_solution():
    ctx = identity_context()
    state = -ctx.target_states.astype(complex)
    value = ls.loss_phase_aware(ctx, state)
    assert value.total == pytest.approx(2.0, abs=1e-14)
    assert value.gamma[0] == pytest.approx(-1.0)
    assert value.beta[0] == pytest.approx(1.0)


def test_phase_aware_scale_invariance():
    ctx = identity_context(scale=2.0, raw=np.array([[2.0, 0.0, 0.0, 0.0]]))
    state = np.zeros((1, 4), dtype=complex)
    state[0, 0] = 1.0
    value = ls.loss_phase_aware(ctx, state)
    assert value.total == pytest.approx(0.0, abs=1e-14)
    assert value.gamma[0] == pytest.approx(2.0)
    assert value.beta[0] == pytest.approx(4.0)


def test_unnormalized_examples(rng):
    ctx = identity_context()
    state = ctx.target_states.astype(complex)
    assert ls.loss_unnormalized(ctx, state).total == pytest.approx(0.0, abs=1e-14)
    assert ls.loss_unnormalized(ctx, -state).total == pytest.approx(4.0, abs=1e-13)


def test_unnormalized_matches_dense_oracle(rng):
    matrix = rng.standard_normal((4, 4))
    raw = rng.standard_normal((2, 4))
    ctx = ls.build_loss_context(matrix, raw)
    states = rng.standard_normal((2, 4)).astype(complex)
    states /= np.linalg.norm(states, axis=1)[:, None]
    value = ls.loss_unnormalized(ctx, states)
    for i in range(2):
        f_unit = raw[i] / np.linalg.norm(raw[i])
        applied = matrix @ states[i]
        expected = (float((f_unit @ applied).real) - np.linalg.norm(applied)) ** 2
        assert value.per_instance[i] == pytest.approx(expected, abs=1e-10)


def test_vqls_standard_examples_and_oracle(rng):
    ctx = identity_context()
    state = ctx.target_states.astype(complex)
    assert ls.loss_vqls_standard(ctx, state) == pytest.approx(0.0, abs=1e-14)
    assert ls.loss_vqls_standard(ctx, -state) == pytest.approx(0.0, abs=1e-14)
    matrix = rng.standard_normal((4, 4))
    raw = rng.standard_normal((1, 4))
    ctx = ls.build_loss_context(matrix, raw)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    f_unit = raw[0] / np.linalg.norm(raw[0])
    z = np.vdot(f_unit.astype(complex), matrix @ psi)
    beta = np.linalg.norm(matrix @ psi) ** 2
    expected = 1 - (z.real**2 + z.imag**2) / beta
    assert ls.loss_vqls_standard(ctx, psi[None, :]) == pytest.approx(expected, abs=1e-10)


def test_per_term_path_matches_dense(rng):
    system = sp.assemble_system("helm1d", {"k_squared": 4.0}, BC_D, 8)
    raw = rng.standard_normal((3, 8))
    ctx = ls.context_for_system(system, raw)
    states = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    states /= np.linalg.norm(states, axis=1)[:, None]
    dense = ls.loss_phase_aware(ctx, states)
    expansion = pl.decompose(system.matrix)
    applied = states @ expansion.to_matrix().T  # sum_l c_l P_l psi
    gamma = np.einsum("ik,ik->i", ctx.target_states, applied).real
    beta = np.einsum("ik,kl,il->i", states.conj(), pl.normal_operator(expansion).to_matrix(), states)
    terms = 1.0 - gamma / np.sqrt(beta.real)
    assert np.abs(dense.per_instance - terms).max() <= 1e-10


def test_sign_flip_identities(rng):
    matrix = rng.standard_normal((8, 8))
    raw = rng.standard_normal((2, 8))
    ctx = ls.build_loss_context(matrix, raw)
    for _ in range(300):
        states = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
        states /= np.linalg.norm(states, axis=1)[:, None]
        pa_plus = ls.loss_phase_aware(ctx, states).per_instance
        pa_minus = ls.loss_phase_aware(ctx, -states).per_instance
        assert np.abs(pa_plus + pa_minus - 2.0).max() <= 1e-12
        assert abs(
            ls.loss_vqls_standard(ctx, states) - ls.loss_vqls_standard(ctx, -states)
        ) <= 1e-12


def test_phase_aware_bounds(rng):
    matrix = rng.standard_normal((8, 8)) + 3 * np.eye(8)
    raw = rng.standard_normal((8, 8))
    ctx = ls.build_loss_context(matrix, raw)
    for _ in range(100):
        states = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        states /= np.linalg.norm(states, axis=1)[:, None]
        per = ls.loss_phase_aware(ctx, states).per_instance
        assert np.all(per >= -1e-12) and np.all(per <= 2.0 + 1e-12)


def test_optimum_characterization(rng):
    # loss vanishes exactly when A psi is a positive multiple of F
    system = sp.assemble_system("helm1d", {"k_squared": 4.0}, BC_D, 16)
    raw = rng.standard_normal((4, 16))
    ctx = ls.context_for_system(system, raw)
    exact = np.stack([np.linalg.solve(system.matrix, raw[i]) for i in range(4)])
    exact /= np.linalg.norm(exact, axis=1)[:, None]
    value = ls.loss_phase_aware(ctx, exact.astype(complex))
    assert np.abs(value.per_instance).max() <= 1e-10
    assert np.abs(value.gamma - np.sqrt(value.beta)).max() <= 1e-10


def test_beta_positivity_bound(rng):
    system = sp.assemble_system("helm1d", {"k_squared": 4.0}, BC_D, 8)
    raw = rng.standard_normal((4, 8))
    ctx = ls.context_for_system(system, raw)
    sigma_min = np.linalg.svd(system.matrix, compute_uv=False)[-1]
    states = rng.standard_normal((4, 8)).astype(complex)
    states /= np.linalg.norm(states, axis=1)[:, None]
    beta = ls.loss_phase_aware(ctx, states).beta
    assert np.all(beta >= sigma_min**2 - 1e-12)


def test_degenerate_denominator_raises():
    matrix = np.diag([0.0, 1.0, 1.0, 1.0])
    raw = np.ones((1, 4))
    ctx = ls.build_loss_context(matrix, raw)
    state = np.zeros((1, 4), dtype=complex)
    state[0, 0] = 1.0  # A |e0> = 0
    with pytest.raises(DegenerateDenominatorError):
        ls.loss_phase_aware(ctx, state)


def test_state_shape_checked():
    ctx = identity_context()
    with pytest.raises(ContractViolation):
        ls.loss_phase_aware(ctx, np.zeros((2, 4), dtype=complex))


def test_zero_norm_targets_rejected():
    with pytest.raises(ContractViolation):
        ls.build_loss_context(np.eye(4), np.zeros((1, 4)))
    ctx = identity_context()
    with pytest.raises(ContractViolation):  # a held-out split gets the same check
        ls.with_targets(ctx, np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))
    with pytest.raises(ContractViolation):
        ls.with_targets(ctx, np.ones((1, 8)))


def test_joint_losses_use_instance_operator(rng):
    ctx = joint_context(rng)
    states = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    states /= np.linalg.norm(states, axis=1)[:, None]
    direct = instance_contexts(ctx)
    for fn in (ls.loss_phase_aware, ls.loss_unnormalized):
        expected = [fn(ref, states[i : i + 1]).per_instance[0] for i, ref in enumerate(direct)]
        assert np.abs(fn(ctx, states).per_instance - expected).max() <= 1e-12
    vqls = np.mean([ls.loss_vqls_standard(ref, states[i : i + 1]) for i, ref in enumerate(direct)])
    assert abs(ls.loss_vqls_standard(ctx, states) - vqls) <= 1e-12
    imag = [ls.imag_overlap_diagnostic(ref, states[i : i + 1])[0] for i, ref in enumerate(direct)]
    assert np.abs(ls.imag_overlap_diagnostic(ctx, states) - imag).max() <= 1e-12
    with pytest.raises(ContractViolation):
        ls.build_loss_context(ctx.a_matrix, ctx.target_states, k_values=ctx.k_values)


@st.composite
def operator_contexts(draw):
    """A fixed operator or a family B + k_i^2 C, with 1-3 instances on 1-3 qubits."""
    dim = 1 << draw(st.integers(1, 3))
    instances = draw(st.integers(1, 3))
    entries = st.floats(-2.0, 2.0)
    raw = draw(hnp.arrays(float, (instances, dim), elements=entries))
    assume(np.all(np.linalg.norm(raw, axis=1) > 1e-3))
    b = draw(hnp.arrays(float, (dim, dim), elements=entries))
    if not draw(st.booleans()):
        return ls.build_loss_context(b, raw)
    c = draw(hnp.arrays(float, (dim, dim), elements=entries))
    ks = draw(hnp.arrays(float, (instances,), elements=st.floats(0.0, 3.0)))
    return ls.build_loss_context(b, raw, parametric_parts=(b, c), k_values=ks)


def complex_rows(ctx):
    return hnp.arrays(
        complex,
        ctx.target_states.shape,
        elements=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_matches_instance_matrices(data):
    ctx = data.draw(operator_contexts())
    v, w = data.draw(complex_rows(ctx)), data.draw(complex_rows(ctx))
    av = ls._apply(ctx, v)
    adag_w = ls._apply(ctx, w, adjoint=True)
    for i, mat in enumerate(instance_matrices(ctx)):
        assert np.abs(av[i] - mat @ v[i]).max() <= 1e-12
        assert np.abs(adag_w[i] - mat.conj().T @ w[i]).max() <= 1e-12
        assert abs(np.vdot(av[i], w[i]) - np.vdot(v[i], adag_w[i])) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sign_flip_identity_over_operators(data):
    ctx = data.draw(operator_contexts())
    states = data.draw(complex_rows(ctx))
    norms = np.linalg.norm(states, axis=1)
    assume(np.all(norms > 1e-3))
    states = states / norms[:, None]
    applied = np.stack([mat @ s for mat, s in zip(instance_matrices(ctx), states)])
    assume(np.all(np.linalg.norm(applied, axis=1) > 1e-4))
    plus = ls.loss_phase_aware(ctx, states).per_instance
    minus = ls.loss_phase_aware(ctx, -states).per_instance
    assert np.abs(plus + minus - 2.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# Parametric path


def test_parametric_k_zero_reduces_to_stiffness(rng):
    system = sp.assemble_system("joint_helm", {"k_squared": 0.0}, BC_D, 8)
    raw = rng.standard_normal((2, 8))
    ctx = ls.context_for_system(system, raw, k_values=np.zeros(2))
    states = rng.standard_normal((2, 8)).astype(complex)
    states /= np.linalg.norm(states, axis=1)[:, None]
    parametric = ls.loss_parametric(ctx, states)
    stiff_only = ls.build_loss_context(system.parametric_parts[0], raw)
    direct = ls.loss_phase_aware(stiff_only, states)
    assert np.abs(parametric.per_instance - direct.per_instance).max() <= 1e-10


@pytest.mark.parametrize(
    "pde,bc,n_modes,k",
    [("joint_helm", BC_D, 16, 2.0), ("joint_helm", BC_2D, 8, np.sqrt(4.03))],
)
def test_parametric_equals_direct_decomposition(pde, bc, n_modes, k, rng):
    base = sp.assemble_system(pde, {"k_squared": k * k}, bc, n_modes)
    dim = base.size
    raw = rng.standard_normal((2, dim))
    ctx = ls.context_for_system(base, raw, k_values=np.full(2, k))
    states = rng.standard_normal((2, dim)).astype(complex)
    states /= np.linalg.norm(states, axis=1)[:, None]
    parametric = ls.loss_parametric(ctx, states)
    direct_ctx = ls.build_loss_context(base.matrix, raw)
    direct = ls.loss_phase_aware(direct_ctx, states)
    assert np.abs(parametric.per_instance - direct.per_instance).max() <= 1e-10


def test_parametric_requires_context(rng):
    ctx = identity_context()
    with pytest.raises(ConfigurationError):
        ls.loss_parametric(ctx, ctx.target_states.astype(complex), k=np.ones(1))


def test_parametric_requires_k(rng):
    system = sp.assemble_system("joint_helm", {"k_squared": 16.0}, BC_D, 8)
    ctx = ls.context_for_system(system, rng.standard_normal((1, 8)))
    with pytest.raises(ConfigurationError):
        ls.loss_parametric(ctx, ctx.target_states.astype(complex))


# ---------------------------------------------------------------------------
# End-to-end gradients


def _toy_pipeline(rng, n=3, instances=2):
    dim = 1 << n
    matrix = rng.standard_normal((dim, dim))
    matrix = matrix + matrix.T + 4 * np.eye(dim)
    raw = rng.standard_normal((instances, dim))
    ctx = ls.build_loss_context(matrix, raw)
    program = qsim.build_strongly_entangling(n, 2)
    spec = an.NetworkSpec((5,), (an.Dense(5, 16, "gelu"), an.Dense(16, program.n_slots)))
    net = an.init(spec, 11)
    feats = [rng.standard_normal(5) for _ in range(instances)]
    return ctx, program, net, feats


def _worst_fd_gap(net, grads, total, rng):
    """Worst relative gap between grads and central differences of total()."""
    h = 1e-6
    worst = 0.0
    for layer in range(2):
        flat = net.weights[layer].reshape(-1)
        for pick in rng.choice(flat.size, 10, replace=False):
            orig = flat[pick]
            flat[pick] = orig + h
            up = total()
            flat[pick] = orig - h
            down = total()
            flat[pick] = orig
            fd = (up - down) / (2 * h)
            if abs(fd) > 1e-9:
                worst = max(worst, abs(grads[layer][0].reshape(-1)[pick] - fd) / abs(fd))
    return worst


@pytest.mark.parametrize("objective", ["unnormalized", "normalized", "vqls"])
def test_grad_total_matches_finite_differences(objective, rng):
    ctx, program, net, feats = _toy_pipeline(rng)
    grads, _ = ls.grad_total(ctx, program, net, feats, objective=objective)

    def total():
        angles = np.stack([an.forward(net, f) for f in feats])
        states = qsim.run_batch(program, angles)
        if objective == "vqls":
            return ls.loss_vqls_standard(ctx, states)
        fn = ls.loss_unnormalized if objective == "unnormalized" else ls.loss_phase_aware
        return fn(ctx, states).total

    assert _worst_fd_gap(net, grads, total, rng) <= 1e-4


@pytest.mark.parametrize("gradient_mode", ["adjoint", "parameter_shift"])
def test_grad_total_runs_the_network_layers_once(gradient_mode, rng, monkeypatch):
    ctx, program, net, feats = _toy_pipeline(rng)
    run_layers = an.forward  # backward without a tape would call it a second time
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return run_layers(*args, **kwargs)

    monkeypatch.setattr(an, "forward", counting)
    ls.grad_total(ctx, program, net, feats, gradient_mode=gradient_mode)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "program",
    [qsim.build_strongly_entangling(3, 2), qsim.build_hardware_efficient_ry(3, 6)],  # 18 slots each
    ids=["strongly_entangling", "hardware_efficient_ry"],
)
def test_grad_total_runs_the_circuit_once(program, rng, monkeypatch):
    # the adjoint walks the forward's tape; simulating again would run and turn twice
    ctx, _, net, feats = _toy_pipeline(rng)
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(qsim, "run_batch", counting(qsim.run_batch))
    monkeypatch.setattr(qsim._Compiled, "factors", counting(qsim._Compiled.factors))
    ls.grad_total(ctx, program, net, feats)
    assert sorted(calls) == ["factors", "run_batch"]


@pytest.mark.parametrize("objective", ["unnormalized", "normalized", "vqls"])
def test_joint_grad_total_matches_per_instance_finite_differences(objective, rng):
    ctx = joint_context(rng)
    _, program, net, _ = _toy_pipeline(rng)
    feats = [rng.standard_normal(5) for _ in range(ctx.n_instances)]
    grads, _ = ls.grad_total(ctx, program, net, feats, objective=objective)
    direct = instance_contexts(ctx)

    def total():
        states = qsim.run_batch(program, np.stack([an.forward(net, f) for f in feats]))
        if objective == "vqls":
            per = [ls.loss_vqls_standard(ref, states[i : i + 1]) for i, ref in enumerate(direct)]
        else:
            fn = ls.loss_unnormalized if objective == "unnormalized" else ls.loss_phase_aware
            per = [fn(ref, states[i : i + 1]).total for i, ref in enumerate(direct)]
        return float(np.mean(per))

    assert _worst_fd_gap(net, grads, total, rng) <= 1e-5


def test_gradient_modes_agree(rng):
    ctx, program, net, feats = _toy_pipeline(rng)
    for objective in ("unnormalized", "normalized", "vqls"):
        adj, val_a = ls.grad_total(ctx, program, net, feats, objective=objective)
        shift, val_s = ls.grad_total(
            ctx, program, net, feats, objective=objective, gradient_mode="parameter_shift"
        )
        assert val_a.total == pytest.approx(val_s.total, abs=1e-12)
        scale = max(max(np.abs(g[0]).max() for g in adj), 1e-12)
        worst = max(np.abs(a[0] - s[0]).max() for a, s in zip(adj, shift))
        assert worst / scale <= 1e-8


def test_gradient_vanishes_at_constructed_optimum():
    # one-qubit toy where the network already outputs the exact solution angle
    ctx = identity_context(dim=2, raw=np.array([[1.0, 0.0]]))
    program = qsim.GateProgram(1, (qsim.Gate("ry", 0, slot=0),), 1)
    spec = an.NetworkSpec((1,), (an.Dense(1, 1),))
    net = an.init(spec, 0)
    net.weights[0][...] = 0.0
    net.biases[0][...] = 0.0  # angle 0 prepares |0> = F exactly
    grads, value = ls.grad_total(ctx, program, net, [np.array([1.0])], objective="normalized")
    assert value.total <= 1e-14
    norm = np.sqrt(sum(float((g[0] ** 2).sum() + (g[1] ** 2).sum()) for g in grads))
    assert norm <= 1e-6


def test_batch_of_identical_instances_equals_single(rng):
    dim = 8
    matrix = rng.standard_normal((dim, dim)) + 4 * np.eye(dim)
    raw = rng.standard_normal(dim)
    program = qsim.build_hardware_efficient_ry(3, 2)
    spec = an.NetworkSpec((4,), (an.Dense(4, program.n_slots),))
    net = an.init(spec, 2)
    feat = rng.standard_normal(4)
    ctx1 = ls.build_loss_context(matrix, raw[None, :])
    ctx3 = ls.build_loss_context(matrix, np.tile(raw, (3, 1)))
    g1, v1 = ls.grad_total(ctx1, program, net, [feat])
    g3, v3 = ls.grad_total(ctx3, program, net, [feat, feat, feat])
    assert v1.total == pytest.approx(v3.total, abs=1e-14)
    for a, b in zip(g1, g3):
        assert np.abs(a[0] - b[0]).max() <= 1e-14


def test_feature_count_checked(rng):
    ctx, program, net, feats = _toy_pipeline(rng)
    with pytest.raises(ContractViolation):
        ls.grad_total(ctx, program, net, feats[:1])


# ---------------------------------------------------------------------------
# Solution recovery


def test_recover_scaled_identity():
    ctx = ls.build_loss_context(2 * np.eye(4), np.array([[2.0, 0.0, 0.0, 0.0]]))
    states = np.zeros((1, 4), dtype=complex)
    states[0, 0] = 1.0
    recovered = ls.recover_solution(states, ctx)
    assert recovered.scale == pytest.approx([1.0])
    assert np.abs(recovered.coefficients - [[1, 0, 0, 0]]).max() <= 1e-14


def test_recover_pure_rescale():
    raw = np.array([[0.0, 3.0, 0.0, 0.0]])
    ctx = ls.build_loss_context(np.eye(4), raw)
    states = np.zeros((1, 4), dtype=complex)
    states[0, 1] = 1.0
    recovered = ls.recover_solution(states, ctx)
    assert np.abs(recovered.coefficients - raw).max() <= 1e-14


def test_recover_manufactured_solution(rng):
    system = sp.assemble_system("helm1d", {"k_squared": 4.0}, BC_D, 16)
    grid = system.grid()[0]
    rhs, _ = sp.forward_transform((4 - np.pi**2) * np.sin(np.pi * grid), system)
    truth = sp.classical_solve(system, rhs)
    ctx = ls.context_for_system(system, rhs[None, :])
    state = (truth.coefficients / np.linalg.norm(truth.coefficients)).astype(complex)
    recovered = ls.recover_solution(state[None, :], ctx)
    assert np.abs(recovered.coefficients[0] - truth.coefficients).max() <= 1e-10
    assert np.abs(recovered.nodal_values[0] - truth.nodal_values).max() <= 1e-9


def test_recover_warns_on_phase_residue():
    ctx = identity_context()
    states = np.zeros((1, 4), dtype=complex)
    states[0, 0] = np.sqrt(1 - 1e-4)
    states[0, 1] = 1e-2j
    with pytest.warns(PhaseContaminationWarning, match="instance 0:"):
        ls.recover_solution(states, ctx)


@pytest.mark.parametrize("joint", [False, True], ids=["fixed", "joint"])
def test_stacked_recovery_matches_single_rows(joint, rng):
    if joint:
        ctx = joint_context(rng, instances=4)
    else:
        system = sp.assemble_system("helm1d", {"k_squared": 4.0}, BC_D, 8)
        ctx = ls.context_for_system(system, rng.standard_normal((4, 8)))
    states = rng.standard_normal((4, 8)).astype(complex)
    states[2] += 1e-3j * rng.standard_normal(8)  # only instance 2 carries a phase residue
    with pytest.warns(PhaseContaminationWarning, match="instance 2:") as caught:
        stacked = ls.recover_solution(states, ctx)
    assert len(caught) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        singles = [  # each row recovered against a context holding only its instance
            ls.recover_solution(states[i : i + 1], one_instance(ctx, i)) for i in range(4)
        ]
    assert stacked.nodal_values.shape == (4,) + singles[0].nodal_values.shape[1:]
    for i, single in enumerate(singles):
        scale = max(1.0, np.abs(single.nodal_values).max())
        assert np.abs(stacked.coefficients[i] - single.coefficients[0]).max() <= 1e-14 * scale
        assert np.abs(stacked.nodal_values[i] - single.nodal_values[0]).max() <= 1e-14 * scale
        assert stacked.scale[i] == pytest.approx(single.scale[0], rel=1e-15)
    with pytest.raises(ContractViolation):
        ls.recover_solution(states[:3], ctx)


def test_imag_overlap_diagnostic(rng):
    system = sp.assemble_system("helm1d", {"k_squared": 4.0}, BC_D, 8)
    raw = rng.standard_normal((2, 8))
    ctx = ls.context_for_system(system, raw)
    real_states = rng.standard_normal((2, 8)).astype(complex)
    real_states /= np.linalg.norm(real_states, axis=1)[:, None]
    assert np.abs(ls.imag_overlap_diagnostic(ctx, real_states)).max() <= 1e-14
    # a quadrature phase on the exact solution shows up entirely in Im
    exact = np.linalg.solve(system.matrix, raw[0])
    exact = exact / np.linalg.norm(exact)
    states = np.stack([1j * exact, exact]).astype(complex)
    diag = ls.imag_overlap_diagnostic(ctx, states)
    assert diag[0] > 0.0 and abs(diag[1]) <= 1e-14


def test_expansions_in_context_reconstruct(rng):
    system = sp.assemble_system("cd1d", {"epsilon": 0.1, "nu": 1.0}, BC_D, 16)
    ctx = ls.context_for_system(system, rng.standard_normal((1, 16)))
    expansion = pl.decompose(ctx.a_matrix)
    assert np.linalg.norm(expansion.to_matrix() - system.matrix) <= 1e-10
    normal = system.matrix.T @ system.matrix
    assert (
        np.linalg.norm(pl.normal_operator(expansion).to_matrix() - normal)
        / np.linalg.norm(normal)
        <= 1e-12
    )
