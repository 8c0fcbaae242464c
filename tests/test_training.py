import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vqspectral import anglenet as an
from vqspectral import loss as ls
from vqspectral import pauli as pl
from vqspectral import qsim
from vqspectral import spectral as sp
from vqspectral import training as tr
from vqspectral.errors import (
    ConfigurationError,
    ContractViolation,
    DegenerateDenominatorError,
    DivergenceError,
    DivisionGuardError,
    SingularSystemError,
)

from conftest import fail_grad_total_at

BC_D = sp.BoundarySpec((sp.DirectionBC.dirichlet(),))
BC_WAVE = sp.BoundarySpec((sp.DirectionBC.dirichlet(), sp.DirectionBC.initial_value()))
BC_2D = sp.BoundarySpec((sp.DirectionBC.dirichlet(), sp.DirectionBC.dirichlet()))


def helm_system(n_modes=16):
    return sp.assemble_system("helm1d", {"k_squared": 4.0}, BC_D, n_modes)


# ---------------------------------------------------------------------------
# Forcing families and dataset generation


def test_trig_family_special_case_is_sine():
    x = np.linspace(-1, 1, 33)
    assert np.array_equal(tr.trig_forcing(1.0, 1.0, 0.0, 0.7, x), np.sin(x))


def test_wave_family_at_omega_one():
    x = np.linspace(0, 1, 17)
    t = np.linspace(0, 2, 9)
    xg, tg = np.meshgrid(x, t, indexing="ij")
    expected = (1 + 2 * np.pi**2 * tg**2) * np.sin(2 * np.pi * xg)
    assert np.abs(tr.wave_forcing(1.0, xg, tg) - expected).max() <= 1e-12


def test_dataset_deterministic():
    system = helm_system()
    spec = tr.DatasetSpec("trig_1d", 5, 3, seed=9)
    d1 = tr.generate_dataset(spec, system)
    d2 = tr.generate_dataset(spec, system)
    assert np.array_equal(d1.train.raw_targets, d2.train.raw_targets)
    assert np.array_equal(d1.test.raw_targets, d2.test.raw_targets)
    assert d1.resample_count == d2.resample_count


def vanish_draws(monkeypatch, count):
    """Make the first `count` forward transforms of generate_dataset return zeros."""
    real, calls = tr.forward_transform, []

    def transform(f_values, system):
        calls.append(None)
        coeffs, norm = real(f_values, system)
        return (np.zeros_like(coeffs), 0.0) if len(calls) <= count else (coeffs, norm)

    monkeypatch.setattr(tr, "forward_transform", transform)


def test_vanishing_draw_is_resampled(monkeypatch):
    system = helm_system()
    reference = tr.generate_dataset(tr.DatasetSpec("trig_1d", 4, 0, seed=9), system)
    vanish_draws(monkeypatch, 1)
    dataset = tr.generate_dataset(tr.DatasetSpec("trig_1d", 3, 2, seed=9), system)
    assert dataset.resample_count == 1
    for split in (dataset.train, dataset.test):
        assert np.all(np.linalg.norm(split.raw_targets, axis=1) > 0)
    # the vanished draw spent its numbers; the next one takes its place
    assert np.array_equal(dataset.train.raw_targets, reference.train.raw_targets[1:])


def test_every_draw_vanishing_diverges(monkeypatch):
    vanish_draws(monkeypatch, np.inf)
    with pytest.raises(DivergenceError, match="100 tries"):
        tr.generate_dataset(tr.DatasetSpec("trig_1d", 3, 2, seed=9), helm_system())


def test_dataset_seeds_differ():
    system = helm_system()
    d1 = tr.generate_dataset(tr.DatasetSpec("trig_1d", 3, 0, seed=1), system)
    d2 = tr.generate_dataset(tr.DatasetSpec("trig_1d", 3, 0, seed=2), system)
    assert not np.array_equal(d1.train.raw_targets, d2.train.raw_targets)


def test_shallow_family_targets_are_unit_amplitudes():
    system = sp.assemble_system(
        "helm1d", {"k_squared": 4.7}, sp.BoundarySpec((sp.DirectionBC.neumann(),)), 32
    )
    dataset = tr.generate_dataset(tr.DatasetSpec("shallow_ry", 4, 2, seed=3), system)
    norms = np.linalg.norm(dataset.train.raw_targets, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-12
    assert dataset.train.features[0].shape == (32,)


def test_wave_family_truth_solves_the_system():
    system = sp.assemble_system("wave1d", {}, BC_WAVE, 12)
    dataset = tr.generate_dataset(tr.DatasetSpec("wave_family", 2, 0, seed=5), system)
    truth = dataset.train.truth
    assert truth.coefficients.shape == (2, system.size)
    residual = truth.coefficients @ system.matrix.T - dataset.train.raw_targets
    assert np.abs(residual).max() <= 1e-9


def test_joint_family_truth_uses_instance_coefficient():
    system = sp.assemble_system("joint_helm", {"k_squared": 16.0}, BC_D, 8)
    dataset = tr.generate_dataset(tr.DatasetSpec("joint_k", 3, 0, seed=7), system)
    b, c = system.parametric_parts
    k = dataset.train.k_values
    assert k.shape == (3,) and np.all((4.0 <= k) & (k < 5.0))
    operators = b + (k * k)[:, None, None] * c
    coefficients = dataset.train.truth.coefficients
    residual = np.einsum("dij,dj->di", operators, coefficients) - dataset.train.raw_targets
    assert np.abs(residual).max() <= 1e-10


def test_joint_family_k_squared_draw():
    system = sp.assemble_system("joint_helm", {"k_squared": 4.02}, BC_D, 8)
    spec = tr.DatasetSpec("joint_k", 5, 0, seed=7, k_min=4.0, k_max=4.05, k_is_squared=True)
    dataset = tr.generate_dataset(spec, system)
    assert np.all((dataset.train.k_values**2 >= 4.0) & (dataset.train.k_values**2 < 4.05))


def test_joint_truth_solve_rejects_singular_operator():
    system = sp.assemble_system("joint_helm", {"k_squared": 16.0}, BC_D, 8)
    b, c = system.parametric_parts
    eigenvalues = np.linalg.eigvals(-np.linalg.solve(c, b)).real
    k2 = eigenvalues[eigenvalues > 0].min()  # B + k2 C is singular
    spec = tr.DatasetSpec("joint_k", 1, 0, seed=0, k_min=k2, k_max=k2, k_is_squared=True)
    with pytest.raises(SingularSystemError, match=r"row 0 \(k = "):
        tr.generate_dataset(spec, system)
    # among solved rows, the error names the singular one and its k
    rows = np.ones((3, system.size))
    k = np.array([2.0, np.sqrt(k2), 3.0])
    with pytest.raises(SingularSystemError, match=rf"row 1 \(k = {k[1]:.6g}\)"):
        sp.classical_solve(system, rows, k)


@pytest.mark.parametrize("pde, family", [("helm1d", "trig_1d"), ("joint_helm", "joint_k")])
def test_oracle_solves_each_split_in_one_call(pde, family, monkeypatch):
    system = sp.assemble_system(pde, {"k_squared": 16.0}, BC_D, 8)
    solve = tr.classical_solve
    calls = []

    def counting(system, rhs, k=None):
        calls.append(np.shape(rhs))
        return solve(system, rhs, k)

    monkeypatch.setattr(tr, "classical_solve", counting)
    tr.generate_dataset(tr.DatasetSpec(family, 6, 4, seed=2), system)
    assert calls == [(6, system.size), (4, system.size)]


def test_empty_joint_split_keeps_its_row_layout():
    system = sp.assemble_system("joint_helm", {"k_squared": 16.0}, BC_D, 8)
    dataset = tr.generate_dataset(tr.DatasetSpec("joint_k", 2, 0, seed=7), system)
    test, grid = dataset.test, dataset.train.features.shape[1:]
    assert test.features.shape == (0,) + grid and test.k_values.shape == (0,)
    assert test.raw_targets.shape == (0, system.size)
    assert test.truth.coefficients.shape == (0, system.size)
    assert test.truth.nodal_values.shape == (0,) + grid
    shape = tr.feature_shape(dataset.train, grid=False)
    assert tr.feature_shape(test, grid=False) == shape
    assert tr.feature_batch(test, shape).shape == (0,) + shape


def test_feature_vector_prepends_k_squared():
    system = sp.assemble_system("joint_helm", {"k_squared": 16.0}, BC_D, 8)
    dataset = tr.generate_dataset(tr.DatasetSpec("joint_k", 2, 0, seed=7), system)
    assert tr.feature_shape(dataset.train, grid=False) == (len(dataset.train.features[0]) + 1,)
    flat = tr.feature_batch(dataset.train, tr.feature_shape(dataset.train, grid=False))
    assert flat.shape == (2, len(dataset.train.features[0]) + 1)
    assert np.array_equal(flat[:, 0], dataset.train.k_values**2)
    assert np.array_equal(flat[:, 1:], np.array(dataset.train.features))


def test_feature_batch_grids_and_empty_split():
    system = sp.assemble_system("rd2d", {"epsilon": 0.1}, BC_2D, 4)
    dataset = tr.generate_dataset(tr.DatasetSpec("trig_2d", 3, 0, seed=1), system)
    shape = (1,) + dataset.train.features[0].shape
    assert tr.feature_shape(dataset.train, grid=True) == shape
    assert tr.feature_shape(dataset.train, grid=False) == (dataset.train.features[0].size,)
    grids = tr.feature_batch(dataset.train, shape)
    assert grids.shape == (3,) + shape
    assert np.array_equal(grids[:, 0], np.array(dataset.train.features))
    assert tr.feature_batch(dataset.test, shape).shape == (0,) + shape
    with pytest.raises(ContractViolation):
        tr.feature_batch(dataset.train, (7,))


@pytest.mark.parametrize(
    "k_min, k_max, squared", [(5.0, 4.0, False), (-1.0, 4.0, True)], ids=["reversed", "negative_k2"]
)
def test_dataset_spec_rejects_bad_k_range(k_min, k_max, squared):
    with pytest.raises(ConfigurationError, match="k_min"):
        tr.DatasetSpec("joint_k", 2, 0, seed=0, k_min=k_min, k_max=k_max, k_is_squared=squared)


def test_unknown_family_rejected():
    with pytest.raises(ConfigurationError):
        tr.DatasetSpec("fourier", 1, 1, seed=0)


@pytest.mark.parametrize("field", ["epochs", "eval_every"])
def test_train_config_rejects_nonpositive_counts(field):
    with pytest.raises(ConfigurationError, match=field):
        tr.TrainConfig(**{field: 0})


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_keeps_parameters():
    params = np.array([1.0, -2.0])
    state = tr.AdamState.for_params(params)
    tr.adam_step(state, params, np.zeros(2), lr=0.1)
    assert np.array_equal(params, [1.0, -2.0])


def test_adam_first_step_value():
    params = np.array([0.0])
    state = tr.AdamState.for_params(params)
    tr.adam_step(state, params, np.array([1.0]), lr=0.1)
    assert params[0] == pytest.approx(-0.1, rel=1e-6)


def test_adam_step_size_bounded_for_constant_gradient():
    params = np.array([0.0])
    state = tr.AdamState.for_params(params)
    prev = 0.0
    for _ in range(200):
        tr.adam_step(state, params, np.array([1.0]), lr=0.05)
        delta = abs(params[0] - prev)
        prev = params[0]
        assert delta <= 0.05 * 1.01


def test_adam_rejects_non_finite_gradient():
    params = np.array([0.0])
    state = tr.AdamState.for_params(params)
    with pytest.raises(DivergenceError):
        tr.adam_step(state, params, np.array([np.nan]), lr=0.1)


def reference_adam_step(m, v, t, params, grads, lr, beta1, beta2, eps):
    """Adam over a list of arrays, one array at a time: the reference for the flat step."""
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise DivergenceError("non-finite gradient in Adam step")
    b1t = 1.0 - beta1**t
    b2t = 1.0 - beta2**t
    for p, g, mi, vi in zip(params, grads, m, v):
        mi *= beta1
        mi += (1.0 - beta1) * g
        vi *= beta2
        vi += (1.0 - beta2) * g * g
        p -= lr * (mi / b1t) / (np.sqrt(vi / b2t) + eps)


# zero and huge entries included; huge ones square to inf in v, as they would in training
_ENTRIES = st.one_of(
    st.just(0.0), st.floats(-1e3, 1e3), st.sampled_from([1e154, -1e200, 1e300, 5e-324])
)


_HYPER = st.tuples(
    st.floats(1e-4, 1.0), st.floats(0.0, 0.99), st.floats(0.0, 0.9999), st.floats(1e-12, 1e-6)
)


class AdamPair:
    """A network stepped by the flat Adam step beside its per-array reference."""

    def __init__(self, widths, seed):
        layers = tuple(an.Dense(i, o) for i, o in zip(widths, widths[1:]))
        self.net = an.init(an.NetworkSpec((widths[0],), layers), seed)
        self.params = [p.copy() for pair in zip(self.net.weights, self.net.biases) for p in pair]
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.state = tr.AdamState.for_params(self.net.params)

    def step(self, t, grads, hyper):
        """Steps both; params, m and v must agree bit for bit, NaN matching NaN."""
        lr, beta1, beta2, eps = hyper
        flat_grads = np.concatenate([g.reshape(-1) for g in grads])
        tr.adam_step(
            self.state, self.net.params, flat_grads, lr=lr, beta1=beta1, beta2=beta2, eps=eps
        )
        reference_adam_step(self.m, self.v, t, self.params, grads, lr, beta1, beta2, eps)
        assert self.state.t == t
        pairs = ((self.net.params, self.params), (self.state.m, self.m), (self.state.v, self.v))
        for flat, arrays in pairs:
            reference = np.concatenate([a.reshape(-1) for a in arrays])
            assert np.array_equal(flat, reference, equal_nan=True)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@settings(max_examples=60, deadline=None)
@given(st.data(), st.lists(st.integers(1, 5), min_size=2, max_size=5), st.integers(1, 4), _HYPER)
def test_flat_adam_matches_per_array_reference(data, widths, steps, hyper):
    pair = AdamPair(widths, data.draw(st.integers(0, 2**32 - 1)))
    net, state = pair.net, pair.state
    for t in range(1, steps + 1):
        grads = [data.draw(hnp.arrays(float, p.shape, elements=_ENTRIES)) for p in pair.params]
        pair.step(t, grads, hyper)
    bad = data.draw(st.integers(0, net.params.size - 1))
    grads = np.zeros_like(net.params)
    grads[bad] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    before = net.params.copy()
    with pytest.raises(DivergenceError):
        tr.adam_step(state, net.params, grads, lr=hyper[0])
    assert np.array_equal(net.params, before, equal_nan=True) and state.t == steps


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_flat_adam_matches_reference_when_v_turns_nan():
    # -1e200 squares to inf in v, and beta2 = 0 then scales that inf by 0 into NaN
    pair = AdamPair([1, 1], 0)
    hyper = (1.0, 0.0, 0.0, 9.6e-07)
    pair.step(1, [np.zeros((1, 1)), np.array([-1e200])], hyper)
    pair.step(2, [np.zeros((1, 1)), np.zeros(1)], hyper)
    assert np.isnan(pair.state.v).any()


# ---------------------------------------------------------------------------
# L-BFGS


def quadratic_closure():
    q = np.diag([1.0, 3.0, 10.0, 0.5, 7.0])
    b = np.arange(5.0)

    def closure(x):
        return 0.5 * x @ q @ x - b @ x, q @ x - b

    return closure, np.linalg.solve(q, b)


def lbfgs_minimize(closure, x0, max_iter, m=10, gtol=1e-12):
    """Loop lbfgs_step from x0 until the gradient norm reaches gtol."""
    f0, g0 = closure(x0)
    state = tr.LbfgsState(x=x0.copy(), f=f0, g=g0, m=m)
    for _ in range(max_iter):
        if float(np.linalg.norm(state.g)) <= gtol:
            break
        state = tr.lbfgs_step(state, closure)
    return state


def test_lbfgs_converges_on_quadratic_bowl():
    closure, x_star = quadratic_closure()
    state = lbfgs_minimize(closure, np.zeros(5), max_iter=20)
    assert np.abs(state.x - x_star).max() <= 1e-10


def test_lbfgs_no_movement_from_optimum():
    closure, x_star = quadratic_closure()
    state = lbfgs_minimize(closure, x_star, max_iter=5)
    assert np.abs(state.x - x_star).max() <= 1e-12


def test_lbfgs_zero_history_is_line_searched_descent():
    closure, x_star = quadratic_closure()
    state = lbfgs_minimize(closure, np.zeros(5), max_iter=300, m=0)
    assert not state.s_hist and not state.y_hist
    assert np.abs(state.x - x_star).max() <= 1e-6


# ---------------------------------------------------------------------------
# Training loop


def toy_data():
    ctx = ls.build_loss_context(np.eye(2), np.array([[1.0, 0.0]]))
    truth = sp.SolutionField(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
    feats = np.array([[1.0]])
    return tr.TrainData(
        ctx_train=ctx,
        ctx_test=ctx,
        train_features=feats,
        test_features=feats,
        train_truth=truth,
        test_truth=truth,
    )


def toy_program():
    return qsim.GateProgram(1, (qsim.Gate("ry", 0, slot=0),), 1)


def toy_net(seed=3):
    spec = an.NetworkSpec((1,), (an.Dense(1, 4, "gelu"), an.Dense(4, 1)))
    return an.init(spec, seed)


def test_toy_converges_within_500_steps():
    config = tr.TrainConfig(
        objective="normalized", epochs=500, learning_rate=0.005, eval_every=100
    )
    record = tr.train(config, toy_data(), toy_program(), toy_net())
    assert not record.aborted
    assert record.rows[-1].test_rel_l2 <= 1e-4


def test_toy_loss_trend_is_monotone_after_burn_in():
    config = tr.TrainConfig(
        objective="normalized", epochs=400, learning_rate=0.005, eval_every=1
    )
    record = tr.train(config, toy_data(), toy_program(), toy_net())
    losses = np.array([row.train_loss for row in record.rows])
    violations = 0
    windows = 0
    for start in range(100, len(losses) - 50):
        windows += 1
        if losses[start + 50] > losses[start] + 1e-12:
            violations += 1
    assert violations <= 0.05 * windows


def test_training_is_deterministic():
    config = tr.TrainConfig(
        objective="normalized", epochs=120, learning_rate=0.01, eval_every=40
    )
    rec1 = tr.train(config, toy_data(), toy_program(), toy_net(7))
    rec2 = tr.train(config, toy_data(), toy_program(), toy_net(7))
    for a, b in zip(rec1.rows, rec2.rows):
        assert (a.train_loss, a.test_loss, a.train_rel_l2, a.test_rel_l2) == (
            b.train_loss,
            b.test_loss,
            b.train_rel_l2,
            b.test_rel_l2,
        )
    for w1, w2 in zip(rec1.checkpoint_final.weights, rec2.checkpoint_final.weights):
        assert np.array_equal(w1, w2)


def test_training_unsupervised_contract():
    # corrupting the truth fields must not change the gradient trajectory
    config = tr.TrainConfig(objective="normalized", epochs=60, learning_rate=0.01, eval_every=60)
    data_clean = toy_data()
    data_dirty = toy_data()
    data_dirty.train_truth = sp.SolutionField(np.array([[9.0, -9.0]]), np.array([[9.0, -9.0]]))
    data_dirty.test_truth = data_clean.test_truth
    rec_clean = tr.train(config, data_clean, toy_program(), toy_net(5))
    rec_dirty = tr.train(config, data_dirty, toy_program(), toy_net(5))
    for w1, w2 in zip(rec_clean.checkpoint_final.weights, rec_dirty.checkpoint_final.weights):
        assert np.array_equal(w1, w2)
    assert rec_clean.rows[-1].test_loss == rec_dirty.rows[-1].test_loss


def test_training_aborts_on_divergence():
    net = toy_net()
    net.weights[0][...] = np.nan
    config = tr.TrainConfig(epochs=10, learning_rate=0.01, eval_every=5)
    record = tr.train(config, toy_data(), toy_program(), net)
    assert record.aborted
    assert "diverge" in record.abort_reason or "finite" in record.abort_reason


@pytest.mark.parametrize("optimizer, call", [("adam", 3), ("lbfgs", 1), ("lbfgs", 3)])
def test_failed_step_keeps_partial_record(optimizer, call, monkeypatch):
    # L-BFGS call 1 is its first evaluation, call 3 falls inside a line search
    fail_grad_total_at(monkeypatch, DegenerateDenominatorError("injected"), call)
    config = tr.TrainConfig(
        objective="normalized", optimizer=optimizer, epochs=10, learning_rate=0.01, eval_every=1
    )
    record = tr.train(config, toy_data(), toy_program(), toy_net())
    assert record.aborted and "injected" in record.abort_reason
    assert record.rows  # the evaluations before the failure, or the epoch-0 row


def test_failed_evaluation_keeps_partial_record(monkeypatch):
    real, calls = tr.evaluate_split, []

    def evaluate(*args):
        calls.append(None)
        if len(calls) > 2:  # each record evaluates the train and the test split
            raise DivisionGuardError("injected")
        return real(*args)

    monkeypatch.setattr(tr, "evaluate_split", evaluate)
    config = tr.TrainConfig(epochs=10, learning_rate=0.01, eval_every=2)
    record = tr.train(config, toy_data(), toy_program(), toy_net())
    assert record.aborted and record.abort_reason == "injected at epoch 4"
    assert [row.epoch for row in record.rows] == [2]


def test_configuration_error_escapes_training(monkeypatch):
    fail_grad_total_at(monkeypatch, ConfigurationError("injected"), 1)
    with pytest.raises(ConfigurationError, match="injected"):
        tr.train(tr.TrainConfig(epochs=5, eval_every=5), toy_data(), toy_program(), toy_net())


def test_lbfgs_training_path_runs():
    config = tr.TrainConfig(
        objective="normalized", optimizer="lbfgs", epochs=30, eval_every=10, learning_rate=1.0
    )
    record = tr.train(config, toy_data(), toy_program(), toy_net())
    assert not record.aborted
    assert record.rows[-1].test_rel_l2 <= 1e-3


def test_checkpoint_reproduces_metrics(tmp_path):
    system = helm_system(8)
    dataset = tr.generate_dataset(tr.DatasetSpec("trig_1d", 4, 3, seed=2), system)
    program = qsim.build_hardware_efficient_ry(3, 3)
    feat_dim = len(dataset.train.features[0])
    spec = an.NetworkSpec((feat_dim,), (an.Dense(feat_dim, 16, "gelu"), an.Dense(16, program.n_slots)))
    net = an.init(spec, 1)
    data = tr.TrainData.from_dataset(dataset, system, spec.input_shape)
    config = tr.TrainConfig(objective="normalized", epochs=150, learning_rate=5e-3, eval_every=50)
    record = tr.train(config, data, program, net)
    ref = tr.evaluate_split(
        data.ctx_test, program, record.checkpoint_best, data.test_features, data.test_truth, "normalized"
    )
    path = tmp_path / "checkpoint.bin"
    an.save_checkpoint(record.checkpoint_best, path)
    loaded = an.load_checkpoint(path)
    again = tr.evaluate_split(
        data.ctx_test, program, loaded, data.test_features, data.test_truth, "normalized"
    )
    assert again["rel_l2"] == pytest.approx(ref["rel_l2"], abs=1e-12)
    assert again["loss"] == pytest.approx(ref["loss"], abs=1e-12)
    # the last recorded row is reproducible from the final checkpoint
    final_eval = tr.evaluate_split(
        data.ctx_test,
        program,
        record.checkpoint_final,
        data.test_features,
        data.test_truth,
        "normalized",
    )
    assert final_eval["rel_l2"] == pytest.approx(record.rows[-1].test_rel_l2, abs=1e-12)
    assert final_eval["loss"] == pytest.approx(record.rows[-1].test_loss, abs=1e-12)


@pytest.mark.parametrize(
    "pde,family", [("helm1d", "trig_1d"), ("joint_helm", "joint_k")], ids=["fixed", "joint"]
)
def test_training_path_builds_no_pauli_data(pde, family, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("Pauli data built on the training path")

    for name in ("decompose", "adjoint_product", "normal_operator", "group_commuting"):
        monkeypatch.setattr(pl, name, forbidden)
        if hasattr(ls, name):
            monkeypatch.setattr(ls, name, forbidden)
    system = sp.assemble_system(pde, {"k_squared": 16.0}, BC_D, 8)
    dataset = tr.generate_dataset(tr.DatasetSpec(family, 3, 2, seed=4), system)
    program = qsim.build_hardware_efficient_ry(3, 2)
    width = len(dataset.train.features[0]) + (dataset.train.k_values is not None)
    spec = an.NetworkSpec((width,), (an.Dense(width, program.n_slots),))
    net = an.init(spec, 0)
    data = tr.TrainData.from_dataset(dataset, system, spec.input_shape)
    _, value = ls.grad_total(data.ctx_train, program, net, data.train_features)
    result = tr.evaluate_split(
        data.ctx_test, program, net, data.test_features, data.test_truth, "unnormalized"
    )
    assert np.isfinite(value.total) and np.isfinite(result["rel_l2"])


def test_evaluate_empty_split_has_empty_per_instance_lists():
    system = sp.assemble_system("helm1d", {"k_squared": 4.0}, BC_D, 4)
    dataset = tr.generate_dataset(tr.DatasetSpec("trig_1d", 1, 0, seed=4), system)
    program = qsim.build_hardware_efficient_ry(2, 1)
    shape = tr.feature_shape(dataset.train, grid=False)
    spec = an.NetworkSpec(shape, (an.Dense(shape[0], program.n_slots),))
    data = tr.TrainData.from_dataset(dataset, system, shape)
    result = tr.evaluate_split(
        data.ctx_test, program, an.init(spec, 0), data.test_features, data.test_truth, "normalized"
    )
    for key in ("rel_l2", "rel_linf", "mae"):
        assert result[f"per_instance_{key}"] == [] and np.isnan(result[key])
    assert np.isnan(result["loss"])


@pytest.mark.parametrize(
    "pde, bc, family", [("helm1d", BC_D, "trig_1d"), ("wave1d", BC_WAVE, "wave_family")]
)
def test_grid_basis_tabulated_once_per_system(pde, bc, family, monkeypatch):
    system = sp.assemble_system(pde, {"k_squared": 4.0}, bc, 4)
    nodes = system.quads[0].nodes
    tabulate = sp.CompactBasis.eval_matrix
    on_grid = []

    def counting(basis, x, derivative=0):
        on_grid.append(np.array_equal(x, nodes))
        return tabulate(basis, x, derivative)

    monkeypatch.setattr(sp.CompactBasis, "eval_matrix", counting)
    dataset = tr.generate_dataset(tr.DatasetSpec(family, 3, 2, seed=4), system)
    program = qsim.build_hardware_efficient_ry(system.size.bit_length() - 1, 2)
    width = dataset.train.features[0].size
    spec = an.NetworkSpec((width,), (an.Dense(width, program.n_slots),))
    data = tr.TrainData.from_dataset(dataset, system, spec.input_shape)
    result = tr.evaluate_split(
        data.ctx_test, program, an.init(spec, 0), data.test_features, data.test_truth, "normalized"
    )
    assert np.isfinite(result["rel_l2"])
    assert 0 < sum(on_grid) <= system.direction_count


def test_joint_truth_solves_share_the_basis_tables(monkeypatch):
    system = sp.assemble_system("joint_helm", {"k_squared": 16.0}, BC_D, 16)
    tabulate = sp.CompactBasis.eval_matrix
    calls = []

    def counting(basis, x, derivative=0):
        calls.append(None)
        return tabulate(basis, x, derivative)

    monkeypatch.setattr(sp.CompactBasis, "eval_matrix", counting)
    dataset = tr.generate_dataset(tr.DatasetSpec("joint_k", 20, 50, seed=3), system)
    assert dataset.test.truth.coefficients.shape == (50, system.size)
    assert len(calls) == system.direction_count


def test_fixed_operator_conditioning_checked_once_per_system(monkeypatch):
    system = helm_system()
    condition = np.linalg.cond
    calls = []

    def counting(matrix, *args, **kwargs):
        calls.append(None)
        return condition(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counting)
    dataset = tr.generate_dataset(tr.DatasetSpec("trig_1d", 20, 50, seed=11), system)
    assert dataset.test.truth.coefficients.shape == (50, system.size)
    assert len(calls) == 1


def test_run_record_roundtrip(tmp_path):
    config = tr.TrainConfig(objective="normalized", epochs=60, learning_rate=0.01, eval_every=20)
    record = tr.train(config, toy_data(), toy_program(), toy_net())
    path = tmp_path / "run_record.csv"
    tr.write_run_record(record, path)
    rows = tr.read_run_record(path)
    assert len(rows) == len(record.rows)
    for a, b in zip(rows, record.rows):
        assert a.epoch == b.epoch
        assert a.train_loss == b.train_loss
        assert a.test_rel_l2 == b.test_rel_l2
