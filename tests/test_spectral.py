import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqspectral import spectral as sp
from vqspectral.errors import (
    BasisConstructionError,
    ConfigurationError,
    ContractViolation,
    DivisionGuardError,
    SingularSystemError,
)

BC_D = sp.BoundarySpec((sp.DirectionBC.dirichlet(),))
BC_N = sp.BoundarySpec((sp.DirectionBC.neumann(),))
BC_2D = sp.BoundarySpec((sp.DirectionBC.dirichlet(), sp.DirectionBC.dirichlet()))
BC_WAVE = sp.BoundarySpec((sp.DirectionBC.dirichlet(), sp.DirectionBC.initial_value()))
BC_DN = sp.BoundarySpec((sp.DirectionBC.dirichlet(), sp.DirectionBC.neumann()))


# ---------------------------------------------------------------------------
# Legendre polynomials


def test_legendre_low_degrees():
    assert sp.legendre_eval(0, 0.3) == 1.0
    assert sp.legendre_eval(1, -0.5) == -0.5
    # (3 x^2 - 1)/2 at 0.5
    assert sp.legendre_eval(2, 0.5) == pytest.approx(-0.125, abs=1e-15)


def test_legendre_recurrence_matches_closed_forms(rng):
    x = rng.uniform(-1, 1, 50)
    assert np.allclose(sp.legendre_eval(2, x), (3 * x**2 - 1) / 2, atol=1e-14)
    assert np.allclose(sp.legendre_eval(3, x), (5 * x**3 - 3 * x) / 2, atol=1e-14)
    assert np.allclose(sp.legendre_table(3, x)[1][3], (15 * x**2 - 3) / 2, atol=1e-13)


def test_legendre_out_of_range_rejected():
    with pytest.raises(ContractViolation):
        sp.legendre_eval(2, 1.5)
    with pytest.raises(ContractViolation):
        sp.legendre_eval(-1, 0.0)


# ---------------------------------------------------------------------------
# LGL quadrature


def test_lgl_order_two_closed_form():
    rule = sp.lgl_rule(2)
    assert np.allclose(rule.nodes, [-1.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(rule.weights, [1 / 3, 4 / 3, 1 / 3], atol=1e-15)


def test_lgl_order_one_endpoints():
    rule = sp.lgl_rule(1)
    assert np.allclose(rule.nodes, [-1.0, 1.0])
    assert np.allclose(rule.weights, [1.0, 1.0])


@pytest.mark.parametrize("order", [3, 8, 17, 36])
def test_lgl_weights_sum_to_two(order):
    rule = sp.lgl_rule(order)
    assert rule.weights.sum() == pytest.approx(2.0, abs=1e-13)
    assert np.all(rule.weights > 0)
    assert rule.nodes[0] == -1.0 and rule.nodes[-1] == 1.0


@pytest.mark.parametrize("order", [4, 9, 16])
def test_lgl_exactness_up_to_degree(order):
    rule = sp.lgl_rule(order)
    for p in range(2 * order):
        exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
        assert np.sum(rule.weights * rule.nodes**p) == pytest.approx(exact, abs=1e-12)


def test_lgl_rejects_order_zero():
    with pytest.raises(ContractViolation):
        sp.lgl_rule(0)


# ---------------------------------------------------------------------------
# Compact bases


def test_dirichlet_closed_form():
    basis = sp.basis_coeffs(sp.DirectionBC.dirichlet(), 8)
    assert np.all(basis.a == 0.0)
    assert np.all(basis.b == -1.0)


def test_neumann_closed_form():
    basis = sp.basis_coeffs(sp.DirectionBC.neumann(), 8)
    assert np.all(basis.a == 0.0)
    assert basis.b[1] == pytest.approx(-1 / 6, abs=1e-15)
    k = np.arange(8.0)
    assert np.allclose(basis.b, -k * (k + 1) / ((k + 2) * (k + 3)), atol=1e-15)


def test_initial_value_solves_endpoint_system():
    # oracle: solve the 2x2 endpoint system directly from Legendre endpoint data
    basis = sp.basis_coeffs(sp.DirectionBC.initial_value(), 6)
    for k in range(6):
        val = lambda deg: (-1.0) ** deg  # noqa: E731  L_deg(-1)
        der = lambda deg: (-1.0) ** (deg - 1) * deg * (deg + 1) / 2  # noqa: E731
        mat = np.array([[val(k + 1), val(k + 2)], [der(k + 1), der(k + 2)]])
        rhs = -np.array([val(k), der(k)])
        a_k, b_k = np.linalg.solve(mat, rhs)
        assert basis.a[k] == pytest.approx(a_k, abs=1e-13)
        assert basis.b[k] == pytest.approx(b_k, abs=1e-13)
    assert basis.a[0] == pytest.approx(1.5, abs=1e-14)
    assert basis.b[0] == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize(
    "bc",
    [
        sp.DirectionBC.dirichlet(),
        sp.DirectionBC.neumann(),
        sp.DirectionBC.initial_value(),
        sp.DirectionBC.mixed((1.0, 1.0), (1.0, -0.5)),
    ],
)
def test_endpoint_residuals_vanish(bc):
    basis = sp.basis_coeffs(bc, 12)
    assert basis.endpoint_residuals().max() <= 1e-12


def test_degenerate_mixed_condition_rejected():
    with pytest.raises(BasisConstructionError):
        sp.basis_coeffs(sp.DirectionBC.mixed((0.0, 0.0), (1.0, 0.0)), 4)


def test_basis_needs_two_modes():
    with pytest.raises(ContractViolation):
        sp.basis_coeffs(sp.DirectionBC.dirichlet(), 1)


# ---------------------------------------------------------------------------
# Galerkin matrices


def test_stiffness_dirichlet_values():
    basis = sp.basis_coeffs(sp.DirectionBC.dirichlet(), 6)
    s = sp.assemble_1d("stiffness", basis)
    assert s[0, 0] == pytest.approx(-6.0, abs=1e-14)
    assert np.allclose(s, np.diag(np.diag(s)))
    assert np.allclose(np.diag(s), -(4 * np.arange(6) + 6), atol=1e-14)


def test_mass_dirichlet_values():
    basis = sp.basis_coeffs(sp.DirectionBC.dirichlet(), 6)
    m = sp.assemble_1d("mass", basis)
    assert m[0, 0] == pytest.approx(2.4, abs=1e-15)
    assert np.allclose(m, m.T)
    # bands beyond offset 2 vanish
    for k in range(6):
        for j in range(6):
            if abs(k - j) > 2:
                assert m[k, j] == 0.0


def test_convection_dirichlet_values():
    basis = sp.basis_coeffs(sp.DirectionBC.dirichlet(), 5)
    r = sp.assemble_1d("convection", basis)
    assert r[1, 0] == 2.0 and r[0, 1] == -2.0
    assert np.allclose(r, -r.T)


@pytest.mark.parametrize("kind", ["stiffness", "mass", "convection"])
def test_matrices_match_quadrature_of_defining_integrals(kind):
    # independent route: LGL quadrature of the integrals the bands encode
    basis = sp.basis_coeffs(sp.DirectionBC.dirichlet(), 10)
    quad = sp.lgl_rule(16)
    phi = basis.eval_matrix(quad.nodes)
    dphi = basis.eval_matrix(quad.nodes, derivative=1)
    ddphi = basis.eval_matrix(quad.nodes, derivative=2)
    expected = {
        "stiffness": (phi * quad.weights) @ ddphi.T,
        "mass": (phi * quad.weights) @ phi.T,
        "convection": (dphi * quad.weights) @ phi.T,
    }[kind]
    built = sp.assemble_1d(kind, basis)
    assert np.abs(built - expected).max() < 1e-12


def test_neumann_stiffness_matches_quadrature():
    basis = sp.basis_coeffs(sp.DirectionBC.neumann(), 10)
    quad = sp.lgl_rule(16)
    phi = basis.eval_matrix(quad.nodes)
    ddphi = basis.eval_matrix(quad.nodes, derivative=2)
    expected = (phi * quad.weights) @ ddphi.T
    assert np.abs(sp.assemble_1d("stiffness", basis) - expected).max() < 1e-12


def test_initial_value_mass_closed_form_matches_quadrature():
    basis = sp.basis_coeffs(sp.DirectionBC.initial_value(), 8)
    quad = sp.lgl_rule(14)
    phi = basis.eval_matrix(quad.nodes)
    expected = (phi * quad.weights) @ phi.T
    assert np.abs(sp.assemble_1d("mass", basis) - expected).max() < 1e-12


def test_unknown_matrix_kind_rejected():
    basis = sp.basis_coeffs(sp.DirectionBC.dirichlet(), 4)
    with pytest.raises(ConfigurationError):
        sp.assemble_1d("advection", basis)


# ---------------------------------------------------------------------------
# System assembly


def test_rd1d_entry_combines_stiffness_and_mass():
    system = sp.assemble_system("rd1d", {"epsilon": 0.1}, BC_D, 2)
    assert system.matrix[0, 0] == pytest.approx(-0.1 * -6.0 + 2.4, abs=1e-14)


def test_helm1d_zero_mass_limit():
    system = sp.assemble_system("helm1d", {"k_squared": 0.0}, BC_D, 8)
    basis = sp.basis_coeffs(sp.DirectionBC.dirichlet(), 8)
    assert np.array_equal(system.matrix, sp.assemble_1d("stiffness", basis))


def test_joint_helm_split_is_exact():
    system = sp.assemble_system("joint_helm", {"k_squared": 4.0}, BC_D, 16)
    b, c = system.parametric_parts
    assert np.linalg.norm(system.matrix - (b + 4.0 * c)) == 0.0


def test_parametric_split_holds_for_random_k(rng):
    system = sp.assemble_system("joint_helm", {"k_squared": 16.0}, BC_D, 16)
    b, c = system.parametric_parts
    for k in rng.uniform(4.0, 5.0, 50):
        rebuilt = sp.assemble_system("joint_helm", {"k_squared": k * k}, BC_D, 16)
        assert np.linalg.norm(rebuilt.matrix - (b + k * k * c)) <= 1e-12


def test_joint_helm_2d_split():
    system = sp.assemble_system("joint_helm", {"k_squared": 4.03}, BC_2D, 8)
    b, c = system.parametric_parts
    assert np.linalg.norm(system.matrix - (b + 4.03 * c)) <= 1e-12


def test_unsupported_combination_rejected():
    neumann_2d = sp.BoundarySpec((sp.DirectionBC.neumann(),) * 2)
    cases = [
        ("cd1d", BC_N),
        ("rd2d", BC_D),
        ("wave1d", BC_2D),
        ("wave1d", BC_D),
        ("joint_helm", sp.BoundarySpec((sp.DirectionBC.dirichlet(),) * 3)),
        ("helm1d", BC_2D),
        ("cd2d", neumann_2d),
    ]
    for pde, bc in cases:
        with pytest.raises(ConfigurationError):
            sp.assemble_system(pde, {"epsilon": 0.1, "k_squared": 4.0}, bc, 4)


_PARAMS = {"epsilon": 0.37, "k_squared": 2.3, "nu": 0.7, "nu1": 0.7, "nu2": -1.3}


def _written_out(pde, bc, n_modes):
    """Each family's operator and (B, C) split, Kronecker term by Kronecker term.

    The slow (second) direction is the left factor; cd is -eps Lap u - nu.grad u
    and the wave lives on x in [0, 1] (J = 2), t in [0, 2] (J = 1).
    """
    quad = sp.lgl_rule(n_modes + 4)
    bases = [sp.basis_coeffs(direction, n_modes) for direction in bc.directions]
    s, m, r = (
        [sp.assemble_1d(kind, basis, quad) for basis in bases]
        for kind in ("stiffness", "mass", "convection")
    )
    eps, k2, nu, nu1, nu2 = (_PARAMS[key] for key in ("epsilon", "k_squared", "nu", "nu1", "nu2"))
    if len(bases) == 1:
        (s,), (m,), (r,) = s, m, r
        return {
            "rd1d": (-eps * s + m, None),
            "helm1d": (s + k2 * m, None),
            "cd1d": (-eps * s + nu * r, None),
            "joint_helm": (s + k2 * m, (s, m)),
        }[pde]
    (sx, sy), (mx, my), (rx, ry) = s, m, r
    laplace, mass = np.kron(my, sx) + np.kron(sy, mx), np.kron(my, mx)
    return {
        "rd2d": (-eps * laplace + mass, None),
        "helm2d": (laplace + k2 * mass, None),
        "cd2d": (-eps * laplace + nu1 * np.kron(my, rx) + nu2 * np.kron(ry, mx), None),
        "joint_helm": (laplace + k2 * mass, (laplace, mass)),
        "wave1d": (np.kron(sy, mx) - 4.0 * np.kron(my, sx), None),
    }[pde]


_ELLIPTIC = [("rd1d", 1), ("helm1d", 1), ("rd2d", 2), ("helm2d", 2), ("joint_helm", 1), ("joint_helm", 2)]
_SUPPORTED = [(pde, kind, d) for pde, d in _ELLIPTIC for kind in ("dirichlet", "neumann")] + [
    ("cd1d", "dirichlet", 1),
    ("cd2d", "dirichlet", 2),
    ("wave1d", "initial_value", 2),
]


@pytest.mark.parametrize("n_modes", [4, 8])
@pytest.mark.parametrize("pde, kind, d", _SUPPORTED)
def test_assembly_matches_written_out_kronecker_sums(pde, kind, d, n_modes):
    if kind == "initial_value":
        bc = BC_WAVE
    else:
        bc = sp.BoundarySpec((getattr(sp.DirectionBC, kind)(),) * d)
    system = sp.assemble_system(pde, _PARAMS, bc, n_modes)
    matrix, parts = _written_out(pde, bc, n_modes)
    assert np.array_equal(system.matrix, matrix)
    if parts is None:
        assert system.parametric_parts is None
    else:
        assert all(np.array_equal(got, want) for got, want in zip(system.parametric_parts, parts))


# ---------------------------------------------------------------------------
# Forward transform


def test_forward_transform_zero():
    system = sp.assemble_system("rd1d", {"epsilon": 0.1}, BC_D, 8)
    coeffs, norm = sp.forward_transform(np.zeros(system.quads[0].nodes.size), system)
    assert np.all(coeffs == 0.0) and norm == 0.0


def test_forward_transform_of_basis_function_gives_mass_column():
    system = sp.assemble_system("rd1d", {"epsilon": 0.1}, BC_D, 8)
    basis = system.bases[0]
    phi0 = basis.eval_matrix(system.quads[0].nodes)[0]
    coeffs, _ = sp.forward_transform(phi0, system)
    mass = sp.assemble_1d("mass", basis)
    assert coeffs[0] == pytest.approx(2.4, abs=1e-12)
    assert coeffs[1] == pytest.approx(0.0, abs=1e-12)
    assert coeffs[2] == pytest.approx(-2 / 5, abs=1e-12)
    assert np.abs(coeffs - mass[:, 0]).max() < 1e-12


def test_forward_transform_sine_against_high_precision_quadrature():
    # frozen oracle: 40-digit adaptive quadrature of sin(x) (L_k - L_{k+2})
    expected = np.array(
        [
            0.0,
            0.62035052011373861,
            0.0,
            -0.018198284551447549,
            0.0,
            0.00018608034406226422,
            0.0,
            -9.6100959275300801e-7,
        ]
    )
    system = sp.assemble_system("rd1d", {"epsilon": 0.1}, BC_D, 8)
    grid = system.grid()[0]
    coeffs, _ = sp.forward_transform(np.sin(grid), system)
    assert np.abs(coeffs - expected).max() < 1e-10


def test_forward_transform_2d_zero_and_shape():
    system = sp.assemble_system("rd2d", {"epsilon": 0.1}, BC_2D, 4)
    qx, qy = system.quads
    coeffs, norm = sp.forward_transform(np.zeros((qx.nodes.size, qy.nodes.size)), system)
    assert coeffs.shape == (16,) and norm == 0.0


def test_forward_transform_shape_mismatch():
    system = sp.assemble_system("rd1d", {"epsilon": 0.1}, BC_D, 8)
    with pytest.raises(ContractViolation):
        sp.forward_transform(np.zeros(3), system)


def test_forward_transform_2d_separable_product(rng):
    # oracle: for f(x,y) = g(x) h(y) the transform factorizes into 1D transforms
    system = sp.assemble_system("rd2d", {"epsilon": 0.1}, BC_2D, 6)
    gx = np.sin(1.3 * system.grid()[0])
    hy = np.cos(0.4 * system.grid()[1])
    coeffs, _ = sp.forward_transform(np.outer(gx, hy), system)
    sys1d = sp.assemble_system("rd1d", {"epsilon": 0.1}, BC_D, 6)
    fx, _ = sp.forward_transform(gx, sys1d)
    fy, _ = sp.forward_transform(hy, sys1d)
    assert np.abs(coeffs - np.kron(fy, fx)).max() < 1e-12


@functools.cache
def _layout_system(pde, n_modes):
    # every direction has its own basis, so a swapped pair of axes cannot go unseen
    bc = {"helm1d": BC_D, "helm2d": BC_DN, "wave1d": BC_WAVE}[pde]
    return sp.assemble_system(pde, {"k_squared": 4.0}, bc, n_modes)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["helm1d", "helm2d", "wave1d"]),
    st.sampled_from([4, 8]),
    st.integers(0, 2**32 - 1),
)
def test_transform_of_reconstruction_is_tensor_mass(pde, n_modes, seed):
    # LGL order N + 4 integrates every product of two basis functions exactly, so
    # projecting the nodal values of c gives the Kronecker mass matrix, first direction fastest
    system = _layout_system(pde, n_modes)
    c = np.random.default_rng(seed).uniform(-1.0, 1.0, system.size)
    masses = [sp.assemble_1d("mass", basis) for basis in system.bases]
    mass = functools.reduce(lambda fast, slow: np.kron(slow, fast), masses)
    coeffs, _ = sp.forward_transform(sp.reconstruct(system, c), system)
    assert np.abs(coeffs - mass @ c).max() <= 1e-12


# ---------------------------------------------------------------------------
# Classical solve and reconstruction


def test_identity_system_returns_rhs(rng):
    system = sp.assemble_system("rd1d", {"epsilon": 0.1}, BC_D, 8)
    identity = dataclasses.replace(system, matrix=np.eye(8))
    rhs = rng.standard_normal(8)
    solution = sp.classical_solve(identity, rhs)
    assert np.abs(solution.coefficients - rhs).max() < 1e-14


def test_manufactured_rd1d():
    system = sp.assemble_system("rd1d", {"epsilon": 0.1}, BC_D, 32)
    grid = system.grid()[0]
    rhs, _ = sp.forward_transform((0.1 * np.pi**2 + 1) * np.sin(np.pi * grid), system)
    solution = sp.classical_solve(system, rhs)
    truth = sp.SolutionField(None, np.sin(np.pi * grid))
    assert sp.metrics(solution, truth, system)["rel_l2"] <= 1e-8


def test_manufactured_helm1d_dirichlet():
    system = sp.assemble_system("helm1d", {"k_squared": 4.0}, BC_D, 32)
    grid = system.grid()[0]
    rhs, _ = sp.forward_transform((4.0 - np.pi**2) * np.sin(np.pi * grid), system)
    solution = sp.classical_solve(system, rhs)
    truth = sp.SolutionField(None, np.sin(np.pi * grid))
    assert sp.metrics(solution, truth, system)["rel_linf"] <= 1e-8


def test_manufactured_helm1d_neumann():
    system = sp.assemble_system("helm1d", {"k_squared": 4.7}, BC_N, 32)
    grid = system.grid()[0]
    rhs, _ = sp.forward_transform((4.7 - np.pi**2) * np.cos(np.pi * grid), system)
    solution = sp.classical_solve(system, rhs)
    truth = sp.SolutionField(None, np.cos(np.pi * grid))
    assert sp.metrics(solution, truth, system)["rel_l2"] <= 1e-8


def test_manufactured_cd1d():
    # with the pinned convection band signs, -eps*S + nu*R is the Galerkin
    # matrix of -eps u'' - nu u' on the reference interval
    eps, nu = 0.1, 1.0
    system = sp.assemble_system("cd1d", {"epsilon": eps, "nu": nu}, BC_D, 32)
    grid = system.grid()[0]
    forcing = eps * np.pi**2 * np.sin(np.pi * grid) - nu * np.pi * np.cos(np.pi * grid)
    rhs, _ = sp.forward_transform(forcing, system)
    solution = sp.classical_solve(system, rhs)
    truth = sp.SolutionField(None, np.sin(np.pi * grid))
    assert sp.metrics(solution, truth, system)["rel_l2"] <= 1e-10


def test_manufactured_cd2d():
    # -eps Lap u - nu1 u_x - nu2 u_y, the same convection sign as cd1d
    eps, nu1, nu2 = 0.1, 1.0, 0.6
    system = sp.assemble_system("cd2d", {"epsilon": eps, "nu1": nu1, "nu2": nu2}, BC_2D, 16)
    x, y = np.meshgrid(*system.grid(), indexing="ij")
    sx, sy, cx, cy = np.sin(np.pi * x), np.sin(np.pi * y), np.cos(np.pi * x), np.cos(np.pi * y)
    forcing = 2 * eps * np.pi**2 * sx * sy - np.pi * (nu1 * cx * sy + nu2 * sx * cy)
    rhs, _ = sp.forward_transform(forcing, system)
    solution = sp.classical_solve(system, rhs)
    truth = sp.SolutionField(None, sx * sy)
    assert sp.metrics(solution, truth, system)["rel_l2"] <= 1e-10


def test_spectral_convergence_is_monotone():
    errors = []
    for n_modes in (8, 16, 32):
        system = sp.assemble_system("helm1d", {"k_squared": 4.0}, BC_D, n_modes)
        grid = system.grid()[0]
        rhs, _ = sp.forward_transform((4.0 - np.pi**2) * np.sin(np.pi * grid), system)
        solution = sp.classical_solve(system, rhs)
        truth = sp.SolutionField(None, np.sin(np.pi * grid))
        errors.append(sp.metrics(solution, truth, system)["rel_l2"])
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 1e-8


def test_manufactured_rd2d():
    system = sp.assemble_system("rd2d", {"epsilon": 0.1}, BC_2D, 12)
    x, y = np.meshgrid(*system.grid(), indexing="ij")
    truth_vals = np.sin(np.pi * x) * np.sin(np.pi * y)
    rhs, _ = sp.forward_transform((0.2 * np.pi**2 + 1) * truth_vals, system)
    solution = sp.classical_solve(system, rhs)
    assert sp.metrics(solution, sp.SolutionField(None, truth_vals), system)["rel_l2"] <= 1e-8


def test_manufactured_wave_family():
    # exact solution of u_tt - u_xx = f for the benchmark forcing family
    errors = []
    omega = 1.3
    for n_modes in (8, 12, 16):
        system = sp.assemble_system("wave1d", {}, BC_WAVE, n_modes)
        x, t = np.meshgrid(*system.grid(), indexing="ij")
        wp, wm = np.pi * (1 + omega), np.pi * (1 - omega)
        forcing = (1 + wp**2 * t**2 / 2) * np.sin(wp * x) + (1 + wm**2 * t**2 / 2) * np.sin(
            wm * x
        )
        truth_vals = t**2 / 2 * (np.sin(wp * x) + np.sin(wm * x))
        rhs, _ = sp.forward_transform(forcing, system)
        solution = sp.classical_solve(system, rhs)
        errors.append(sp.metrics(solution, sp.SolutionField(None, truth_vals), system)["rel_l2"])
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 1e-10


def test_solution_field_roundtrip(rng):
    system = sp.assemble_system("helm1d", {"k_squared": 4.0}, BC_D, 16)
    coeffs = rng.standard_normal(16)
    nodal = sp.reconstruct(system, coeffs)
    phi = system.bases[0].eval_matrix(system.quads[0].nodes)
    assert np.abs(nodal - coeffs @ phi).max() <= 1e-10


@pytest.mark.parametrize("pde, bc", [("helm1d", BC_D), ("rd2d", BC_2D), ("wave1d", BC_WAVE)])
def test_stacked_rows_match_single_rows(pde, bc, rng):
    system = sp.assemble_system(pde, {"k_squared": 4.0, "epsilon": 0.1}, bc, 4)
    coeffs = rng.standard_normal((3, system.size))
    truth_coeffs = rng.standard_normal((3, system.size))
    nodal = sp.reconstruct(system, coeffs)
    truth = sp.reconstruct(system, truth_coeffs)
    stacked = sp.metrics(_fields(nodal), _fields(truth), system)
    for i in range(3):
        single = sp.reconstruct(system, coeffs[i])
        assert nodal.shape[1:] == single.shape and np.abs(nodal[i] - single).max() <= 1e-14
        one = sp.metrics(sp.SolutionField(None, single), sp.SolutionField(None, truth[i]), system)
        for key, value in one.items():
            assert stacked[key][i] == pytest.approx(value, rel=1e-14)
    flat = sp.metrics(_fields(coeffs), _fields(truth_coeffs), None)
    assert flat["rel_linf"].shape == (3,)
    gap = np.abs(coeffs[1] - truth_coeffs[1]).max()
    assert flat["rel_linf"][1] == gap / np.abs(truth_coeffs[1]).max()


def test_singular_system_raises():
    system = sp.assemble_system("rd1d", {"epsilon": 0.1}, BC_D, 8)
    bad = dataclasses.replace(system, matrix=np.zeros((8, 8)))
    for _ in range(2):  # the second solve reads the cached condition number
        with pytest.raises(SingularSystemError):
            sp.classical_solve(bad, np.ones(8))


# ---------------------------------------------------------------------------
# Metrics


def _fields(values):
    return sp.SolutionField(None, np.asarray(values, dtype=float))


def test_metrics_zero_for_equal_fields():
    system = sp.assemble_system("rd1d", {"epsilon": 0.1}, BC_D, 8)
    grid = system.grid()[0]
    truth = _fields(np.sin(np.pi * grid))
    out = sp.metrics(truth, truth, system)
    assert out == {"mae": 0.0, "rel_l2": 0.0, "rel_linf": 0.0}


def test_metrics_homogeneity():
    system = sp.assemble_system("rd1d", {"epsilon": 0.1}, BC_D, 8)
    grid = system.grid()[0]
    truth = np.sin(np.pi * grid)
    out = sp.metrics(_fields(2 * truth), _fields(truth), system)
    assert out["rel_l2"] == pytest.approx(1.0, abs=1e-13)
    assert out["rel_linf"] == pytest.approx(1.0, abs=1e-13)


def test_metrics_constant_offset_mae():
    system = sp.assemble_system("rd1d", {"epsilon": 0.1}, BC_D, 8)
    grid = system.grid()[0]
    truth = np.sin(np.pi * grid)
    c = 0.037
    out = sp.metrics(_fields(truth + c), _fields(truth), system)
    assert out["mae"] == pytest.approx(c, abs=1e-14)


def test_metrics_zero_truth_guard():
    with pytest.raises(DivisionGuardError):
        sp.metrics(_fields([1.0, 2.0]), _fields([0.0, 0.0]), None)

