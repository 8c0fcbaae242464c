"""Legendre-Galerkin spectral core.

Builds compact Legendre bases in closed form for Dirichlet, Neumann and
initial-value directions, so each satisfies its boundary conditions exactly;
Legendre-Gauss-Lobatto quadrature, the stiffness/mass/convection matrices,
forward transforms of forcing data, direct classical solves (the ground-truth
oracle), and the error metrics used to score predictions.

Conventions: all assembly happens on the reference interval [-1, 1] per
direction. Physical domains enter through an affine map whose Jacobian scales
derivative matrices (second derivative by J^2, first by J); the common measure
factor cancels between the operator and the right-hand side, so forward
transforms integrate against the reference measure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    ContractViolation,
    DivisionGuardError,
    NumericError,
    SingularSystemError,
)

__all__ = [
    "DirectionBC",
    "BoundarySpec",
    "CompactBasis",
    "QuadratureRule",
    "SpectralSystem",
    "SolutionField",
    "legendre_eval",
    "legendre_table",
    "lgl_rule",
    "basis_coeffs",
    "assemble_1d",
    "assemble_system",
    "forward_transform",
    "classical_solve",
    "reconstruct",
    "metrics",
    "BENCHMARK_PDES",
]

_MAX_NEWTON_ITER = 100


# ---------------------------------------------------------------------------
# Legendre polynomials


def legendre_table(max_degree: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and first derivatives of L_0..L_max_degree at the points x.

    Returns two arrays of shape (max_degree + 1, len(x)) built from the
    three-term recurrence; x must lie in [-1, 1].
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size and (x.min() < -1.0 - 1e-14 or x.max() > 1.0 + 1e-14):
        raise ContractViolation(f"evaluation points must lie in [-1, 1], got range [{x.min()}, {x.max()}]")
    vals = np.zeros((max_degree + 1, x.size))
    ders = np.zeros_like(vals)
    vals[0] = 1.0
    if max_degree >= 1:
        vals[1] = x
        ders[1] = 1.0
    for k in range(1, max_degree):
        vals[k + 1] = ((2 * k + 1) * x * vals[k] - k * vals[k - 1]) / (k + 1)
        ders[k + 1] = ders[k - 1] + (2 * k + 1) * vals[k]
    return vals, ders


def legendre_eval(degree: int, x) -> np.ndarray:
    """L_degree evaluated at x (scalar or array), x in [-1, 1]."""
    if degree < 0:
        raise ContractViolation("degree must be >= 0")
    vals, _ = legendre_table(degree, x)
    out = vals[degree]
    return out if np.ndim(x) else float(out[0])


# ---------------------------------------------------------------------------
# Quadrature


@dataclass(frozen=True)
class QuadratureRule:
    """Legendre-Gauss-Lobatto rule: order + 1 nodes including both endpoints."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


def lgl_rule(order: int) -> QuadratureRule:
    """LGL quadrature of a given order (order + 1 nodes, exact to degree 2*order - 1).

    Interior nodes are the roots of L'_order, found by Newton iteration from
    Chebyshev-Gauss-Lobatto initial guesses; weights are 2 / (P(P+1) L_P(x)^2).
    """
    if order < 1:
        raise ContractViolation("quadrature order must be >= 1")
    p = order
    if p == 1:
        nodes = np.array([-1.0, 1.0])
    else:
        x = np.cos(np.pi * np.arange(1, p) / p)  # interior initial guesses
        for _ in range(_MAX_NEWTON_ITER):
            vals, ders = legendre_table(p, x)
            # L''_p from the Legendre ODE keeps the update self-contained
            second = (2.0 * x * ders[p] - p * (p + 1) * vals[p]) / (1.0 - x * x)
            step = ders[p] / second
            x = x - step
            if np.max(np.abs(step)) < 1e-15:
                break
        else:
            raise NumericError("LGL node search did not converge")
        nodes = np.concatenate(([-1.0], np.sort(x), [1.0]))
    lp = legendre_table(p, nodes)[0][p]
    weights = 2.0 / (p * (p + 1) * lp * lp)
    return QuadratureRule(nodes=nodes, weights=weights, order=p)


# ---------------------------------------------------------------------------
# Boundary conditions and compact bases


@dataclass(frozen=True)
class DirectionBC:
    """The boundary kind of one spatial/temporal direction.

    dirichlet pins phi(+-1) = 0, neumann phi'(+-1) = 0, and initial_value
    phi(-1) = phi'(-1) = 0 (the temporal direction of the wave problem).
    """

    kind: str  # dirichlet | neumann | initial_value

    @staticmethod
    def dirichlet() -> "DirectionBC":
        return DirectionBC("dirichlet")

    @staticmethod
    def neumann() -> "DirectionBC":
        return DirectionBC("neumann")

    @staticmethod
    def initial_value() -> "DirectionBC":
        return DirectionBC("initial_value")


@dataclass(frozen=True)
class BoundarySpec:
    """Per-direction boundary conditions for a d-dimensional problem."""

    directions: tuple[DirectionBC, ...]

    @property
    def direction_count(self) -> int:
        return len(self.directions)


@dataclass(frozen=True)
class CompactBasis:
    """Basis phi_k = L_k + a_k L_{k+1} + b_k L_{k+2}, k = 0..N-1."""

    n_modes: int
    a: np.ndarray
    b: np.ndarray
    bc: DirectionBC

    def eval_matrix(self, x: np.ndarray, derivative: int = 0) -> np.ndarray:
        """(N, len(x)) array of phi_k or its first/second derivative at x."""
        n = self.n_modes
        x = np.atleast_1d(np.asarray(x, dtype=float))
        vals, ders = legendre_table(n + 1, x)
        if derivative == 0:
            tab = vals
        elif derivative == 1:
            tab = ders
        elif derivative == 2:
            tab = np.zeros_like(vals)
            for k in range(1, n + 1):
                tab[k + 1] = tab[k - 1] + (2 * k + 1) * ders[k]
        else:
            raise ContractViolation("derivative order must be 0, 1 or 2")
        out = tab[:n] + self.a[:, None] * tab[1 : n + 1] + self.b[:, None] * tab[2 : n + 2]
        return out


def basis_coeffs(bc: DirectionBC, n_modes: int) -> CompactBasis:
    """Closed-form (a_k, b_k) of the compact basis for one boundary kind
    (Shen, SIAM J. Sci. Comput. 15(6), 1994).

    dirichlet: a_k = 0, b_k = -1. neumann: a_k = 0, b_k = -k(k+1)/((k+2)(k+3)).
    initial_value: a_k = (2k+3)/(k+2), b_k = (k+1)/(k+2), from L_k(-1) = (-1)^k
    and L_k'(-1) = (-1)^(k-1) k(k+1)/2.
    """
    if n_modes < 2:
        raise ContractViolation("a compact basis needs at least 2 modes")
    k = np.arange(n_modes, dtype=float)
    if bc.kind == "dirichlet":
        a, b = np.zeros(n_modes), -np.ones(n_modes)
    elif bc.kind == "neumann":
        a, b = np.zeros(n_modes), -(k * (k + 1.0)) / ((k + 2.0) * (k + 3.0))
    elif bc.kind == "initial_value":
        a, b = (2.0 * k + 3.0) / (k + 2.0), (k + 1.0) / (k + 2.0)
    else:
        raise ContractViolation(f"unknown boundary kind {bc.kind!r}")
    return CompactBasis(n_modes=n_modes, a=a, b=b, bc=bc)


# ---------------------------------------------------------------------------
# Galerkin matrices


def _mass_closed_form(basis: CompactBasis) -> np.ndarray:
    """Symmetric banded mass matrix from Legendre orthogonality (exact)."""
    n = basis.n_modes
    a, b = basis.a, basis.b
    k = np.arange(n, dtype=float)
    norm = lambda m: 2.0 / (2.0 * m + 1.0)  # noqa: E731  integral of L_m^2
    m = np.zeros((n, n))
    diag = norm(k) + a * a * norm(k + 1) + b * b * norm(k + 2)
    np.fill_diagonal(m, diag)
    if n > 1:
        band1 = a[:-1] * norm(k[:-1] + 1) + a[1:] * b[:-1] * norm(k[:-1] + 2)
        idx = np.arange(n - 1)
        m[idx + 1, idx] = band1
        m[idx, idx + 1] = band1
    if n > 2:
        band2 = b[:-2] * norm(k[:-2] + 2)
        idx = np.arange(n - 2)
        m[idx + 2, idx] = band2
        m[idx, idx + 2] = band2
    return m


def _quadrature_bilinear(basis: CompactBasis, quad: QuadratureRule, d_row: int, d_col: int) -> np.ndarray:
    """General band entries: integral of (d_col-th deriv of phi_j)(d_row-th deriv of phi_k)."""
    row = basis.eval_matrix(quad.nodes, derivative=d_row)
    col = basis.eval_matrix(quad.nodes, derivative=d_col)
    return (row * quad.weights) @ col.T


def assemble_1d(kind: str, basis: CompactBasis, quad: QuadratureRule | None = None) -> np.ndarray:
    """Stiffness, mass, or convection matrix for one direction.

    stiffness: S_kj = integral phi_j'' phi_k; diagonal (4k+6) b_k for the
        Dirichlet/Neumann closed forms, quadrature otherwise.
    mass: M_kj = integral phi_j phi_k; closed-form bands, exact for any (a, b).
    convection: R_kj = integral phi_k' phi_j, the antisymmetric bidiagonal
        with R_{k,k-1} = 2 and R_{k,k+1} = -2 in the Dirichlet case.
    """
    n = basis.n_modes
    if quad is None:
        quad = lgl_rule(n + 4)
    if kind == "mass":
        return _mass_closed_form(basis)
    if kind == "stiffness":
        if basis.bc.kind in ("dirichlet", "neumann"):
            return np.diag((4.0 * np.arange(n) + 6.0) * basis.b)
        return _quadrature_bilinear(basis, quad, d_row=0, d_col=2)
    if kind == "convection":
        if basis.bc.kind == "dirichlet":
            r = np.zeros((n, n))
            idx = np.arange(n - 1)
            r[idx + 1, idx] = 2.0
            r[idx, idx + 1] = -2.0
            return r
        return _quadrature_bilinear(basis, quad, d_row=1, d_col=0).T.copy()
    raise ConfigurationError(f"unknown matrix kind {kind!r}")


# ---------------------------------------------------------------------------
# Systems


@dataclass(frozen=True)
class SpectralSystem:
    """Assembled operator plus everything needed to transform and evaluate.

    matrix has shape (K, K) with K = prod(N per direction). The flat index
    runs with the FIRST direction fastest in assembly, transform and
    reconstruction alike. parametric_parts holds (B, C) with
    matrix(k) = B + k^2 C when the operator family is affine in a squared
    coefficient.
    """

    pde: str
    matrix: np.ndarray
    bases: tuple[CompactBasis, ...]
    quads: tuple[QuadratureRule, ...]
    domains: tuple[tuple[float, float], ...]
    parametric_parts: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def direction_count(self) -> int:
        return len(self.bases)

    @functools.cached_property
    def nodal_bases(self) -> tuple[np.ndarray, ...]:
        """(N, Q+1) basis values at the quadrature nodes per direction, tabulated on first use."""
        return tuple(basis.eval_matrix(quad.nodes) for basis, quad in zip(self.bases, self.quads))

    @functools.cached_property
    def condition(self) -> float:
        """2-norm condition number of the fixed operator, computed on first use."""
        return float(np.linalg.cond(self.matrix))

    def grid(self) -> tuple[np.ndarray, ...]:
        """Physical quadrature nodes per direction."""
        spans = zip(self.quads, self.domains)
        return tuple(lo + (hi - lo) * (quad.nodes + 1.0) / 2.0 for quad, (lo, hi) in spans)


# (pde, direction count) -> operator family; every other pair is rejected
_FAMILIES = {
    ("rd1d", 1): "rd",
    ("helm1d", 1): "helm",
    ("cd1d", 1): "cd",
    ("wave1d", 2): "wave",
    ("rd2d", 2): "rd",
    ("helm2d", 2): "helm",
    ("cd2d", 2): "cd",
    ("joint_helm", 1): "joint_helm",
    ("joint_helm", 2): "joint_helm",
}
BENCHMARK_PDES = tuple(dict.fromkeys(pde for pde, _ in _FAMILIES))
_VELOCITY_KEYS = {1: ("nu",), 2: ("nu1", "nu2")}  # convection coefficient per direction
_QUAD_MARGIN = 4  # LGL order N + 4 integrates every product of two basis functions exactly
_WAVE_HORIZON = 2.0


def assemble_system(pde: str, params: dict, bc: BoundarySpec, n_modes: int) -> SpectralSystem:
    """Assemble the operator for one benchmark family.

    Every family is one formula in any dimension, built from the 1D
    stiffness S_i, mass M_i and convection R_i matrices. along(i, X) is the
    Kronecker product with X on direction i and M_j elsewhere (first direction
    fastest); laplace = sum_i along(i, S_i) and mass = prod_i M_i.
      rd: -eps laplace + mass          helm, joint_helm: laplace + k^2 mass
      cd: -eps laplace + sum_i nu_i along(i, R_i), i.e. -eps Lap u - nu.grad u
      wave: jt^2 along(t, S_t) - jx^2 along(x, S_x)
    Elliptic problems live on [-1, 1]^d, and cd takes only Dirichlet
    conditions; the wave problem lives on x in [0, 1], t in [0, 2] with an
    initial-value temporal basis. joint_helm also stores the split
    (B, C) = (laplace, mass) with matrix(k) = B + k^2 C.
    """
    directions = bc.directions
    d = len(directions)
    family = _FAMILIES.get((pde, d))
    if family is None:
        raise ConfigurationError(f"unsupported pde/boundary combination: {pde} with d={d}")
    if family == "cd" and any(direction.kind != "dirichlet" for direction in directions):
        raise ConfigurationError(f"{pde} supports only Dirichlet conditions")
    if family == "wave" and directions[1].kind != "initial_value":
        raise ConfigurationError("wave1d requires an initial_value temporal direction")
    quad = lgl_rule(n_modes + _QUAD_MARGIN)
    bases = tuple(basis_coeffs(direction, n_modes) for direction in directions)
    masses = [assemble_1d("mass", basis, quad) for basis in bases]
    stiffness = [assemble_1d("stiffness", basis, quad) for basis in bases]

    def along(i: int, mat: np.ndarray) -> np.ndarray:
        # mat on direction i, the mass matrix on every other; first direction fastest
        factors = [mat if j == i else m for j, m in enumerate(masses)]
        return functools.reduce(lambda fast, slow: np.kron(slow, fast), factors)

    laplace = sum(along(i, s) for i, s in enumerate(stiffness))
    mass = along(0, masses[0])
    domains = ((-1.0, 1.0),) * d
    parts = None
    if family == "rd":
        matrix = -float(params["epsilon"]) * laplace + mass
    elif family == "helm":
        matrix = laplace + float(params["k_squared"]) * mass
    elif family == "joint_helm":
        matrix = laplace + float(params.get("k_squared", 0.0)) * mass
        parts = (laplace, mass)
    elif family == "cd":
        velocity = [float(params.get(key, 1.0)) for key in _VELOCITY_KEYS[d]]
        convection = [assemble_1d("convection", basis, quad) for basis in bases]
        terms = (nu * along(i, r) for i, (nu, r) in enumerate(zip(velocity, convection)))
        matrix = sum(terms, -float(params["epsilon"]) * laplace)
    else:  # wave: x is direction 0, t direction 1
        domains = ((0.0, 1.0), (0.0, _WAVE_HORIZON))
        jx, jt = (2.0 / (hi - lo) for lo, hi in domains)
        matrix = jt * jt * along(1, stiffness[1]) - jx * jx * along(0, stiffness[0])
    return SpectralSystem(
        pde=pde,
        matrix=matrix,
        bases=bases,
        quads=(quad,) * d,
        domains=domains,
        parametric_parts=parts,
    )


# ---------------------------------------------------------------------------
# Transforms, solves, metrics


def _weight_grid(system: SpectralSystem) -> np.ndarray:
    """Tensor-product quadrature weights, one axis per direction."""
    return functools.reduce(np.multiply.outer, (quad.weights for quad in system.quads))


def forward_transform(f_values: np.ndarray, system: SpectralSystem) -> tuple[np.ndarray, float]:
    """Project forcing samples on the quadrature grid onto the basis.

    The samples carry one axis per direction. Each direction contracts the
    leading axis with its basis table and appends its mode axis; returns
    (F, ||F||) with F flattened first direction fastest.
    """
    tensor = np.asarray(f_values, dtype=float)
    shape = tuple(quad.nodes.size for quad in system.quads)
    if tensor.shape != shape:
        raise ContractViolation(f"expected grid {shape}, got {tensor.shape}")
    tensor = tensor * _weight_grid(system)
    for phi in system.nodal_bases:
        tensor = np.tensordot(tensor, phi, axes=(0, 1))
    coeffs = tensor.reshape(-1, order="F")
    return coeffs, float(np.linalg.norm(coeffs))


@dataclass(frozen=True)
class SolutionField:
    """Spectral coefficients plus their nodal reconstruction, one row per instance when stacked."""

    coefficients: np.ndarray
    nodal_values: np.ndarray
    scale: float = 1.0


def reconstruct(system: SpectralSystem, coefficients: np.ndarray) -> np.ndarray:
    """Nodal values of sum_k alpha_k phi_k on the quadrature grid, one axis per
    direction; coefficients shaped (..., K) keep their leading axes as rows."""
    coefficients = np.asarray(coefficients, dtype=float)
    lead = coefficients.shape[:-1]
    # the first direction runs fastest: row-major over the reversed mode axes
    tensor = coefficients.reshape(lead + tuple(basis.n_modes for basis in system.bases)[::-1])
    for axis, phi in enumerate(system.nodal_bases, start=len(lead)):
        tensor = np.moveaxis(tensor @ phi, -1, axis)
    return tensor


def classical_solve(system: SpectralSystem, rhs: np.ndarray, k=None) -> SolutionField:
    """Direct dense solve of one (K,) row or (D, K) rows; the ground-truth oracle.

    Each row gets its own LAPACK solve, so its coefficients do not depend on
    the other rows. The fixed operator's conditioning is checked once per
    system; a given k, one per row, solves and checks each B + k_i^2 C.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[-1] != system.size:
        raise ContractViolation(f"rhs must be (K,) or (D, K) rows with K = {system.size}")
    if k is None:
        matrix, cond = system.matrix, np.array([system.condition])
    else:
        k = np.asarray(k, dtype=float)
        if k.shape != rhs.shape[:-1]:
            raise ContractViolation(f"k shaped {k.shape} for rhs rows {rhs.shape[:-1]}")
        b, c = system.parametric_parts
        matrix = b + (k * k)[..., None, None] * c
        cond = np.linalg.cond(matrix).reshape(-1)
    if not np.all(cond <= 1e13):
        row = int(np.argmax(np.where(cond <= 1e13, cond, np.inf)))
        where = "" if k is None else f" of row {row} (k = {k.reshape(-1)[row]:.6g})"
        raise SingularSystemError(f"spectral operator{where} is numerically singular", cond[row])
    alpha = np.linalg.solve(matrix, rhs[..., None])[..., 0]
    return SolutionField(coefficients=alpha, nodal_values=reconstruct(system, alpha))


def metrics(pred: SolutionField, truth: SolutionField, system: SpectralSystem | None = None) -> dict:
    """MAE, relative L2 (quadrature-weighted) and relative L-infinity errors
    over the grid axes: one value per row of stacked nodal values.

    None weighs every value by 1 (synthetic systems without a grid: one axis).
    """
    ref = np.asarray(truth.nodal_values)
    diff = np.asarray(pred.nodal_values) - ref
    w = 1.0 if system is None else _weight_grid(system)
    grid = tuple(range(-(1 if system is None else system.direction_count), 0))
    ref_l2 = np.sqrt(np.sum(w * ref * ref, axis=grid))
    ref_linf = np.max(np.abs(ref), axis=grid)
    if np.any(ref_l2 == 0.0) or np.any(ref_linf == 0.0):
        raise DivisionGuardError("reference solution has zero norm")
    return {
        "mae": np.mean(np.abs(diff), axis=grid),
        "rel_l2": np.sqrt(np.sum(w * diff * diff, axis=grid)) / ref_l2,
        "rel_linf": np.max(np.abs(diff), axis=grid) / ref_linf,
    }

