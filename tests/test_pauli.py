import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vqspectral import cli, config
from vqspectral import pauli as pl
from vqspectral import spectral as sp
from vqspectral.errors import ContractViolation, NumericError, TruncationDegenerateError

from test_acceptance import BENCHMARK_OPERATORS


def random_string(n, rng):
    return pl.PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))


# ---------------------------------------------------------------------------
# Strings


def test_text_roundtrip():
    for text in ("I", "XYZ", "ZIIX", "YY"):
        string = pl.PauliString.from_text(text)
        assert string.text == text
        assert string.n_qubits == len(text)


def test_invalid_letter_rejected():
    with pytest.raises(ContractViolation):
        pl.PauliString.from_text("XQ")


def test_single_qubit_matrices():
    x = np.array([[0, 1], [1, 0]])
    y = np.array([[0, -1j], [1j, 0]])
    z = np.array([[1, 0], [0, -1]])
    assert np.array_equal(pl.PauliString.from_text("X").matrix(), x)
    assert np.array_equal(pl.PauliString.from_text("Y").matrix(), y)
    assert np.array_equal(pl.PauliString.from_text("Z").matrix(), z)
    zi = pl.PauliString.from_text("ZI").matrix()
    assert np.array_equal(zi, np.kron(z, np.eye(2)))


@st.composite
def string_pairs(draw):
    n = draw(st.integers(1, 5))
    masks = st.integers(0, (1 << n) - 1)
    a = pl.PauliString(n, draw(masks), draw(masks))
    return a, pl.PauliString(n, draw(masks), draw(masks))


@settings(max_examples=300, deadline=None)
@given(string_pairs())
def test_product_phases_match_dense(pair):
    a, b = pair
    prod, phase = a.product(b)
    assert np.array_equal(a.matrix() @ b.matrix(), phase * prod.matrix())


def test_qubit_wise_commutation():
    s = pl.PauliString.from_text
    assert s("IZ").commutes_qubit_wise(s("ZZ"))
    assert s("XI").commutes_qubit_wise(s("IY"))
    assert not s("XI").commutes_qubit_wise(s("ZI"))


# ---------------------------------------------------------------------------
# Decomposition


def test_decompose_identity():
    expansion = pl.decompose(np.eye(2))
    assert [(s.text, c) for s, c in expansion] == [("I", 1.0 + 0.0j)]


def test_decompose_z_tensor_identity():
    expansion = pl.decompose(np.diag([1.0, 1.0, -1.0, -1.0]))
    assert [(s.text, c) for s, c in expansion] == [("ZI", 1.0 + 0.0j)]


def test_decompose_stiffness_two_modes():
    expansion = pl.decompose(np.diag([-6.0, -10.0]), "S")
    assert {(s.text, c) for s, c in expansion} == {("I", -8.0 + 0.0j), ("Z", 2.0 + 0.0j)}


def test_decompose_rejects_non_power_of_two():
    with pytest.raises(ContractViolation):
        pl.decompose(np.eye(3))
    with pytest.raises(ContractViolation):
        pl.decompose(np.zeros((2, 4)))


def test_reconstruction_random_hermitian(rng):
    for n in (2, 3):
        dim = 1 << n
        mat = rng.standard_normal((dim, dim))
        mat = mat + mat.T
        expansion = pl.decompose(mat)
        assert np.linalg.norm(expansion.to_matrix() - mat) <= 1e-12
        assert np.abs(expansion.coefficients.imag).max() <= 1e-12


def test_reconstruction_random_complex(rng):
    mat = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    expansion = pl.decompose(mat)
    assert np.linalg.norm(expansion.to_matrix() - mat) <= 1e-12


@st.composite
def square_matrices(draw, n_qubits):
    """Real or complex 2^n x 2^n matrices with exact zeros mixed in."""
    dim = 1 << n_qubits
    part = hnp.arrays(float, (dim, dim), elements=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)))
    real = draw(part)
    return real if draw(st.booleans()) else real + 1j * draw(part)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(square_matrices))
def test_decompose_to_matrix_roundtrip(matrix):
    expansion = pl.decompose(matrix)
    scale = max(1.0, np.abs(matrix).max())
    assert np.abs(expansion.to_matrix() - matrix).max() <= 1e-12 * scale
    assert all(abs(c) > 1e-14 for _, c in expansion)


def test_duplicate_strings_rejected():
    z = pl.PauliString.from_text("Z")
    with pytest.raises(ContractViolation, match="duplicate Pauli string Z"):
        pl.PauliExpansion(1, ((z, 1.0), (z, 2.0)))
    with pytest.raises(ContractViolation, match="duplicate Pauli string XY"):
        pl.PauliExpansion.deserialize("XY 1 0\nZI 2 0\nXY 3 0\n")


def test_decompose_rejects_a_non_finite_coefficient():
    matrix = np.eye(4)
    matrix[0, 1] = np.nan
    with pytest.raises(NumericError, match="^probe: coefficient of [IXYZ]{2} is not finite$"):
        pl.decompose(matrix, "probe")


def test_expansion_arrays_are_read_only_and_terms_rebuild_it(rng):
    expansion = pl.decompose(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)), "A")
    assert expansion.x_bits.dtype == expansion.z_bits.dtype == np.int64
    assert expansion.coefficients.dtype == complex
    for array in (expansion.x_bits, expansion.z_bits, expansion.coefficients):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    again = pl.PauliExpansion(expansion.n_qubits, expansion.terms, "A")
    assert again.serialize() == expansion.serialize()
    masks = zip(expansion.x_bits.tolist(), expansion.z_bits.tolist())
    assert [s for s, _ in expansion] == [pl.PauliString(3, x, z) for x, z in masks]


def test_decompose_peak_memory_stays_under_three_complex_matrices():
    base = config.parse_config(Path(__file__).parent.parent / "configs/cd1d_dirichlet.cfg")
    sub = dataclasses.replace(config.scaling_config(base, 2), n_modes=16)
    matrix = config.build_system(sub).matrix  # K = 256, as in the scaling study
    tracemalloc.start()
    try:
        expansion = pl.decompose(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.shape == (256, 256) and len(expansion) == 1575
    assert peak < 3 * matrix.size * 16


# ---------------------------------------------------------------------------
# Normal operator


def test_normal_operator_identity():
    expansion = pl.decompose(np.eye(2))
    normal = pl.normal_operator(expansion)
    assert [(s.text, c) for s, c in normal] == [("I", 1.0 + 0.0j)]


def test_normal_operator_of_diagonal_example():
    expansion = pl.decompose(np.diag([-6.0, -10.0]))
    normal = pl.normal_operator(expansion)
    assert {(s.text, complex(c)) for s, c in normal} == {("I", 68 + 0j), ("Z", -32 + 0j)}


def test_normal_operator_paths_agree(rng):
    dim = 8
    mat = rng.standard_normal((dim, dim))
    mat = mat + mat.T
    expansion = pl.decompose(mat)
    pairwise = pl.normal_operator(expansion, "pairwise").to_matrix()
    dense = pl.normal_operator(expansion, "dense").to_matrix()
    assert np.linalg.norm(pairwise - dense) / np.linalg.norm(dense) <= 1e-12
    assert np.linalg.norm(pairwise - mat @ mat) / np.linalg.norm(mat @ mat) <= 1e-12


def test_adjoint_product_cross_terms(rng):
    left = pl.decompose(rng.standard_normal((4, 4)))
    right = pl.decompose(rng.standard_normal((4, 4)))
    product = pl.adjoint_product(left, right)
    expected = left.to_matrix().conj().T @ right.to_matrix()
    assert np.linalg.norm(product.to_matrix() - expected) <= 1e-12


# ---------------------------------------------------------------------------
# Grouping


def _expansion_from_texts(texts, coefs=None):
    n = len(texts[0])
    coefs = coefs or [1.0] * len(texts)
    return pl.PauliExpansion(
        n, tuple((pl.PauliString.from_text(t), complex(c)) for t, c in zip(texts, coefs))
    )


def test_diagonal_family_groups_to_one():
    grouping = pl.group_commuting(_expansion_from_texts(["II", "IZ", "ZI", "ZZ"]))
    assert grouping.n_groups == 1
    assert grouping.basis_rotations == ("ZZ",)


def test_conflicting_letters_split_groups():
    grouping = pl.group_commuting(_expansion_from_texts(["XI", "ZI"]))
    assert grouping.n_groups == 2


def test_grouping_orders_by_magnitude():
    expansion = _expansion_from_texts(["XI", "ZI"], coefs=[0.1, 5.0])
    grouping = pl.group_commuting(expansion)
    # the large-|c| term seeds the first group
    assert grouping.groups[0] == (1,)


def test_grouping_partition_and_validity():
    system = sp.assemble_system(
        "rd1d", {"epsilon": 0.1}, sp.BoundarySpec((sp.DirectionBC.dirichlet(),)), 32
    )
    expansion = pl.decompose(system.matrix)
    grouping = pl.group_commuting(expansion)
    seen = sorted(i for group in grouping.groups for i in group)
    assert seen == list(range(len(expansion)))
    assert grouping.n_groups < len(expansion)
    for group in grouping.groups:
        for a_idx in group:
            for b_idx in group:
                assert expansion.terms[a_idx][0].commutes_qubit_wise(expansion.terms[b_idx][0])


def test_group_basis_covers_members():
    system = sp.assemble_system(
        "helm1d", {"k_squared": 4.0}, sp.BoundarySpec((sp.DirectionBC.dirichlet(),)), 16
    )
    expansion = pl.decompose(system.matrix)
    grouping = pl.group_commuting(expansion)
    for group, basis in zip(grouping.groups, grouping.basis_rotations):
        for idx in group:
            string = expansion.terms[idx][0]
            for q in range(expansion.n_qubits):
                letter = string.letter(q)
                assert letter == "I" or letter == basis[q]


# ---------------------------------------------------------------------------
# Truncation


def test_truncate_zero_threshold_is_identity():
    expansion = pl.decompose(np.diag([-6.0, -10.0]))
    truncated, diag = pl.truncate(expansion, 0.0)
    assert len(truncated) == len(expansion)
    assert diag.rel_frobenius_error == 0.0


def test_truncate_drops_small_terms():
    expansion = pl.decompose(np.diag([-6.0, -10.0]))
    truncated, diag = pl.truncate(expansion, 3.0)
    assert [(s.text, c) for s, c in truncated] == [("I", -8.0 + 0.0j)]
    assert diag.rel_frobenius_error == pytest.approx(2 * np.sqrt(2) / np.sqrt(136), abs=1e-12)
    assert diag.term_count == 1


def test_truncate_monotone_in_threshold():
    system = sp.assemble_system(
        "helm1d", {"k_squared": 4.0}, sp.BoundarySpec((sp.DirectionBC.dirichlet(),)), 32
    )
    expansion = pl.decompose(system.matrix)
    counts, errors = [], []
    for threshold in (0.5, 0.1, 0.05, 0.01, 0.0):
        _, diag = pl.truncate(expansion, threshold)
        counts.append(diag.term_count)
        errors.append(diag.rel_frobenius_error)
    assert counts == sorted(counts)
    assert errors == sorted(errors, reverse=True)


def test_truncate_at_a_terms_own_magnitude_matches_the_tuple_filter():
    # np.abs(c) and Python's abs(c) differ in the last bit on some c; the filter uses abs(c)
    rng = np.random.default_rng(7)
    expansion = pl.decompose(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    coefs = expansion.coefficients
    assert (np.abs(coefs) > np.hypot(coefs.real, coefs.imag)).any()
    assert (np.abs(coefs) < np.hypot(coefs.real, coefs.imag)).any()
    for threshold in sorted(abs(c) for _, c in expansion)[:-1]:
        kept = [(s, c) for s, c in expansion.terms if abs(c) > threshold]
        truncated, diag = pl.truncate(expansion, threshold)
        assert list(truncated) == kept and diag.term_count == len(kept)


def test_truncate_empty_raises():
    expansion = pl.decompose(np.diag([-6.0, -10.0]))
    with pytest.raises(TruncationDegenerateError):
        pl.truncate(expansion, 100.0)


def test_truncate_negative_threshold_rejected():
    expansion = pl.decompose(np.eye(2))
    with pytest.raises(ContractViolation):
        pl.truncate(expansion, -1.0)


# ---------------------------------------------------------------------------
# Measurement counting and serialization


def test_count_measurements_single_term():
    expansion = _expansion_from_texts(["I"])
    assert pl.count_measurements(expansion, grouped=False) == 1
    assert pl.count_measurements(expansion, grouped=True) == 1


def test_count_measurements_diagonal_family():
    expansion = _expansion_from_texts(["II", "IZ", "ZI", "ZZ"])
    assert pl.count_measurements(expansion, grouped=False) == 4
    assert pl.count_measurements(expansion, grouped=True) == 1


def test_count_measurements_scaling_trend():
    counts = {}
    for n_modes in (4, 8, 16, 32):
        system = sp.assemble_system(
            "rd1d", {"epsilon": 0.1}, sp.BoundarySpec((sp.DirectionBC.dirichlet(),)), n_modes
        )
        expansion = pl.decompose(system.matrix)
        counts[n_modes] = (
            pl.count_measurements(expansion, grouped=False),
            pl.count_measurements(expansion, grouped=True),
        )
    for terms, groups in counts.values():
        assert groups <= terms
    assert [counts[n][0] for n in (4, 8, 16, 32)] == sorted(
        counts[n][0] for n in (4, 8, 16, 32)
    )


def test_serialize_roundtrip(rng):
    mat = rng.standard_normal((8, 8))
    expansion = pl.decompose(mat, source_tag="A")
    back = pl.PauliExpansion.deserialize(expansion.serialize(), source_tag="A")
    assert len(back) == len(expansion)
    for (s1, c1), (s2, c2) in zip(expansion, back):
        assert s1.text == s2.text and c1 == c2


def test_deserialize_rejects_garbage():
    with pytest.raises(ContractViolation):
        pl.PauliExpansion.deserialize("")
    with pytest.raises(ContractViolation):
        pl.PauliExpansion.deserialize("XZ 1.0 0.0\nXYZ 1.0 0.0")


# ---------------------------------------------------------------------------
# Vectorized paths against the loop versions they replaced. The arithmetic is
# the same, operation for operation, so the results must agree bit for bit.


def _loop_walsh_hadamard(values):
    out = values.copy()
    h = 1
    while h < out.shape[0]:
        for start in range(0, out.shape[0], 2 * h):
            a = out[start : start + h].copy()
            b = out[start + h : start + 2 * h].copy()
            out[start : start + h] = a + b
            out[start + h : start + 2 * h] = a - b
        h *= 2
    return out


def _loop_decompose(matrix, drop_tol=1e-14):
    matrix = np.asarray(matrix).astype(complex)
    dim = matrix.shape[0]
    n = dim.bit_length() - 1
    cols = np.arange(dim)
    terms = []
    for x in range(dim):
        sums = _loop_walsh_hadamard(matrix[cols, cols ^ x])
        for z in range(dim):
            coef = pl._I_POWERS[(x & z).bit_count() % 4] * sums[z] / dim
            if abs(coef) > drop_tol:
                terms.append((pl.PauliString(n, x, z), complex(coef)))
    return pl.PauliExpansion(n_qubits=n, terms=tuple(terms))


def _loop_adjoint_product(left, right, drop_tol=1e-14):
    acc = {}
    for lstr, cl in left.terms:
        for rstr, cr in right.terms:
            prod, phase = lstr.product(rstr)
            key = (prod.x_bits, prod.z_bits)
            acc[key] = acc.get(key, 0.0) + np.conj(cl) * cr * phase
    terms = [
        (pl.PauliString(left.n_qubits, x, z), complex(acc[(x, z)]))
        for (x, z) in sorted(acc)
        if abs(acc[(x, z)]) > drop_tol
    ]
    return pl.PauliExpansion(n_qubits=left.n_qubits, terms=tuple(terms))


def _loop_group_commuting(expansion):
    order = sorted(range(len(expansion.terms)), key=lambda i: (-abs(expansion.terms[i][1]), i))
    n = expansion.n_qubits
    groups, bases = [], []
    for idx in order:
        letters = [expansion.terms[idx][0].letter(q) for q in range(n)]
        for group, basis in zip(groups, bases):
            if all(a == "I" or b == "I" or a == b for a, b in zip(letters, basis)):
                group.append(idx)
                basis[:] = [b if a == "I" else a for a, b in zip(letters, basis)]
                break
        else:
            groups.append([idx])
            bases.append(letters)
    rotations = tuple("".join("Z" if b == "I" else b for b in basis) for basis in bases)
    return tuple(tuple(g) for g in groups), rotations


def _loop_serialize(expansion):
    lines = [f"{s.text} {c.real:.17g} {c.imag:.17g}" for s, c in expansion.terms]
    return "\n".join(lines) + ("\n" if lines else "")


def _loop_to_matrix(expansion):
    dim = 1 << expansion.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for string, coef in expansion.terms:
        out += coef * string.matrix()
    return out


def assert_same_expansion(got, want):
    assert [(s.x_bits, s.z_bits) for s, _ in got] == [(s.x_bits, s.z_bits) for s, _ in want]
    assert [c for _, c in got] == [c for _, c in want]
    assert got.serialize() == want.serialize()  # also pins the sign of zero parts


def assert_matches_loop_versions(matrix, other):
    expansion = pl.decompose(matrix)
    assert_same_expansion(expansion, _loop_decompose(matrix))
    right = pl.decompose(other)
    for left_exp, right_exp in ((expansion, expansion), (expansion, right)):
        product = pl.adjoint_product(left_exp, right_exp)
        assert_same_expansion(product, _loop_adjoint_product(left_exp, right_exp))
    for exp in (expansion, product):
        grouping = pl.group_commuting(exp)
        assert (grouping.groups, grouping.basis_rotations) == _loop_group_commuting(exp)
        assert np.array_equal(exp.to_matrix(), _loop_to_matrix(exp))


@pytest.mark.parametrize("index", range(len(BENCHMARK_OPERATORS)))
def test_benchmark_operators_match_loop_versions(index):
    pde, params, bc, n_modes = BENCHMARK_OPERATORS[index]
    matrix = sp.assemble_system(pde, params, bc, n_modes).matrix
    assert_matches_loop_versions(matrix, matrix.T)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_matrices_match_loop_versions(data):
    n_qubits = data.draw(st.integers(1, 4))
    matrices = square_matrices(n_qubits)
    assert_matches_loop_versions(data.draw(matrices), data.draw(matrices))


@pytest.mark.parametrize("n", [1, 10])
def test_serialize_matches_loop_version(n, rng):
    keys = {(0, 0), ((1 << n) - 1, 0), (0, (1 << n) - 1), ((1 << n) - 1, (1 << n) - 1)}
    while len(keys) < min(4**n, 30):
        keys.add((int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n))))
    signed_zeros = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
    scales = 10.0 ** rng.integers(-300, 300, size=(len(keys), 2))
    parts = rng.standard_normal((len(keys), 2)) * scales
    coefs = signed_zeros + [complex(re, im) for re, im in parts[len(signed_zeros) :]]
    terms = tuple((pl.PauliString(n, x, z), c) for (x, z), c in zip(sorted(keys), coefs))
    expansion = pl.PauliExpansion(n, terms)
    text = expansion.serialize()
    assert text == _loop_serialize(expansion)
    zero_parts = [line.split(" ", 1)[1] for line in text.splitlines()[:4]]
    assert zero_parts == ["0 0", "0 -0", "-0 0", "-0 -0"]
    back = pl.PauliExpansion.deserialize(text)
    assert_same_expansion(back, expansion)
    assert back.serialize() == text


def test_adjoint_product_blocks_split_rows(monkeypatch, rng):
    # blocks of one row, and blocks narrower than a row, sum as the loop does
    left = pl.decompose(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    right = pl.decompose(rng.standard_normal((8, 8)))
    want = _loop_adjoint_product(left, right)
    for block in (1, len(right), 3 * len(right) - 1):
        monkeypatch.setattr(pl, "_BLOCK", block)
        assert_same_expansion(pl.adjoint_product(left, right), want)
        assert np.array_equal(want.to_matrix(), _loop_to_matrix(want))


@st.composite
def tied_expansions(draw):
    """Up to 7 qubits, coefficients from a few magnitudes so that |c| ties are common."""
    n = draw(st.integers(1, 7))
    masks = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
    keys = draw(st.lists(masks, min_size=1, max_size=80, unique=True))
    magnitudes = st.sampled_from([0.25, 1.0, 3.0])
    phases = st.sampled_from([1.0, -1.0, 1j, -1j, 0.6 + 0.8j, -0.8 + 0.6j])  # |c| may round off 1
    terms = tuple(
        (pl.PauliString(n, x, z), complex(draw(magnitudes) * draw(phases))) for x, z in keys
    )
    return pl.PauliExpansion(n, terms)


def _all_strings_expansion(n):
    """Every string on n qubits, |c| distinct: more than 64 groups once n >= 4."""
    keys = [(x, z) for x in range(1 << n) for z in range(1 << n)]
    terms = ((pl.PauliString(n, x, z), complex(1.0 + i, -0.5 * i)) for i, (x, z) in enumerate(keys))
    return pl.PauliExpansion(n, tuple(terms))


def _full_weight_expansion(n, count, seed):
    """count distinct strings acting on every qubit: none commute qubit-wise, one group each."""
    rng = np.random.default_rng(seed)
    full = (1 << n) - 1
    keys = set()
    while len(keys) < count:
        x = int(rng.integers(0, 1 << n))
        keys.add((x, (full & ~x) | int(rng.integers(0, 1 << n))))  # z covers the qubits x misses
    coefs = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return pl.PauliExpansion(
        n, tuple((pl.PauliString(n, x, z), complex(c)) for (x, z), c in zip(sorted(keys), coefs))
    )


@settings(max_examples=150, deadline=None)
@given(tied_expansions())
@example(_all_strings_expansion(4))
@example(_full_weight_expansion(10, 100, seed=3))
@example(pl.PauliExpansion(3, ((pl.PauliString(3, 0, 0), 2.0 + 0.0j),)))  # identity only
@example(pl.decompose(np.zeros((4, 4))))  # no terms, no groups
def test_grouping_matches_loop_on_tied_expansions(expansion):
    grouping = pl.group_commuting(expansion)
    assert (grouping.groups, grouping.basis_rotations) == _loop_group_commuting(expansion)


def test_adjoint_product_with_full_weight_strings(rng):
    # popcounts reach n = 10, so a phase exponent can span -10..40 before mod 4
    n = 10
    full = (1 << n) - 1
    keys = {(full, full), (full, 0), (0, full), (full, 0b1010101010)}
    while len(keys) < 24:
        keys.add((int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n))))
    keys = sorted(keys)

    def expansion(order):
        coefs = rng.standard_normal(len(order)) + 1j * rng.standard_normal(len(order))
        return pl.PauliExpansion(
            n, tuple((pl.PauliString(n, x, z), complex(c)) for (x, z), c in zip(order, coefs))
        )

    left, right = expansion(keys), expansion(keys[::-1])
    for pair in ((left, right), (left, left)):
        assert_same_expansion(pl.adjoint_product(*pair), _loop_adjoint_product(*pair))


def test_scaling_builds_no_pauli_string(monkeypatch, tmp_path):
    # the scaling study's sizes (cd family, N in {4, 8, 16}, d in {1, 2}) run on the arrays alone
    calls = []
    init = pl.PauliString.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(pl.PauliString, "__init__", counting_init)
    base = config.parse_config(Path(__file__).parent.parent / "configs/cd1d_dirichlet.cfg")
    cfg = dataclasses.replace(base, scaling_modes=(4, 8, 16), scaling_dims=(1, 2))
    assert cli.cmd_scaling(cfg, tmp_path) == 0
    assert calls == []
    assert len(pl.decompose(np.eye(2)).terms) == 1 and len(calls) == 1  # the counter counts
