"""Pauli-string algebra: exact decomposition, products, grouping, truncation.

A string over {I, X, Y, Z} on n qubits is packed into two bitmasks. Qubit 0 is
the leftmost letter and the most significant bit of a computational-basis
index, so "ZI" acts as Z (x) I on a 4-dimensional state. With masks (x, z)
the operator acts as

    P(x, z)|b> = i^{|x & z|} (-1)^{z . b} |b ^ x>,

which gives one nonzero entry per column and makes traces, products, and
applications cheap bit arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, TruncationDegenerateError

__all__ = [
    "PauliString",
    "PauliExpansion",
    "MeasurementGrouping",
    "decompose",
    "adjoint_product",
    "normal_operator",
    "group_commuting",
    "truncate",
    "TruncationDiagnostics",
    "count_measurements",
]

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {v: k for k, v in _LETTER_TO_BITS.items()}
_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _parity(values: np.ndarray) -> np.ndarray:
    """Parity of the popcount of each entry (0 or 1)."""
    return np.bitwise_count(values.astype(np.uint64)).astype(np.int64) & 1


@dataclass(frozen=True)
class PauliString:
    n_qubits: int
    x_bits: int
    z_bits: int

    @staticmethod
    def from_text(text: str) -> "PauliString":
        x = z = 0
        for letter in text:
            try:
                xb, zb = _LETTER_TO_BITS[letter]
            except KeyError:
                raise ContractViolation(f"invalid Pauli letter {letter!r}") from None
            x = (x << 1) | xb
            z = (z << 1) | zb
        return PauliString(n_qubits=len(text), x_bits=x, z_bits=z)

    @property
    def text(self) -> str:
        letters = []
        for q in range(self.n_qubits):
            bit = self.n_qubits - 1 - q
            letters.append(_BITS_TO_LETTER[((self.x_bits >> bit) & 1, (self.z_bits >> bit) & 1)])
        return "".join(letters)

    def letter(self, qubit: int) -> str:
        bit = self.n_qubits - 1 - qubit
        return _BITS_TO_LETTER[((self.x_bits >> bit) & 1, (self.z_bits >> bit) & 1)]

    @property
    def support_mask(self) -> int:
        return self.x_bits | self.z_bits

    def is_identity(self) -> bool:
        return self.support_mask == 0

    def matrix(self) -> np.ndarray:
        dim = 1 << self.n_qubits
        cols = np.arange(dim)
        rows = cols ^ self.x_bits
        phase = _I_POWERS[(self.x_bits & self.z_bits).bit_count() % 4]
        signs = 1.0 - 2.0 * _parity(cols & self.z_bits)
        mat = np.zeros((dim, dim), dtype=complex)
        mat[rows, cols] = phase * signs
        return mat

    def apply(self, state: np.ndarray) -> np.ndarray:
        """P @ state for state shaped (..., 2^n)."""
        dim = 1 << self.n_qubits
        src = np.arange(dim) ^ self.x_bits
        phase = _I_POWERS[(self.x_bits & self.z_bits).bit_count() % 4]
        # (P s)[b] = phase * (-1)^{z.(b^x)} s[b^x]
        sign_src = 1.0 - 2.0 * _parity(src & self.z_bits)
        return phase * sign_src * state[..., src]

    def product(self, other: "PauliString") -> tuple["PauliString", complex]:
        """Symbolic product self @ other = phase * result."""
        if other.n_qubits != self.n_qubits:
            raise ContractViolation("qubit counts differ")
        x3 = self.x_bits ^ other.x_bits
        z3 = self.z_bits ^ other.z_bits
        exp = (
            (self.x_bits & self.z_bits).bit_count()
            + (other.x_bits & other.z_bits).bit_count()
            - (x3 & z3).bit_count()
            + 2 * (self.z_bits & other.x_bits).bit_count()
        ) % 4
        return PauliString(self.n_qubits, x3, z3), _I_POWERS[exp]

    def commutes_qubit_wise(self, other: "PauliString") -> bool:
        """True when on every qubit the letters agree or one is identity."""
        both = self.support_mask & other.support_mask
        differ = (self.x_bits ^ other.x_bits) | (self.z_bits ^ other.z_bits)
        return (both & differ) == 0


@dataclass(frozen=True)
class PauliExpansion:
    """Weighted sum of distinct Pauli strings on a fixed qubit count."""

    n_qubits: int
    terms: tuple[tuple[PauliString, complex], ...]
    source_tag: str = ""

    def __post_init__(self):
        seen = set()
        for string, _ in self.terms:
            key = (string.x_bits, string.z_bits)
            if key in seen:
                raise ContractViolation(f"duplicate Pauli string {string.text}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([c for _, c in self.terms], dtype=complex)

    def max_imag_coefficient(self) -> float:
        if not self.terms:
            return 0.0
        return float(np.max(np.abs(self.coefficients.imag)))

    def to_matrix(self) -> np.ndarray:
        dim = 1 << self.n_qubits
        out = np.zeros((dim, dim), dtype=complex)
        for string, coef in self.terms:
            out += coef * string.matrix()
        return out

    def apply(self, state: np.ndarray) -> np.ndarray:
        out = np.zeros_like(state, dtype=complex)
        for string, coef in self.terms:
            out += coef * string.apply(state)
        return out

    def serialize(self) -> str:
        """Line format: <string> <re> <im>."""
        lines = [f"{s.text} {c.real:.17g} {c.imag:.17g}" for s, c in self.terms]
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def deserialize(text: str, source_tag: str = "") -> "PauliExpansion":
        terms = []
        n_qubits = None
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            word, re_part, im_part = line.split()
            string = PauliString.from_text(word)
            if n_qubits is None:
                n_qubits = string.n_qubits
            elif string.n_qubits != n_qubits:
                raise ContractViolation("mixed qubit counts in serialized expansion")
            terms.append((string, complex(float(re_part), float(im_part))))
        if n_qubits is None:
            raise ContractViolation("empty serialized expansion")
        return PauliExpansion(n_qubits=n_qubits, terms=tuple(terms), source_tag=source_tag)


def _walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform: out[z] = sum_b (-1)^{z.b} v[b]."""
    out = values.copy()
    h = 1
    size = out.shape[0]
    while h < size:
        for start in range(0, size, 2 * h):
            a = out[start : start + h].copy()
            b = out[start + h : start + 2 * h].copy()
            out[start : start + h] = a + b
            out[start + h : start + 2 * h] = a - b
        h *= 2
    return out


def decompose(matrix: np.ndarray, source_tag: str = "", drop_tol: float = 1e-14) -> PauliExpansion:
    """Exact expansion of a 2^n x 2^n matrix over all 4^n Pauli strings.

    Coefficients are normalized trace inner products trace(P @ A) / 2^n,
    computed per x-mask with one Walsh-Hadamard transform over the z-masks.
    Coefficients at or below drop_tol in magnitude are dropped.
    """
    matrix = np.asarray(matrix)
    dim = matrix.shape[0]
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ContractViolation("matrix must be square")
    n = dim.bit_length() - 1
    if dim != (1 << n) or dim < 2:
        raise ContractViolation(f"matrix dimension {dim} is not a power of two")
    matrix = matrix.astype(complex)
    cols = np.arange(dim)
    terms = []
    for x in range(dim):
        gathered = matrix[cols, cols ^ x]  # entries A[c, c ^ x]
        sums = _walsh_hadamard(gathered)
        for z in range(dim):
            coef = _I_POWERS[(x & z).bit_count() % 4] * sums[z] / dim
            if abs(coef) > drop_tol:
                terms.append((PauliString(n, x, z), complex(coef)))
    return PauliExpansion(n_qubits=n, terms=tuple(terms), source_tag=source_tag)


def adjoint_product(
    left: PauliExpansion,
    right: PauliExpansion,
    drop_tol: float = 1e-14,
    source_tag: str = "",
) -> PauliExpansion:
    """Expansion of left^dagger @ right by symbolic pairwise Pauli products."""
    if left.n_qubits != right.n_qubits:
        raise ContractViolation("qubit counts differ")
    acc: dict[tuple[int, int], complex] = {}
    for lstr, cl in left.terms:
        for rstr, cr in right.terms:
            prod, phase = lstr.product(rstr)
            key = (prod.x_bits, prod.z_bits)
            acc[key] = acc.get(key, 0.0) + np.conj(cl) * cr * phase
    terms = []
    for (x, z) in sorted(acc):
        coef = acc[(x, z)]
        if abs(coef) > drop_tol:
            terms.append((PauliString(left.n_qubits, x, z), complex(coef)))
    return PauliExpansion(n_qubits=left.n_qubits, terms=tuple(terms), source_tag=source_tag)


def normal_operator(
    expansion: PauliExpansion,
    method: str = "pairwise",
    drop_tol: float = 1e-14,
) -> PauliExpansion:
    """Expansion of A^dagger A from the expansion of A.

    "pairwise" multiplies strings symbolically with phase bookkeeping;
    "dense" reconstructs A, forms the normal matrix, and decomposes it.
    Both routes agree to 1e-10 on every benchmark operator.
    """
    tag = f"{expansion.source_tag}^dag {expansion.source_tag}".strip()
    if method == "dense":
        dense = expansion.to_matrix()
        return decompose(dense.conj().T @ dense, source_tag=tag, drop_tol=drop_tol)
    if method != "pairwise":
        raise ContractViolation(f"unknown method {method!r}")
    return adjoint_product(expansion, expansion, drop_tol=drop_tol, source_tag=tag)


@dataclass(frozen=True)
class MeasurementGrouping:
    """Partition of expansion terms into qubit-wise commuting groups.

    groups holds term indices into the source expansion; basis_rotations holds
    one measurement-basis string per group (letters in {X, Y, Z} per qubit,
    defaulting to Z where every member is the identity).
    """

    groups: tuple[tuple[int, ...], ...]
    basis_rotations: tuple[str, ...]

    @property
    def n_groups(self) -> int:
        return len(self.groups)


def group_commuting(expansion: PauliExpansion) -> MeasurementGrouping:
    """Greedy first-fit grouping over terms sorted by descending |coefficient|."""
    order = sorted(
        range(len(expansion.terms)),
        key=lambda i: (-abs(expansion.terms[i][1]), i),
    )
    groups: list[list[int]] = []
    bases: list[list[str]] = []  # per group, per qubit letter or "I"
    n = expansion.n_qubits
    for idx in order:
        string = expansion.terms[idx][0]
        placed = False
        for g, basis in zip(groups, bases):
            ok = True
            for q in range(n):
                letter = string.letter(q)
                if letter != "I" and basis[q] != "I" and basis[q] != letter:
                    ok = False
                    break
            if ok:
                g.append(idx)
                for q in range(n):
                    letter = string.letter(q)
                    if letter != "I":
                        basis[q] = letter
                placed = True
                break
        if not placed:
            groups.append([idx])
            bases.append([string.letter(q) for q in range(n)])
    rotations = tuple("".join("Z" if b == "I" else b for b in basis) for basis in bases)
    return MeasurementGrouping(
        groups=tuple(tuple(g) for g in groups),
        basis_rotations=rotations,
    )


@dataclass(frozen=True)
class TruncationDiagnostics:
    rel_frobenius_error: float
    condition_number: float
    term_count: int


def truncate(
    expansion: PauliExpansion, threshold: float
) -> tuple[PauliExpansion, TruncationDiagnostics]:
    """Keep terms with |coefficient| > threshold; diagnose against the full operator."""
    if threshold < 0:
        raise ContractViolation("threshold must be >= 0")
    kept = tuple((s, c) for s, c in expansion.terms if abs(c) > threshold)
    if not kept:
        raise TruncationDegenerateError(
            f"threshold {threshold} removed all {len(expansion)} terms"
        )
    truncated = PauliExpansion(
        n_qubits=expansion.n_qubits, terms=kept, source_tag=expansion.source_tag
    )
    full = expansion.to_matrix()
    reduced = truncated.to_matrix()
    rel = float(np.linalg.norm(full - reduced) / np.linalg.norm(full))
    cond = float(np.linalg.cond(reduced))
    return truncated, TruncationDiagnostics(
        rel_frobenius_error=rel, condition_number=cond, term_count=len(kept)
    )


def count_measurements(
    expansion: PauliExpansion,
    grouped: bool,
    grouping: MeasurementGrouping | None = None,
) -> int:
    """Term count (ungrouped) or group count (grouped) for the scaling study."""
    if not grouped:
        return len(expansion)
    if grouping is None:
        grouping = group_commuting(expansion)
    return grouping.n_groups
