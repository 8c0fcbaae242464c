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
from functools import cached_property

import numpy as np

from .errors import ContractViolation, NumericError, TruncationDegenerateError

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

_BIT_DIGITS = (str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011"))  # x, z bit per letter
_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
_I_POWER_ARRAY = np.array(_I_POWERS)
# Pairs (or matrix entries) per vectorized block: bounds the temporaries of
# adjoint_product and to_matrix, which would reach ~100 MB whole at K = 256.
_BLOCK = 1 << 16
_DROP_TOL = 1e-14  # coefficients at or below this magnitude are dropped


def _column_entries(x, z, cols: np.ndarray) -> np.ndarray:
    """P(x, z)[c ^ x, c] = i^{|x & z|} (-1)^{z . c} per column c; masks broadcast."""
    signs = 1.0 - 2.0 * (np.bitwise_count(cols & z) & 1)
    return _I_POWER_ARRAY[np.bitwise_count(x & z) % 4] * signs


def _letter_codes(xs: np.ndarray, zs: np.ndarray, n: int) -> np.ndarray:
    """(terms, n) array of 2 * x_bit + z_bit per qubit, qubit 0 first: I 0, Z 1, X 2, Y 3."""
    shifts = np.arange(n - 1, -1, -1)
    return 2 * ((xs[:, None] >> shifts) & 1) + ((zs[:, None] >> shifts) & 1)


def _letters(xs: np.ndarray, zs: np.ndarray, n: int, table: str) -> list[str]:
    """One n-letter string per (x, z) mask pair, spelling letter code k as table[k]."""
    return np.array(list(table))[_letter_codes(xs, zs, n)].view(f"<U{n}").ravel().tolist()


def _parse_masks(words: list[str]) -> tuple[list[int], list[int]]:
    """x and z masks of each word over I, X, Y, Z; qubit 0 is the most significant bit."""
    invalid = set("".join(words)) - set("IXYZ")
    if invalid:
        raise ContractViolation(f"invalid Pauli letter {min(invalid)!r}")
    return tuple([int("0" + word.translate(table), 2) for word in words] for table in _BIT_DIGITS)


def _row_blocks(rows: int, width: int):
    """Consecutive row slices of at most _BLOCK entries when each row holds width."""
    step = max(1, _BLOCK // max(width, 1))
    return (slice(start, start + step) for start in range(0, rows, step))


@dataclass(frozen=True)
class PauliString:
    n_qubits: int
    x_bits: int
    z_bits: int

    @staticmethod
    def from_text(text: str) -> "PauliString":
        (x,), (z,) = _parse_masks([text])
        return PauliString(n_qubits=len(text), x_bits=x, z_bits=z)

    @property
    def text(self) -> str:
        return "".join(self.letter(q) for q in range(self.n_qubits))

    def letter(self, qubit: int) -> str:
        bit = self.n_qubits - 1 - qubit
        return "IZXY"[2 * ((self.x_bits >> bit) & 1) + ((self.z_bits >> bit) & 1)]  # _letter_codes

    def matrix(self) -> np.ndarray:
        cols = np.arange(1 << self.n_qubits)
        mat = np.zeros((cols.size, cols.size), dtype=complex)
        mat[cols ^ self.x_bits, cols] = _column_entries(self.x_bits, self.z_bits, cols)
        return mat

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
        both = (self.x_bits | self.z_bits) & (other.x_bits | other.z_bits)
        differ = (self.x_bits ^ other.x_bits) | (self.z_bits ^ other.z_bits)
        return (both & differ) == 0


class PauliExpansion:
    """Weighted sum of distinct Pauli strings on a fixed qubit count.

    Three read-only arrays in term order: int64 masks x_bits and z_bits and finite complex128
    coefficients. terms, the (PauliString, complex) pairs, is a view built on first use.
    """

    def __init__(self, n_qubits: int, terms, source_tag: str = ""):
        x = np.array([s.x_bits for s, _ in terms], dtype=np.int64)
        z = np.array([s.z_bits for s, _ in terms], dtype=np.int64)
        self._adopt(n_qubits, x, z, np.array([c for _, c in terms], dtype=complex), source_tag)

    @classmethod
    def _from_arrays(cls, n_qubits, x_bits, z_bits, coefficients, source_tag) -> "PauliExpansion":
        expansion = cls.__new__(cls)
        expansion._adopt(n_qubits, x_bits, z_bits, coefficients, source_tag)
        return expansion

    def _adopt(self, n_qubits, x_bits, z_bits, coefficients, source_tag) -> None:
        self.n_qubits, self.source_tag = n_qubits, source_tag
        self.x_bits, self.z_bits, self.coefficients = x_bits, z_bits, coefficients
        for array in (x_bits, z_bits, coefficients):
            array.flags.writeable = False
        codes, counts = np.unique((x_bits << n_qubits) | z_bits, return_counts=True)
        if (counts > 1).any():
            code = codes[counts > 1][:1]
            word = _letters(code >> n_qubits, code & ((1 << n_qubits) - 1), n_qubits, "IZXY")[0]
            raise ContractViolation(f"duplicate Pauli string {word}")
        bad = np.flatnonzero(~np.isfinite(coefficients))[:1]
        if bad.size:
            word = _letters(x_bits[bad], z_bits[bad], n_qubits, "IZXY")[0]
            raise NumericError(f"{source_tag or 'expansion'}: coefficient of {word} is not finite")

    @cached_property
    def terms(self) -> tuple[tuple[PauliString, complex], ...]:
        columns = (a.tolist() for a in (self.x_bits, self.z_bits, self.coefficients))
        return tuple((PauliString(self.n_qubits, x, z), c) for x, z, c in zip(*columns))

    def __len__(self) -> int:
        return len(self.coefficients)

    def __iter__(self):
        return iter(self.terms)

    def to_matrix(self) -> np.ndarray:
        """sum_l c_l P_l, scattered in term order so each entry sums as term by term."""
        dim = 1 << self.n_qubits
        xs, zs, coefs = self.x_bits, self.z_bits, self.coefficients
        cols = np.arange(dim)
        out = np.zeros((dim, dim), dtype=complex)
        for rows in _row_blocks(len(xs), dim):
            x, z = xs[rows, None], zs[rows, None]
            np.add.at(out, (cols ^ x, cols), coefs[rows, None] * _column_entries(x, z, cols))
        return out

    def serialize(self) -> str:
        """Line format: <string> <re> <im>."""
        texts = _letters(self.x_bits, self.z_bits, self.n_qubits, "IZXY")
        coefs = self.coefficients.tolist()
        return "".join(f"{t} {c.real:.17g} {c.imag:.17g}\n" for t, c in zip(texts, coefs))

    @staticmethod
    def deserialize(text: str, source_tag: str = "") -> "PauliExpansion":
        words, coefs = [], []
        for line in filter(str.strip, text.splitlines()):
            word, re_part, im_part = line.split()
            words.append(word)
            coefs.append(complex(float(re_part), float(im_part)))
        if not words:
            raise ContractViolation("empty serialized expansion")
        if len(set(map(len, words))) > 1:
            raise ContractViolation("mixed qubit counts in serialized expansion")
        x, z = (np.array(masks, dtype=np.int64) for masks in _parse_masks(words))
        return PauliExpansion._from_arrays(len(words[0]), x, z, np.array(coefs), source_tag)


def _from_dense(coefs: np.ndarray, source_tag: str) -> PauliExpansion:
    """Expansion from coefs[x, z] over all 4^n strings: terms above _DROP_TOL, in (x, z) order."""
    n = coefs.shape[0].bit_length() - 1
    xs, zs = np.nonzero(~(np.abs(coefs) <= _DROP_TOL))  # keeps NaN, which the expansion rejects
    return PauliExpansion._from_arrays(n, xs, zs, coefs[xs, zs], source_tag)


def decompose(matrix: np.ndarray, source_tag: str = "") -> PauliExpansion:
    """Exact expansion of a 2^n x 2^n matrix over all 4^n Pauli strings.

    Coefficients are normalized trace inner products trace(P @ A) / 2^n: all
    x-diagonals A[c, c ^ x] are gathered at once, then one Walsh-Hadamard
    transform over c (a butterfly per bit, in place on one buffer) yields every
    z-mask. Coefficients at or below _DROP_TOL in magnitude are dropped; terms
    come in (x, z) order. A non-finite coefficient raises NumericError.
    """
    matrix = np.asarray(matrix)
    dim = matrix.shape[0]
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ContractViolation("matrix must be square")
    n = dim.bit_length() - 1
    if dim != (1 << n) or dim < 2:
        raise ContractViolation(f"matrix dimension {dim} is not a power of two")
    cols = np.arange(dim)
    masks = cols[:, None]
    sums = matrix[cols, cols ^ masks].astype(complex)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result raises below
        for bit in range(n):  # least significant bit of c first
            low, high = np.moveaxis(sums.reshape(dim, -1, 2, 1 << bit), 2, 0)  # views
            diff = low - high
            low += high
            high[...] = diff
            del diff  # so that no level's half-size temporary outlives it
        sums *= _I_POWER_ARRAY[np.bitwise_count(masks & cols) & 3]
        sums /= dim
        return _from_dense(sums, source_tag)


def adjoint_product(
    left: PauliExpansion,
    right: PauliExpansion,
    source_tag: str = "",
) -> PauliExpansion:
    """Expansion of left^dagger @ right by symbolic pairwise Pauli products.

    Products are formed in blocks of left rows with PauliString.product's
    phase rule and summed per result string in (left, right) term order;
    terms come in (x, z) order. A non-finite coefficient raises NumericError.
    """
    if left.n_qubits != right.n_qubits:
        raise ContractViolation("qubit counts differ")
    n = left.n_qubits
    lx, lz, rx, rz = left.x_bits, left.z_bits, right.x_bits, right.z_bits
    lcode, rcode = (lx << n) | lz, (rx << n) | rz  # the XOR of two codes is their product's
    # each factor's i^{|x & z|} goes into its coefficient once: a quarter turn is exact
    lc = np.conj(left.coefficients) * _I_POWER_ARRAY[np.bitwise_count(lx & lz) & 3]
    rc = right.coefficients * _I_POWER_ARRAY[np.bitwise_count(rx & rz) & 3]
    # contiguous copies of the parts: the block loop reads them once per block
    lre, lim, rre, rim = (part.copy() for c in (lc, rc) for part in (c.real, c.imag))
    acc = np.zeros(1 << (2 * n), dtype=complex)  # coefficient of P(x, z) at code (x << n) | z
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result raises below
        for rows in _row_blocks(len(lx), len(rx)):
            code = lcode[rows, None] ^ rcode
            # uint8 popcounts: the exponent matters mod 4, and uint8 wraps mod 256
            exp = 2 * np.bitwise_count(lz[rows, None] & rx) - np.bitwise_count((code >> n) & code)
            # conj(c_l) c_r in real arithmetic, rounded as a scalar complex product
            # is; numpy's vectorized complex multiply may fuse and round otherwise
            a_re, a_im = lre[rows, None], lim[rows, None]
            values = np.empty(code.shape, dtype=complex)
            values.real = a_re * rre - a_im * rim
            values.imag = a_re * rim + a_im * rre
            values *= _I_POWER_ARRAY[exp & 3]
            np.add.at(acc, code.ravel(), values.ravel())
        return _from_dense(acc.reshape(1 << n, 1 << n), source_tag)


def normal_operator(expansion: PauliExpansion, method: str = "pairwise") -> PauliExpansion:
    """Expansion of A^dagger A from the expansion of A.

    "pairwise" (the default) is adjoint_product: all T^2 string products in
    vectorized blocks, summed exactly as term-by-term products would be.
    "dense" reconstructs A, forms the normal matrix, and decomposes it; it is
    kept as the cross-check. Both routes agree to 1e-10 on every benchmark
    operator.
    """
    tag = f"{expansion.source_tag}^dag {expansion.source_tag}".strip()
    if method == "dense":
        dense = expansion.to_matrix()
        return decompose(dense.conj().T @ dense, source_tag=tag)
    if method != "pairwise":
        raise ContractViolation(f"unknown method {method!r}")
    return adjoint_product(expansion, expansion, source_tag=tag)


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
    """Greedy first-fit grouping over terms by descending |coefficient|, ties in term order.

    A term joins the first open group whose letters agree with its own wherever both act
    (PauliString.commutes_qubit_wise), else opens a new group. Bit g of clash[4 * b + L] is set
    when group g holds a letter other than L (a _letter_codes code) on qubit bit b. A term joins
    the lowest bit clear in the OR of its n slots, then sets it in the other two letters' slots
    of each qubit new to that group. Identity slots stay 0.
    """
    n = expansion.n_qubits
    xs, zs, coefs = expansion.x_bits, expansion.z_bits, expansion.coefficients
    # hypot rounds |c| as Python's abs does; np.abs differs in the last bit on some c
    order = np.argsort(-np.hypot(coefs.real, coefs.imag), kind="stable")
    clash = [0] * (4 * n)
    others = [[k - k % 4 + code for code in (1, 2, 3) if code != k % 4] for k in range(4 * n)]
    groups, bases = [], []  # per group: term indices, and the x and z masks of its letters
    for rows in _row_blocks(len(order), 8 * n):  # gathers of at most _BLOCK bytes of slots
        idxs = order[rows]
        slots = (_letter_codes(xs[idxs], zs[idxs], n) + 4 * np.arange(n - 1, -1, -1)).tolist()
        for idx, x, z, own in zip(idxs.tolist(), xs[idxs].tolist(), zs[idxs].tolist(), slots):
            c = 0
            for k in own:
                c |= clash[k]
            g = (~c & (c + 1)).bit_length() - 1
            if g == len(groups):
                groups.append([])
                bases.append((0, 0))
            groups[g].append(idx)
            bx, bz = bases[g]
            new = (x | z) & ~(bx | bz)
            if new:
                bases[g] = (bx | x, bz | z)
                for k in own:
                    if (new >> (k >> 2)) & 1:
                        for other in others[k]:
                            clash[other] |= 1 << g
    x_masks, z_masks = np.array(bases, dtype=np.int64).reshape(-1, 2).T
    rotations = _letters(x_masks, z_masks, n, "ZZXY")  # identity reads as Z
    return MeasurementGrouping(tuple(map(tuple, groups)), tuple(rotations))


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
    coefs = expansion.coefficients
    kept = np.hypot(coefs.real, coefs.imag) > threshold  # rounds as abs(c); np.abs may not
    if not kept.any():
        raise TruncationDegenerateError(f"threshold {threshold} removed all {len(expansion)} terms")
    masks = expansion.x_bits[kept], expansion.z_bits[kept]
    truncated = PauliExpansion._from_arrays(
        expansion.n_qubits, *masks, coefs[kept], expansion.source_tag
    )
    full = expansion.to_matrix()
    reduced = truncated.to_matrix()
    rel = float(np.linalg.norm(full - reduced) / np.linalg.norm(full))
    cond = float(np.linalg.cond(reduced))
    return truncated, TruncationDiagnostics(
        rel_frobenius_error=rel, condition_number=cond, term_count=len(truncated)
    )


def count_measurements(expansion: PauliExpansion, grouped: bool) -> int:
    """Term count (ungrouped) or group count (grouped) for the scaling study."""
    return group_commuting(expansion).n_groups if grouped else len(expansion)
