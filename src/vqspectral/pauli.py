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
_I_POWER_ARRAY = np.array(_I_POWERS)
# Pairs (or matrix entries) per vectorized block: bounds the temporaries of
# adjoint_product and to_matrix, which would reach ~100 MB whole at K = 256.
_BLOCK = 1 << 16
_DROP_TOL = 1e-14  # coefficients at or below this magnitude are dropped


def _column_entries(x, z, cols: np.ndarray) -> np.ndarray:
    """P(x, z)[c ^ x, c] = i^{|x & z|} (-1)^{z . c} per column c; masks broadcast."""
    signs = 1.0 - 2.0 * (np.bitwise_count(cols & z) & 1)
    return _I_POWER_ARRAY[np.bitwise_count(x & z) % 4] * signs


def _masks(expansion: "PauliExpansion") -> tuple[np.ndarray, np.ndarray]:
    """int64 arrays of the x and z masks, in term order."""
    x = np.array([s.x_bits for s, _ in expansion.terms], dtype=np.int64)
    z = np.array([s.z_bits for s, _ in expansion.terms], dtype=np.int64)
    return x, z


def _letter_codes(xs: np.ndarray, zs: np.ndarray, n: int) -> np.ndarray:
    """(terms, n) array of 2 * x_bit + z_bit per qubit, qubit 0 first: I 0, Z 1, X 2, Y 3."""
    shifts = np.arange(n - 1, -1, -1)
    return 2 * ((xs[:, None] >> shifts) & 1) + ((zs[:, None] >> shifts) & 1)


def _letters(xs: np.ndarray, zs: np.ndarray, n: int, table: str) -> list[str]:
    """One n-letter string per (x, z) mask pair, spelling letter code k as table[k]."""
    return np.array(list(table))[_letter_codes(xs, zs, n)].view(f"<U{n}").ravel().tolist()


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
        return "".join(self.letter(q) for q in range(self.n_qubits))

    def letter(self, qubit: int) -> str:
        bit = self.n_qubits - 1 - qubit
        return _BITS_TO_LETTER[((self.x_bits >> bit) & 1, (self.z_bits >> bit) & 1)]

    @property
    def support_mask(self) -> int:
        return self.x_bits | self.z_bits

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

    def to_matrix(self) -> np.ndarray:
        """sum_l c_l P_l, scattered in term order so each entry sums as term by term."""
        dim = 1 << self.n_qubits
        xs, zs = _masks(self)
        coefs = self.coefficients
        cols = np.arange(dim)
        out = np.zeros((dim, dim), dtype=complex)
        for rows in _row_blocks(len(xs), dim):
            x, z = xs[rows, None], zs[rows, None]
            np.add.at(out, (cols ^ x, cols), coefs[rows, None] * _column_entries(x, z, cols))
        return out

    def serialize(self) -> str:
        """Line format: <string> <re> <im>."""
        texts = _letters(*_masks(self), self.n_qubits, "IZXY")
        return "".join(f"{t} {c.real:.17g} {c.imag:.17g}\n" for t, (_, c) in zip(texts, self.terms))

    @staticmethod
    def deserialize(text: str, source_tag: str = "") -> "PauliExpansion":
        terms = []
        for line in filter(str.strip, text.splitlines()):
            word, re_part, im_part = line.split()
            terms.append((PauliString.from_text(word), complex(float(re_part), float(im_part))))
        if not terms:
            raise ContractViolation("empty serialized expansion")
        if len({string.n_qubits for string, _ in terms}) > 1:
            raise ContractViolation("mixed qubit counts in serialized expansion")
        return PauliExpansion(terms[0][0].n_qubits, tuple(terms), source_tag)


def _from_dense(coefs: np.ndarray, source_tag: str) -> PauliExpansion:
    """Expansion from coefs[x, z] over all 4^n strings: terms above _DROP_TOL, in (x, z) order."""
    n = coefs.shape[0].bit_length() - 1
    xs, zs = np.nonzero(np.abs(coefs) > _DROP_TOL)
    terms = zip(xs.tolist(), zs.tolist(), coefs[xs, zs].tolist())
    return PauliExpansion(n, tuple((PauliString(n, x, z), c) for x, z, c in terms), source_tag)


def decompose(matrix: np.ndarray, source_tag: str = "") -> PauliExpansion:
    """Exact expansion of a 2^n x 2^n matrix over all 4^n Pauli strings.

    Coefficients are normalized trace inner products trace(P @ A) / 2^n: all
    x-diagonals A[c, c ^ x] are gathered at once, then one Walsh-Hadamard
    transform over c (a butterfly per bit) yields every z-mask. Coefficients
    at or below _DROP_TOL in magnitude are dropped; terms come in (x, z) order.
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
    sums = matrix.astype(complex)[cols, cols ^ masks].reshape((dim,) + (2,) * n)
    for axis in range(n, 0, -1):  # least significant bit of c first
        low, high = sums.take(0, axis), sums.take(1, axis)
        sums = np.stack((low + high, low - high), axis=axis)
    coefs = _I_POWER_ARRAY[np.bitwise_count(masks & cols) & 3] * sums.reshape(dim, dim) / dim
    return _from_dense(coefs, source_tag)


def adjoint_product(
    left: PauliExpansion,
    right: PauliExpansion,
    source_tag: str = "",
) -> PauliExpansion:
    """Expansion of left^dagger @ right by symbolic pairwise Pauli products.

    Products are formed in blocks of left rows with PauliString.product's
    phase rule and summed per result string in (left, right) term order;
    terms come in (x, z) order.
    """
    if left.n_qubits != right.n_qubits:
        raise ContractViolation("qubit counts differ")
    n = left.n_qubits
    lx, lz = _masks(left)
    rx, rz = _masks(right)
    lcode, rcode = (lx << n) | lz, (rx << n) | rz  # the XOR of two codes is their product's
    # popcounts stay uint8: exponents matter mod 4, and uint8 sums wrap mod 256
    lxz, rxz = np.bitwise_count(lx & lz), np.bitwise_count(rx & rz)
    lc, rc = np.conj(left.coefficients), right.coefficients
    acc = np.zeros(1 << (2 * n), dtype=complex)  # coefficient of P(x, z) at code (x << n) | z
    for rows in _row_blocks(len(lx), len(rx)):
        code = lcode[rows, None] ^ rcode
        exp = lxz[rows, None] + rxz - np.bitwise_count((code >> n) & code)
        exp += 2 * np.bitwise_count(lz[rows, None] & rx)
        # conj(c_l) c_r in real arithmetic, rounded as a scalar complex product
        # is; numpy's vectorized complex multiply may fuse and round otherwise
        a, b = lc[rows, None], rc
        values = np.empty(code.shape, dtype=complex)
        values.real = a.real * b.real - a.imag * b.imag
        values.imag = a.real * b.imag + a.imag * b.real
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
    xs, zs = _masks(expansion)
    coefs = expansion.coefficients
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


def count_measurements(expansion: PauliExpansion, grouped: bool) -> int:
    """Term count (ungrouped) or group count (grouped) for the scaling study."""
    return group_commuting(expansion).n_groups if grouped else len(expansion)
