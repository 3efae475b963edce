"""Finite matrix models: triangular matrices, the normalizer split,
and the level-straightening recursion.

One tolerance governs the floating-point lane.  UNIT_TOL (1e-9) decides
whether an entry counts as nonzero, whether a phase counts as
unimodular, and how closely a reconstruction must match.  All phases
appearing here are explicit inputs, so rounding, not conditioning,
dominates the error.

The normalizer split is the matrix fact that a partial isometry
normalizing the diagonal masa factors uniquely as a diagonal unitary
times a 0/1 partial permutation.  Straightening uses that split level
by level: given the phase-decorated images of the superdiagonal units,
a single diagonal unitary conjugates every image back to its bare
permutation pattern.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable, Sequence

from .embeddings import RegularEmbedding
from .errors import DomainError, FormatError, _content_lines
from .partitions import ShapeMismatch, np

UNIT_TOL = 1e-9


class NotUpperTriangular(DomainError):
    """A matrix has a nonzero entry strictly below the diagonal."""


class NotNormalizingPartialIsometry(DomainError):
    """Input fails the one-entry-per-row/column or unimodularity test."""


class NonUnimodularPhase(DomainError):
    """A diagonal entry's modulus strays from 1 beyond UNIT_TOL."""


class ComplexUpperTriangular:
    """Dense k x k complex matrix with exact zeros below the diagonal."""

    __slots__ = ("k", "entries")

    def __init__(self, entries) -> None:
        a = np.asarray(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ShapeMismatch(f"need a square matrix, got shape {a.shape}")
        if np.any(np.tril(a, -1) != 0):
            raise NotUpperTriangular("strictly-lower entries must be exactly zero")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "k", int(a.shape[0]))
        object.__setattr__(self, "entries", a)

    def __setattr__(self, name, value):  # value semantics
        raise AttributeError("ComplexUpperTriangular is immutable")

    def __repr__(self) -> str:
        return f"ComplexUpperTriangular(k={self.k})"


@dataclass(frozen=True)
class PartialPermutationMatrix:
    """0/1 matrix with at most one entry per row and per column.

    ``pairs`` lists the occupied (row, col) positions, 1-based, sorted by
    row; row <= col on every pair keeps the matrix upper triangular.
    """

    k: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ShapeMismatch(f"dimension must be positive, got {self.k}")
        rows: set[int] = set()
        cols: set[int] = set()
        for r, c in self.pairs:
            if not (1 <= r <= self.k and 1 <= c <= self.k):
                raise ShapeMismatch(f"pair ({r},{c}) outside 1..{self.k}")
            if r > c:
                raise NotUpperTriangular(f"pair ({r},{c}) lies below the diagonal")
            if r in rows:
                raise NotNormalizingPartialIsometry(f"two entries in row {r}")
            if c in cols:
                raise NotNormalizingPartialIsometry(f"two entries in column {c}")
            rows.add(r)
            cols.add(c)
        object.__setattr__(self, "pairs", tuple(sorted(self.pairs)))

    def rows(self) -> frozenset[int]:
        return frozenset(r for r, _ in self.pairs)

    def cols(self) -> frozenset[int]:
        return frozenset(c for _, c in self.pairs)

    def to_matrix(self) -> np.ndarray:
        a = np.zeros((self.k, self.k), dtype=complex)
        r, c = (np.array(self.pairs, dtype=np.int64).reshape(-1, 2) - 1).T
        a[r, c] = 1.0
        return a


@dataclass(frozen=True)
class DiagonalUnitary:
    """Diagonal matrix of unimodular phases; phase 1 off any support."""

    phases: tuple[complex, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ShapeMismatch("need at least one phase")
        object.__setattr__(self, "phases", tuple(complex(p) for p in self.phases))
        for idx, p in enumerate(self.phases, 1):
            if abs(abs(p) - 1.0) > UNIT_TOL:
                raise NonUnimodularPhase(f"|phase {idx}| = {abs(p)!r} is not 1")

    @property
    def k(self) -> int:
        return len(self.phases)


def recompose(d: DiagonalUnitary, w: PartialPermutationMatrix) -> ComplexUpperTriangular:
    """The product D W: the phase of row r lands on each pair (r, c)."""
    if d.k != w.k:
        raise ShapeMismatch(f"dimension mismatch {d.k} vs {w.k}")
    a = np.zeros((w.k, w.k), dtype=complex)
    r, c = (np.array(w.pairs, dtype=np.int64).reshape(-1, 2) - 1).T
    a[r, c] = np.array(d.phases, dtype=complex)[r]
    return ComplexUpperTriangular(a)


def normalizer_split(
    v: ComplexUpperTriangular,
) -> tuple[DiagonalUnitary, PartialPermutationMatrix]:
    """Factor a diagonal-normalizing partial isometry as V = D W.

    W is the 0/1 support pattern of V (entries above UNIT_TOL); D holds
    each entry's phase on its row and 1 elsewhere, making the split
    unique.  Rejects two entries in a row or column (as a
    ``PartialPermutationMatrix``), then an entry of modulus not 1.
    """
    a = v.entries
    # np.hypot equals the scalar abs bit for bit; np.abs on a complex
    # array does not, and the phases are printed to 17 digits.
    modulus = np.hypot(a.real, a.imag)
    r, c = np.nonzero(modulus > UNIT_TOL)
    w = PartialPermutationMatrix(v.k, tuple(zip((r + 1).tolist(), (c + 1).tolist())))
    off = np.abs(modulus[r, c] - 1.0) > UNIT_TOL
    if off.any():
        i = int(off.argmax())
        raise NotNormalizingPartialIsometry(
            f"entry ({r[i] + 1},{c[i] + 1}) has modulus {float(modulus[r[i], c[i]])!r}, not 1"
        )
    phases = np.ones(v.k, dtype=complex)
    phases[r] = a[r, c] / modulus[r, c]
    return DiagonalUnitary(tuple(phases)), w


def apply_to_matrix(
    e: RegularEmbedding, m: ComplexUpperTriangular
) -> ComplexUpperTriangular:
    """Linear extension of the rank-paired matrix-unit images.

    For the standard, nest, and alternating patterns this reproduces the
    Kronecker products I (x) M, M (x) I, and I (x) M (x) I entrywise.
    """
    if m.k != e.k_from:
        raise ShapeMismatch(f"matrix has k={m.k} but embedding starts at {e.k_from}")
    a = e.diag.array - 1
    out = np.zeros((e.k_to, e.k_to), dtype=complex)
    # Unit (i, j) lands on (a[i, r], a[j, r]) for the diagonal rows a.
    # Distinct (i, j, r) hit distinct slots, and i > j lands strictly
    # below the diagonal, where m is exactly 0, so one scatter of every
    # entry of m is the linear extension.
    out[a[:, None, :], a[None, :, :]] = m.entries[:, :, None]
    return ComplexUpperTriangular(out)


def conjugate_by_diagonal(
    u: DiagonalUnitary, v: ComplexUpperTriangular
) -> ComplexUpperTriangular:
    """U* V U, entrywise conj(u_r) * V[r,c] * u_c."""
    if u.k != v.k:
        raise ShapeMismatch(f"dimension mismatch {u.k} vs {v.k}")
    p = np.array(u.phases, dtype=complex)
    return ComplexUpperTriangular(np.conj(p)[:, None] * v.entries * p[None, :])


def straighten_level(
    images: Sequence[tuple[DiagonalUnitary, PartialPermutationMatrix]],
    supports: Sequence[Iterable[int]],
) -> DiagonalUnitary:
    """One diagonal unitary that strips the phases off a level's images.

    ``images[i]`` is the split form (d_i, w_i) of the image of the
    superdiagonal unit (i, i+1); w_i must map support i+1 bijectively
    onto support i.  ``supports`` partitions 1..k into the equal-size
    diagonal supports of the image projections.  The returned U carries
    u_1 = 1 on the first support and the recursion
    u_{i+1} = w_i* d_i* u_i w_i onward, so conjugating each image by U
    leaves the bare permutation: U* (d_i w_i) U = w_i.
    """
    sets = [frozenset(s) for s in supports]
    if len(sets) != len(images) + 1:
        raise ShapeMismatch(
            f"{len(images)} images need {len(images) + 1} supports, got {len(sets)}"
        )
    k = sum(len(s) for s in sets)
    covered: set[int] = set()
    size = len(sets[0])
    for s in sets:
        if len(s) != size:
            raise ShapeMismatch("supports must have equal sizes")
        if covered & s:
            raise ShapeMismatch("supports must be disjoint")
        covered |= s
    if covered != set(range(1, k + 1)):
        raise ShapeMismatch(f"supports must cover 1..{k}")
    u = np.ones(k, dtype=complex)
    for i, (d, w) in enumerate(images):
        if d.k != k or w.k != k:
            raise ShapeMismatch(f"image {i + 1} has dimension {d.k}x{w.k}, expected {k}")
        if w.rows() != sets[i] or w.cols() != sets[i + 1]:
            raise ShapeMismatch(
                f"image {i + 1} must map support {i + 2} onto support {i + 1}"
            )
        for r, c in w.pairs:
            u[c - 1] = np.conj(d.phases[r - 1]) * u[r - 1]
    return DiagonalUnitary(tuple(u))


# -- text form --------------------------------------------------------

def format_matrix(m: ComplexUpperTriangular) -> str:
    """``dim k`` then k rows of k space-separated ``re,im`` pairs."""
    lines = [f"dim {m.k}"]
    for r in range(m.k):
        lines.append(
            " ".join(
                f"{m.entries[r, c].real:.17g},{m.entries[r, c].imag:.17g}"
                for c in range(m.k)
            )
        )
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> ComplexUpperTriangular:
    lines = [line for _, line in _content_lines(text)]
    if not lines or not lines[0].startswith("dim "):
        raise FormatError("matrix text must start with a 'dim <k>' line")
    try:
        k = int(lines[0][4:])
    except ValueError:
        raise FormatError(f"bad dimension {lines[0][4:]!r}") from None
    if k < 1:
        raise FormatError(f"dimension must be positive, got {k}")
    if len(lines) != k + 1:
        raise FormatError(f"expected {k} rows, got {len(lines) - 1}")
    # Rows are read into lists, so memory follows the text, not k*k.
    rows: list[list[complex]] = []
    for r, line in enumerate(lines[1:]):
        cells = line.split()
        if len(cells) != k:
            raise FormatError(f"row {r + 1} has {len(cells)} entries, expected {k}")
        row: list[complex] = []
        for c, cell in enumerate(cells):
            re_part, sep, im_part = cell.partition(",")
            if not sep:
                raise FormatError(f"entry ({r + 1},{c + 1}) is not a re,im pair: {cell!r}")
            try:
                z = complex(float(re_part), float(im_part))
            except ValueError:
                raise FormatError(
                    f"entry ({r + 1},{c + 1}) is not numeric: {cell!r}"
                ) from None
            if not cmath.isfinite(z):
                raise FormatError(f"entry ({r + 1},{c + 1}) is not finite: {cell!r}")
            row.append(z)
        rows.append(row)
    return ComplexUpperTriangular(rows)
