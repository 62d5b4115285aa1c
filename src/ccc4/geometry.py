"""Scalar invariants of four-body mutual-distance vectors.

A distance vector r = (r12, r13, r14, r23, r24, r34) uses the sequential
labeling convention: bodies are numbered consecutively around the
quadrilateral, so r13 and r24 are the diagonals.  That convention is a
documented contract of every function here; relabeling is the caller's job.

The six scalar invariants (U, I, P, K, Q, H) also take a stack of vectors:
one distance vector gives a float, an (n, 6) array an (n,) array, and U
and I take one mass vector or an (n, 4) stack of them.  Each invariant is
one expression over six columns, which are Python floats for one vector
and the (n,) columns of a stack, so each row of a stacked result has the
bits of the single-vector call.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Pair (i, j) behind each slot of a distance vector.
DISTANCE_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

# Slot of the opposite pair: (12)<->(34), (13)<->(24), (14)<->(23).
OPPOSITE_SLOT = (5, 4, 3, 2, 1, 0)

# Sign with which each pair enters the cyclic-quadrilateral relation
# P = r12 r34 + r14 r23 - r13 r24 (diagonal products carry the minus).
PAIR_SIGN = (1.0, -1.0, 1.0, 1.0, -1.0, 1.0)


@dataclass(frozen=True)
class DistanceVector:
    """Six mutual distances in sequential labeling (r13, r24 diagonals)."""

    r12: float
    r13: float
    r14: float
    r23: float
    r24: float
    r34: float

    def __post_init__(self):
        for name, value in zip(self.__dataclass_fields__, self.astuple()):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"distance {name} must be positive and finite, got {value}")

    @classmethod
    def from_iterable(cls, values) -> "DistanceVector":
        vals = [float(x) for x in values]
        if len(vals) != 6:
            raise ValueError(f"expected 6 distances, got {len(vals)}")
        return cls(*vals)

    def astuple(self):
        return (self.r12, self.r13, self.r14, self.r23, self.r24, self.r34)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.astuple(), dtype=float)

    def scaled(self, k: float) -> "DistanceVector":
        return DistanceVector(*(k * x for x in self.astuple()))


@dataclass(frozen=True)
class MassVector:
    """Four positive masses; the total mass M is derived."""

    m1: float
    m2: float
    m3: float
    m4: float

    def __post_init__(self):
        for name, value in zip(self.__dataclass_fields__, self.astuple()):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"mass {name} must be positive and finite, got {value}")

    @classmethod
    def from_iterable(cls, values) -> "MassVector":
        vals = [float(x) for x in values]
        if len(vals) != 4:
            raise ValueError(f"expected 4 masses, got {len(vals)}")
        return cls(*vals)

    def astuple(self):
        return (self.m1, self.m2, self.m3, self.m4)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.astuple(), dtype=float)

    @property
    def M(self) -> float:
        return self.m1 + self.m2 + self.m3 + self.m4

    def products(self) -> np.ndarray:
        """Pairwise products m_i m_j in distance-slot order."""
        m = self.astuple()
        return np.array([m[i - 1] * m[j - 1] for i, j in DISTANCE_PAIRS])

    def normalized(self, total: float = 4.0) -> "MassVector":
        """Rescale so the masses sum to `total` (equal masses become all 1)."""
        k = total / self.M
        return MassVector(k * self.m1, k * self.m2, k * self.m3, k * self.m4)


def _r6(r) -> tuple:
    """One distance vector as six Python floats."""
    if isinstance(r, DistanceVector):
        return r.astuple()
    if isinstance(r, np.ndarray):
        if r.shape != (6,):
            raise ValueError(f"expected 6 distances, got shape {r.shape}")
        r = r.tolist()
    vals = tuple(map(float, r))
    if len(vals) != 6:
        raise ValueError(f"expected 6 distances, got {len(vals)}")
    return vals


def _m(m) -> MassVector:
    return m if isinstance(m, MassVector) else MassVector.from_iterable(m)


def _cols(r) -> tuple:
    """The six distance columns the invariants are written over: six
    floats for one distance vector, the six (n,) columns of an (n, 6)
    stack."""
    if isinstance(r, np.ndarray) and r.ndim == 2:
        if r.shape[1] != 6:
            raise ValueError(f"expected an (n, 6) stack of distances, got shape {r.shape}")
        return tuple(r.astype(float, copy=False).T)
    return _r6(r)


def _mass_cols(m) -> tuple:
    """Pair products m_i m_j in distance-slot order and the total mass M:
    floats for one mass vector, (n,) columns for an (n, 4) stack validated
    as MassVector validates one."""
    if isinstance(m, np.ndarray) and m.ndim == 2:
        if m.shape[1] != 4:
            raise ValueError(f"expected an (n, 4) stack of masses, got shape {m.shape}")
        if not np.all(np.isfinite(m) & (m > 0.0)):
            raise ValueError("stacked masses must be positive and finite")
        m1, m2, m3, m4 = m.astype(float, copy=False).T
    else:
        m1, m2, m3, m4 = _m(m).astuple()
    return (m1 * m2, m1 * m3, m1 * m4, m2 * m3, m2 * m4, m3 * m4), m1 + m2 + m3 + m4


def _fpow(x: float, e: int) -> float:
    """x ** e for a Python float, rounded as the C library's pow rounds it,
    but +-inf where the power overflows: numpy returns inf there, and
    Python's float power raises OverflowError."""
    try:
        return x ** e
    except OverflowError:
        return math.copysign(math.inf, x) if e % 2 else math.inf


def potential_U(r, m):
    """Newtonian potential sum m_i m_j / r_ij (homogeneous of degree -1)."""
    (p12, p13, p14, p23, p24, p34), _ = _mass_cols(m)
    r12, r13, r14, r23, r24, r34 = _cols(r)
    return p12 / r12 + p13 / r13 + p14 / r14 + p23 / r23 + p24 / r24 + p34 / r34


def moment_I(r, m):
    """Moment of inertia (1 / 2M) sum m_i m_j r_ij^2 about the center of mass."""
    (p12, p13, p14, p23, p24, p34), total = _mass_cols(m)
    r12, r13, r14, r23, r24, r34 = _cols(r)
    return ((p12 * (r12 * r12) + p13 * (r13 * r13) + p14 * (r14 * r14)
             + p23 * (r23 * r23) + p24 * (r24 * r24) + p34 * (r34 * r34))
            / (2.0 * total))


def ptolemy_P(r):
    """Cyclic-quadrilateral defect r12 r34 + r14 r23 - r13 r24.

    Zero exactly on sequentially ordered cyclic quadrilaterals; positive on
    every other convex sequential quadrilateral and on tetrahedra.
    """
    r12, r13, r14, r23, r24, r34 = _cols(r)
    return r12 * r34 + r14 * r23 - r13 * r24


# Index of each entry of the bordered Cayley-Menger matrix in
# (r12^2, r13^2, r14^2, r23^2, r24^2, r34^2, 0, 1).
_CM_ENTRIES = np.array([
    [6, 7, 7, 7, 7],
    [7, 6, 0, 1, 2],
    [7, 0, 6, 3, 4],
    [7, 1, 3, 6, 5],
    [7, 2, 4, 5, 6],
])


def cayley_menger_H(r):
    """Cayley-Menger determinant of the four points, H = 288 V^2.

    Evaluated directly as the bordered 5x5 determinant of squared distances,
    never through the Ptolemy factorization, so the two stay independent
    cross-checks of each other.  A stack is one (n, 5, 5) determinant call.
    """
    sq = np.transpose(_cols(r)) ** 2
    entries = np.zeros(sq.shape[:-1] + (8,))
    entries[..., :6] = sq
    entries[..., 7] = 1.0
    det = np.linalg.det(entries[..., _CM_ENTRIES])
    return det if det.ndim else float(det)


def K_term(r):
    """Odd cubic K = r12 r13 r23 - r12 r14 r24 + r13 r14 r34 - r23 r24 r34.

    Together with P it factors the Cayley-Menger determinant (Pech
    decomposition H/2 = P Q - K^2); on geometrically realizable vectors with
    P = 0 it must vanish, so |K| serves as the co-circularity residual.
    """
    r12, r13, r14, r23, r24, r34 = _cols(r)
    return (r12 * r13 * r23 - r12 * r14 * r24
            + r13 * r14 * r34 - r23 * r24 * r34)


def Q_term(r):
    """The degree-4 cofactor Q of the Pech decomposition H/2 = P Q - K^2.

    Each line groups one opposite pair with the sum of the four other
    squared distances minus its own two.  (A widely reproduced misprint
    writes the second line's r12^2 + r34^2 as a product; the sum is what
    makes the decomposition hold against the raw determinant, which the
    randomized identity suite checks.)
    """
    r12, r13, r14, r23, r24, r34 = _cols(r)
    s12, s13, s14, s23, s24, s34 = (r12 * r12, r13 * r13, r14 * r14,
                                    r23 * r23, r24 * r24, r34 * r34)
    return (r12 * r34 * (-s12 - s34 + s23 + s14 + s13 + s24)
            + r14 * r23 * (s12 + s34 - s23 - s14 + s13 + s24)
            - r13 * r24 * (s12 + s34 + s23 + s14 - s13 - s24))


@dataclass(frozen=True)
class ScalarReport:
    """Values of the six scalar functions at one (r, m)."""

    U: float
    I: float
    P: float
    H: float
    K: float
    Q: float

    @classmethod
    def evaluate(cls, r, m) -> "ScalarReport":
        return cls(U=potential_U(r, m), I=moment_I(r, m), P=ptolemy_P(r),
                   H=cayley_menger_H(r), K=K_term(r), Q=Q_term(r))


# Slots of the sides ab, bc and ac of the triangles abc = 123, 124, 134, 234.
_TRIANGLE_SLOTS = ((0, 3, 1), (0, 4, 2), (1, 5, 2), (3, 5, 4))


def _margins(values) -> list:
    """triangle_margins of six floats, as a list of floats."""
    margins = []
    for i, j, k in _TRIANGLE_SLOTS:
        x, y, z = values[i], values[j], values[k]
        margins.extend((x + y - z, y + z - x, z + x - y))
    return margins


def triangle_margins(r) -> np.ndarray:
    """The twelve strict triangle margins r_ij + r_jk - r_ik, one per
    ordered side of each of the four triangles."""
    return np.array(_margins(_r6(r)))


# Fixed tolerances of is_geometric and in_D.
GEOMETRIC_H_COEFF = 1e-9   # H >= -GEOMETRIC_H_COEFF (max r)^6
TRIANGLE_MARGIN = 1e-12    # every triangle margin must exceed this times max r
IN_D_TOL = 1e-8            # |I - 1|; |P| and |K| relative to (max r)^2, (max r)^3


def is_geometric(r) -> bool:
    """True iff r is realizable by four points in space.

    Requires H(r) >= -GEOMETRIC_H_COEFF * (max r)^6 (H has degree 6) and
    all twelve triangle inequalities strict with margin > TRIANGLE_MARGIN *
    max r (the margins have degree 1), so the answer does not depend on
    the scale of r.  H is evaluated on r divided by the power of two that
    brings max r into [0.5, 1), which is exact and keeps the determinant
    in the float range.  The margins make the open conditions decidable in
    floats.
    """
    values = _r6(r)
    top = max(values)
    shift = math.frexp(top)[1]
    unit = tuple(math.ldexp(x, -shift) for x in values)
    if cayley_menger_H(unit) < -GEOMETRIC_H_COEFF * _fpow(max(unit), 6):
        return False
    return all(x > TRIANGLE_MARGIN * top for x in _margins(values))


def in_D(r, m) -> bool:
    """True iff r is a normalized realizable cyclic vector: |I - 1| at most
    IN_D_TOL, |P| and |K| at most IN_D_TOL (max r)^2 and IN_D_TOL
    (max r)^3, and geometric realizability.  I is free of the scale, and P
    and K are bounded by the power of max r of their degree, so the answer
    does not depend on the scale of r and m; a NaN fails every bound.

    K = 0 stands in for the coplanarity condition H = 0; the two are
    equivalent on realizable vectors with P = 0 and K is far better
    conditioned (degree 3 versus degree 6).
    """
    values = _r6(r)
    top = max(values)
    return (abs(moment_I(values, m) - 1.0) <= IN_D_TOL
            and abs(ptolemy_P(values)) <= IN_D_TOL * _fpow(top, 2)
            and abs(K_term(values)) <= IN_D_TOL * _fpow(top, 3)
            and is_geometric(values))


# --- relabelings preserving the sequential convention ---------------------
#
# The dihedral group of the quadrilateral: every body permutation that keeps
# the traversal sequential (diagonals stay diagonals).  Values are the image
# bodies (pi(1), pi(2), pi(3), pi(4)).
SEQUENTIAL_RELABELINGS = {
    "identity": (1, 2, 3, 4),
    "cycle1": (2, 3, 4, 1),
    "cycle2": (3, 4, 1, 2),
    "cycle3": (4, 1, 2, 3),
    "swap12_34": (2, 1, 4, 3),
    "swap14_23": (4, 3, 2, 1),
    "transpose13": (3, 2, 1, 4),
    "transpose24": (1, 4, 3, 2),
}

# Sign picked up by K under each relabeling (P is invariant under all
# eight).  Four-cycles and the two side swaps reverse the traversal parity
# and flip K; the half turn and the diagonal transpositions preserve it.
K_RELABEL_SIGN = {
    "identity": 1, "cycle1": -1, "cycle2": 1, "cycle3": -1,
    "swap12_34": -1, "swap14_23": -1, "transpose13": 1, "transpose24": 1,
}

_SLOT_OF_PAIR = {frozenset(p): k for k, p in enumerate(DISTANCE_PAIRS)}


def distance_index_permutation(body_perm) -> tuple:
    """Slot permutation induced by a body relabeling: slot k of the output
    holds r_{pi(i) pi(j)} for (i, j) = DISTANCE_PAIRS[k]."""
    return tuple(_SLOT_OF_PAIR[frozenset((body_perm[i - 1], body_perm[j - 1]))]
                 for i, j in DISTANCE_PAIRS)


def relabel_distances(r, body_perm) -> np.ndarray:
    values = _r6(r)
    return np.array([values[k] for k in distance_index_permutation(body_perm)])


# (body permutation, slot permutation, moved bodies) of each sequential
# relabeling; a moved body is a pair (i, pi(i)) of 0-based indices, i != pi(i).
_RELABEL_TABLE = tuple((perm, distance_index_permutation(perm),
                        tuple((i, j - 1) for i, j in enumerate(perm) if j - 1 != i))
                       for perm in SEQUENTIAL_RELABELINGS.values())

RELABEL_RTOL = 1e-12     # relative tolerance of "equal masses"


def _admissible_entries(m):
    # np.allclose(masses[perm], masses, rtol=RELABEL_RTOL, atol=0) per
    # entry, in plain floats: |m_pi(i) - m_i| <= rtol |m_i|, which a body
    # the relabeling fixes always meets.
    masses = [float(x) for x in _m(m).astuple()]
    entries = []
    for perm, slots, moved in _RELABEL_TABLE:
        for i, j in moved:
            if not abs(masses[j] - masses[i]) <= RELABEL_RTOL * abs(masses[i]):
                break
        else:
            entries.append((perm, slots))
    return entries


def admissible_relabelings(m):
    """Sequential relabelings that fix the mass vector, as body permutations.

    Used to identify symmetric copies of one solution before clustering
    multistart endpoints: with repeated masses, relabeled minimizers are the
    same physical configuration.
    """
    return [perm for perm, _ in _admissible_entries(m)]


def _admissible_slots(m) -> tuple:
    """Slot permutations of the admissible relabelings of m other than the
    identity, which never yields a smaller copy.  Depends on the masses
    only, so a caller that canonicalizes many vectors of one mass vector
    builds it once."""
    return tuple(slots for perm, slots in _admissible_entries(m)
                 if perm != SEQUENTIAL_RELABELINGS["identity"])


def _canonical(values, slot_perms) -> tuple:
    """Lexicographically smallest of the six floats `values` and their
    copies under each permutation of `slot_perms`."""
    best = tuple(values)
    for slots in slot_perms:
        cand = tuple(values[k] for k in slots)
        if cand < best:
            best = cand
    return best


def canonical_distance_tuple(r, m) -> tuple:
    """Lexicographically smallest relabeled copy of r over the relabelings
    admissible for the mass vector m."""
    return _canonical(_r6(r), _admissible_slots(m))
