"""Hamiltonian and Lagrangian model families.

Two concrete families are supported in production code:

* ``TorusHamiltonian``: H(x, p) = (1/2) p . A(x) p + V(x) on the flat
  n-torus (n = 1 or 2), with A(x) a symmetric positive definite matrix of
  trigonometric polynomials (config load rejects any other) and V(x) a
  trigonometric polynomial, a 2-torus free (V = 0, A constant).  The
  Legendre-dual Lagrangian is L(x, v) = (1/2) v . A(x)^{-1} v - V(x).

* ``GraphLagrangian``: on a metric graph, L_e(v) = v^2 / 2 + V_e on each
  edge, where V_e is a per-edge action-rate offset.  The per-edge dual is
  H_e(p) = p^2 / 2 - V_e.

No other Hamiltonian is admitted: config load builds only these two
families, and the solvers use the closed forms directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelValidityError
from .topology import _grid

TWO_PI = 2.0 * np.pi


class TrigPolynomial:
    """Real trigonometric polynomial on the unit torus.

    ``terms`` is a list of ``(k, a, b)`` with integer frequency vector k,
    contributing ``a cos(2 pi k.x) + b sin(2 pi k.x)``.  Values and
    gradients are exact, which keeps periodicity residuals at zero up to
    floating point.  Values are priced at rows of points, by ``gradient_many``.
    """

    def __init__(self, n: int, terms):
        self.n = int(n)
        norm_terms = []
        for k, a, b in terms:
            kv = np.atleast_1d(np.asarray(k, dtype=float))
            if kv.shape != (self.n,):
                raise ValueError(f"frequency vector {k} does not match dimension {n}")
            if not np.allclose(kv, np.round(kv)):
                raise ValueError(f"frequency vector {k} must be integral for periodicity")
            norm_terms.append((np.round(kv).astype(int), float(a), float(b)))
        self.terms = norm_terms
        # the terms for ``gradient_many``: float frequencies and their
        # outer products k k^T, None at zero
        self._waves = [(k.astype(float), np.outer(k, k).astype(float), a, b)
                       if k.any() else (None, None, a, b)
                       for k, a, b in norm_terms]

    @classmethod
    def constant(cls, n: int, value: float) -> "TrigPolynomial":
        return cls(n, [(np.zeros(n, dtype=int), value, 0.0)])

    def value_many(self, xs):
        """Values at the rows of xs (m, n): ``gradient_many``'s."""
        return self.gradient_many(np.atleast_2d(xs))[0]

    def gradient_many(self, xs):
        """Values (m,), gradients (m, n) and second derivatives (m, n, n)
        at the rows of xs (m, n), from one cos/sin pair per nonzero-frequency
        term; a zero-frequency term adds its cosine coefficient to the values
        and nothing else.  The products of a zero coefficient are skipped:
        they are exact +-0 and the sums start at +0, so the bytes are those
        of the full sum.  ``value_many`` returns these values."""
        xs = np.asarray(xs, dtype=float)
        out, g = np.zeros(len(xs)), np.zeros(xs.shape)
        hess = np.zeros(xs.shape + (self.n,))
        for k, kk, a, b in self._waves:
            if k is None:
                out += a
                continue
            # k.x summed within each row, which a matrix product may sum
            # differently in another batch
            phase = TWO_PI * sum((xs[:, j] * k[j] for j in range(1, self.n)),
                                 xs[:, 0] * k[0])
            cos, sin = np.cos(phase), np.sin(phase)
            if b == 0.0:
                term, slope = a * cos, -a * sin
            elif a == 0.0:
                term, slope = b * sin, b * cos
            else:
                term, slope = a * cos + b * sin, -a * sin + b * cos
            out += term
            g += (TWO_PI * slope)[:, None] * k
            hess -= (TWO_PI * TWO_PI * term)[:, None, None] * kk
        return out, g, hess

    def mean(self) -> float:
        """Average over the torus (the zero-frequency cosine coefficient)."""
        total = 0.0
        for k, a, _ in self.terms:
            if not np.any(k):
                total += a
        return total


@dataclass
class TorusHamiltonian:
    """Quadratic-in-momentum Hamiltonian on the flat torus.

    ``a_entries`` stores the upper triangle of A(x) as TrigPolynomials in
    row-major order: [A11] for n=1, [A11, A12, A22] for n=2, each priced at
    rows of points.  ``constant_kinetic`` alone decides whether A is
    constant, and ``free_kinetic`` whether the system is free; building a
    2-torus that is not free raises ModelValidityError.
    """

    n: int
    a_entries: list
    v: TrigPolynomial

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        expected = {1: 1, 2: 3}[self.n]
        if len(self.a_entries) != expected:
            raise ValueError(f"expected {expected} kinetic entries for n={self.n}")
        if self.n == 2 and self.free_kinetic() is None:
            raise ModelValidityError("a two-dimensional torus needs a constant "
                                     "kinetic matrix and no potential")

    @classmethod
    def mechanical(cls, v: TrigPolynomial) -> "TorusHamiltonian":
        """H = |p|^2 / 2 + V(x)."""
        n = v.n
        ones = TrigPolynomial.constant(n, 1.0)
        zero = TrigPolynomial.constant(n, 0.0)
        entries = [ones] if n == 1 else [ones, zero, TrigPolynomial.constant(n, 1.0)]
        return cls(n, entries, v)

    def constant_kinetic(self):
        """A as an (n, n) matrix of its entries' means when every entry is
        constant, else None."""
        if all(map(_is_constant, self.a_entries)):
            a = [entry.mean() for entry in self.a_entries]
            return np.array([a[:1]] if self.n == 1 else [a[:2], a[1:]])
        return None

    def free_kinetic(self):
        """``constant_kinetic`` when V = 0 as well, else None: then
        L = v.A^{-1}.v/2 does not depend on x."""
        if _is_constant(self.v) and self.v.mean() == 0.0:
            return self.constant_kinetic()
        return None

    def kinetic_eig_bounds(self):
        """Proved (lower, upper) bounds on the eigenvalues of A(x) over the
        torus: those of ``constant_kinetic`` exactly, which every 2-torus
        has; else, on the circle, ``_proved_range`` of A, the extremes of A
        on N = 64 max(1, k_max) equispaced samples widened by M2 / (8 N^2)."""
        if (a_matrix := self.constant_kinetic()) is not None:
            w = np.linalg.eigvalsh(a_matrix)
            return w[0], w[-1]
        kmax = max(abs(int(k[0])) for k, _, _ in self.a_entries[0].terms)
        return _proved_range(self.a_entries[0], 64 * max(1, kmax))


@dataclass
class GraphLagrangian:
    """Per-edge quadratic Lagrangian L_e(v) = v^2/2 + V_e on a metric graph.

    ``potentials`` aligns with the owning graph's edge list.  The offsets
    enter the action directly (units of action per unit time), so the
    per-edge Hamiltonian is H_e(p) = p^2/2 - V_e.
    """

    graph: object
    potentials: np.ndarray = field(default=None)

    def __post_init__(self):
        pot = np.zeros(len(self.graph.edges)) if self.potentials is None else \
            np.asarray(self.potentials, dtype=float)
        if pot.shape != (len(self.graph.edges),):
            raise ValueError("one potential offset per edge required")
        self.potentials = pot

    def min_potential(self) -> float:
        return float(self.potentials.min())


def _is_constant(trig: TrigPolynomial) -> bool:
    return all(not np.any(k) for k, _, _ in trig.terms)


def _proved_range(trig: TrigPolynomial, mesh: int = 256):
    """Proved (lower, upper) bounds on f over the torus: its extremes on
    the periodic grid of ``mesh`` points per axis, widened by n M2 h^2 / 8
    with h = 1/mesh and M2 = sum (2 pi |k|)^2 (|a_k| + |b_k|) >= sup |D^2 f|.
    The gradient vanishes at an extremum, and a grid point within
    sqrt(n) h / 2 of it is within M2 n h^2 / 8 of the extreme value by
    Taylor's theorem.  In 1-D this is the chord bound: a C^2 function stays
    within M2 h^2 / 8 of its chord between samples h apart."""
    vals = trig.value_many(_torus_grid(trig.n, mesh))
    m2 = sum((TWO_PI * float(np.linalg.norm(k))) ** 2 * (abs(a) + abs(b))
             for k, a, b in trig.terms)
    slack = trig.n * m2 / (8.0 * mesh * mesh)
    return vals.min() - slack, vals.max() + slack


def _torus_grid(n: int, mesh: int) -> np.ndarray:
    """The periodic grid of mesh points per axis on [0, 1)^n."""
    return _grid([np.arange(mesh) / mesh] * n)

