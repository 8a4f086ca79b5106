"""Normal forms for polynomials with marked critical points.

The bicritical family of degree d with ramification profile (d-k, k+1) is
carried by the polynomial

    B(z) = sum_{i=0}^{k} (-1)^(k-i) * C(d, i) * C(d-i-1, k-i) * z^(d-i),

with integer coefficients (C the binomial coefficient).  It satisfies
B(0) = 0, B(1) = 1 and B'(z) = d*b_0 * z^(d-k-1) (z-1)^k, so every member
a*B(z) + c with a != 0 has affine critical points exactly {0, 1}.
Replacing k by d-1-k together with c -> 1-a-c gives a conjugate
map, so k can always be normalized into [1, ceil((d-2)/2)].

For n marked critical points 0, 1, gamma_1, ..., gamma_{n-2} the analogous
form integrates  z^(d - sum(k) - 1) * prod (z - gamma_i)^(k_i)  term by
term; :func:`ncritical_form` produces it with either numeric gammas or a
single symbolic gamma (three critical points).  With a single block [k]
the n-critical form equals (-1)^k * k! times B (pinned by brute-force
comparison in the test suite).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial
from typing import NamedTuple

from .errors import DomainError, ResourceBudgetError
from .polyring import SparsePoly, UniPoly

__all__ = [
    "BelyiPoly",
    "NCriticalForm",
    "belyi_coeffs",
    "canonical_k",
    "conjugate_params",
    "ncritical_form",
]


def _check_dk(d: int, k: int) -> None:
    if d < 3:
        raise DomainError(f"degree must be >= 3, got {d}")
    if not 1 <= k <= d - 2:
        raise DomainError(f"k must satisfy 1 <= k <= d-2, got k={k} for d={d}")


class BelyiPoly(NamedTuple):
    """The normal form above: b_i is the coefficient of z^(d-i), 0 <= i <= k."""

    d: int
    k: int
    coeffs: tuple[int, ...]

    def polynomial(self) -> UniPoly:
        dense = [0] * (self.d + 1)
        for i, b in enumerate(self.coeffs):
            dense[self.d - i] = b
        return UniPoly(dense)

    def evaluate(self, x):
        """B(x) for a rational x or a SparsePoly x: Horner on the top k+1
        coefficients from b_0, then the z^(d-k) tail."""
        acc, *rest = self.coeffs
        for b in rest:
            acc = acc * x + b
        return acc * x ** (self.d - self.k)

    # B(z) for an iterate z, under a name of its own: perfbench/spans.py
    # rebinds it to time the orbit steps
    eval_sparse = evaluate

    def step(self, a, c, z: SparsePoly, budget: int) -> SparsePoly:
        """One application a*B(z) + c, refused once it exceeds ``budget`` terms.

        ``a`` and ``c`` are polynomials or scalars over z's domain, Q or GF(p).
        """
        # Refuse before multiplying when z^m alone, m the top power of B with a
        # nonzero coefficient over z's domain, would exceed the budget.  Row i of
        # P*Q (its terms with first exponent i) holds row j of P plus row i - j
        # of Q, and |A + B| >= |A| + |B| - 1 for finite lattice sets, so
        # ``power`` bounds the row sizes of z^m from below if nothing cancels.
        # Over GF(p), where z^p has no more terms than z, it can overshoot, but
        # never past the bound for the rational polynomial that z reduces.
        m = self.d - next(i for i, b in enumerate(self.coeffs) if z.p is None or b % z.p)
        rows, power = Counter(e[0] for e in z.terms), Counter({0: 1})
        for _ in range(m):
            grown = Counter()
            for (i, x), (j, y) in product(power.items(), rows.items()):
                grown[i + j] = max(grown[i + j], x + y - 1)
            power = grown
        terms = sum(power.values())
        if terms <= budget:
            z = a * self.eval_sparse(z) + c
            terms = z.num_terms
        if terms > budget:
            raise ResourceBudgetError(
                f"iterate has at least {terms} terms, over the {budget}-monomial budget"
            )
        return z


def belyi_coeffs(d: int, k: int) -> BelyiPoly:
    """Integer coefficients of the degree-d normal form with parameter k."""
    _check_dk(d, k)
    return BelyiPoly(
        d,
        k,
        tuple((-1) ** (k - i) * comb(d, i) * comb(d - i - 1, k - i) for i in range(k + 1)),
    )


def canonical_k(d: int, k: int) -> int:
    """Fold k into the canonical range [1, ceil((d-2)/2)] via k -> d-1-k."""
    _check_dk(d, k)
    bound = (d - 1) // 2  # ceil((d-2)/2)
    return k if k <= bound else d - 1 - k


def conjugate_params(a: Fraction, c: Fraction, d: int, k: int):
    """Parameters of the conjugate map with the complementary k.

    (a, c, k) -> (a, 1 - a - c, d - 1 - k); applying twice is the identity.
    """
    _check_dk(d, k)
    a = Fraction(a)
    if a == 0:
        raise DomainError("a = 0 does not define a degree-d map")
    return a, Fraction(1) - a - Fraction(c), d - 1 - k


class NCriticalForm(NamedTuple):
    """Degree-d form with critical points 0, 1, gamma_1..gamma_{n-2}.

    ``coeffs`` maps z-exponents to coefficients: Fractions when the gammas
    are numeric, univariate polynomials in gamma when symbolic (gammas is
    None, three critical points only).
    """

    d: int
    profile: tuple[int, ...]
    gammas: tuple[Fraction, ...] | None
    coeffs: tuple[tuple[int, object], ...]

    @property
    def symbolic(self) -> bool:
        return self.gammas is None and len(self.profile) == 2

    def coeff(self, z_exp: int):
        for e, c in self.coeffs:
            if e == z_exp:
                return c
        if self.symbolic:
            return UniPoly()
        return Fraction(0)

    def polynomial(self) -> UniPoly:
        if self.symbolic:
            raise DomainError("symbolic form has no single-variable polynomial")
        dense = [0] * (self.d + 1)
        for e, c in self.coeffs:
            dense[e] = c
        return UniPoly(dense)


def ncritical_form(d: int, profile, gammas=None) -> NCriticalForm:
    """Construct the n-critical normal form (a, c wrapper applied outside).

    ``profile`` lists k_0..k_{n-2} (ramification index minus one at
    1, gamma_1, ..., gamma_{n-2}); gammas = None requests a symbolic gamma,
    which is supported exactly when the profile has two blocks.
    """
    profile = tuple(int(k) for k in profile)
    if not profile:
        raise DomainError("profile must be nonempty")
    if any(k < 1 for k in profile):
        raise DomainError("every profile entry must be >= 1")
    total = sum(profile)
    n = len(profile) + 1
    if not (n - 1 <= total <= d - 2):
        raise DomainError(
            f"profile sum {total} violates {n - 1} <= sum <= {d - 2} for d={d}"
        )

    symbolic = False
    if gammas is None:
        if len(profile) == 1:
            gam_vals: tuple[Fraction, ...] | None = ()
        elif len(profile) == 2:
            symbolic = True
            gam_vals = None
        else:
            raise DomainError(
                "symbolic gamma is supported only with three critical points"
            )
    else:
        gam_vals = tuple(Fraction(g) for g in gammas)
        if len(gam_vals) != len(profile) - 1:
            raise DomainError("need one gamma per profile entry beyond the first")
        seen = {Fraction(0), Fraction(1)}
        for g in gam_vals:
            if g in seen:
                raise DomainError("gammas must be distinct and avoid 0 and 1")
            seen.add(g)

    scale = Fraction(factorial(d), factorial(d - total - 1))
    gamma_poly = UniPoly((0, 1))  # the symbol itself

    acc: dict[int, object] = {}
    for jvec in product(*(range(k + 1) for k in profile)):
        z_exp = d + sum(jvec) - total
        base = scale / z_exp
        for k_i, j_i in zip(profile, jvec):
            base *= comb(k_i, j_i)
        # gamma_0 = 1 contributes only its sign
        if (profile[0] - jvec[0]) % 2:
            base = -base
        if symbolic:
            m = profile[1] - jvec[1]
            term: object = (gamma_poly**m) * (base if m % 2 == 0 else -base)
        else:
            term = base
            for g, (k_i, j_i) in zip(gam_vals, zip(profile[1:], jvec[1:])):
                term *= (-g) ** (k_i - j_i)
        prev = acc.get(z_exp)
        acc[z_exp] = term if prev is None else prev + term

    coeffs = tuple(
        (e, c) for e, c in sorted(acc.items()) if (c if symbolic else c != 0)
    )
    return NCriticalForm(d, profile, gam_vals, coeffs)

