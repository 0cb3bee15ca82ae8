"""Character algebra with a formal parameter s, and the certificates built
on it: the root-subgroup comorphism, regularity of its charts, the action
law, faithfulness witnesses, homogeneous derivations and the Lie-algebra
dimension count.

All coefficients are integers (binomial coefficients), so every formula
specializes to an arbitrary base field; no field arithmetic appears.  The
certificates read integer rows (<rho_i, v>)_i and the witness and degree
list of each ray, which the fan keeps (per_fan).  Regularity and the
chart conditions of the action law and of the derivation are the root's
own ray inequalities, plus, for regularity, Demazure's sigma' in the
fan; no certificate of check samples a dual cone.  Only the derivation
classifier reads sample characters (dual_monomials).
"""

from __future__ import annotations

import math
from itertools import combinations, product
from operator import add, mul
from typing import NamedTuple, Optional, Sequence

from .fan import Fan, per_fan, require_complete
from .lattice import (
    Vec,
    det,
    hermite_normal_form,
    is_primitive,
    pairing,
    scaled_inverse,
    vec,
    vec_add,
    vec_mat,
    vec_neg,
    vec_scale,
)
from .roots import DemazureRoot, demazure_roots


class LocalizationRequiredError(ValueError):
    """Comorphism values with negative pairing require localization."""


class GradedLaurentPoly:
    """Integer-coefficient polynomial in s over the character lattice M.

    Terms map (s_exponent, m) to a nonzero coefficient; multiplication
    follows chi^m * chi^m' = chi^(m+m') and s-exponents add.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (k, m), c in items:
            if c:
                key = (int(k), vec(m))
                c = data.get(key, 0) + c
                if c:
                    data[key] = c
                else:
                    del data[key]
        self.terms = data

    @classmethod
    def chi(cls, m: Sequence[int], coeff: int = 1, s_exp: int = 0) -> "GradedLaurentPoly":
        return cls([((s_exp, vec(m)), coeff)])

    @classmethod
    def one(cls, rank: int) -> "GradedLaurentPoly":
        return cls.chi((0,) * rank)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedLaurentPoly) and self.terms == other.terms

    __hash__ = None

    def __add__(self, other: "GradedLaurentPoly") -> "GradedLaurentPoly":
        merged = dict(self.terms)
        for key, c in other.terms.items():
            merged[key] = merged.get(key, 0) + c
        return GradedLaurentPoly(merged)

    def __neg__(self) -> "GradedLaurentPoly":
        return GradedLaurentPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "GradedLaurentPoly") -> "GradedLaurentPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return GradedLaurentPoly({k: other * c for k, c in self.terms.items()})
        out = {}
        for (k1, m1), c1 in self.terms.items():
            for (k2, m2), c2 in other.terms.items():
                key = (k1 + k2, vec_add(m1, m2))
                out[key] = out.get(key, 0) + c1 * c2
        return GradedLaurentPoly(out)

    __rmul__ = __mul__

    def s_coefficient(self, k: int) -> dict:
        """Map m -> coefficient of s^k chi^m."""
        return {m: c for (j, m), c in self.terms.items() if j == k}

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (k, m), c in sorted(self.terms.items()):
            s = "" if k == 0 else ("s" if k == 1 else f"s^{k}")
            bits.append(f"{c}{s}*chi{list(m)}")
        return " + ".join(bits)


class _Derivation(NamedTuple):
    p: Vec
    e: Vec


class HomogeneousDerivation(_Derivation):
    """Derivation of the character algebra: chi^m -> <p, m> chi^(m+e).
    The direction p must be primitive."""

    __slots__ = ()

    def __new__(cls, p: Vec, e: Vec):
        if not is_primitive(p):
            raise ValueError("derivation direction p must be primitive")
        return super().__new__(cls, p, e)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so it checks p too
        return cls(*iterable)


def derivation_apply(d: HomogeneousDerivation,
                     poly: GradedLaurentPoly) -> GradedLaurentPoly:
    """Term-wise application, extended linearly; s is a constant."""
    return GradedLaurentPoly(
        [((k, vec_add(m, d.e)), c * pairing(d.p, m)) for (k, m), c in poly.terms.items()])


def _comorphism_degree(fan: Fan, root: DemazureRoot, m: Vec) -> int:
    """k = <rho_e, m>, the exponent of the comorphism on chi^m; raises
    LocalizationRequiredError when it is negative."""
    k = pairing(fan.rays[root.rho_e], m)
    if k < 0:
        raise LocalizationRequiredError(
            f"<rho_e, m> = {k} < 0 requires localization")
    return k


def _comorphism_term(root: DemazureRoot, m: Vec, k: int, i: int) -> tuple:
    """The s^i term of chi^m (1 + s chi^e)^k: ((i, m + i*e), C(k, i))."""
    return (i, vec_add(m, vec_scale(root.e, i))), math.comb(k, i)


def comorphism_apply(fan: Fan, root: DemazureRoot,
                     m: Sequence[int]) -> GradedLaurentPoly:
    """chi^m (1 + s chi^e)^<rho_e, m>, expanded as a polynomial in s.

    Requires <rho_e, m> >= 0; for negative pairing the chart needs the
    localized form, which regularity_check certifies combinatorially.
    """
    m = vec(m)
    k = _comorphism_degree(fan, root, m)
    return GradedLaurentPoly([_comorphism_term(root, m, k, i) for i in range(k + 1)])


def infinitesimal_check(fan: Fan, root: DemazureRoot, m: Sequence[int]) -> bool:
    """Does the s-linear part of the comorphism equal d_{rho_e, e}(chi^m)?

    With k = <rho_e, m> >= 0 the s-linear part is C(k, 1) chi^(m+e) and the
    derivation gives k chi^(m+e); both vanish for k = 0.  So the verdict
    depends on m only through k, and one m per k decides it for every
    character of that degree.  Only the s-linear term is built, by the
    term formula comorphism_apply expands; the other k terms cannot enter
    the comparison.  Whether m + e lies in the chart's dual is the
    separate chart condition of action_chart_check.
    """
    m = vec(m)
    k = _comorphism_degree(fan, root, m)
    linear = GradedLaurentPoly([_comorphism_term(root, m, k, 1)] if k >= 1 else [])
    d = HomogeneousDerivation(p=fan.rays[root.rho_e], e=root.e)
    rhs = derivation_apply(d, GradedLaurentPoly.chi(m)).s_coefficient(0)
    return linear.s_coefficient(1) == rhs


def action_additivity_check(fan: Fan, root: DemazureRoot, m: Sequence[int]) -> bool:
    """Acting by s' and then by s equals acting by s + s'.

    Both sides are expanded as integer polynomials in two formal
    parameters with character monomials and compared term by term.  With
    k = <rho_e, m>, both index their terms by (j, i) with 0 <= i + j <= k,
    each with the character m + (i+j)e, and the coefficients are
    C(k,i) C(k-i,j) and C(k,i+j) C(i+j,j), both the multinomial
    k! / (i! j! (k-i-j)!).  So the verdict depends on m only through k,
    and one m per k decides it for every character of that degree.
    The character m + t*e of a term is fixed by its exponent t = i + j, so
    the terms are indexed by (j, i, t) and no character is built.
    Whether the characters m + i*e lie in the chart's dual is the separate
    chart condition of action_chart_check.
    """
    k = pairing(fan.rays[root.rho_e], m)
    if k < 0:
        raise LocalizationRequiredError("additivity check needs <rho_e, m> >= 0")
    two_step = {}
    for i in range(k + 1):
        for j in range(k - i + 1):
            key = (j, i, i + j)
            two_step[key] = two_step.get(key, 0) + math.comb(k, i) * math.comb(k - i, j)
    one_step = {}
    for t in range(k + 1):
        for a in range(t + 1):
            key = (a, t - a, t)
            one_step[key] = one_step.get(key, 0) + math.comb(k, t) * math.comb(t, a)
    return two_step == one_step


def _parallelepiped_points(gens: Sequence[Vec], d: int) -> set:
    """Lattice points sum lam_g * g with 0 <= lam_g < 1 over the linearly
    independent d-subsets of gens; the Hermite box of a subset's lattice
    holds one residue per point, and has |det| of them."""
    points = {(0,) * d}
    for basis in combinations(gens, d):
        if abs(det(basis)) > 1:  # 0: dependent, 1: origin only
            h, _ = hermite_normal_form(basis)
            inv, det_b = scaled_inverse(basis)
            for x in product(*(range(h[i][i]) for i in range(d))):
                # c % det_b / det_b is the fractional part of c / det_b for
                # either sign of det_b
                residues = tuple(c % det_b for c in vec_mat(x, inv))
                points.add(tuple(c // det_b for c in vec_mat(residues, basis)))
    return points


def _add_multiples(samples, g: Vec, height: int) -> set:
    """The characters m + c*g, 0 <= c <= height, over the samples m."""
    steps = [vec_scale(g, c) for c in range(height + 1)]
    return {tuple(map(add, m, cg)) for m in samples for cg in steps}


def _row(fan: Fan, v: Vec) -> tuple:
    """(<rho_i, v>)_i over every ray: a root's ray inequalities, or the
    pairings of a witness character."""
    return tuple(sum(map(mul, r, v)) for r in fan.rays)


@per_fan
def cone_points(fan: Fan, cone_idx: tuple) -> frozenset:
    """The parallelepiped points of a maximal cone's facet normals
    (_parallelepiped_points), for its dual_monomials and the degrees of
    a non-simplicial chart."""
    return frozenset(_parallelepiped_points(fan.cone(cone_idx).facet_normals, fan.rank))


@per_fan
def ray_witness(fan: Fan, j: int) -> tuple:
    """The witness character m0 and chart of ray j (faithfulness_check),
    from one Hermite form per ray."""
    charts = [c for c in fan.max_cones if j in c]
    if not charts:
        raise ValueError("distinguished ray lies in no maximal cone")
    m1 = hermite_normal_form(tuple((x,) for x in fan.rays[j]))[1][0]
    at = _row(fan, m1)
    candidates = []
    for cone_idx in charts:
        w = fan.face_normal_sum(cone_idx, (j,))
        along = _row(fan, w)
        t = max([0] + [-(at[i] // along[i]) for i in cone_idx if i != j])
        m0 = vec_add(m1, vec_scale(w, t))
        candidates.append((sum(abs(x) for x in m0), m0, cone_idx))
    _, m0, cone_idx = min(candidates)
    return m0, cone_idx


@per_fan
def ray_degrees(fan: Fan, j: int) -> tuple:
    """The degrees k = <rho_j, m> of the height-2 samples m
    (dual_monomials) of the charts containing ray j, sorted, each with the
    character k*m0 of that degree, m0 from ray_witness (action_chart_check).

    They need no samples.  Degree is linear, so a chart sigma gives the
    degrees of its parallelepiped points plus the sums
    sum c_g * <rho_j, g>, c_g in {0, 1, 2}, over its facet normals g.  On a
    simplicial sigma one normal g* does not vanish on rho_j; with
    a = <rho_j, g*>, the points represent M / L (L spanned by the normals)
    and m -> <rho_j, m> maps M / L onto Z / aZ, since rho_j is primitive,
    so their degrees are 0..a-1 and the chart gives 0..3a-1.  Only a
    non-simplicial chart lists its parallelepiped points.
    """
    rho, ks = fan.rays[j], set()
    for cone_idx in (c for c in fan.max_cones if j in c):
        normals = fan.cone(cone_idx).facet_normals
        steps = [pairing(rho, g) for g in normals]
        if len(normals) == fan.rank:
            ks.update(range(3 * max(steps)))
            continue
        reach = {pairing(rho, q) for q in cone_points(fan, cone_idx)}
        for a in steps:
            reach = {k + c * a for k in reach for c in range(3)}
        ks |= reach
    m0 = ray_witness(fan, j)[0]
    return tuple((k, vec_scale(m0, k)) for k in sorted(ks))


@per_fan
def dual_monomials(fan: Fan, cone_idx: tuple, height: int) -> tuple:
    """Sample characters of the dual of a cone tau of the fan, sorted: the
    distinct q + sum c_g * g with 0 <= c_g <= height.

    They come from a maximal cone sigma through tau: tau itself when it is
    maximal, and otherwise the one with the fewest samples, ties broken by
    index.  The g are sigma's facet normals and -u, where u is the sum of
    those normals that vanish on tau (Fan.face_normal_sum; u = 0 when
    tau = sigma), and q runs over the lattice points of the normals'
    half-open parallelepipeds.  The height-1 samples hold every g and q,
    so they generate sigma^v cap M (a dual point is the parallelepiped
    point of an independent set of normals plus a non-negative integer
    combination of that set), and with -u they generate tau^v cap M =
    sigma^v cap M + Z>=0 * (-u): a property closed under addition holds
    on the dual if it holds on them.  A maximal cone finds its samples once
    per height, and a face adds only the -u direction to them.  The
    samples move with the fan under GL(n, Z), up to the choice of sigma
    among those of equal count, so their number does not depend on the
    basis.  Only derivation_classification_check reads them; check reads
    none.
    """
    if cone_idx in fan.max_cones:
        samples = cone_points(fan, cone_idx)
        for g in fan.cone(cone_idx).facet_normals:
            samples = _add_multiples(samples, g, height)
        return tuple(sorted(samples))
    options = [_add_multiples(dual_monomials(fan, sigma, height),
                              vec_neg(fan.face_normal_sum(sigma, cone_idx)), height)
               for sigma in fan.max_cones if set(cone_idx).issubset(sigma)]
    return tuple(sorted(min(options, key=len)))


class ActionChartCertificate(NamedTuple):
    """The chart conditions of a root's action law (`additive`) and of its
    derivation (`infinitesimal`), both the root's ray inequalities on the
    charts through rho_e and so equal, and each degree k = <rho_e, m> of
    the height-2 samples with the character k*m0 of that degree, as sorted
    (k, m) pairs (`degrees`): the characters on which the binomial
    identities are checked, one per k."""

    root: DemazureRoot
    degrees: tuple
    additive: bool
    infinitesimal: bool


def action_chart_check(fan: Fan, root: DemazureRoot) -> ActionChartCertificate:
    """Decide the conditions under which the root's action and derivation
    keep the algebra of each chart sigma containing rho_e.

    For m in sigma^v, k = <rho_e, m> >= 0.  The comorphism sends chi^m to
    sum_i C(k, i) s^i chi^(m+i*e), i = 0..k, which is regular on the chart
    when every m + i*e lies in sigma^v; sigma^v is convex and holds m, so
    exactly when m + k*e does.  The derivation d_{rho_e, e} sends chi^m to
    k chi^(m+e), which needs m + e in sigma^v when k >= 1.  The first
    condition is closed under addition (m -> m + <rho_e, m>e is linear);
    the second too, by the Leibniz rule: a character with k >= 1 is a
    generator a with <rho_e, a> >= 1 plus a dual character, and m + e lies
    in sigma^v whenever a + e does.  So the height-1 samples, which
    generate sigma^v cap M (dual_monomials), decide both verdicts for
    every character of the chart.

    Both are read off integer rows: with the root's row c_i = <rho_i, e>,
    the sample row r_i = <rho_i, m> and k = r_{rho_e}, a ray rho_i of
    sigma needs r_i + k*c_i >= 0 and, when k >= 1, r_i + c_i >= 0.  The
    samples lie in sigma^v, so r_i >= 0 and the rows with k = 0 pass; over
    the rows with k >= 1 the conditions are c_i >= -floor(r_i / k) and
    c_i >= -r_i at the least of each, and these minima are constants.  For
    distinct rays rho_i, rho_e of sigma, some facet of sigma holds rho_i
    but not rho_e, because a ray is the intersection of the facets through
    it.  Its normal g is a height-1 sample with <rho_i, g> = 0 and
    k = <rho_e, g> >= 1, so both minima are 0.  At rho_e, r_i = k on
    every row, and some sample has k = 1, so both minima are 1: the
    character m1 + t*w that faithfulness_check builds in sigma has k = 1
    and is a sum of height-1 samples, whose degrees are non-negative.  So
    both verdicts are the root's ray inequalities on the charts through
    rho_e: c_{rho_e} >= -1 and c_i >= 0 at every other ray of those
    charts, and no sample is built.  `degrees` lists the degrees of the
    height-2 samples in closed form (ray_degrees).
    """
    rho_e, values = root.rho_e, _row(fan, root.e)
    ok = all(values[i] >= (-1 if i == rho_e else 0)
             for cone_idx in fan.max_cones if rho_e in cone_idx for i in cone_idx)
    return ActionChartCertificate(root=root, degrees=ray_degrees(fan, rho_e),
                                  additive=ok, infinitesimal=ok)


class ConeChartCertificate(NamedTuple):
    """Regularity evidence for one maximal cone.

    If the cone contains the distinguished ray, the chart is polynomial
    and the evidence is the ray-wise inequalities.  Otherwise the chart
    lives on the cone sigma' spanned by rho_e and the e-orthogonal face,
    which must also belong to the fan.  No sample is checked, so
    `samples_checked` is 0.
    """

    cone: tuple
    contains_distinguished_ray: bool
    ray_inequalities_ok: bool
    sigma_prime: Optional[tuple]
    sigma_prime_in_fan: Optional[bool]
    samples_checked: int

    @property
    def ok(self) -> bool:
        return self.ray_inequalities_ok and (self.contains_distinguished_ray
                                             or self.sigma_prime_in_fan)


class RegularityCertificate(NamedTuple):
    root: DemazureRoot
    entries: tuple

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)


def regularity_check(fan: Fan, root: DemazureRoot) -> RegularityCertificate:
    """Certify that the root-subgroup action is regular on every chart.

    With the root's row c_i = <rho_i, e>, the action is regular on a chart
    sigma when c_i >= 0 at the rays of sigma other than rho_e and, if
    sigma does not contain rho_e, the cone sigma' spanned by rho_e and the
    rays with c_i = 0 lies in the fan (Demazure, "Sous-groupes algebriques
    de rang maximum du groupe de Cremona", Ann. Sci. ENS 3, 1970).

    The chart of sigma' is then moved into sigma's: a character m of
    sigma'^v goes to m + k(m)*e with k(m) = max(0, -<rho_i, m>) over the
    rays of sigma with c_i > 0, and must land in sigma^v.  It always does,
    so no sample of sigma'^v needs checking.  Take a ray rho_i of sigma
    and r_i = <rho_i, m>.  If c_i > 0, then c_i >= 1 and k(m) >= -r_i,
    so r_i + k(m)*c_i >= r_i + k(m) >= 0.  If c_i = 0, then rho_i lies in
    sigma', so r_i >= 0.  If c_i < 0, the ray inequalities already fail.
    """
    require_complete(fan, "regularity certificates need a complete fan")
    rho_e, values = root.rho_e, _row(fan, root.e)
    entries = []
    for cone_idx in fan.max_cones:
        contains = rho_e in cone_idx
        sigma_prime = None if contains else tuple(
            sorted([rho_e] + [i for i in cone_idx if values[i] == 0]))
        entries.append(ConeChartCertificate(
            cone=cone_idx, contains_distinguished_ray=contains,
            ray_inequalities_ok=all(values[i] >= 0 for i in cone_idx if i != rho_e),
            sigma_prime=sigma_prime,
            sigma_prime_in_fan=None if contains else sigma_prime in fan.all_cones,
            samples_checked=0))
    return RegularityCertificate(root=root, entries=tuple(entries))


class WitnessMonomial(NamedTuple):
    """Faithfulness witness: m0 in the dual of a chart containing rho_e
    with <rho_e, m0> = 1, so the comorphism moves chi^m0 by s*chi^(m0+e)."""

    m0: Vec
    cone: tuple
    witness_s_exp: int
    witness_character: Vec


def faithfulness_check(fan: Fan, root: DemazureRoot) -> WitnessMonomial:
    """Construct a witness monomial for the root.

    Since rho_e is primitive, some m1 has <rho_e, m1> = 1: the first row
    of the transform U in the Hermite normal form U*rho_e^T = e_1.
    In each chart sigma containing rho_e, the sum w of the facet normals of
    sigma vanishing on rho_e lies in the relative interior of the face
    sigma^v cap rho_e^perp, so <r, w> > 0 for every other ray r of sigma;
    the least t >= 0 with m1 + t*w in sigma^v gives a witness.  The
    result minimizes (L1 norm, m0, cone) over the charts.  It depends on
    the ray alone, so the fan keeps it per ray (ray_witness).
    """
    fan.require_valid()
    m0, cone_idx = ray_witness(fan, root.rho_e)
    return WitnessMonomial(m0=m0, cone=cone_idx, witness_s_exp=1,
                           witness_character=vec_add(m0, root.e))


def witness_holds(fan: Fan, root: DemazureRoot, witness: WitnessMonomial) -> bool:
    """Does the witness show that the root subgroup acts faithfully?

    It does when its chart sigma contains rho_e, <rho_e, m0> = 1, and both
    m0 and m0 + e lie in sigma^v: then the comorphism sends chi^m0 to
    chi^m0 + s*chi^(m0+e), whose s-term is a nonzero regular function on
    the chart.  m0 + e leaves sigma^v when e pairs below -1 with rho_e or
    negatively with another ray of sigma, so a non-root can fail here.
    The pairings with m0 + e are the sums of the rows of m0 and of e.
    """
    at, values = _row(fan, witness.m0), _row(fan, root.e)
    return (root.rho_e in witness.cone and at[root.rho_e] == 1
            and all(at[i] >= 0 and at[i] + values[i] >= 0 for i in witness.cone))


class ClassificationResult(NamedTuple):
    """Whether d_{p,e} preserves every cone algebra of the fan: the closed
    form (`preserved`) and the defining condition decided on generators of
    each chart's dual semigroup (`sampler_preserved`; a failing chart,
    character and ray in `sampler_witness`)."""

    p: Vec
    e: Vec
    preserved: bool
    reason: str
    root: Optional[DemazureRoot]
    sampler_preserved: bool
    sampler_witness: Optional[tuple]

    @property
    def agrees_with_sampler(self) -> bool:
        return self.preserved == self.sampler_preserved


def derivation_classification_check(fan: Fan, p: Sequence[int],
                                    e: Sequence[int]) -> ClassificationResult:
    """Closed-form criterion plus an exact cross-check on generators.

    The derivation d_{p,e} preserves every cone algebra iff e = 0 (torus
    direction) or e is a root with p = +/- rho_e.  The cross-check tests
    the defining condition <rho, m+e> >= 0 on the height-1 samples m of
    each maximal cone's dual (dual_monomials) with <p, m> != 0.  By the
    Leibniz rule d(chi^(a+b)) = <p, a+b> chi^(a+b+e): every m of the dual
    with <p, m> != 0 is a generator a with <p, a> != 0 plus a character b
    of the dual, and m + e lies in the dual whenever a + e does, so the
    generators decide the condition on the whole dual.
    """
    p, e = vec(p), vec(e)
    if not is_primitive(p):
        raise ValueError("p must be primitive")
    roots_by_e = {r.e: r for r in demazure_roots(fan)}
    if not any(e):
        preserved, reason, root = True, "degree_zero_torus_direction", None
    elif e not in roots_by_e:
        preserved, reason, root = False, "degree_is_not_a_root", None
    else:
        root = roots_by_e[e]
        rho = fan.rays[root.rho_e]
        if p in (rho, vec_neg(rho)):
            preserved, reason = True, "root_derivation"
        else:
            preserved, reason = False, "direction_not_distinguished_ray"
    witness = None
    for cone_idx in fan.max_cones:
        rays = [fan.rays[i] for i in cone_idx]
        for m in dual_monomials(fan, cone_idx, 1):
            if pairing(p, m) == 0:
                continue
            shifted = vec_add(m, e)
            bad = next((r for r in rays if pairing(r, shifted) < 0), None)
            if bad is not None:
                witness = (cone_idx, m, bad)
                break
        if witness:
            break
    return ClassificationResult(
        p=p, e=e, preserved=preserved, reason=reason, root=root,
        sampler_preserved=witness is None, sampler_witness=witness)


def lie_dimension(fan: Fan) -> int:
    """rank(N) + number of roots: the torus directions plus one
    independent derivation per root degree."""
    require_complete(fan, "Lie dimension is defined for complete fans")
    return fan.rank + len(demazure_roots(fan))
