"""Acceptance suite: one test per criterion, exact tolerances.

Every test prints (and records for the terminal summary) a single
PASS/FAIL line.  Expected values are pinned here and are verified against
independent oracles: box lattice-point enumeration for root counts,
classical dimension formulas for Lie algebra dimensions, exhaustive
ray-bijection search for automorphism orders, and brute-force samplers
for the symbolic certificates.
"""

import random
import time
from itertools import combinations_with_replacement, product as iproduct

from toricaut.corpus import corpus
from toricaut.fan import cone_from_rays, product_fan, transform_fan
from toricaut.lattice import (
    det,
    hermite_normal_form,
    identity_matrix,
    mat,
    mat_mul,
    pairing,
    primitive,
)
from toricaut.roots import demazure_roots, product_chart_roots, product_roots
from toricaut.structure import (
    decompose,
    fan_automorphisms,
    fan_isomorphism,
    wreath_order_check,
)
from toricaut.symbolic import (
    action_additivity_check,
    derivation_classification_check,
    faithfulness_check,
    infinitesimal_check,
    lie_dimension,
    regularity_check,
)

from util import (
    classification_oracle,
    compose,
    dual_cone,
    inverse,
    random_complete_fan_rank2,
    random_pointed_cone_rays,
    random_unimodular,
    regularity_oracle,
    root_box_bound,
    roots_oracle,
)

RESULTS = []


def _record(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name})"
    if detail:
        line += f": {detail}"
    RESULTS.append(line)
    print(line, flush=True)
    assert ok, line


def test_criterion_1_root_counts():
    expected = {"P1": 2, "P2": 6, "P3": 12, "P1xP1": 4, "F1": 4, "F2": 5, "P112": 5}
    fans = corpus()
    failures = []
    worst = 0.0
    for name, count in expected.items():
        fan = fans[name]
        start = time.perf_counter()
        roots = demazure_roots(fan)
        oracle = roots_oracle(fan, root_box_bound(fan))
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        if len(roots) != count or roots != oracle:
            failures.append(f"{name}: got {len(roots)}, oracle {len(oracle)}, want {count}")
        if elapsed >= 1.0:
            failures.append(f"{name}: took {elapsed:.2f}s")
    _record(1, "root counts vs box oracle", not failures,
            "; ".join(failures) or f"7 fans exact, max {worst * 1000:.0f}ms")


def test_criterion_2_lie_dimensions():
    fans = corpus()
    dim_pgl = lambda k: k * k - 1
    expected = {
        "P1": dim_pgl(2),
        "P2": dim_pgl(3),
        "P3": dim_pgl(4),
        "P1xP1": dim_pgl(2) + dim_pgl(2),
        # graded automorphisms of K[x,y,z] with weights (1,1,2): a GL2 block
        # on (x,y), a scalar on z, three quadratic coefficients, minus the
        # global scalar acting trivially
        "P112": 4 + 1 + 3 - 1,
    }
    stated = {"P1": 3, "P2": 8, "P3": 15, "P1xP1": 6, "P112": 7}
    failures = []
    for name, independent in expected.items():
        got = lie_dimension(fans[name])
        if got != independent or got != stated[name]:
            failures.append(f"{name}: lie_dimension {got}, independent {independent}")
    _record(2, "Lie algebra dimensions", not failures,
            "; ".join(failures) or "5 fans match independent dimension counts")


def test_criterion_3_product_roots_theorem():
    fans = corpus()
    checked = 0
    failures = []
    for a, b in combinations_with_replacement(sorted(fans), 2):
        direct = demazure_roots(product_fan(fans[a], fans[b]))
        if not product_roots(fans[a], fans[b]) == product_chart_roots(fans[a], fans[b]) == direct:
            failures.append(f"{a} x {b}")
        checked += 1
    rng = random.Random(20260809)
    for k in range(10):
        f1 = random_complete_fan_rank2(rng, extra=rng.randint(1, 4))
        f2 = random_complete_fan_rank2(rng, extra=rng.randint(1, 4))
        if not product_roots(f1, f2) == product_chart_roots(f1, f2) == demazure_roots(
                product_fan(f1, f2)):
            failures.append(f"random pair {k}")
        checked += 1
    _record(3, "product-roots theorem", not failures,
            "; ".join(failures) or f"{checked} pairs, exact set equality")


def test_criterion_4_symbolic_certificates():
    fans = corpus()
    failures = []
    roots_checked = 0
    for name, fan in fans.items():
        box = [m for m in iproduct(*(range(-4, 5) for _ in range(fan.rank)))]
        for root in demazure_roots(fan):
            roots_checked += 1
            if not regularity_check(fan, root).ok or not regularity_oracle(fan, root)[0]:
                failures.append(f"regularity {name} {root.e}")
            rho = fan.rays[root.rho_e]
            sample = [m for m in box if pairing(rho, m) >= 0]
            if not all(action_additivity_check(fan, root, m) for m in sample):
                failures.append(f"additivity {name} {root.e}")
            if not all(infinitesimal_check(fan, root, m) for m in sample):
                failures.append(f"infinitesimal {name} {root.e}")
            witness = faithfulness_check(fan, root)
            if pairing(rho, witness.m0) != 1:
                failures.append(f"faithfulness {name} {root.e}")
    _record(4, "regularity/additivity/faithfulness/infinitesimal", not failures,
            "; ".join(failures[:4]) or f"{roots_checked} roots, height-4 samples, zero failures")


def test_criterion_5_derivation_classification():
    fans = corpus()
    failures = []
    checked = 0
    grid = list(iproduct(range(-2, 3), range(-2, 3)))
    for name in ("P2", "F1", "P112"):
        fan = fans[name]
        for p in grid:
            if not any(p) or primitive(p) != p:
                continue
            for e in grid:
                result = derivation_classification_check(fan, p, e)
                checked += 1
                if not result.agrees_with_sampler or (
                        result.sampler_preserved != classification_oracle(fan, p, e)):
                    failures.append(f"{name} p={p} e={e}")
    _record(5, "derivation classification vs sampler", not failures,
            "; ".join(failures[:4]) or f"{checked} (p, e) pairs, exact agreement")


def test_criterion_6_automorphism_orders():
    expected = {"P1": 2, "P2": 6, "F1": 2, "P1xP1": 8,
                "P1xP1xP1": 48, "P1xP2": 12, "P2xP2": 72}
    fans = corpus()
    failures = []
    worst = 0.0
    for name, order in expected.items():
        start = time.perf_counter()
        got = len(fan_automorphisms(fans[name]))
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        if got != order:
            failures.append(f"{name}: got {got}, want {order}")
        if elapsed >= 10.0:
            failures.append(f"{name}: took {elapsed:.1f}s")
    _record(6, "fan automorphism group orders", not failures,
            "; ".join(failures) or f"7 groups exact, max {worst:.2f}s")


def test_criterion_7_wreath_order_identity():
    fans = corpus()
    failures = []
    products = []
    for name, fan in fans.items():
        if not wreath_order_check(fan):
            failures.append(name)
        if len(decompose(fan).factors) > 1:
            products.append(name)
    _record(7, "wreath-product order identity", not failures,
            "; ".join(failures) or f"corpus exact; product fans: {', '.join(sorted(products))}")


def test_criterion_8_decomposition_invariance():
    fans = corpus()
    rng = random.Random(515253)
    cases = {"P1xP2": {1: "P1", 2: "P2"}, "P2xP2": {2: "P2"}}
    expected_counts = {"P1xP2": {"P1": 1, "P2": 1}, "P2xP2": {"P2": 2}}
    failures = []
    worst = 0.0
    for name, by_rank in cases.items():
        base = fans[name]
        for k in range(10):
            u = random_unimodular(rng, base.rank)
            conj = transform_fan(base, u)
            start = time.perf_counter()
            dec = decompose(conj)
            found = {}
            for factor in dec.factors:
                ref = by_rank.get(factor.fan.rank)
                if ref is None or fan_isomorphism(factor.fan, fans[ref]) is None:
                    failures.append(f"{name} conj {k}: unexpected factor")
                    break
                found[ref] = found.get(ref, 0) + 1
            else:
                if found != expected_counts[name]:
                    failures.append(f"{name} conj {k}: multiset {found}")
            elapsed = time.perf_counter() - start
            worst = max(worst, elapsed)
            if elapsed >= 10.0:
                failures.append(f"{name} conj {k}: took {elapsed:.1f}s")
    _record(8, "decomposition invariance under conjugation", not failures,
            "; ".join(failures[:4]) or f"20 conjugates recover factor multisets, max {worst:.2f}s")


def test_criterion_9_property_suites():
    failures = []

    # group closure on the corpus groups plus randomized fans
    rng = random.Random(31415)
    groups = [fan_automorphisms(fan) for fan in corpus().values()]
    while sum(len(g) ** 2 for g in groups) < 200:
        groups.append(fan_automorphisms(random_complete_fan_rank2(rng)))
    closure_cases = 0
    for autos in groups:
        matrices = {a.matrix for a in autos}
        rank = len(autos[0].matrix)
        if identity_matrix(rank) not in matrices:
            failures.append("closure: identity missing")
        for a in autos:
            if inverse(a).matrix not in matrices:
                failures.append("closure: inverse escapes")
            for b in autos:
                closure_cases += 1
                if compose(a, b).matrix not in matrices:
                    failures.append("closure: product escapes")
    if closure_cases < 200:
        failures.append(f"closure: only {closure_cases} cases")

    # dual-dual identity on random full-dimensional cones
    dual_cases = 0
    while dual_cases < 200:
        rank = rng.choice((2, 3))
        cone = cone_from_rays(random_pointed_cone_rays(rng, rank, rank + rng.randint(0, 2)), rank)
        if cone.dim != rank:
            continue
        if dual_cone(dual_cone(cone)).rays != cone.rays:
            failures.append(f"dual-dual: {cone.rays}")
        dual_cases += 1

    # Hermite normal form identity H = U A with unimodular U
    for case in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = mat([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        h, u = hermite_normal_form(a)
        if mat_mul(u, a) != h or abs(det(u)) != 1:
            failures.append(f"hnf case {case}")

    # oracle equivalence on random complete rank-2 fans
    for case in range(200):
        fan = random_complete_fan_rank2(rng, extra=rng.randint(0, 4))
        if demazure_roots(fan) != roots_oracle(fan, root_box_bound(fan)):
            failures.append(f"oracle case {case}")

    _record(9, "randomized property suites", not failures,
            "; ".join(failures[:4])
            or f"closure {closure_cases}, dual-dual 200, hnf 200, oracle 200 cases")
