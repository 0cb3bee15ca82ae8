import random

import pytest
from hypothesis import given, strategies as st

from toricaut.fan import Fan
from toricaut.lattice import (
    _pivots_and_kernel,
    _saturated,
    det,
    gcd_vec,
    hermite_normal_form,
    identity_matrix,
    invert_unimodular,
    is_unimodular,
    mat,
    mat_mul,
    pairing,
    primitive,
    right_kernel_basis,
    scaled_inverse,
    vec_add,
)

from util import greedy_independent_rows, halfspace_cone_generators, minors_gcd, random_unimodular


def int_matrix(max_dim=4, bound=9):
    dims = st.tuples(st.integers(1, max_dim), st.integers(1, max_dim))
    return dims.flatmap(lambda d: st.lists(
        st.lists(st.integers(-bound, bound), min_size=d[1], max_size=d[1]),
        min_size=d[0], max_size=d[0]).map(mat))


def assert_hnf_shape(h):
    pivot_cols = []
    seen_zero_row = False
    for r in h:
        nonzero = [j for j, x in enumerate(r) if x]
        if not nonzero:
            seen_zero_row = True
            continue
        assert not seen_zero_row, "zero rows must come last"
        j = nonzero[0]
        assert r[j] > 0, "pivots must be positive"
        assert not pivot_cols or j > pivot_cols[-1], "pivot columns must increase"
        pivot_cols.append(j)
    for i, j in enumerate(pivot_cols):
        for r_above in range(i):
            assert 0 <= h[r_above][j] < h[i][j], "entries above pivots must be reduced"


class TestPairing:
    def test_examples(self):
        assert pairing((1, 0), (-1, 2)) == -1
        assert pairing((0, 0), (5, 7)) == 0
        assert pairing((-1, -1), (2, 1)) == -3

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            pairing((1, 0), (1, 2, 3))

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        *[st.lists(st.integers(-50, 50), min_size=n, max_size=n)] * 3)))
    def test_bilinear(self, triple):
        p, m1, m2 = map(tuple, triple)
        assert pairing(p, vec_add(m1, m2)) == pairing(p, m1) + pairing(p, m2)


class TestPrimitive:
    def test_examples(self):
        assert primitive((2, 4, -6)) == (1, 2, -3)
        assert primitive((1, 0)) == (1, 0)
        assert primitive((-3, -6)) == (-1, -2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            primitive((0, 0))

    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=5).filter(any))
    def test_idempotent_and_gcd_one(self, v):
        p = primitive(v)
        assert primitive(p) == p
        from math import gcd
        g = 0
        for x in p:
            g = gcd(g, x)
        assert g == 1

    @given(st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=6))
    def test_gcd_vec_matches_a_pairwise_fold(self, v):
        # non-negative, and 0 for the zero and the empty vector
        from math import gcd
        g = 0
        for x in v:
            g = gcd(g, x)
        assert gcd_vec(v) == gcd_vec(tuple(v)) == g


class TestHermiteNormalForm:
    def test_identity(self):
        ident = identity_matrix(3)
        assert hermite_normal_form(ident) == (ident, ident)

    def test_row_swap(self):
        h, u = hermite_normal_form(mat([[0, 1], [1, 0]]))
        assert h == mat([[1, 0], [0, 1]])
        assert u == mat([[0, 1], [1, 0]])

    def test_recompute(self):
        a = mat([[2, 4], [0, 3]])
        h, u = hermite_normal_form(a)
        assert h[0][0] == 2
        assert mat_mul(u, a) == h
        assert abs(det(u)) == 1

    @given(int_matrix())
    def test_identity_and_shape(self, a):
        h, u = hermite_normal_form(a)
        assert mat_mul(u, a) == h
        assert abs(det(u)) == 1
        assert_hnf_shape(h)

    def test_many_seeded_cases(self):
        rng = random.Random(7)
        for _ in range(200):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            a = mat([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
            h, u = hermite_normal_form(a)
            assert mat_mul(u, a) == h
            assert abs(det(u)) == 1
            assert_hnf_shape(h)


class TestUnimodular:
    def test_examples(self):
        assert is_unimodular(((1, 1), (0, 1)))
        assert not is_unimodular(((2, 0), (0, 1)))
        assert is_unimodular(((3, 2), (4, 3)))

    def test_non_square(self):
        with pytest.raises(ValueError):
            is_unimodular(((1, 0, 0), (0, 1, 0)))


class TestScaledInverse:
    def test_seeded_random_matrices(self):
        rng = random.Random(20211)
        singular = 0
        for _ in range(600):
            n = rng.randint(1, 6)
            a = mat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            if n > 1 and rng.random() < 0.2:
                # a repeated row makes A singular
                a = a[:-1] + (a[0],)
            r, d = scaled_inverse(a)
            if det(a) == 0:
                singular += 1
                assert (r, d) == (None, 0)
                continue
            assert abs(d) == abs(det(a))
            assert mat_mul(a, r) == tuple(tuple(d * x for x in row)
                                          for row in identity_matrix(n))
        assert singular >= 50

    def test_examples(self):
        assert scaled_inverse(((1, 0), (-1, 2))) == (((2, 0), (1, 1)), 2)
        assert scaled_inverse(((0, 1), (1, 0)))[1] in (1, -1)
        assert scaled_inverse(((2, 4), (1, 2))) == (None, 0)
        assert scaled_inverse(()) == ((), 1)

    def test_non_square(self):
        with pytest.raises(ValueError):
            scaled_inverse(((1, 0, 0), (0, 1, 0)))


class TestInvertUnimodular:
    def test_seeded_random_unimodular(self):
        rng = random.Random(20212)
        for n in range(1, 7):
            for _ in range(20):
                u = random_unimodular(rng, n, steps=3 * n)
                assert mat_mul(u, invert_unimodular(u)) == identity_matrix(n)

    def test_rejects_non_unimodular(self):
        for a in (((2,),), ((1, 1), (-1, 1)), ((0, 1), (2, 0)), ((1, 2), (2, 4)), ((0,),)):
            with pytest.raises(ValueError):
                invert_unimodular(a)

    def test_empty(self):
        assert invert_unimodular(()) == ()


class TestSaturated:
    def test_matches_the_minors_gcd(self):
        # k x n integer rows: k from 0 to n + 1 rows of small random entries,
        # or the first k <= n rows of a unimodular matrix, the first one
        # doubled or not
        rng = random.Random(1731)
        outcomes = {(short, ok): 0 for short in (True, False) for ok in (True, False)}
        for _ in range(300):
            n = rng.randint(1, 5)
            k = rng.randint(0, n + 1)
            if rng.random() < 0.5:
                rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
            else:
                rows = list(random_unimodular(rng, n)[:k])
                if rows and rng.random() < 0.3:
                    rows[0] = tuple(2 * x for x in rows[0])
            ok = minors_gcd(rows, len(rows)) == 1
            assert _saturated(rows, n) == ok, (n, rows)
            outcomes[len(rows) < n, ok] += 1
        assert min(outcomes.values()) >= 20, outcomes


class TestPivotRows:
    """The pivot columns of one Hermite normal form of the transposed rows
    are the rows a greedy rank scan keeps, and the same form gives the
    lineality of the cone the rows cut out."""

    @staticmethod
    def _matrices():
        rng = random.Random(577)
        for _ in range(200):
            n = rng.randint(1, 5)
            rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, 3))]
            for _ in range(rng.randint(0, 5)):
                kind = rng.randrange(4)
                if kind == 0:
                    rows.append((0,) * n)
                elif kind == 1 and rows:
                    rows.append(rng.choice(rows))
                elif kind == 2 and len(rows) >= 2:
                    a, b = rng.sample(rows, 2)
                    c = rng.choice([-2, -1, 2, 3])
                    rows.append(tuple(c * x + y for x, y in zip(a, b)))
                else:
                    rows.append(tuple(rng.randint(-2, 2) for _ in range(n)))
            rng.shuffle(rows)
            yield n, rows

    def test_pivots_are_the_greedy_rows(self):
        zero = repeated = dependent = 0
        for n, rows in self._matrices():
            pivots, kernel = _pivots_and_kernel(rows, n)
            assert pivots == greedy_independent_rows(rows), (n, rows)
            assert len(kernel) == n - len(pivots)
            zero += any(not any(r) for r in rows)
            repeated += len(set(rows)) < len(rows)
            dependent += len(pivots) < min(n, len({r for r in rows if any(r)}))
        assert min(zero, repeated, dependent) >= 20

    def test_anchors_are_the_greedy_rays(self):
        for n, rows in self._matrices():
            fan = Fan(n, rows, [()])
            assert _pivots_and_kernel(fan.rays, n)[0] == greedy_independent_rows(fan.rays), (n, rows)

    def test_lineality_is_the_right_kernel(self):
        for n, rows in self._matrices():
            distinct = list(dict.fromkeys(r for r in rows if any(r)))
            _, lineality = halfspace_cone_generators(rows, n)
            assert lineality == right_kernel_basis(distinct, n), (n, rows)
            assert all(pairing(r, b) == 0 for r in rows for b in lineality)
