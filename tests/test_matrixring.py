"""Exact matrices: determinants, adjugates, selections, minors, expansions."""

import gc
import random
from fractions import Fraction
from itertools import combinations

import pytest

from stabring.matrixring import (IndexSet, Mat, MatrixError,
                                 enumerate_index_sets, selection)
from stabring.poly import Polynomial, parse_poly
from oracles import cofactor_det, minor_ideal

ABCD = ("a", "b", "c", "d")


def sym(name):
    return parse_poly(name, ABCD)


def _random_poly_matrix(rng, size_r, size_c, variables=("x", "y"), degree=2):
    def entry(i, j):
        p = Polynomial.zero(variables)
        for _ in range(rng.randint(0, 2)):
            exps = tuple(rng.randint(0, degree) for _ in variables)
            p = p + Polynomial({exps: Fraction(rng.randint(-3, 3))}, variables)
        return p
    return Mat.build(size_r, size_c, entry)


class TestDetAdjugate:
    def test_two_by_two_symbolic(self):
        m = Mat.from_rows([[sym("a"), sym("b")], [sym("c"), sym("d")]])
        assert m.det() == sym("a") * sym("d") - sym("b") * sym("c")
        adj = m.adjugate()
        assert adj.to_rows() == [[sym("d"), -sym("b")], [-sym("c"), sym("a")]]

    def test_identity(self):
        e3 = Mat.scalar_matrix(3, Polynomial.one(()), Polynomial.zero(()))
        assert e3.det() == Polynomial.one(())

    def test_adjugate_identity_random(self):
        rng = random.Random(13)
        for size in (1, 2, 3, 4):
            for _ in range(4):
                m = _random_poly_matrix(rng, size, size)
                adj = m.adjugate()
                det = m.det()
                product = m * adj
                expected = Mat.scalar_matrix(size, det, det.zero_like())
                assert product == expected

    def test_bareiss_matches_cofactor(self):
        rng = random.Random(19)
        cases = []
        for size in range(1, 7):
            degree = 2 if size <= 4 else 1
            cases += [_random_poly_matrix(rng, size, size, degree=degree) for _ in range(3)]
            for variables in ((), ("z",)):
                cases.append(Mat.build(size, size, lambda i, j: Polynomial.one(variables)
                                       .scale(Fraction(rng.randint(-4, 4)))))
        z = Polynomial.var("z", ("z",))
        x, y = (Polynomial.var(v, ("x", "y")) for v in ("x", "y"))
        zero_z, one_z, o = z.zero_like(), z.one_like(), x.zero_like()
        cases += [
            # a zero leading pivot, at the first and at a later step
            Mat.from_rows([[zero_z, z, one_z], [z, one_z, zero_z], [one_z, zero_z, z]]),
            Mat.from_rows([[one_z, z, one_z], [z, z * z, one_z], [zero_z, one_z, zero_z]]),
            Mat.from_rows([[o, x, y, o], [y, o, x, o], [o, y, o, x], [x, o, o, y]]),
            # singular: a repeated row, a multiple of a row, a zero column
            Mat.from_rows([[x, y, x + y], [x, y, x + y], [y, x, x * y]]),
            Mat.from_rows([[z, one_z + z], [z * z, z + z * z]]),
            Mat.from_rows([[zero_z, z, one_z], [zero_z, one_z, z], [zero_z, z * z, z]]),
        ]
        for m in cases:
            assert m.det() == cofactor_det(m), m
        assert sum(m.det().is_zero() for m in cases) >= 3

    def test_non_square_rejected(self):
        with pytest.raises(MatrixError):
            Mat.from_rows([[sym("a"), sym("b")]]).det()

    @pytest.mark.parametrize("method", ["_det_bareiss"])
    def test_leaves_no_cyclic_garbage(self, method):
        m = _random_poly_matrix(random.Random(23), 3, 3)
        gc.collect()
        gc.disable()
        try:
            getattr(m, method)()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSelection:
    def test_row_selector_1_of_3(self):
        delta = selection(IndexSet((1,)), 1, 2)
        one, zero = Polynomial.one(()), Polynomial.zero(())
        assert delta.to_rows() == [[one, zero, zero]]

    def test_two_of_three(self):
        delta = selection(IndexSet((2, 3)), 2, 1)
        one, zero = Polynomial.one(()), Polynomial.zero(())
        assert delta.to_rows() == [[zero, one, zero], [zero, zero, one]]

    def test_bounds_checked(self):
        with pytest.raises(MatrixError):
            selection(IndexSet((1, 4)), 2, 1)
        with pytest.raises(MatrixError):
            IndexSet((2, 1))


class TestEnumerate:
    def test_one_of_three(self):
        sets = enumerate_index_sets(1, 2)
        assert [s.members for s in sets] == [(1,), (2,), (3,)]

    def test_two_of_three(self):
        sets = enumerate_index_sets(2, 1)
        assert [s.members for s in sets] == [(1, 2), (1, 3), (2, 3)]

    def test_count(self):
        assert len(enumerate_index_sets(2, 2)) == 6


class TestMinorIdeal:
    def test_identity(self):
        e2 = Mat.scalar_matrix(2, Polynomial.one(()), Polynomial.zero(()))
        assert minor_ideal(e2, 2) == [Polynomial.one(())]

    def test_column(self):
        xy = ("x", "y")
        m = Mat.from_rows([[parse_poly("x", xy)], [parse_poly("y", xy)]])
        assert minor_ideal(m, 1) == [parse_poly("x", xy), parse_poly("y", xy)]

    def test_paper_instance(self, paper, ring23):
        # f = lam1^2 times the witness column K: size-1 minors are the entries
        f = paper.lam1 ** 2
        K = Mat.from_rows([[paper.lam1], [paper.k2], [paper.k3]])
        minors = minor_ideal(K.map(lambda e: e * f), 1)
        assert minors == [paper.lam1 ** 3, paper.k2 * paper.lam1 ** 2,
                          paper.k3 * paper.lam1 ** 2]


def _sign(index_set, m):
    return -1 if sum(i - k for k, i in enumerate(sorted(index_set), start=1)) % 2 else 1


class TestExpansions:
    def test_binet_cauchy(self):
        # det(E R] * [A; B]) = sum over index sets of products of minors
        rng = random.Random(31)
        for m, n in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)]:
            e_mat = Mat.scalar_matrix(m, Polynomial.one(()), Polynomial.zero(()))
            r_mat = _random_poly_matrix(rng, m, n, degree=1)
            a_mat = _random_poly_matrix(rng, m, m, degree=1)
            b_mat = _random_poly_matrix(rng, n, m, degree=1)
            left = e_mat.hstack(r_mat)
            stack = a_mat.vstack(b_mat)
            direct = (left * stack).det()
            total = Polynomial.zero(("x", "y"))
            for cols in combinations(range(m + n), m):
                lhs = left.submatrix(list(range(m)), list(cols)).det()
                rhs = stack.take_rows(list(cols)).det()
                total = total + lhs * rhs
            assert direct == total

    def test_laplace_complementary_expansion(self):
        rng = random.Random(37)
        for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            k_mat = _random_poly_matrix(rng, m + n, m, degree=1)
            r_mat = _random_poly_matrix(rng, m + n, n, degree=1)
            square = k_mat.hstack(r_mat)
            direct = square.det()
            total = Polynomial.zero(("x", "y"))
            for index_set in enumerate_index_sets(m, n):
                rows = index_set.zero_based()
                comp = tuple(i for i in range(m + n) if i not in rows)
                term = k_mat.take_rows(rows).det() * r_mat.take_rows(comp).det()
                total = total + term.scale(_sign(index_set.members, m))
            assert direct == total
