"""check_twisting_map against the paper's Sweedler form, computed without
the axiom engine.

A BiHom-twisting map R: B (x) A -> A (x) B, written R(b (x) a) = a_R (x) b_R
(arXiv 1505.00469), must satisfy

    (alpha_A (x) alpha_B) R = R (alpha_B (x) alpha_A), likewise for the betas,
    R(alpha_B(b) (x) a a') = a_R a'_r (x) beta_B((alpha_B beta_B^-1 (b_R))_r),
    R(b b' (x) beta_A(a)) = alpha_A((alpha_A^-1 beta_A (a_R))_r) (x) b_r b'_R.

The sums over R are expanded term by term over nested lists of Fractions or
ints mod p with bench/oracle.py's arithmetic.  Every check_twisting_map case
of the golden corpus, and the corruptions of one twisting map over F_7, must
get the same verdict per axiom, and every FAIL witness must name the first
basis tuple where the two sides differ, with the oracle's values of both.
"""

import itertools

import pytest

import golden
from bihom import PrimeField, check_twisting_map, flip_map
from bihom import fixtures as fx

from helpers import oracle, plain

AXIOMS = ("R_alpha_compat", "R_beta_compat", "R_left_product", "R_right_product")
F7 = PrimeField(7)


class Sweedler:
    """Both sides of the four identities at one basis tuple."""

    def __init__(self, sc, A, B, tw):
        self.sc, self.da, self.db = sc, A.dim, B.dim
        self.columns = oracle.transpose(plain(sc, tw.R))
        self.muA, self.muB = plain(sc, A.mu), plain(sc, B.mu)
        self.aA, self.bA = plain(sc, A.alpha), plain(sc, A.beta)
        self.aB, self.bB = plain(sc, B.alpha), plain(sc, B.beta)
        self.aA_inv_bA = oracle.matmul(sc, oracle.inverse(sc, self.aA), self.bA)
        self.aB_bB_inv = oracle.matmul(sc, self.aB, oracle.inverse(sc, self.bB))

    def e(self, d, i):
        return oracle.basis(self.sc, d, i)

    def tensor(self, u, v):
        return [self.sc.norm(x * y) if x and y else 0 for x in u for y in v]

    def r(self, b, a):
        """R(b (x) a) = sum of b_i a_j R(e_i (x) e_j) for vectors b in B and
        a in A, flattened over A (x) B."""
        out = [0] * (self.da * self.db)
        for n, c in enumerate(self.tensor(b, a)):
            if c:
                out = [self.sc.norm(o + c * x) if x else o for o, x in zip(out, self.columns[n])]
        return out

    def terms(self, w):
        """The nonzero (coefficient, e_x, e_y) of w in A (x) B."""
        for n, c in enumerate(w):
            if c:
                x, y = divmod(n, self.db)
                yield c, self.e(self.da, x), self.e(self.db, y)

    def add(self, out, c, u, v):
        return [self.sc.norm(o + c * t) if t else o for o, t in zip(out, self.tensor(u, v))]

    def sides(self, axiom, index):
        sc, zero = self.sc, [0] * (self.da * self.db)
        if axiom in ("R_alpha_compat", "R_beta_compat"):
            mA, mB = (self.aA, self.aB) if axiom == "R_alpha_compat" else (self.bA, self.bB)
            b, a = self.e(self.db, index[0]), self.e(self.da, index[1])
            lhs = zero
            for c, x, y in self.terms(self.r(b, a)):
                lhs = self.add(lhs, c, oracle.apply(sc, mA, x), oracle.apply(sc, mB, y))
            return lhs, self.r(oracle.apply(sc, mB, b), oracle.apply(sc, mA, a))
        if axiom == "R_left_product":
            b, a, a2 = (self.e(d, i) for d, i in zip((self.db, self.da, self.da), index))
            lhs = self.r(oracle.apply(sc, self.aB, b), oracle.bilinear(sc, self.muA, a, a2))
            rhs = zero
            for c, a_R, b_R in self.terms(self.r(b, a)):
                u = oracle.apply(sc, self.aB_bB_inv, b_R)
                for c2, a2_r, u_r in self.terms(self.r(u, a2)):
                    rhs = self.add(rhs, c * c2, oracle.bilinear(sc, self.muA, a_R, a2_r),
                                   oracle.apply(sc, self.bB, u_r))
            return lhs, rhs
        b, b2, a = (self.e(d, i) for d, i in zip((self.db, self.db, self.da), index))
        lhs = self.r(oracle.bilinear(sc, self.muB, b, b2), oracle.apply(sc, self.bA, a))
        rhs = zero
        for c, a_R, b2_R in self.terms(self.r(b2, a)):
            v = oracle.apply(sc, self.aA_inv_bA, a_R)
            for c2, v_r, b_r in self.terms(self.r(b, v)):
                rhs = self.add(rhs, c * c2, oracle.apply(sc, self.aA, v_r),
                               oracle.bilinear(sc, self.muB, b_r, b2_R))
        return lhs, rhs

    def first_failure(self, axiom):
        """The first basis tuple where the sides differ, with both, or None."""
        da, db = self.da, self.db
        dom = {"R_left_product": (db, da, da), "R_right_product": (db, db, da)}.get(
            axiom, (db, da))
        for t in itertools.product(*map(range, dom)):
            lhs, rhs = self.sides(axiom, t)
            if lhs != rhs:
                return t, lhs, rhs
        return None


def _f7_flip():
    A = fx.kc4_twisted_bialgebra(F7).algebra_part()
    B = fx.cyclic_group_bialgebra(2, F7).algebra_part()
    return "flip_kc4t_F7", A, B, flip_map(A, B)


def _cases():
    """(field, record, inputs) of every case: the record of check_twisting_map
    and the arguments it was called with."""
    out = []
    for field, maps in ((golden.QQ, golden.twisting_maps()), (F7, [_f7_flip()])):
        for name, A, B, tw in maps:
            records, inputs = [], []
            golden.sweep(records, "check_twisting_map", check_twisting_map, field, name,
                         [A, B, tw], golden.TWISTING_TARGETS, k=4)
            golden.sweep(inputs, "check_twisting_map", lambda *args: args, field, name,
                         [A, B, tw], golden.TWISTING_TARGETS, k=4, encode=lambda f, v: v)
            for rec, inp in zip(records, inputs):
                assert rec["id"] == inp["id"]
                out.append((field, rec, inp["value"]))
    return out


CASES = _cases()


def test_every_golden_twisting_case_is_covered():
    recorded = [c["id"] for c in golden.build() if c["fn"] == "check_twisting_map"]
    assert [rec["id"] for field, rec, _ in CASES if field == golden.QQ] == recorded
    assert any(field == F7 for field, _, _ in CASES)


@pytest.mark.parametrize("field,rec,args", CASES, ids=[rec["id"] for _, rec, _ in CASES])
def test_verdicts_and_witnesses_match_the_sweedler_form(field, rec, args):
    sc = oracle.Scalars("Q" if field == golden.QQ else f"Fp:{field.p}")
    A, B, tw = args
    if "raises" in rec:  # bijective structure maps are a precondition
        assert rec["raises"] == "Singular"
        with pytest.raises(StopIteration):
            for m in (A.alpha, A.beta, B.alpha, B.beta):
                oracle.inverse(sc, plain(sc, m))
        return
    report = {axiom: (passed, w) for axiom, passed, w in rec["report"]}
    assert list(report) == list(AXIOMS)
    model = Sweedler(sc, A, B, tw)
    for axiom in AXIOMS:
        passed, w = report[axiom]
        expect = model.first_failure(axiom)
        assert passed == (expect is None), axiom
        if not passed:
            index, lhs, rhs = w
            assert tuple(index) == expect[0], axiom
            assert [sc.parse(x) for x in lhs] == expect[1], axiom
            assert [sc.parse(x) for x in rhs] == expect[2], axiom
