import itertools
import json
from fractions import Fraction

import pytest

import qexamples_corpus

from bihom.errors import ZeroParameter
from bihom.exactnum import QQ_Q, RationalFunction as RF
from bihom import qexamples
from bihom.io_cli import main
from bihom.qexamples import (
    PBWElement,
    QPElement,
    TwistParams,
    classical_action,
    qp_alpha,
    qp_beta,
    qp_beta_inv,
    qplane_action,
    smash_multiply_left_generator,
    straighten_oracle,
    twisted_action,
    uq_multiply,
    uq_normalize,
    uq_twist_endomorphism,
    verify_smash_formulas,
)

E = PBWElement.generator("E")
F = PBWElement.generator("F")
K = PBWElement.generator("K")
Kinv = PBWElement.generator("Kinv")
ONE = PBWElement.one()

TP_DISTINCT = TwistParams.of(2, 3, 5, 7, Fraction(1, 2))
TP_TRIVIAL = TwistParams.of(1, 1, 1, 1, 1)


@pytest.fixture
def empty_word_tables():
    """uq_normalize's word tables emptied for one test, then refilled with
    what they held before it."""
    saved = {s: dict(t) for s, t in qexamples._WORDS.items()}
    for table in qexamples._WORDS.values():
        table.clear()
    yield qexamples._WORDS
    for s, table in qexamples._WORDS.items():
        table.clear()
        table.update(saved[s])


class TestNormalization:
    def test_k_kinv_cancel(self):
        assert uq_normalize(["K", "Kinv"]) == ONE
        assert uq_normalize(["Kinv", "K"]) == ONE

    def test_ke_relation(self):
        # KE = q^2 EK as elements; the word KE is already in F-K-E order
        assert uq_multiply(K, E) == uq_multiply(E, K).scale(RF.q_power(2))
        assert uq_normalize(["K", "E"]) == PBWElement.monomial(0, 1, 1)
        assert uq_normalize(["E", "K"]) == PBWElement.monomial(
            0, 1, 1, RF.q_power(-2)
        )

    def test_kf_relation(self):
        assert uq_multiply(K, F) == uq_multiply(F, K).scale(RF.q_power(-2))
        assert uq_normalize(["K", "F"]) == PBWElement.monomial(
            1, 1, 0, RF.q_power(-2)
        )

    def test_ef_straightening(self):
        c = QQ_Q.one() / (RF.q_power(1) - RF.q_power(-1))
        expect = (
            PBWElement.monomial(1, 0, 1)
            + PBWElement.monomial(0, 1, 0, c)
            + PBWElement.monomial(0, -1, 0, -c)
        )
        assert uq_normalize(["E", "F"]) == expect

    def test_associativity_spot_check(self):
        assert uq_multiply(uq_multiply(E, F), K) == uq_multiply(E, uq_multiply(F, K))
        x = uq_multiply(E, E) + F.scale(RF.q_power(3))
        y = uq_multiply(F, Kinv) + K
        z = uq_multiply(E, F)
        assert uq_multiply(uq_multiply(x, y), z) == uq_multiply(x, uq_multiply(y, z))

    def test_one_is_identity(self):
        x = uq_normalize(["F", "F", "K", "E"])
        assert uq_multiply(ONE, x) == x
        assert uq_multiply(x, ONE) == x


class TestConfluence:
    GENS = ("E", "F", "K", "Kinv")

    def test_two_strategies_agree_short(self):
        for length in range(0, 5):
            for word in itertools.product(self.GENS, repeat=length):
                assert uq_normalize(word, "leftmost") == uq_normalize(
                    word, "rightmost"
                ), word

    def test_oracle_agrees_short(self):
        for length in range(0, 5):
            for word in itertools.product(self.GENS, repeat=length):
                assert uq_normalize(word) == straighten_oracle(word), word

    def test_every_word_to_length_6_matches_the_oracle(self):
        # the fold over the step table against rewriting the whole word
        for length in range(7):
            for word in itertools.product(self.GENS, repeat=length):
                expect = straighten_oracle(word)
                for strategy in ("leftmost", "rightmost"):
                    assert uq_normalize(word, strategy) == expect, (word, strategy)
                    assert qexamples._rewrite(word, strategy) == expect, (word, strategy)

    @pytest.mark.parametrize("strategy", ["right", "Rightmost"])
    def test_unknown_strategy_raises_and_adds_no_step(self, strategy):
        before = set(qexamples._STEPS), {s: dict(t) for s, t in qexamples._WORDS.items()}
        with pytest.raises(ValueError, match=f"unknown strategy '{strategy}'"):
            uq_normalize(("E", "F"), strategy)
        assert (set(qexamples._STEPS), qexamples._WORDS) == before

    @pytest.mark.parametrize("letter", ["X", "k"])
    def test_unknown_letter_raises_and_adds_no_step(self, letter):
        before = set(qexamples._STEPS), {s: dict(t) for s, t in qexamples._WORDS.items()}
        for word in ((letter,), ("E", letter), ("F", letter, "Y")):
            for strategy in ("leftmost", "rightmost"):
                with pytest.raises(ValueError, match=f"^unknown generator '{letter}'$"):
                    uq_normalize(word, strategy)
            with pytest.raises(ValueError, match=f"^unknown generator '{letter}'$"):
                straighten_oracle(word)
        assert (set(qexamples._STEPS), qexamples._WORDS) == before

    def test_a_planted_leftmost_entry_is_read_by_leftmost_only(self, empty_word_tables):
        p, wrong = ("E", "F"), F.scale(RF.q_power(7))
        empty_word_tables["leftmost"][p] = tuple(wrong.terms.items())
        for g in self.GENS:
            assert uq_normalize(p + (g,)) == uq_multiply(wrong, PBWElement.generator(g)), g
            for word in (p + (g,), (g,) + p):
                assert uq_normalize(word, "rightmost") == straighten_oracle(word), word

    def test_words_before_their_prefixes_and_after_them_agree(self, empty_word_tables):
        words = list(itertools.product(self.GENS, repeat=6))
        strategies = ("leftmost", "rightmost")
        first = {(w, s): uq_normalize(w, s) for w in words for s in strategies}
        assert all(len(t) == len(words) for t in empty_word_tables.values())
        for table in empty_word_tables.values():
            table.clear()
        for length in range(6):
            for w in itertools.product(self.GENS, repeat=length):
                for s in strategies:
                    uq_normalize(w, s)
        assert {(w, s): uq_normalize(w, s) for w in words for s in strategies} == first

    def test_hard_words(self):
        for word in (
            ("E", "E", "E", "F", "F", "F"),
            ("E", "F", "E", "F", "E", "F"),
            ("E", "K", "F", "Kinv", "E", "F"),
        ):
            left = uq_normalize(word, "leftmost")
            right = uq_normalize(word, "rightmost")
            assert left == right
            assert left == straighten_oracle(word)


class TestReturnedElementsAreFresh:
    """A caller may mutate what normalization and multiplication return;
    later results must not see it."""

    WORDS = [(), ("F",), ("E", "F"), ("K", "E", "F", "Kinv"), ("E", "E", "F", "F")]

    @staticmethod
    def spoil(x):
        x += x
        x.add((9, 9, 9), RF.q_power(5))

    def test_mutated_normal_forms_leave_later_ones_unchanged(self):
        for strategy in ("leftmost", "rightmost"):
            for word in self.WORDS:
                before = dict(uq_normalize(word, strategy).terms)
                self.spoil(uq_normalize(word, strategy))
                assert uq_normalize(word, strategy).terms == before, (word, strategy)

    def test_mutated_normal_forms_leave_longer_words_unchanged(self):
        for p in self.WORDS:
            for strategy in ("leftmost", "rightmost"):
                self.spoil(uq_normalize(p, strategy))
            for g in qexamples.GENERATORS:
                for word in (p + (g,), (g,) + p):
                    for strategy in ("leftmost", "rightmost"):
                        assert uq_normalize(word, strategy) == straighten_oracle(word), (
                            word, strategy)

    def test_mutated_products_leave_later_ones_and_the_factors_unchanged(self):
        x = uq_multiply(E, F) + K
        y = uq_multiply(F, Kinv) + ONE
        for a, b in [(x, y), (x, ONE), (ONE, y), (E, F)]:
            saved = dict(a.terms), dict(b.terms)
            before = dict(uq_multiply(a, b).terms)
            self.spoil(uq_multiply(a, b))
            assert uq_multiply(a, b).terms == before
            assert (a.terms, b.terms) == saved
            assert uq_normalize(("E", "F")) == uq_multiply(E, F)


class TestTwistEndomorphism:
    def test_identity_at_one(self):
        m = uq_twist_endomorphism(1)
        x = uq_normalize(["E", "F", "K"])
        assert m(x) == x

    def test_fixes_commutator(self):
        m = uq_twist_endomorphism(Fraction(5, 3))
        comm = uq_multiply(E, F) - uq_multiply(F, E)
        assert m(comm) == comm

    def test_relation_preserved(self):
        m = uq_twist_endomorphism(7)
        lhs = m(uq_multiply(K, E))
        rhs = uq_multiply(m(K), m(E))
        assert lhs == rhs

    def test_zero_rejected(self):
        with pytest.raises(ZeroParameter):
            uq_twist_endomorphism(0)


class TestQuantumPlane:
    def test_commutation(self):
        x = QPElement.monomial(1, 0)
        y = QPElement.monomial(0, 1)
        assert y * x == QPElement.monomial(1, 1, RF.q_power(1))
        assert x * y == QPElement.monomial(1, 1)

    def test_products_are_exact_at_every_degree(self):
        # y^6 x^6 = q^36 x^6 y^6: 36 swaps of a y past an x
        assert QPElement.monomial(0, 6) * QPElement.monomial(6, 0) == QPElement.monomial(
            6, 6, RF.q_power(36))
        # (x + y)^13 = sum_k [13 choose k]_q x^k y^(13 - k), the q-binomial
        # theorem, each Gaussian binomial the product over i <= k of
        # (1 - q^(14 - i)) / (1 - q^i)
        x, y = QPElement.monomial(1, 0), QPElement.monomial(0, 1)
        power = QPElement.one()
        for _ in range(13):
            power = power * (x + y)
        one = QQ_Q.one()
        for k in range(14):
            binomial = one
            for i in range(1, k + 1):
                binomial = binomial * (one - RF.q_power(14 - i)) / (one - RF.q_power(i))
            assert power.terms[(k, 13 - k)] == binomial, k
        assert len(power.terms) == 14

    def test_sums_of_monomials_of_degree_12_and_above(self):
        terms = {(12, 0): QQ_Q.one(), (6, 7): RF.q_power(2), (0, 20): QQ_Q.parse("3/2")}
        total = QPElement()
        for (m, n), c in terms.items():
            total += QPElement.monomial(m, n, c)
        assert total == QPElement(terms) and total.terms == terms
        assert not total - QPElement(terms)
        assert (total + total).terms == {k: c + c for k, c in terms.items()}

    def test_twist_maps_as_substitutions(self):
        # alpha(x) = xi x, alpha(y) = xi lambda1^-1 y; beta with lambda2
        tp = TP_DISTINCT
        x = QPElement.monomial(1, 0)
        y = QPElement.monomial(0, 1)
        assert qp_alpha(x, tp) == x.scale(tp.xi)
        assert qp_alpha(y, tp) == y.scale(tp.xi / tp.lambda1)
        assert qp_beta(y, tp) == y.scale(tp.xi / tp.lambda2)
        assert qp_beta_inv(qp_beta(y, tp), tp) == y

    def test_substitute_drops_zero_coefficients(self):
        image = QPElement.monomial(1, 0).substitute(0, 1)
        assert image == QPElement() and not image

    def test_int_coefficients_become_q_scalars_and_zeros_are_dropped(self):
        one = PBWElement({(0, 0, 0): 1})
        coeff = one.terms[(0, 0, 0)]
        assert type(coeff) is RF and coeff == QQ_Q.one() and one == ONE
        half = QPElement({(1, 0): Fraction(1, 2), (0, 1): 0, (2, 0): QQ_Q.zero()})
        assert half.terms == {(1, 0): QQ_Q.parse("1/2")}
        assert type(half.terms[(1, 0)]) is RF
        assert not PBWElement({(1, 0, 0): 0}) and PBWElement({(1, 0, 0): 0}).terms == {}

    @pytest.mark.parametrize("name", sorted(qexamples_corpus.TWISTS))
    def test_twist_maps_on_monomials_read_the_right_quotients(self, name):
        tp = qexamples_corpus.TWISTS[name]
        one = QQ_Q.one()
        for m, n in itertools.product(range(3), repeat=2):
            P = QPElement.monomial(m, n)
            assert qp_alpha(P, tp) == P.scale(tp.xi**m * (tp.xi / tp.lambda1) ** n)
            assert qp_beta(P, tp) == P.scale(tp.xi**m * (tp.xi / tp.lambda2) ** n)
            assert qp_beta_inv(P, tp) == P.scale((one / tp.xi) ** m * (tp.lambda2 / tp.xi) ** n)


class TestActions:
    def test_classical_action_relations(self):
        # the classical action is a module action: (uv).P = u.(v.P)
        P = QPElement.monomial(2, 1)
        for u, v in ((K, E), (E, F), (F, K), (K, Kinv)):
            lhs = classical_action(uq_multiply(u, v), P)
            rhs = classical_action(u, classical_action(v, P))
            assert lhs == rhs

    def test_displayed_action_formulas(self):
        tp = TP_DISTINCT
        for m in range(3):
            for n in range(3):
                P = QPElement.monomial(m, n)
                for g in ("E", "F", "K", "Kinv"):
                    assert qplane_action(g, P, tp) == twisted_action(
                        PBWElement.generator(g), P, tp
                    )

    def test_e_on_xy(self):
        tp = TP_DISTINCT
        out = qplane_action("E", QPElement.monomial(1, 1), tp)
        assert out == QPElement.monomial(2, 0, tp.xi**2 * tp.lambda1 / tp.lambda2)

    def test_f_kills_xm(self):
        assert not qplane_action("F", QPElement.monomial(0, 2), TP_DISTINCT)

    def test_k_on_x2y(self):
        tp = TP_DISTINCT
        out = qplane_action("K", QPElement.monomial(2, 1), tp)
        assert out == QPElement.monomial(
            2, 1, RF.q_power(1) * tp.xi**3 / tp.lambda2
        )

    def test_equivariance_hypotheses(self):
        # alphaA(h . a) = alpha(h) . alphaA(a), betaA likewise, for the
        # classical action and generator scalings
        tp = TP_DISTINCT
        alpha = uq_twist_endomorphism(tp.lambda1)
        beta = uq_twist_endomorphism(tp.lambda2)
        for g in (E, F, K, Kinv):
            for m in range(3):
                for n in range(3):
                    P = QPElement.monomial(m, n)
                    assert qp_alpha(classical_action(g, P), tp) == classical_action(
                        alpha(g), qp_alpha(P, tp)
                    )
                    assert qp_beta(classical_action(g, P), tp) == classical_action(
                        beta(g), qp_beta(P, tp)
                    )


class TestSmashFormulas:
    def test_instance_x_k_times_x(self):
        # (x # K)(x # 1) = q x^2 # K at trivial parameters
        total = smash_multiply_left_generator("K", 1, 0, 1, 0, ONE, TP_TRIVIAL)
        assert total.terms == {((2, 0), (0, 1, 0)): RF.q_power(1)}

    def test_instance_e_times_y(self):
        # (1 # E)(y # 1) = y # E + x # K at trivial parameters
        total = smash_multiply_left_generator("E", 0, 0, 0, 1, ONE, TP_TRIVIAL)
        assert total.terms == {
            ((0, 1), (0, 0, 1)): QQ_Q.one(),
            ((1, 0), (0, 1, 0)): QQ_Q.one(),
        }

    def test_full_check_small(self):
        for (m, n, r, s) in ((0, 0, 0, 0), (1, 1, 1, 1), (2, 0, 1, 2)):
            for G in (ONE, E, F, K):
                assert verify_smash_formulas(m, n, r, s, G, TP_DISTINCT).ok

    def test_right_factor_with_inverse_generator(self):
        # the closed forms hold for arbitrary right factors, K^-1 included
        for (m, n, r, s) in ((0, 1, 2, 0), (1, 0, 0, 1)):
            assert verify_smash_formulas(m, n, r, s, Kinv, TP_DISTINCT).ok
        composite = uq_multiply(F, uq_multiply(K, E))
        assert verify_smash_formulas(1, 1, 0, 1, composite, TP_DISTINCT).ok

    def test_lambda_cancellation_needs_all_four(self):
        # lambda3, lambda4 do not appear in the closed forms; a deliberately
        # broken coproduct scaling would violate the match, so verify that
        # changing lambda3/lambda4 leaves the products invariant
        a = smash_multiply_left_generator("E", 1, 1, 1, 1, K, TP_DISTINCT)
        tp2 = TwistParams.of(2, 3, 11, 13, Fraction(1, 2))
        b = smash_multiply_left_generator("E", 1, 1, 1, 1, K, tp2)
        assert a == b

    @pytest.mark.parametrize(
        "name", ["qplane_action", "smash_formula_rhs", "smash_multiply_left_generator"])
    def test_unknown_generator_raises(self, name):
        args = (QPElement.monomial(1, 1),) if name == "qplane_action" else (1, 1, 0, 1, ONE)
        with pytest.raises(ValueError, match="^unknown generator 'X'$"):
            getattr(qexamples, name)("X", *args, TP_DISTINCT)
        if name == "qplane_action":  # also on the zero element, with no term to act on
            with pytest.raises(ValueError, match="^unknown generator 'X'$"):
                qexamples.qplane_action("X", QPElement(), TP_DISTINCT)

    def test_bound_reaches_the_closed_forms(self):
        # no degree bound: the products reach degree 13 and 21
        for exponent in (3, 5):
            for G in (ONE, E, F, K):
                assert verify_smash_formulas(*[exponent] * 4, G, TP_DISTINCT).ok


class TestSmashFormulasCanFail:
    """A closed form for E that gains 1 # 1 fails the check and the demo,
    at the least differing key and at every G."""

    @pytest.fixture(autouse=True)
    def broken_e_formula(self, monkeypatch):
        rhs = qexamples.smash_formula_rhs

        def broken(gen, *args, **kwargs):
            out = rhs(gen, *args, **kwargs)
            if gen == "E":
                out = out + qexamples._tensor(QPElement.one(), PBWElement.one())
            return out

        monkeypatch.setattr(qexamples, "smash_formula_rhs", broken)

    def test_only_the_e_formula_fails_with_its_witness(self):
        report = verify_smash_formulas(0, 0, 0, 0, ONE, TP_DISTINCT)
        assert [e.axiom for e in report.failures()] == ["smash_formula_E"]
        assert report.failures()[0].witness == (
            (0, 0, 0, 0, ((0, 0), (0, 0, 0))), QQ_Q.zero(), QQ_Q.one())

    def test_demo_prints_each_failure_and_exits_1(self, capsys):
        assert main(["demo", "uqsl2", "--grid", "1"]) == 1
        assert capsys.readouterr().out == "".join(
            f"FAIL smash_formula_E at (m,n,r,s,G)=(0,0,0,0,{g})\n" for g in "1EFK"
        ) + ("verified 16 product-formula instances over the 1^4 grid with "
             "G in {1, E, F, K}: 4 FAILED\n")


def test_corpus_reproduces():
    """Every case of tests/qexamples_corpus.py gives the recorded value, and
    the data file is reproduced byte for byte."""
    with open(qexamples_corpus.CORPUS, encoding="utf-8") as fh:
        text = fh.read()
    got = qexamples_corpus.build()
    recorded = json.loads(text)["cases"]
    assert [c["id"] for c in got] == [c["id"] for c in recorded]
    differ = [(g, r) for g, r in zip(got, recorded) if g != r]
    assert not differ, f"{len(differ)} cases differ, first: got {differ[0][0]} " \
        f"recorded {differ[0][1]}"
    assert qexamples_corpus.dump(got) == text
