"""The acceptance gate: one test per criterion, exact arithmetic, zero
tolerance everywhere.  Each test prints one PASS line on success so the
whole suite doubles as a checklist (run with -s to see the lines).
"""

import itertools
import random
from fractions import Fraction

import pytest

from bihom.algebra_core import (
    check_bihom_algebra,
    example_family,
    monomial_substitution,
    truncated_polynomial_algebra,
    untwist,
    yau_twist,
)
from bihom.bialgebra import (
    check_antipode_properties,
    check_bihom_bialgebra,
    check_module_bihom_algebra,
    find_primitives,
    hopf_to_monoidal,
    is_monoidal,
    is_primitive,
    primitive_bracket,
    solve_antipode_monoidal,
    twist_module_algebra,
)
from bihom.coalgebra import (
    check_bihom_coalgebra,
    convolution_algebra,
    dual_algebra,
    dual_coalgebra,
    underline_hom,
    yau_twist_coalgebra,
)
from bihom.errors import DegenerateParameter
from bihom.exactnum import QQ
from bihom.fixtures import (
    cyclic_antipode,
    cyclic_group_bialgebra,
    cyclic_power_map,
    cyclic_self_action,
    f2_restricted_line,
    kc4_twisted_bialgebra,
    sl2_lie,
    sl2_scaling,
    sweedler_hopf,
)
from bihom.lie import (
    adjoint_rep,
    check_bihom_lie,
    check_representation,
    commutator_lie,
    semidirect_product,
    yau_twist_lie,
)
from bihom.linalg import (
    Matrix,
    Tensor3,
    kernel,
    kron,
    mat_eq_witness,
    mat_inverse,
    mat_mul,
    solve_affine,
    unit_vec,
)
from bihom.qexamples import (
    PBWElement,
    QPElement,
    TwistParams,
    qplane_action,
    twisted_action,
    uq_normalize,
    verify_smash_formulas,
)
from bihom.smash import (
    SmashData,
    dual_module_algebra,
    smash_comodule_structure,
    smash_product,
    smash_twisting_map,
)
from bihom.twisting import (
    apply_pseudotwistor,
    canonical_pseudotwistor,
    check_pseudotwistor,
    check_twisting_map,
)

from helpers import random_associative_with_endos, random_bihom_algebra


def _passed(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def ident(d):
    return Matrix.identity(QQ, d)


def algebra_fixture_list():
    rng = random.Random(2024)
    from bihom.algebra_core import endomorphism_algebra

    out = [
        example_family(1, 3, 2),
        example_family(2, Fraction(1, 2), 1),
        endomorphism_algebra(Matrix.diagonal(QQ, [1, 2]), Matrix.diagonal(QQ, [3, 1])),
        kc4_twisted_bialgebra().algebra_part(),
    ]
    out += [random_bihom_algebra(rng) for _ in range(4)]
    return out


def test_criterion_1_example_families():
    rng = random.Random(101)
    checked = 0
    while checked < 20:
        a = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        b = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        if b == 1 or a == 0:
            continue
        for which in (1, 2):
            alg = example_family(which, a, b)
            report = check_bihom_algebra(alg)
            assert report.ok, (which, a, b, report)
            assert alg.unit == [QQ.one(), QQ.zero()]
        checked += 1
    with pytest.raises(DegenerateParameter):
        example_family(1, Fraction(5), Fraction(1))
    _passed(1, "both families pass all unital checks on 20 random admissible pairs")


def test_criterion_2_yau_twist_soundness():
    rng = random.Random(202)
    recovered = 0
    for _ in range(50):
        a, alpha, beta = random_associative_with_endos(rng, invertible=False)
        twisted = yau_twist(a, alpha, beta)
        assert check_bihom_algebra(twisted).ok
        try:
            mat_inverse(alpha)
            mat_inverse(beta)
        except Exception:
            continue
        back = untwist(twisted)
        assert back.mu == a.mu
        assert back.alpha == back.beta == Matrix.identity(QQ, a.dim)
        recovered += 1
    assert recovered >= 10  # plenty of invertible draws in 50 samples
    _passed(2, f"50 random twists pass; untwist recovered {recovered} invertible cases exactly")


def test_criterion_3_commutator_lie():
    rng = random.Random(303)
    for _ in range(30):
        b = random_bihom_algebra(rng)
        L = commutator_lie(b)
        report = check_bihom_lie(L)
        assert report.entry("skew_symmetry").passed
        assert report.entry("bihom_jacobi").passed
        assert report.ok
    for _ in range(10):
        a, alpha, beta = random_associative_with_endos(rng, invertible=True)
        lhs = commutator_lie(yau_twist(a, alpha, beta))
        rhs = yau_twist_lie(commutator_lie(a), alpha, beta)
        assert lhs.same_tensors(rhs)
    _passed(3, "30 commutator Lie fixtures pass; L(A_(a,b)) = L(A)_(a,b) exactly")


def lie_fixture_list():
    rng = random.Random(404)
    fixtures = [
        sl2_lie(),
        yau_twist_lie(sl2_lie(), sl2_scaling(2), ident(3)),
    ]
    fixtures += [commutator_lie(random_bihom_algebra(rng)) for _ in range(4)]
    return fixtures


def test_criterion_4_adjoint_and_semidirect():
    for L in lie_fixture_list():
        rep = adjoint_rep(L)
        assert check_representation(L, rep).ok
        sd = semidirect_product(L, rep)
        assert check_bihom_lie(sd).ok
    _passed(4, "adjoint representations and semidirect products pass on all Lie fixtures")


def test_criterion_5_duality_and_convolution():
    for a in algebra_fixture_list():
        back = dual_algebra(dual_coalgebra(a))
        assert back.mu == a.mu
        assert back.alpha == a.alpha and back.beta == a.beta
        if a.unit is not None:
            assert back.unit == a.unit
    C = yau_twist_coalgebra(
        cyclic_group_bialgebra(4).coalgebra_part(),
        cyclic_power_map(4, 3),
        ident(4),
    )
    assert check_bihom_coalgebra(C).ok
    A = example_family(1, 3, 2)
    conv = convolution_algebra(C, A)
    assert check_bihom_algebra(conv).ok
    sub, basis, conv2 = underline_hom(C, A)
    report = check_bihom_algebra(sub)
    assert report.ok  # identity maps: BiHom-associativity = associativity
    # the unit of the restriction embeds back to eta o eps
    assert sub.unit is not None
    from bihom.linalg import vec_tensor, zero_vec

    embedded = zero_vec(QQ, conv2.dim)
    for j, coeff in enumerate(sub.unit):
        if coeff:
            embedded = [x + coeff * y for x, y in zip(embedded, basis[j])]
    assert embedded == vec_tensor(C.counit, A.unit, QQ)
    _passed(5, "duality is an exact involution; convolution and underline Hom pass")


def test_criterion_6_antipode_suite():
    cases = []
    H4 = cyclic_group_bialgebra(4)
    cases.append((H4, cyclic_antipode(4), cyclic_power_map(4, 3), ident(4)))
    Hs, S, invol = sweedler_hopf()
    cases.append((Hs, S, invol, ident(4)))
    for H, S, alpha, beta in cases:
        Hm, S_carried = hopf_to_monoidal(H, S, alpha, beta)
        assert check_bihom_bialgebra(Hm).ok
        assert is_monoidal(Hm)
        solved = solve_antipode_monoidal(Hm)
        assert solved is not None
        assert mat_eq_witness(solved, S) is None
        props = check_antipode_properties(Hm, solved)
        assert props.ok
        for axiom in ("S_fixes_unit", "eps_after_S", "antihomomorphism", "coproduct_flip"):
            assert props.entry(axiom).passed
    _passed(6, "monoidal twists of k[C4] and the 4-dim Hopf algebra recover S exactly")


def test_criterion_7_counterexample_regressions():
    n = 16
    base = truncated_polynomial_algebra(QQ, n)
    alpha = monomial_substitution(QQ, n, 2)
    tw = yau_twist(base, alpha, ident(n))

    def mono(i):
        return unit_vec(QQ, n, i)

    c = Fraction(1)
    theta = monomial_substitution(QQ, n, 3, scale=c)
    star = tw.multiply
    assert star(mono(1), mono(1)) == mono(3)
    lhs = star(theta.apply(mono(2)), star(mono(1), mono(1)))
    rhs = star(star(mono(2), mono(1)), theta.apply(mono(1)))
    assert lhs == [c * c * x for x in mono(15)]
    assert rhs == [c * x for x in mono(13)]
    assert lhs != rhs

    # antipode nonexistence: alpha(S(1)) X = X^4 alpha(S(1)) forces
    # alpha(S(1)) = 0, contradicting (eta o eps)(1) = 1
    x = mono(1)
    x4 = mono(4)
    constraint = Matrix.zero(QQ, n, n)
    for j in range(n):
        asj = alpha.column(j)
        left = base.multiply(asj, x)
        right = base.multiply(x4, asj)
        for i in range(n):
            constraint.e[i][j] = left[i] - right[i]
    for s1 in kernel(constraint):
        assert not any(alpha.apply(s1))
    rows = Matrix.zero(QQ, 2 * n, n)
    rhs_vec = [QQ.zero()] * n + list(mono(0))
    for i in range(n):
        for j in range(n):
            rows.e[i][j] = constraint.e[i][j]
            rows.e[n + i][j] = alpha.e[i][j]
    assert solve_affine(rows, rhs_vec) is None
    _passed(7, "both truncated k[X] counterexample chains reproduce exactly")


def test_criterion_8_pseudotwistors():
    # the worked 2-dimensional table, entry for entry
    one, zero = QQ.one(), QQ.zero()
    mu = Tensor3(QQ, [[[one, zero], [one, zero]], [[zero, one], [zero, one]]])
    btilde = Matrix(QQ, [[one, one], [zero, zero]])
    from bihom.algebra_core import BiHomAlgebra

    D = BiHomAlgebra(field=QQ, dim=2, mu=mu, alpha=ident(2), beta=btilde)
    a, b = Fraction(4, 3), Fraction(-2)
    alpha = Matrix(QQ, [[one, QQ.promote(a)], [zero, QQ.promote(1 - a)]])
    beta = Matrix(QQ, [[one, QQ.promote(b)], [zero, QQ.promote(1 - b)]])
    P = canonical_pseudotwistor(D, alpha, beta)
    assert check_pseudotwistor(D, P).ok
    out = apply_pseudotwistor(D, P)
    assert out.mu.column(0, 0) == [one, zero]
    assert out.mu.column(0, 1) == [one, zero]
    assert out.mu.column(1, 0) == [QQ.promote(a), QQ.promote(1 - a)]
    assert out.mu.column(1, 1) == [QQ.promote(a), QQ.promote(1 - a)]
    assert out.alpha.column(1) == [QQ.promote(a), QQ.promote(1 - a)]
    assert out.beta.column(1) == [one, zero]

    rng = random.Random(808)
    for _ in range(30):
        d = random_bihom_algebra(rng)
        alpha2 = rng.choice(
            [ident(d.dim), d.alpha.copy(), mat_mul(d.alpha, d.alpha)]
        )
        beta2 = rng.choice([ident(d.dim), d.beta.copy()])
        P = canonical_pseudotwistor(d, alpha2, beta2)
        report = check_pseudotwistor(d, P)
        assert report.ok
        applied = apply_pseudotwistor(d, P)
        tw = yau_twist(d, alpha2, beta2)
        assert applied.mu == tw.mu
        assert applied.alpha == tw.alpha and applied.beta == tw.beta
        assert check_bihom_algebra(applied).ok
    _passed(8, "worked table reproduced; 30 canonical pseudotwistors pass all 7 equations")


def kc4_smash_fixture():
    H = cyclic_group_bialgebra(4)
    act = cyclic_self_action(4, 3)
    g3 = cyclic_power_map(4, 3)
    return twist_module_algebra(
        H, H.algebra_part(), act, g3, ident(4), ident(4), ident(4), g3, ident(4)
    )


def test_criterion_9_twisting_and_smash():
    H2, A2, act2 = kc4_smash_fixture()
    B = H2.algebra_part()
    base = SmashData(H=H2, A=A2, action=act2)
    base.validate()
    for (m, n, p) in itertools.product((-2, -1, 0, 1, 2), repeat=3):
        data = SmashData(H=H2, A=A2, action=act2, m=m, n=n, p=p, _validated=True)
        tw = smash_twisting_map(data)
        assert check_twisting_map(A2, B, tw).ok, (m, n, p)

    smash = smash_product(base)
    assert check_bihom_algebra(smash).ok

    # smash-as-Yau-twist coincidence, tensor for tensor
    H = cyclic_group_bialgebra(4)
    act = cyclic_self_action(4, 3)
    g3 = cyclic_power_map(4, 3)
    classical = smash_product(SmashData(H=H, A=H.algebra_part(), action=act))
    lhs = yau_twist(classical, kron(g3, g3), kron(ident(4), ident(4)))
    assert lhs.mu == smash.mu
    assert lhs.alpha == smash.alpha and lhs.beta == smash.beta

    _, comod, report = smash_comodule_structure(base, ident(4), ident(4))
    assert report.ok

    Ht = kc4_twisted_bialgebra()
    dual, act_dual = dual_module_algebra(Ht)
    assert check_bihom_algebra(dual).ok
    assert check_module_bihom_algebra(Ht, dual, act_dual).ok
    dual_data = SmashData(H=Ht, A=dual, action=act_dual)
    hh = smash_product(dual_data)
    assert check_bihom_algebra(hh).ok
    psiA = mat_inverse(Ht.psi).transpose()
    omegaA = mat_inverse(Ht.omega).transpose()
    _, _, report = smash_comodule_structure(dual_data, psiA, omegaA)
    assert report.ok
    _passed(9, "R_{m,n,p} passes for all 125 index triples; smash, comodule and H*#H pass")


def test_criterion_10_quantum_demo():
    tp = TwistParams.of(2, 3, 5, 7, Fraction(1, 2))
    gs = {
        "1": PBWElement.one(),
        "E": PBWElement.generator("E"),
        "F": PBWElement.generator("F"),
        "K": PBWElement.generator("K"),
    }
    for m, n, r, s in itertools.product(range(3), repeat=4):
        for G in gs.values():
            report = verify_smash_formulas(m, n, r, s, G, tp)
            assert report.ok, (m, n, r, s)

    for m, n in itertools.product(range(3), repeat=2):
        P = QPElement.monomial(m, n)
        for g in ("E", "F", "K", "Kinv"):
            assert qplane_action(g, P, tp) == twisted_action(
                PBWElement.generator(g), P, tp
            )

    gens = ("E", "F", "K", "Kinv")
    for length in range(0, 7):
        for word in itertools.product(gens, repeat=length):
            assert uq_normalize(word, "leftmost") == uq_normalize(word, "rightmost")
    _passed(10, "all smash and action formulas match symbolically; rewriting is confluent to length 6")


def test_criterion_11_primitives():
    HC2 = cyclic_group_bialgebra(2)
    assert find_primitives(HC2) == []
    H = f2_restricted_line()
    prims = find_primitives(H)
    assert len(prims) == 1
    x = prims[0]
    br = primitive_bracket(H, x, x)
    assert is_primitive(H, br)
    for v in prims:
        assert H.psi.apply(v) == H.omega.apply(v)
    _passed(11, "primitive dimensions 0 and 1 as required; brackets stay primitive; psi = omega")
