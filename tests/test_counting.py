import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relquad

from helpers import (
    ORACLE_FIELDS,
    brute_sqrt_count,
    count_square_roots_formula_by_ideals,
    dirichlet_convolution_by_loops,
    extended_by_gcd,
    ideal_count_table_by_factoring,
    ideal_gcd,
    order_ideal_count_by_root_counts,
    primes_upto,
    primitive_character_table_by_factoring,
    sqrt_gen,
    zeta_by_route,
)
from relquad import characters, counting, discriminants, ideals
from relquad.arith import kronecker
from relquad.characters import QuadCharacter
from relquad.counting import (
    RootPair,
    count_square_roots,
    count_square_roots_formula,
    count_square_roots_local,
    count_square_roots_local_product,
    dirichlet_convolution,
    ideal_count_table,
    order_ideal_count_sublattice,
    order_ideal_counts,
    primitive_character_table,
    square_root_pairs,
    square_stretch,
    zeta_coefficients,
)
from relquad.discriminants import conductor_ideal, discriminant_classes
from relquad.field import make_field
from relquad.ideals import (
    FACTOR_CACHE_SIZE,
    RESIDUE_ENUMERATION_BOUND,
    ideal_from_generators,
    ideals_of_norm,
    primes_above,
    principal_ideal,
    square_root_coords,
    unit_ideal,
)


def test_count_examples(Q, Q10):
    assert count_square_roots(Q.elem(5), principal_ideal(Q.elem(11))) == 2
    assert count_square_roots(Q.elem(1), unit_ideal(Q)) == 1
    p2 = ideal_from_generators(Q10, [Q10.elem(2), sqrt_gen(Q10)])
    assert count_square_roots(Q10.elem(-4), p2) == 1
    chi = QuadCharacter(Q10.elem(-4))
    assert count_square_roots_formula(chi, p2) == 1
    assert chi.extended(p2) + chi.extended(unit_ideal(Q10)) == 1


def test_root_counts_at_a_strong_pseudoprime_over_Q(Q):
    # (psi_12) = (399165290221)(798330580441), psi_12 the least strong
    # pseudoprime to the bases 2, ..., 37; -3 is a square mod both primes,
    # each 1 mod 3, so x^2 = -3 has 2 * 2 roots.  Taken for a prime, psi_12
    # gave 2
    a = principal_ideal(Q.elem(318665857834031151167461))
    chi = QuadCharacter(Q.elem(-3))
    assert count_square_roots_formula(chi, a) == 4
    assert count_square_roots_local_product(chi, a) == 4


@pytest.mark.parametrize("d", [None, -1, -3, -15, 2, 5, 10])
def test_roots_match_ideal_argument_search(d):
    # _roots searches a's HNF triple scaled by 2 and 4 and builds no ideal:
    # the same roots in the same order as square_root_coords on the ideals
    # 2a and 4a, for every integral a of norm <= 30
    K = make_field(d)
    ys = range(-2, 3) if K.degree == 2 else [0]
    deltas = [K.elem(x, y) for x in range(-7, 8) for y in ys]
    counting._roots.cache_clear()
    found = 0
    for n in range(1, 31):
        for a in ideals_of_norm(K, n):
            for delta in deltas:
                roots = counting._roots(K, delta.X, delta.Y, a)
                assert roots == tuple(square_root_coords(delta, a * 2, a * 4)), (K, a, delta)
                found += len(roots)
    assert found > 200


def test_count_rejects_non_integral_delta(Q, Q10):
    # the integer enumeration must not truncate 9/2 to 4 and count 4's roots
    with pytest.raises(ValueError):
        count_square_roots(Q10.elem(Fraction(9, 2)), principal_ideal(Q10.elem(3)))
    with pytest.raises(ValueError):
        square_root_pairs(Q.elem(Fraction(1, 2)), 3)


def test_count_enforces_residue_bound(Q, Q10):
    # N(2a) > RESIDUE_ENUMERATION_BOUND fails fast with the named bound
    for a in (
        principal_ideal(Q.elem(RESIDUE_ENUMERATION_BOUND // 2 + 1)),
        principal_ideal(Q10.elem(513)),  # N(2a) = 1026^2
    ):
        with pytest.raises(ValueError, match="residue enumeration bound exceeded"):
            count_square_roots(a.field.elem(1), a)


def test_count_matches_elementwise_oracle(Q10):
    # cross-check the integer-coordinate loop against the Elem-based oracle
    delta = Q10.elem(-2)
    for n in range(1, 25):
        for a in ideals_of_norm(Q10, n):
            assert count_square_roots(delta, a) == brute_sqrt_count(delta, a)


def test_formula_example_m16(Q):
    chi = QuadCharacter(Q.elem(-16))
    four = principal_ideal(Q.elem(4))
    assert chi.extended(four) == 2
    assert chi.extended(principal_ideal(Q.elem(2))) == 0
    assert count_square_roots_formula(chi, four) == 2
    assert count_square_roots(Q.elem(-16), four) == 2


def test_reciprocity_small_sweep(test_fields):
    # the central identity at desk scale; the full sweep is in acceptance
    for K in test_fields:
        for info in discriminant_classes(K, 20):
            chi = QuadCharacter(info)
            for n in range(1, 30):
                for a in ideals_of_norm(K, n):
                    brute = count_square_roots(info.delta, a)
                    assert brute == count_square_roots_formula(chi, a)
                    assert brute == count_square_roots_local_product(chi, a)


def test_formula_matches_ideal_divisor_oracles():
    # the exponent choices against the divisors built as ideal products and
    # valued with g as an ideal product or with gcd(a, delta) as an ideal,
    # on every class with |N(delta)| <= 60: every ideal of norm <= 40, and
    # P^e, 3 <= e <= v_P(delta) + 5, at the primes P of delta, past every
    # threshold of the local casework
    powers = 0
    for d in ORACLE_FIELDS:
        K = make_field(d)
        pool = [a for n in range(1, 41) for a in ideals_of_norm(K, n)]
        for info in discriminant_classes(K, 60):
            chi = QuadCharacter(info)
            high = [P.ideal**e for P, l in chi.modulus.factor() for e in range(3, l + 6)]
            powers += len(high)
            for a in pool + high:
                val = count_square_roots_formula(chi, a)
                assert val == count_square_roots_formula_by_ideals(chi, a), (d, info.delta, a)
                assert val == count_square_roots_formula_by_ideals(chi, a, extended_by_gcd)
                assert val == count_square_roots_local_product(chi, a), (d, info.delta, a)
                if a in high and a.norm_int() <= 1024:
                    assert val == count_square_roots(info.delta, a), (d, info.delta, a)
    assert powers > 1000


def test_formula_and_local_routes_build_no_ideal_product(monkeypatch):
    # with the ideal layer's own memos warm (factorizations, prime powers),
    # every character memo dropped and Ideal * Ideal raising, both routes
    # still match brute force; the divisor enumeration by ideal products
    # does not get past the patch
    cases = []
    for d in (None, 5, 10, -15):
        K = make_field(d)
        pool = [a for n in range(1, 30) for a in ideals_of_norm(K, n)]
        for info in discriminant_classes(K, 30):
            chi = QuadCharacter(info)
            for a in pool:
                cases.append((info, a, count_square_roots(info.delta, a)))
                count_square_roots_formula(chi, a)
                count_square_roots_local_product(chi, a)
    # the character memos live on the infos: infos built afresh, before the
    # patch, hold none
    discriminants._conductor.cache_clear()
    fresh = {info: conductor_ideal(info.delta) for info, _, _ in cases}
    assert all(new is not old and not (new._prime or new._local) for old, new in fresh.items())

    def refuse(*args):
        raise AssertionError("ideal product")

    monkeypatch.setattr(ideals, "_product", refuse)
    for info, a, brute in cases:
        chi = QuadCharacter(fresh[info])
        assert count_square_roots_formula(chi, a) == brute, (info.delta, a)
        assert count_square_roots_local_product(chi, a) == brute, (info.delta, a)
    info, a, _ = next(case for case in cases if len(case[1].factor()) > 1)
    with pytest.raises(AssertionError, match="ideal product"):
        count_square_roots_formula_by_ideals(QuadCharacter(info), a)


def test_local_route_refuses_fractional_ideals_and_negative_exponents(Q5):
    # the product returned 0 at P^-1 and the local count answered k = -1;
    # every counting route names the ideal, the local count the exponent
    chi = QuadCharacter(Q5.elem(-3))
    P = primes_above(Q5, 11)[0]
    a = P.ideal.inverse()
    for route in (
        lambda: count_square_roots_local_product(chi, a),
        lambda: count_square_roots_formula(chi, a),
        lambda: count_square_roots(chi.delta, a),
    ):
        with pytest.raises(ValueError, match=re.escape(f"integral ideal required, got {a}")):
            route()
    with pytest.raises(ValueError, match="exponent k must be >= 0, got -1"):
        count_square_roots_local(chi, P, -1)
    assert count_square_roots_local_product(chi, P.ideal) == count_square_roots(chi.delta, P.ideal)


@pytest.mark.parametrize("d", [None, 10])
def test_refusals_keep_their_texts(d):
    # each entry checks its preconditions in place, where it stands, and
    # refuses a fractional ideal or a non-integral delta with its own text
    K = make_field(d)
    chi = QuadCharacter(discriminant_classes(K, 30)[0])
    a = ideals_of_norm(K, 2)[0]
    frac = a * Fraction(1, 3)
    half = K.elem(Fraction(1, 2))
    cases = [
        (lambda: count_square_roots(chi.delta, frac), f"integral ideal required, got {frac}"),
        (lambda: count_square_roots(half, a), f"integral delta required, got {half}"),
        (lambda: count_square_roots_formula(chi, frac), f"integral ideal required, got {frac}"),
        (lambda: count_square_roots_local_product(chi, frac), f"integral ideal required, got {frac}"),
        (lambda: zeta_coefficients(half, 3), f"integral delta required, got {half}"),
        (lambda: square_root_pairs(half, 0), f"integral delta required, got {half}"),
        (lambda: order_ideal_counts(half, 0), f"integral delta required, got {half}"),
        (lambda: chi.primitive(frac), "integral ideal required"),
        (lambda: chi.extended(frac), "integral ideal required"),
        (lambda: frac.norm_int(), "integral ideal required"),
    ]
    for call, text in cases:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == text


@pytest.mark.parametrize("d", [None, 10])
def test_zeta_brute_refuses_a_non_integral_delta_at_every_bound(d):
    # the brute route returned [0] at bound 0 and raised only once it had
    # an ideal to count; it now checks delta once, before the loop
    half = make_field(d).elem(Fraction(1, 2))
    for bound in (0, 1, 3):
        with pytest.raises(ValueError, match=re.escape(f"integral delta required, got {half}")):
            zeta_coefficients(half, bound)


def _python_calls(run) -> list:
    # the code objects of the Python-level calls that run makes
    seen = []
    sys.setprofile(lambda frame, event, arg: seen.append(frame.f_code) if event == "call" else None)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def test_a_warm_class_calls_no_wrapper():
    # one warm class of Q(sqrt 10): each public entry validates once, in
    # place, and its kernels read the memos, so no Python-level call goes
    # through the integrality wrappers, the HNF membership helper, the
    # residue reducer or the list-copying ideals_of_norm
    K = make_field(10)
    info = next(i for i in discriminant_classes(K, 30) if not i.f_delta.is_unit_ideal())
    pool = [a for n in range(1, 9) for a in ideals_of_norm(K, n)]

    def entries():
        chi = QuadCharacter(info)
        for a in pool:
            count_square_roots(info.delta, a)
            count_square_roots_formula(chi, a)
            count_square_roots_local_product(chi, a)
            chi.primitive(a)
            chi.extended(a)
            for b in pool:
                a.divides(b)
        chi.residue_table()

    def loops():
        chi = QuadCharacter(info)
        chi.conductor_exhaustive()
        chi.coefficients(8)
        square_root_pairs(info.delta, 8)
        zeta_coefficients(info.delta, 8)
        for a in pool:
            if a.divides(info.f_delta):
                info.f_delta.divide_exact(a)

    wrappers = {
        ideals.Ideal.is_integral.__code__,
        ideals._in_hnf.__code__,
        ideals.Ideal.reduce_coords.__code__,
        ideals.ideals_of_norm.__code__,
    }
    entries()
    loops()  # warm
    seen = _python_calls(entries)
    assert ideals.Ideal.divides.__code__ in seen and characters.QuadCharacter._on_coords.__code__ in seen
    checks = {c for c in seen if c.co_filename == counting.__file__ and c.co_name.startswith("_check_")}
    assert [c.co_name for c in seen if c in wrappers | checks] == []
    # the package's own loops go past the public wrappers they used to call:
    # zeta's brute route reads _roots, divide_exact _inverse and _product
    seen = _python_calls(loops)
    bypassed = {counting.count_square_roots.__code__, ideals.Ideal.inverse.__code__, ideals.Ideal.__mul__.__code__}
    assert characters._witness.__code__ in seen and counting._roots.__wrapped__.__code__ not in seen
    assert [c.co_name for c in seen if c in wrappers | bypassed] == []


def test_multiplicativity_and_stability(Q, Q10):
    import random

    rng = random.Random(41)
    for K in (Q, Q10):
        for info in discriminant_classes(K, 15):
            chi = QuadCharacter(info)
            pool = [a for n in range(1, 20) for a in ideals_of_norm(K, n)]
            done = 0
            while done < 25:
                a, b = rng.choice(pool), rng.choice(pool)
                if not ideal_gcd(a, b).is_unit_ideal():
                    continue
                assert count_square_roots(info.delta, a * b) == count_square_roots(
                    info.delta, a
                ) * count_square_roots(info.delta, b)
                done += 1
            # local stability: N(P^k) = N(P) for P not dividing delta, k <= 4
            for P, _ in principal_ideal(K.elem(105)).factor():
                if chi.modulus.valuation(P) != 0:
                    continue
                base = count_square_roots_local(chi, P, 1)
                for k in range(2, 5):
                    assert count_square_roots_local(chi, P, k) == base


def test_local_casework_exhaustive_at_dyadic(test_fields):
    # every dyadic exact-power case of the local evaluator vs brute force
    for K in test_fields:
        for info in discriminant_classes(K, 32):
            chi = QuadCharacter(info)
            from relquad.ideals import primes_above

            for P in primes_above(K, 2):
                for k in range(1, 7):
                    a = P.ideal**k
                    if a.norm_int() > 256:
                        break
                    assert count_square_roots_local(chi, P, k) == count_square_roots(
                        info.delta, a
                    ), (info.delta, P, k)


def test_zeta_coefficients(Q, Q10):
    assert zeta_coefficients(Q.elem(5), 12)[1] == 1
    # termwise: zeta(delta, s) * zeta_K(2s) = zeta_K(s) L(chi, s)
    for K, dval in ((Q, (5, 0)), (Q10, (-2, 0))):
        delta = K.elem(*([dval[0]] if K.degree == 1 else dval))
        N = 40
        zd = zeta_coefficients(delta, N)
        assert zd == zeta_by_route(delta, N, count_square_roots_local_product)
        assert zd == zeta_by_route(delta, N, count_square_roots_formula)
        chi = QuadCharacter(delta)
        aK = ideal_count_table(K, N)
        _, chi_sums = chi.coefficients(N)
        lhs = dirichlet_convolution(square_stretch(aK, N), zd)
        rhs = dirichlet_convolution(aK, chi_sums)
        assert lhs[1:] == rhs[1:]
    n2 = zeta_coefficients(Q10.elem(-2), 2)[2]
    p2 = ideal_from_generators(Q10, [Q10.elem(2), sqrt_gen(Q10)])
    assert n2 == count_square_roots(Q10.elem(-2), p2)


def test_root_pairs(Q):
    delta = Q.elem(-4)
    pairs = square_root_pairs(delta, 5)
    by_ideal = {}
    for rp in pairs:
        by_ideal.setdefault(rp.a_ideal, set()).add(rp.b.key())
        # membership and canonicality
        assert (rp.b * rp.b - delta) in (rp.a_ideal * 4)
        assert (rp.a_ideal * 2).reduce(rp.b) == rp.b
    for a, bs in by_ideal.items():
        assert len(bs) == count_square_roots(delta, a)
    sq = Q.elem(9)  # square discriminant: b = 3 appears for a = (1)
    pairs = square_root_pairs(sq, 1)
    assert {rp.b.key() for rp in pairs} == {(1, 0)}  # 3 = 1 mod 2


def _root_pairs_by_residues(delta, norm_bound):
    """Root pairs from Elem products over the residues of 2a."""
    out = []
    for n in range(1, norm_bound + 1):
        for a in ideals_of_norm(delta.field, n):
            two_a, four_a = a * 2, a * 4
            for b in two_a.residues():
                if (b * b - delta) in four_a:
                    out.append(RootPair(a_ideal=a, b=two_a.reduce(b)))
    return out


def test_root_pairs_match_residue_route(test_fields):
    for K in test_fields:
        for info in discriminant_classes(K, 20):
            pairs = square_root_pairs(info.delta, 12)
            assert pairs == _root_pairs_by_residues(info.delta, 12), (K, info.delta)


def test_order_ideal_counts_gaussian(Q):
    # Z[i]: ideal counts 1,1,0,1,2,0,0,1 for n = 1..8
    expected = [1, 1, 0, 1, 2, 0, 0, 1]
    assert order_ideal_counts(Q.elem(-4), 8) == [0, *expected]
    subl = [order_ideal_count_sublattice(-4, n) for n in range(1, 9)]
    assert subl == expected


@pytest.mark.parametrize("n", [0, -1, -3])
def test_order_ideal_counts_refuse_indices_below_one(Q, Q10, n):
    # the sublattice count raised "factorint(0)" at n = 0 and returned 0 at
    # n = -3; the table refuses a negative bound, and at bound 0 holds no
    # index
    with pytest.raises(ValueError, match=f"index n must be >= 1, got {n}"):
        order_ideal_count_sublattice(-4, n)
    for K in (Q, Q10):
        if n:
            with pytest.raises(ValueError, match=f"norm bound must be >= 0, got {n}"):
                order_ideal_counts(K.elem(-4), n)
        else:
            assert order_ideal_counts(K.elem(-4), n) == [0]


def test_order_ideal_identities(test_fields):
    for K in test_fields:
        for info in discriminant_classes(K, 12):
            delta = info.delta
            N = 30
            aK = ideal_count_table(K, N)
            zd = zeta_coefficients(delta, N)
            chi = QuadCharacter(info)
            _, chi_sums = chi.coefficients(N)
            conv1 = dirichlet_convolution(aK, chi_sums)
            conv2 = dirichlet_convolution(square_stretch(aK, N), zd)
            counts = order_ideal_counts(delta, N)
            assert len(counts) == N + 1 and counts[0] == 0
            for n in range(1, N + 1):
                oc = counts[n]
                assert oc == order_ideal_count_by_root_counts(delta, n) == conv1[n] == conv2[n]
                if K.degree == 1:
                    assert oc == order_ideal_count_sublattice(int(delta.x), n)


def test_decomposition_law_small(Q):
    # ideal counts of Q(sqrt delta0) = 1 * chi for fundamental delta0
    from relquad.arith import squarefree_part

    for delta0 in (-4, 5, -3, 12, -20, 8, -51):
        d = squarefree_part(delta0)
        L = make_field(d)
        assert L.disc == delta0  # fundamental
        N = 200
        aL = ideal_count_table(L, N)
        chi = QuadCharacter(Q.elem(delta0))
        table = primitive_character_table(chi, N)
        ones = [0] + [1] * N
        conv = dirichlet_convolution(ones, table)
        assert aL[1:] == conv[1:]
        # the sieve agrees with listing at small norms
        for n in range(1, 40):
            assert aL[n] == len(ideals_of_norm(L, n))


def test_local_casework_checks_survive_optimize():
    # with local_square_solvable answering False everywhere, the casework
    # reaches the odd-threshold branch at P = (3) for delta = 9 (no dyadic
    # threshold at an odd prime) and at P = (2) for delta = -4 (no odd
    # level); both must raise under python -O and name P (as asserts, -O
    # returned counts)
    code = (
        "import relquad.counting as c\n"
        "from relquad.characters import QuadCharacter\n"
        "from relquad.field import make_field\n"
        "from relquad.ideals import primes_above\n"
        "Q = make_field()\n"
        "c.local_square_solvable = lambda delta, P, t: False\n"
        "for delta, p in ((9, 3), (-4, 2)):\n"
        "    try:\n"
        "        n = c.count_square_roots_local(QuadCharacter(Q.elem(delta)), primes_above(Q, p)[0], 3)\n"
        "        print(__debug__, 'returned', n)\n"
        "    except AssertionError as exc:\n"
        "        print(__debug__, 'raised', f'({p})' in str(exc))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(relquad.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split() == ["False", "raised", "True"] * 2


# Q, Q(i), Q(sqrt -3), d = 1 mod 4 and d != 1 mod 4 of both signs
TABLE_FIELDS = [None, -1, -3, 5, 13, -7, -15, 2, 3, 10, -2, -5, -6]
# fundamental delta0, and non-fundamental ones whose conductor is a proper
# divisor of delta (zeros at the conductor, +-1 at the other primes of delta)
TABLE_DELTAS = [-4, -3, 5, 8, -8, 12, 21, -20, 24, -24, 45, -16, 48, -75, 20, -12, 72, 125, -36]


@settings(max_examples=60)
@given(st.sampled_from(TABLE_FIELDS), st.integers(0, 600))
def test_ideal_count_table_matches_factoring(d, bound):
    K = make_field(d)
    assert ideal_count_table(K, bound) == ideal_count_table_by_factoring(K, bound)


@settings(max_examples=60)
@given(st.sampled_from(TABLE_DELTAS), st.integers(0, 600))
def test_primitive_character_table_matches_factoring(delta, bound):
    chi = QuadCharacter(make_field().elem(delta))
    table = primitive_character_table(chi, bound)
    # the oracle writes out[1] before checking the bound, so it has no bound 0
    assert table == (primitive_character_table_by_factoring(chi, bound) if bound else [0])


_entries = st.lists(st.integers(-3, 3), max_size=80)


@settings(max_examples=200)
@given(_entries, _entries)
def test_dirichlet_convolution_matches_loops(A, B):
    # zeros, negative entries, unequal lengths and empty lists
    assert dirichlet_convolution(A, B) == dirichlet_convolution_by_loops(A, B)


def _long_entries(rng, length: int) -> list[int]:
    # zeros and +-1 (the skipped and the map(add / sub) updates) mixed with
    # small and 13-digit entries (the map(mul) updates)
    kinds = (0, 1, -1, 2, -3, 10**12, -(10**12))
    return [rng.choice(kinds) if rng.random() < 0.6 else rng.randint(-(10**12), 10**12) for _ in range(length)]


@settings(max_examples=60)
@given(st.integers(0, 600), st.integers(0, 600), st.integers(0, 2**32))
def test_dirichlet_convolution_matches_loops_on_long_lists(la, lb, seed):
    # both halves of the hyperbola split, every coefficient branch, unequal
    # lengths and the empty list
    rng = random.Random(seed)
    A, B = _long_entries(rng, la), _long_entries(rng, lb)
    out = dirichlet_convolution(A, B)
    assert out == dirichlet_convolution_by_loops(A, B)
    assert len(out) == min(la, lb)


# Q(sqrt d) with d = 1 mod 8 (2 splits), d = 5 mod 8 (2 inert) and d != 1
# mod 4 (2 ramified), of both signs
SYMBOL_FIELDS = [17, -7, 33, 5, -3, 13, 2, -1, 10, 3]


@pytest.mark.parametrize("d", SYMBOL_FIELDS)
def test_decomposition_sides_use_separate_symbol_routes(d, monkeypatch):
    K = make_field(d)
    expected = {bound: ideal_count_table_by_factoring(K, bound) for bound in (0, 1, 2, 600)}

    def refuse(*args):
        raise AssertionError(f"kronecker{args} called")

    # every binding of kronecker in relquad, relquad.arith's own and
    # counting's should it ever import one; the oracle keeps its own
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "relquad" and hasattr(module, "kronecker"):
            monkeypatch.setattr(module, "kronecker", refuse)
    for bound, table in expected.items():
        assert ideal_count_table(K, bound) == table, (d, bound)
    monkeypatch.undo()

    # the character side reaches at_prime's kronecker once per odd prime off
    # delta, on a cold memo
    delta = K.disc
    discriminants._conductor.cache_clear()
    chi = QuadCharacter(make_field().elem(delta))
    calls = []

    def counted(n, p):
        calls.append(p)
        return kronecker(n, p)

    monkeypatch.setattr(characters, "kronecker", counted)
    table = primitive_character_table(chi, 600)
    assert table == primitive_character_table_by_factoring(chi, 600)
    assert sorted(calls) == [p for p in primes_upto(600) if p > 2 and delta % p], d


def test_dirichlet_tables_at_bound_zero(Q, Q5):
    # at the parent the sieve of bound 0 raised IndexError
    assert ideal_count_table(Q, 0) == ideal_count_table(Q5, 0) == [0]
    assert primitive_character_table(QuadCharacter(Q.elem(5)), 0) == [0]
    assert dirichlet_convolution([0], [0]) == [0]


@pytest.mark.parametrize("bound", [-1, -7])
def test_dirichlet_tables_refuse_negative_bounds(Q, Q5, bound):
    for call in (
        lambda: ideal_count_table(Q, bound),
        lambda: ideal_count_table(Q5, bound),
        lambda: primitive_character_table(QuadCharacter(Q.elem(5)), bound),
    ):
        with pytest.raises(ValueError, match=f"norm bound must be >= 0, got {bound}"):
            call()


def test_decomposition_builds_one_sieve_per_bound(monkeypatch):
    from relquad.verify import decomposition_suite

    calls = []
    sieve = counting.smallest_prime_factors

    def counted(n):
        calls.append(n)
        return sieve(n)

    monkeypatch.setattr(counting, "smallest_prime_factors", counted)
    counting._prime_power_sieve.cache_clear()
    # both tables of every delta0 read the one sieve of bound 97
    assert decomposition_suite(disc_bound=12, norm_bound=97)["failure_count"] == 0
    assert decomposition_suite(disc_bound=12, norm_bound=97)["failure_count"] == 0
    assert calls == [97]


@pytest.mark.parametrize("bound", [-1, -7])
def test_series_refuse_negative_bounds(Q, bound):
    # each returned an empty table for a negative bound
    delta = Q.elem(5)
    for call in (
        lambda: zeta_coefficients(delta, bound),
        lambda: QuadCharacter(delta).coefficients(bound),
        lambda: square_stretch([0, 1, 1], bound),
        lambda: square_root_pairs(delta, bound),
    ):
        with pytest.raises(ValueError, match=f"norm bound must be >= 0, got {bound}"):
            call()


# Q and quadratic fields of both signs, with d = 1 and d != 1 mod 4
ROOT_FIELDS = [None, 5, 10, -15, -1, 2, -3]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(ROOT_FIELDS),
    st.integers(-30, 30),
    st.integers(-6, 6),
    st.integers(1, 24),
    st.data(),
)
def test_root_memo_matches_unmemoised_search(d, x, y, n, data):
    # on a miss, on a hit and after the memo has dropped the entry
    K = make_field(d)
    delta = K.elem(x, y if K.degree == 2 else 0)
    ideals = ideals_of_norm(K, n)
    if not (delta and ideals):
        return
    a = data.draw(st.sampled_from(ideals))
    expected = sum(1 for _ in square_root_coords(delta, a * 2, a * 4))
    counting._roots.cache_clear()
    assert count_square_roots(delta, a) == expected
    assert count_square_roots(delta, a) == expected
    counting._roots.cache_clear()
    assert count_square_roots(delta, a) == expected


def test_root_memo_is_bounded_by_the_factor_policy():
    assert counting._roots.cache_info().maxsize == FACTOR_CACHE_SIZE


def test_root_pairs_cannot_poison_the_memo(Q10):
    counting._roots.cache_clear()
    delta = Q10.elem(-4)
    first = square_root_pairs(delta, 12)
    expected = list(first)
    assert len(expected) == sum(zeta_coefficients(delta, 12))
    first.clear()
    first.append(RootPair(a_ideal=unit_ideal(Q10), b=Q10.elem(7)))
    again = square_root_pairs(delta, 12)
    assert again == expected and again is not first
    assert sum(zeta_coefficients(delta, 12)) == len(expected)
