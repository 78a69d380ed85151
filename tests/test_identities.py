"""Identity residuals: error-term polynomials, shuffle lemma, factorial
formula, functional equations, and the depth-5 closed forms."""

import itertools
import math
from array import array

import pytest
from oracles import (
    closed_forms_direct,
    corollary_direct,
    curly_L,
    f_poly_sum,
    functional_eq_direct,
    g_poly_sum,
    main_theorem_direct,
    ones_symmetry_difference_direct,
    recurrence_sum,
    shuffle_lemma_sum,
)

from fmplib import fmp, identities, ss
from fmplib.fmp import (
    BlockTriple,
    Index,
    naive_reference,
    naive_reference_general,
    zeta_variant,
)
from fmplib.identities import (
    _bridge,
    closed_form_residuals,
    f_poly,
    functional_eq_residual,
    g_poly,
    kontsevich_residual,
    main_theorem_residual,
    obstruction_n5_residual,
    ones_fmp,
    ones_symmetry_difference,
    recurrence_residual,
    shuffle_lemma_residual,
)
from fmplib.modular import bernoulli_mod
from fmplib.polyfp import PolyFp, compose_one_minus_t


def brute_zeta(parts, i, p):
    """Window slice by literal nested loops; oracle independent of the DP."""
    total = 0
    for tup in itertools.product(range(1, p), repeat=len(parts)):
        s, term, ok = 0, 1, True
        for l, k in zip(tup, parts):
            s += l
            if s % p == 0:
                ok = False
                break
            term = term * pow(pow(s % p, p - 2, p), k, p) % p
        if ok and (i - 1) * p < s < i * p:
            total = (total + term) % p
    return total


def spike(p, scale_by_window):
    """Polynomial with coefficient c_i at degree i*p for {i: c_i}."""
    top = max(scale_by_window) * p
    coeffs = [0] * (top + 1)
    for i, c in scale_by_window.items():
        coeffs[i * p] = c % p
    return PolyFp.of(p, coeffs)


# --- error-term polynomials ---------------------------------------------------


@pytest.mark.parametrize("p", [5, 7, 11])
def test_f1_f2_vanish(p):
    assert f_poly(1, p).is_zero
    assert f_poly(2, p).is_zero


@pytest.mark.parametrize("p", [7, 11, 13])
def test_f3_closed_form(p):
    z12 = zeta_variant(Index.of(1, 2), 1, p).value
    tp = PolyFp.of(p, [0] * p + [1])
    one_minus_t_pow_p = math.prod([PolyFp.of(p, [1, -1])] * p, start=PolyFp.one(p))
    assert f_poly(3, p) == tp * one_minus_t_pow_p * z12


@pytest.mark.parametrize("p", [7, 11])
def test_f4_factorizes(p):
    assert f_poly(4, p) == f_poly(3, p) * ones_fmp(1, p)


def _assert_error_terms_match_sums_of_products(p, depths):
    for n in depths:
        assert f_poly(n, p) == f_poly_sum(n, p), n
        assert g_poly(n, p) == g_poly_sum(n, p), n
        assert shuffle_lemma_residual(n, p) == shuffle_lemma_sum(n, p), n
        for k in range(n - 1):
            assert recurrence_residual(n, k, p) == recurrence_sum(n, k, p), (n, k)


@pytest.mark.parametrize("p", [5, 7, 11, 101, 1009])
def test_error_terms_match_sums_of_products(p):
    depths = range(1, min(p, 6))
    _assert_error_terms_match_sums_of_products(p, depths)
    # g_n vanishes for n <= 5; the perturbed test below makes it nonzero.
    assert not f_poly(4, p).is_zero


def _bump_chain_values(monkeypatch, indices, position):
    """Add 1 to the chain value at S = position(p) of each index in indices.
    Every polylog, window slice and bridge reads fmp._chain_values, and each
    chain extends its prefix's, so the perturbed objects stay consistent with
    one another.  Use with fresh_memos, so that no memo keeps them."""
    original = fmp._chain_values

    def perturbed(parts, q):
        values = original(parts, q)
        if parts in indices:
            s = position(q)
            values = array("I", values)  # a copy: the memo's entry is shared
            values[s] = (values[s] + 1) % q
        return values

    monkeypatch.setattr(fmp, "_chain_values", perturbed)


@pytest.mark.parametrize("p", [11, 101])
def test_error_terms_match_sums_of_products_where_nonzero(p, monkeypatch, fresh_memos):
    # Window 2 of (1,2) and of (1,1) off by one, seen by the one-pass slices
    # and by zeta_variant alike: the k = n-3 summand of f_n and the k = n-4
    # summand of g_n change, so g_4, g_5 and the shuffle and recurrence
    # residuals are nonzero and must still agree.
    _bump_chain_values(monkeypatch, ((1, 2), (1, 1)), lambda q: q + 1)
    _assert_error_terms_match_sums_of_products(p, range(3, 6))
    assert not g_poly(4, p).is_zero and not g_poly(5, p).is_zero
    for n in range(3, 6):
        assert not shuffle_lemma_residual(n, p).is_zero, n
        assert not recurrence_residual(n, n - 3, p).is_zero, n


@pytest.mark.parametrize("n,p", [(2, 5), (2, 11), (3, 7), (3, 13), (5, 7), (5, 11)])
def test_g_vanishes(n, p):
    assert g_poly(n, p).is_zero


def test_fg_require_p_gt_n():
    with pytest.raises(ValueError):
        f_poly(5, 5)
    with pytest.raises(ValueError):
        g_poly(7, 7)


# --- shuffle lemma -------------------------------------------------------------


@pytest.mark.parametrize("p", [5, 7, 11])
def test_shuffle_n1_trivial(p):
    assert shuffle_lemma_residual(1, p).is_zero


def test_shuffle_n2_oracle_path():
    # both sides assembled from the nested-loop oracle and brute windows
    p = 7
    l1 = naive_reference(Index.of(1), p)
    lhs = l1 * l1
    f2 = spike(p, {1: brute_zeta((2,), 1, p)})
    rhs = naive_reference(Index.ones(2), p) * 2 - f2
    assert lhs == rhs
    assert shuffle_lemma_residual(2, p).is_zero


def test_shuffle_n3_oracle_path():
    p = 7
    lhs = naive_reference(Index.ones(2), p) * naive_reference(Index.of(1), p)
    f3 = spike(p, {1: brute_zeta((1, 2), 1, p), 2: brute_zeta((1, 2), 2, p)}) + spike(
        p, {1: brute_zeta((2,), 1, p)}
    ) * naive_reference(Index.of(1), p)
    g3 = spike(p, {1: brute_zeta((1,), 1, p)}) * naive_reference(Index.of(2), p)
    rhs = naive_reference(Index.ones(3), p) * 3 - f3 - g3
    assert lhs == rhs
    assert shuffle_lemma_residual(3, p).is_zero


@pytest.mark.parametrize("n,p", [(4, 11), (5, 11), (5, 13)])
def test_shuffle_dp_path(n, p):
    assert shuffle_lemma_residual(n, p).is_zero


# --- the interpolation recurrence ----------------------------------------------


def test_recurrence_n2_oracle_path():
    p = 7
    f0 = naive_reference_general(BlockTriple((1,), (1,), ()), p)
    f1 = naive_reference_general(BlockTriple((), (1,), (1,)), p)
    a0 = spike(p, {1: brute_zeta((2,), 1, p)})
    assert f0 == f1 + naive_reference(Index.ones(2), p) - a0
    assert recurrence_residual(2, 0, p).is_zero


def test_recurrence_n3_oracle_path():
    p = 7
    f1 = naive_reference_general(BlockTriple((1,), (1,), (1,)), p)
    f2 = naive_reference_general(BlockTriple((), (1,), (1, 1)), p)
    a1 = spike(p, {1: brute_zeta((2,), 1, p)}) * naive_reference(Index.of(1), p)
    assert f1 == f2 + naive_reference(Index.ones(3), p) - a1
    assert recurrence_residual(3, 1, p).is_zero


@pytest.mark.parametrize("n,k,p", [(4, 0, 11), (4, 1, 11), (4, 2, 11), (3, 0, 13)])
def test_recurrence_dp_path(n, k, p):
    assert recurrence_residual(n, k, p).is_zero


@pytest.mark.parametrize("p", [5, 7, 11, 101])
def test_bridges_are_three_block_sums(p):
    # The shuffle lemma starts from the product and the recurrence ends in the
    # depth-n polylog.  At p <= 7 the nested-loop oracle evaluates every block
    # shape ((1)^{n-j-1}, (1), (1)^j) from scratch.
    for n in range(1, 6):
        assert _bridge(n, 0, p) == ones_fmp(n - 1, p) * ones_fmp(1, p), n
        assert _bridge(n, n - 1, p) == ones_fmp(n, p), n
        for j in range(n) if p <= 7 else ():
            blocks = BlockTriple((1,) * (n - j - 1), (1,), (1,) * j)
            assert _bridge(n, j, p) == naive_reference_general(blocks, p), (n, j)


def test_recurrence_k_range():
    with pytest.raises(ValueError):
        recurrence_residual(3, 2, 7)
    with pytest.raises(ValueError):
        recurrence_residual(3, -1, 7)


@pytest.mark.parametrize("n,p", [(2, 7), (3, 7), (4, 11)])
def test_telescoping_consistency(n, p):
    total = PolyFp.zero(p)
    for k in range(n - 1):
        total = total + recurrence_residual(n, k, p)
    assert total == shuffle_lemma_residual(n, p)


# --- main identity and the symmetrized combination ------------------------------


@pytest.mark.parametrize("n,p", [(1, 5), (1, 7), (2, 7), (3, 7), (4, 11), (5, 11)])
def test_main_theorem(n, p):
    assert main_theorem_residual(n, p).is_zero


def test_main_theorem_factorial_guard():
    with pytest.raises(ValueError, match="requires p > n, got p=5, n=5"):
        main_theorem_residual(5, 5)
    with pytest.raises(ValueError, match="requires p > n, got p=7, n=7"):
        main_theorem_residual(7, 7)


@pytest.mark.parametrize("p", [7, 11, 101])
def test_main_theorem_recursion_matches_direct_formula(p):
    for n in range(1, 6):
        assert main_theorem_residual(n, p) == main_theorem_direct(n, p), n


@pytest.mark.parametrize("p", [11, 101])
def test_main_theorem_recursion_with_perturbed_f3(p, monkeypatch, fresh_memos):
    # On correct code every M_{n-1} is zero, so the recursion's product
    # M_{n-1} * (depth-1 polylog) is never formed.  A wrong f_3 makes
    # M_3..M_5 nonzero, and the recursion must still give the definition.
    original = identities.f_poly
    bump = PolyFp.of(p, [0, 1])
    monkeypatch.setattr(
        identities, "f_poly", lambda n, q: original(n, q) + bump if n == 3 else original(n, q)
    )
    nonzero = [n for n in range(1, 6) if not main_theorem_direct(n, p).is_zero]
    assert nonzero == [3, 4, 5]
    for n in range(1, 6):
        assert main_theorem_residual(n, p) == main_theorem_direct(n, p), n


def test_curly_l_small():
    # The oracle's curly_L, from which the direct forms of the main theorem
    # and the functional equation are built.
    assert curly_L(1, 5) == ones_fmp(1, 5)
    p = 7
    half = pow(2, p - 2, p)
    assert curly_L(2, p) == ones_fmp(1, p) * ones_fmp(1, p) * half
    p = 11
    sixth = pow(6, p - 2, p)
    assert curly_L(3, p) == ones_fmp(1, p) * ones_fmp(1, p) * ones_fmp(1, p) * sixth


@pytest.mark.parametrize("n,p", [(1, 5), (2, 7), (3, 7), (4, 11), (5, 11)])
def test_functional_equation(n, p):
    assert functional_eq_residual(n, p).is_zero


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 1009])
def test_functional_eq_matches_direct_form(p):
    for n in range(1, min(6, p - 1) + 1):
        assert functional_eq_residual(n, p) == functional_eq_direct(n, p), n


# Consistent perturbations of the chain values: (index, S as a function of p,
# smallest depth with a nonzero residual).  The first changes the depth-1
# polylog and so every deeper one, which makes K and M_2, M_3, ... nonzero;
# the second changes window 2 of (1,2), so f_3 and M_n for n >= 3, and
# leaves K zero.
_CHAIN_BUMPS = {
    "(1) at S=2": ((1,), lambda q: 2, 1),
    "(1,2) at S=p+1": ((1, 2), lambda q: q + 1, 3),
}


@pytest.mark.parametrize("bump", list(_CHAIN_BUMPS))
@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 1009])
def test_functional_eq_matches_direct_form_perturbed(p, bump, monkeypatch, fresh_memos):
    parts, position, first = _CHAIN_BUMPS[bump]
    _bump_chain_values(monkeypatch, (parts,), position)
    depths = range(1, min(6, p - 1) + 1)
    for n in depths:
        assert functional_eq_residual(n, p) == functional_eq_direct(n, p), n
    nonzero = [n for n in depths if not functional_eq_residual(n, p).is_zero]
    assert nonzero == list(range(first, depths[-1] + 1))
    assert [n for n in depths if not main_theorem_residual(n, p).is_zero] == [
        n for n in nonzero if n > 1
    ]
    assert kontsevich_residual(p).is_zero == (parts != (1,))


def _assert_symmetry_differences_match_direct(p, depths):
    for n in depths:
        assert ones_symmetry_difference(n, p) == ones_symmetry_difference_direct(n, p), n
    for n in (3, 4):
        assert ss._corollary_residual(n, p) == corollary_direct(n, p), n


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 1009])
def test_symmetry_difference_matches_direct(p):
    # Every all-ones polylog of depth below p - 1 is symmetric; the one of
    # depth p - 1 (p = 5 and 7 here) is not.
    depths = range(1, min(p - 1, 7) + 1)
    _assert_symmetry_differences_match_direct(p, depths)
    nonzero = [n for n in depths if not ones_symmetry_difference(n, p).is_zero]
    assert nonzero == [n for n in depths if n == p - 1]


# Chain bumps for the symmetry difference: (index, S as a function of p,
# smallest depth with a nonzero main-theorem residual).  A bump of (1)
# changes the depth-1 polylog, so K and every deeper polylog and its
# difference; one of (1,2) or (1,1,1,2) changes a window of f_3 or f_5 and
# no all-ones polylog, so the windows' and M_n's differences must cancel.
_SYMMETRY_BUMPS = {
    "(1) at S=2": ((1,), lambda q: 2, 2),
    "(1) at S=p-1": ((1,), lambda q: q - 1, 2),
    "(1,2) at S=p+1": ((1, 2), lambda q: q + 1, 3),
    "(1,1,1,2) at S=2p+3": ((1, 1, 1, 2), lambda q: 2 * q + 3, 5),
}


@pytest.mark.parametrize("bump", list(_SYMMETRY_BUMPS))
@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 1009])
def test_symmetry_difference_matches_direct_perturbed(p, bump, monkeypatch, fresh_memos):
    parts, position, first = _SYMMETRY_BUMPS[bump]
    _bump_chain_values(monkeypatch, (parts,), position)
    depths = range(1, min(p - 1, 7) + 1)
    _assert_symmetry_differences_match_direct(p, depths)
    nonzero = [n for n in depths if not ones_symmetry_difference(n, p).is_zero]
    assert nonzero == [n for n in depths if parts == (1,) or n == p - 1]
    assert [n for n in depths if not main_theorem_residual(n, p).is_zero] == [
        n for n in depths if n >= first
    ]


@pytest.mark.parametrize("n,p", [(1, 7), (2, 7), (3, 11), (4, 11)])
def test_direct_symmetry_low_depth(n, p):
    f = ones_fmp(n, p)
    assert compose_one_minus_t(f) == f


# --- depth-5 story ---------------------------------------------------------------
#
# The depth-5 all-ones polylog is t <-> 1-t symmetric, window 2 of (1,1,1,2)
# is -2 B_{p-5}, and the obstruction residual is minus the advertised closed
# form: acceptance criteria 5b, 5c and 6d check these at every prime in
# 7..199.  The residual vanishes only where B_{p-5} does (p = 37 below 199,
# the classical irregular pair (37, 32)).


def test_obstruction_vanishes_at_irregular_prime():
    assert bernoulli_mod(32, 37).value == 0
    assert obstruction_n5_residual(37).is_zero


def test_obstruction_guard():
    with pytest.raises(ValueError, match="requires p >= 7, got 5"):
        obstruction_n5_residual(5)
    with pytest.raises(ValueError, match="requires p >= 7, got 5"):
        closed_form_residuals(5)


# --- worked closed forms ----------------------------------------------------------


_CLOSED_FORM_NOTES = [
    "closed-form {'n': 3}",
    "closed-form {'n': 4}",
    "closed-form-f4-factorization {}",
    "closed-form {'n': 5}",
]


@pytest.mark.parametrize("p", [7, 11, 13])
def test_closed_forms_all_pass(p):
    pairs = closed_form_residuals(p)
    assert [note for note, _ in pairs] == _CLOSED_FORM_NOTES
    assert all(residual.is_zero for _, residual in pairs)


@pytest.mark.parametrize("p", [7, 11, 13, 101, 1009])
def test_closed_forms_match_direct_form(p):
    assert closed_form_residuals(p) == closed_forms_direct(p)


# Chain-value bumps and the closed forms they break.  A bump of (1) or (1,1)
# reaches every deeper all-ones polylog and the chain of (1,1,2) in f_4, so
# every note; one of (1,1,1) leaves the chains of f_3 and f_4 alone; one in
# window 2 of (1,2) changes f_3 and f_4 alike, so only the depth-5 form,
# whose tail holds f_3, sees it.
_CLOSED_FORM_BUMPS = {
    "(1) at S=2": ((1,), lambda q: 2, (0, 1, 2, 3)),
    "(1,1) at S=p+1": ((1, 1), lambda q: q + 1, (0, 1, 2, 3)),
    "(1,1,1) at S=p+1": ((1, 1, 1), lambda q: q + 1, (0, 1, 3)),
    "(1,2) at S=p+1": ((1, 2), lambda q: q + 1, (3,)),
}


@pytest.mark.parametrize("bump", list(_CLOSED_FORM_BUMPS))
@pytest.mark.parametrize("p", [7, 11, 13, 101, 1009])
def test_closed_forms_match_direct_form_perturbed(p, bump, monkeypatch, fresh_memos):
    parts, position, broken = _CLOSED_FORM_BUMPS[bump]
    _bump_chain_values(monkeypatch, (parts,), position)
    pairs = closed_form_residuals(p)
    assert pairs == closed_forms_direct(p)
    assert [note for note, r in pairs if not r.is_zero] == [_CLOSED_FORM_NOTES[i] for i in broken]
