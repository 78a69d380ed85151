"""Identity residuals: error-term polynomials, shuffle lemma, factorial
formula, functional equations, and the depth-5 closed forms."""

import itertools

import pytest

from fmplib.fmp import Index, naive_reference, naive_reference_general, BlockTriple, oy_fmp, zeta_variant
from fmplib.identities import (
    FactorialNotInvertible,
    closed_form_residuals,
    curly_L,
    f_poly,
    functional_eq_residual,
    g_poly,
    main_theorem_residual,
    obstruction_n5_residual,
    ones_fmp,
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
    tp = PolyFp.monomial(p, p)
    one_minus_t_pow_p = PolyFp.of(p, [1, -1]) ** p
    assert f_poly(3, p) == tp * one_minus_t_pow_p * z12


@pytest.mark.parametrize("p", [7, 11])
def test_f4_factorizes(p):
    assert f_poly(4, p) == f_poly(3, p) * ones_fmp(1, p)


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
    f0 = naive_reference_general(BlockTriple.of((1,), (1,), ()), p)
    f1 = naive_reference_general(BlockTriple.of((), (1,), (1,)), p)
    a0 = spike(p, {1: brute_zeta((2,), 1, p)})
    assert f0 == f1 + naive_reference(Index.ones(2), p) - a0
    assert recurrence_residual(2, 0, p).is_zero


def test_recurrence_n3_oracle_path():
    p = 7
    f1 = naive_reference_general(BlockTriple.of((1,), (1,), (1,)), p)
    f2 = naive_reference_general(BlockTriple.of((), (1,), (1, 1)), p)
    a1 = spike(p, {1: brute_zeta((2,), 1, p)}) * naive_reference(Index.of(1), p)
    assert f1 == f2 + naive_reference(Index.ones(3), p) - a1
    assert recurrence_residual(3, 1, p).is_zero


@pytest.mark.parametrize("n,k,p", [(4, 0, 11), (4, 1, 11), (4, 2, 11), (3, 0, 13)])
def test_recurrence_dp_path(n, k, p):
    assert recurrence_residual(n, k, p).is_zero


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
    with pytest.raises(FactorialNotInvertible):
        main_theorem_residual(5, 5)
    with pytest.raises(FactorialNotInvertible):
        main_theorem_residual(7, 7)


def test_curly_l_small():
    assert curly_L(1, 5) == ones_fmp(1, 5)
    p = 7
    half = pow(2, p - 2, p)
    assert curly_L(2, p) == ones_fmp(1, p) ** 2 * half
    p = 11
    sixth = pow(6, p - 2, p)
    assert curly_L(3, p) == ones_fmp(1, p) ** 3 * sixth


@pytest.mark.parametrize("n,p", [(1, 5), (2, 7), (3, 7), (4, 11), (5, 11)])
def test_functional_equation(n, p):
    assert functional_eq_residual(n, p).is_zero


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
    with pytest.raises(ValueError):
        obstruction_n5_residual(5)


# --- worked closed forms ----------------------------------------------------------


@pytest.mark.parametrize("p", [7, 11, 13])
def test_closed_forms_all_pass(p):
    pairs = closed_form_residuals(p)
    assert [note for note, _ in pairs] == [
        "closed-form {'n': 3}",
        "closed-form {'n': 4}",
        "closed-form-f4-factorization {}",
        "closed-form {'n': 5}",
    ]
    assert all(residual.is_zero for _, residual in pairs)
