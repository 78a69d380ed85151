"""Exact finite multiple polylogarithms over (Z/pZ)[t].

Computes the chain-sum polylogs, their window-sliced zeta variants, and the
strict-chain polylogs, and verifies — prime by prime over configurable
ranges — the shuffle lemma, the factorial formula for all-ones indices, the
t <-> 1-t functional equations, and the conversion between the two polylog
families.  All arithmetic is exact; every identity check is a polynomial
residual that must vanish.
"""

__version__ = "0.1.0"
