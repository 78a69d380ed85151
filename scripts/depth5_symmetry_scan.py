#!/usr/bin/env python3
"""Prime-by-prime scan of the depth-5 t <-> 1-t story.

For each prime this prints B_{p-5}, the four window slices of the index
(1,1,1,2), whether the depth-5 all-ones polylog is fixed by t -> 1-t, and
whether the advertised closed form (B_{p-5}/5) t^p (1-t^p)(2t^p-1) matches
the actual difference.  Empirically the difference is identically zero and
the window-2 slice is -2*B_{p-5}, so the closed form only matches where
B_{p-5} vanishes mod p (irregular pairs; p = 37 below 199).

    python scripts/depth5_symmetry_scan.py --primes 7..199
"""

import argparse
import sys

from fmplib.cli import parse_prime_range
from fmplib.fmp import Index, zeta_variant
from fmplib.identities import depth5_symmetry_difference, obstruction_n5_closed_form
from fmplib.modular import bernoulli_mod, primes_in


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--primes", type=parse_prime_range, default="7..199", help="range LO..HI")
    lo, hi = ap.parse_args(argv).primes

    idx = Index.of(1, 1, 1, 2)
    law_holds_everywhere = True
    closed_form_matches = []
    print(f"{'p':>5} {'B(p-5)':>7} {'w1':>6} {'w2':>6} {'w3':>6} {'w4':>6}  "
          f"{'w2=-2B':>7} {'sym':>4} {'closed':>7}")
    for p in (q for q in primes_in(lo, hi) if q >= 7):
        b = bernoulli_mod(p - 5, p).value
        w = [zeta_variant(idx, i, p).value for i in (1, 2, 3, 4)]
        law = w[1] == (-2 * b) % p
        law_holds_everywhere &= law
        diff = depth5_symmetry_difference(p)
        symmetric = diff.is_zero
        closed = (diff - obstruction_n5_closed_form(b, p)).is_zero
        if closed:
            closed_form_matches.append(p)
        print(f"{p:>5} {b:>7} {w[0]:>6} {w[1]:>6} {w[2]:>6} {w[3]:>6}  "
              f"{str(law):>7} {('yes' if symmetric else 'NO'):>4} "
              f"{('match' if closed else 'off'):>7}")

    print()
    print("window-2 slice equals -2*B_{p-5} at every prime:", law_holds_everywhere)
    print("primes where the closed form matches the difference:", closed_form_matches)
    return 0


if __name__ == "__main__":
    sys.exit(main())
