"""The filtered reference for ``admissible_normal_forms``, shared by the
tests."""

import itertools

from qtoric.quasitoric import CharPair, validate


def filtered_admissible_pairs(n, m, bound):
    """Every pair with entries in [-bound, bound] that passes ``validate``,
    one per entry multiset with a and b each sorted descending, listed by a
    and then b in descending lexicographic order, found by filtering all
    pairs.  Their normal forms are what ``admissible_normal_forms`` builds
    directly."""
    values = sorted(range(-bound, bound + 1), reverse=True)
    for a in itertools.combinations_with_replacement(values, m):
        for b in itertools.combinations_with_replacement(values, n):
            cp = CharPair(n, m, a, b)
            if validate(cp):
                yield cp
