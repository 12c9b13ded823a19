"""The cutoff-type contract: every public function that takes a cutoff or
a level reads it as an int, a "p/q" string or a Fraction alike.

Each call below gets one whole value in the three spellings: the int, a
"p/q" string with q = 2, and the Fraction.  The three results must be
equal, and every series among them must carry a Fraction cutoff, as
``as_ratio`` makes it.  A function that skips ``as_ratio`` and does
arithmetic on the raw argument fails here: a str has no numerator, and an
int would leave an int cutoff on the series.
"""

from fractions import Fraction as F

import pytest

from reebzeta import (FilteredComplex, MorseData, NovikovSeries, OrbitSet,
                      ToricDomain, barcode_decompose, ech_generators,
                      elliptic, euler_jump, good_orbit_count, homology_dims,
                      mobius_product, negative_hyperbolic,
                      positive_hyperbolic, s1_invariant_zeta, toric_euler,
                      toric_zeta, zeta_barcode, zeta_ech_form, zeta_exp_form,
                      zeta_good_orbits, zeta_persistence, zeta_product_form,
                      zeta_via_mobius)

ORBITS = OrbitSet([elliptic("e", F(1, 2)), positive_hyperbolic("h", F(2, 3)),
                   negative_hyperbolic("n", 1)])
COMPLEX = FilteredComplex(
    [("a", 0, F(1, 2)), ("b", 0, 1), ("c", 1, F(3, 2)), ("d", 1, 2)],
    [("c", "a", 1), ("c", "b", -1), ("d", "b", F(1, 2))])
BARCODE = barcode_decompose(COMPLEX)
SERIES = NovikovSeries({0: 1, F(1, 2): -2, F(5, 2): F(1, 3)}, 4)
GOOD = zeta_good_orbits(ORBITS, 4)
MORSE = MorseData([("min", F(1, 2), 0), ("sad", F(3, 2), 1),
                   ("max", 2, 2), ("min2", F(5, 2), 0)])
TORIC = ToricDomain(F(3, 2), 2)

# (name, call of the cutoff or level, whole value to spell three ways)
CALLS = [
    ("NovikovSeries", lambda c: NovikovSeries({F(1, 2): 1, 3: 2}, c), 2),
    ("NovikovSeries.zero", NovikovSeries.zero, 2),
    ("NovikovSeries.one", NovikovSeries.one, 2),
    ("NovikovSeries.truncate", SERIES.truncate, 3),
    ("NovikovSeries.coefficient", SERIES.coefficient, 0),
    ("zeta_exp_form", lambda c: zeta_exp_form(ORBITS, c), 3),
    ("zeta_product_form", lambda c: zeta_product_form(ORBITS, c), 3),
    ("zeta_ech_form", lambda c: zeta_ech_form(ORBITS, c), 3),
    ("ech_generators", lambda c: ech_generators(ORBITS, c), 3),
    ("zeta_good_orbits", lambda c: zeta_good_orbits(ORBITS, c), 3),
    ("good_orbit_count", lambda at: good_orbit_count(ORBITS, at), 1),
    ("mobius_product", lambda c: mobius_product(GOOD, c), 3),
    ("zeta_via_mobius", lambda c: zeta_via_mobius(ORBITS, c), 3),
    ("homology_dims", lambda level: homology_dims(COMPLEX, level), 1),
    ("Barcode.graded_dims", BARCODE.graded_dims, 1),
    ("euler_jump", lambda at: euler_jump(BARCODE, at), 2),
    ("zeta_barcode", lambda c: zeta_barcode(BARCODE, c), 2),
    ("zeta_persistence", lambda c: zeta_persistence(COMPLEX, c), 2),
    ("toric_zeta", lambda c: toric_zeta(TORIC, c), 5),
    ("toric_euler", lambda at: toric_euler(TORIC, at), 5),
    ("s1_invariant_zeta", lambda c: s1_invariant_zeta(MORSE, c), 3),
]


@pytest.mark.parametrize("call, value", [row[1:] for row in CALLS],
                         ids=[row[0] for row in CALLS])
def test_int_str_and_fraction_give_equal_results(call, value):
    results = [call(v) for v in (value, f"{2 * value}/2", F(value))]
    assert results[0] == results[1] == results[2]
    for result in results:
        if isinstance(result, NovikovSeries):
            assert type(result.cutoff) is F
