"""Exact-arithmetic dynamical zeta functions from Reeb orbit data,
persistence barcodes, and closed-form domain descriptions."""

from .novikov import NovikovSeries, as_ratio, exp, log
from .orbits import (EchGenerator, OrbitSet, SimpleOrbit, ech_generators,
                     elliptic, good_orbit_count, is_good, iterate_parity,
                     negative_hyperbolic, positive_hyperbolic, zeta_ech_form,
                     zeta_exp_form, zeta_good_orbits, zeta_product_form)
from .persistence import (Bar, Barcode, FilteredComplex, barcode_decompose,
                          euler_jump, homology_dims, zeta_barcode,
                          zeta_persistence)
from .mobius import mobius, mobius_product, zeta_via_mobius
from .domains import (MorseCriticalPoint, MorseData, ToricDomain,
                      distinguish_from_toric, s1_invariant_zeta, s1_orbit_set,
                      toric_euler, toric_orbit_set, toric_zeta)
from . import errors, serialize

__version__ = "0.1.0"

__all__ = [
    "NovikovSeries", "as_ratio", "exp", "log",
    "SimpleOrbit", "OrbitSet", "EchGenerator",
    "elliptic", "positive_hyperbolic", "negative_hyperbolic",
    "iterate_parity", "is_good",
    "zeta_exp_form", "zeta_product_form", "zeta_ech_form",
    "ech_generators", "good_orbit_count", "zeta_good_orbits",
    "FilteredComplex", "Bar", "Barcode", "homology_dims",
    "barcode_decompose", "euler_jump", "zeta_barcode", "zeta_persistence",
    "mobius", "mobius_product", "zeta_via_mobius",
    "ToricDomain", "MorseCriticalPoint", "MorseData", "toric_orbit_set",
    "toric_zeta", "toric_euler", "s1_orbit_set", "s1_invariant_zeta",
    "distinguish_from_toric",
    "errors", "serialize",
]
