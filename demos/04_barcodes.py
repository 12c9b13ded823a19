#!/usr/bin/env python3
"""Filtered chain complexes, barcodes, and the persistence zeta function.

The complex below has five generators; the differential pairs some of them
across the filtration, so homology classes are born and die as the level
rises.  The barcode records exactly those lifetimes, and the zeta function
records the signed jump of the Euler characteristic at each level.
"""

from fractions import Fraction as F

from reebzeta import (FilteredComplex, barcode_decompose, euler_jump,
                      homology_dims, zeta_barcode, zeta_persistence)

complex_ = FilteredComplex(
    generators=[
        ("cycle", 0, 1),        # even class born at 1 ...
        ("killer", 1, 2),       # ... killed at 2
        ("odd", 1, F(3, 2)),    # odd class born at 3/2, immortal
        ("u", 0, F(5, 2)),      # even pair with a basis-mixed boundary
        ("v", 1, 3),
    ],
    boundary=[
        ("killer", "cycle", 1),
        ("v", "u", F(2, 3)),
        ("v", "cycle", -1),     # extra entry; reduction clears it
    ],
)

print("graded homology dimensions by level (rank-nullity over Q):")
for level in (F(1, 2), 1, F(3, 2), 2, F(5, 2), 3):
    print(f"  level {str(level):>4}: dims {homology_dims(complex_, level)}")

barcode = barcode_decompose(complex_)
print()
print("barcode (normal form of the persistence module):")
for bar in barcode:
    death = "inf" if bar.death is None else str(bar.death)
    print(f"  [{bar.birth}, {death})  parity {bar.eps}")

print()
print("Euler characteristic jumps at each critical level:")
for level in (1, F(3, 2), 2, F(5, 2), 3):
    print(f"  level {str(level):>4}: jump {euler_jump(barcode, level):+d}")

print()
zeta = zeta_persistence(complex_, 4)
print("zeta of the persistence module:", zeta)
print("zeta of the barcode           :", zeta_barcode(barcode, 4))
assert zeta == zeta_barcode(barcode, 4)

print()
print("the barcode reconstructs every homology dimension:")
for level in (F(1, 2), 1, F(7, 4), F(11, 4)):
    assert barcode.graded_dims(level) == homology_dims(complex_, level)
    print(f"  level {str(level):>4}: barcode dims == rank oracle "
          f"{barcode.graded_dims(level)}")
