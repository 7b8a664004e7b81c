"""Published reference values used for cross-validation.

This module is pure data.  It holds the rounded constants of the published
reference tables (group estimate constants, total-collision inequality
columns) together with the catalog of vertex sequences that define the
certified loop classes.  Validation code recomputes every quantity from
scratch and compares against these entries cell by cell; deviations are
reported rather than silently absorbed.
"""

from dataclasses import dataclass

TWO_PI = 6.283185307179586


@dataclass(frozen=True)
class CatalogEntry:
    """One published loop class: vertex labels plus its stated invariants.

    labels repeat the starting vertex at the end, matching the published
    listing.  k2 is None for the tetrahedral entries, where a single edge
    type is reported.  alpha is the potential exponent the class is
    certified at.
    """

    tag: str
    name: str
    labels: tuple
    M: int
    k1: int
    k2: int
    alpha: float

    @property
    def steps(self):
        return len(self.labels) - 1


LOOP_CATALOG = (
    CatalogEntry("T", "nu1", (1, 5, 2, 6, 11, 3, 12, 9, 1), 2, 8, None, 1.0),
    CatalogEntry("T", "nu2", (1, 5, 8, 3, 12, 4, 9, 7, 1), 2, 8, None, 1.0),
    CatalogEntry("T", "nu3", (1, 5, 8, 3, 10, 11, 3, 12, 4, 9, 12, 8, 1), 3, 12, None, 1.0),
    CatalogEntry("T", "nu4", (1, 7, 6, 2, 7, 9, 12, 4, 9, 1, 5, 8, 1), 3, 12, None, 1.7),
    CatalogEntry("T", "nu5", (1, 9, 7, 2, 5, 1, 7, 2, 10, 5, 1, 7, 2, 5, 1), 2, 14, None, 1.85),
    CatalogEntry(
        "T", "nu6",
        (1, 9, 4, 12, 9, 4, 12, 9, 7, 2, 10, 3, 11, 10, 3, 11, 10, 5, 1),
        2, 18, None, 1.86,
    ),
    CatalogEntry("O", "nu1", (1, 3, 7, 20, 24, 12, 4, 9, 2, 5, 1), 2, 4, 6, 1.0),
    CatalogEntry("O", "nu2", (1, 3, 8, 18, 13, 12, 4, 9, 2, 19, 11, 14, 1), 2, 4, 8, 1.0),
    CatalogEntry("O", "nu3", (1, 3, 7, 20, 18, 8, 15, 4, 6, 10, 16, 5, 1), 3, 6, 6, 1.0),
    CatalogEntry("O", "nu4", (1, 3, 8, 15, 4, 9, 2, 5, 1), 4, 4, 4, 1.0),
    CatalogEntry("O", "nu5", (1, 3, 10, 8, 15, 6, 4, 9, 22, 2, 5, 16, 1), 4, 8, 4, 1.0),
    CatalogEntry(
        "O", "nu6",
        (1, 3, 8, 10, 3, 7, 20, 18, 7, 14, 11, 23, 14, 1, 16, 5, 1),
        4, 12, 2, 1.6,
    ),
    CatalogEntry("O", "nu7", (1, 14, 7, 20, 23, 14, 7, 3, 1, 16, 10, 3, 1), 2, 4, 8, 1.7),
    CatalogEntry(
        "O", "nu8",
        (1, 14, 7, 20, 23, 14, 7, 3, 1, 14, 7, 3, 1, 16, 10, 3, 1, 14, 7, 3, 1),
        2, 4, 16, 1.8,
    ),
    CatalogEntry(
        "O", "nu9",
        (1, 16, 22, 6, 10, 16, 5, 1, 3, 7, 14, 1, 16, 5, 11, 19, 2, 5, 1),
        3, 6, 12, 1.75,
    ),
    CatalogEntry(
        "I", "nu1",
        (1, 3, 6, 11, 48, 15, 25, 26, 33, 47, 7, 12, 52, 59, 54, 50, 1),
        2, 6, 10, 1.0,
    ),
    CatalogEntry(
        "I", "nu2",
        (1, 3, 59, 54, 51, 36, 35, 46, 10, 17, 57, 56, 60, 5, 4, 8, 14, 24, 38,
         34, 48, 28, 11, 19, 1),
        3, 9, 15, 1.0,
    ),
    CatalogEntry(
        "I", "nu3",
        (1, 3, 7, 12, 21, 39, 30, 44, 2, 4, 8, 20, 31, 45, 19, 1),
        5, 5, 10, 1.0,
    ),
    CatalogEntry(
        "I", "nu4",
        (1, 3, 59, 7, 3, 6, 47, 15, 6, 11, 48, 28, 11, 19, 45, 43, 19, 1, 50, 54, 1),
        5, 15, 5, 1.0,
    ),
)


def catalog_rows(tag):
    """All catalog entries for one group tag, in published order."""
    rows = tuple(e for e in LOOP_CATALOG if e.tag == tag)
    if not rows:
        raise ValueError(f"no catalog entries for tag {tag!r}")
    return rows


def catalog_entry(tag, name):
    for e in LOOP_CATALOG:
        if e.tag == tag and e.name == name:
            return e
    raise ValueError(f"no catalog entry {tag!r}/{name!r}")


# Rounded per-group constants: collision-arc distances delta_1/delta_2, the
# segment integrals zeta_{1,i}, and the chord ratio 8/(4 - ell^2).  The T
# chord ratio is 8/3 truncated to five decimals; the O and I chord ratios
# disagree with their closed forms beyond rounding and are recorded in
# GROUP_CONSTANT_DEVIATIONS.
GROUP_CONSTANTS = {
    "delta_1": {"T": 0.35740, "O": 0.35740, "I": 0.36230},
    "delta_2": {"T": 0.35740, "O": 0.50544, "I": 0.22391},
    "zeta_1_0": {"T": 2.19722, "O": 2.09234, "I": 2.03446},
    "zeta_1_1": {"T": 9.50838, "O": 20.32244, "I": 53.99031},
    "zeta_1_2": {"T": 9.50838, "O": 19.73994, "I": 52.57615},
    "chord_ratio": {"T": 2.66666, "O": 2.29297, "I": 2.10560},
}

# Cells of GROUP_CONSTANTS, keyed by (constant, tag), that differ from the
# recomputed value by more than five-decimal rounding, with the reason.
GROUP_CONSTANT_DEVIATIONS = {
    ("chord_ratio", "O"): (
        "the rhombicuboctahedron has ell^2 = 4/(5 + 2 sqrt 2), so 8/(4 - ell^2) "
        "= 3 - sqrt(2)/2 = 2.2928932; the printed 2.29297 is off by 7.7e-5, and "
        "the chord_sum column of O nu6-nu9 divides back to it (27.5157/12 = "
        "2.292975), so the tables carry the misprinted value throughout"
    ),
    ("chord_ratio", "I"): (
        "the rhombicosidodecahedron has ell^2 = 4/(11 + 4 sqrt 5), so "
        "8/(4 - ell^2) = (11 + 4 sqrt 5)/(5 + 2 sqrt 5) = 2.1055728; the printed "
        "2.10560 is off by 2.7e-5, and no alpha > 1 row uses the icosahedral "
        "chord_sum, so no other printed cell shows which value was used"
    ),
}

# Total-collision inequality columns for the alpha = 1 classes:
# (k1*zeta_11 + k2*zeta_12, 2*pi*M*U0/ell, (k1+k2)*zeta_10, 4*pi*M/ell).
ALPHA1_BOUND_COLUMNS = ("zeta_sum", "zeta_sum_bound", "zeta0_sum", "zeta0_sum_bound")
ALPHA1_BOUNDS = {
    ("T", "nu1"): (76.6704, 80.0636, 17.5776, 25.1327),
    ("T", "nu2"): (76.6704, 80.0636, 17.5776, 25.1327),
    ("T", "nu3"): (115.0056, 120.0954, 26.3664, 37.6991),
    ("O", "nu1"): (199.7300, 253.2198, 20.9230, 35.1556),
    ("O", "nu2"): (239.2100, 253.2198, 25.1076, 35.1556),
    ("O", "nu3"): (240.3750, 379.8298, 25.1076, 53.7334),
    ("O", "nu4"): (160.2500, 506.4397, 16.7384, 70.3112),
    ("O", "nu5"): (241.5400, 506.4397, 25.1076, 70.3112),
    ("I", "nu1"): (849.7033, 1151.4, 32.5513, 56.1123),
    ("I", "nu2"): (1274.5550, 1727.1, 48.8270, 84.1685),
    ("I", "nu3"): (795.7130, 2878.5, 30.5169, 140.2809),
    ("I", "nu4"): (1072.7354, 2878.5, 40.6892, 140.2809),
}

# Total-collision inequality columns for the alpha in (1,2) classes:
# (k1*zeta_11/delta_1 + k2*zeta_12/delta_2, C*U_alpha0, 8*(k1+k2)/(4-ell^2), C).
ALPHA_GT1_BOUND_COLUMNS = ("weighted_zeta_sum", "weighted_bound", "chord_sum", "chord_bound")
ALPHA_GT1_BOUNDS = {
    ("T", "nu4"): (321.7840, 410.0057, 32.0000, 94.0390),
    ("T", "nu5"): (375.4147, 558.0238, 37.3333, 138.7856),
    ("T", "nu6"): (482.6760, 507.4591, 48.0000, 126.8925),
    ("O", "nu6"): (760.4405, 1588.5795, 32.1016, 143.9767),
    ("O", "nu7"): (539.8787, 882.2706, 27.5157, 83.5095),
    ("O", "nu8"): (852.3135, 1155.3966, 45.8595, 114.1789),
    ("O", "nu9"): (809.8181, 1779.5666, 41.2735, 172.1174),
}
