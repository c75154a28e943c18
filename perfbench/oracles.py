"""Frozen reference values the benchmark checks every op against.

They are copies of the constants in ``tests/test_acceptance.py`` (the
self-tests assert that the two stay equal) and are never loosened.  Tuples
run from M = 6 (or S = 6) down to 0, as in the acceptance tests.
"""

IRREP_CENSUS = {
    "A1g": (0, 0, 3, 14, 35, 56, 70),
    "A2g": (1, 2, 9, 24, 50, 76, 90),
    "E2g": (0, 2, 12, 36, 85, 132, 156),
    "B1u": (0, 1, 5, 19, 40, 66, 76),
    "B2u": (0, 1, 5, 19, 40, 66, 76),
    "E1u": (0, 2, 10, 36, 80, 132, 150),
}
MULTIPLET_CENSUS = {
    "A1g": (0, 0, 3, 11, 21, 21, 14),
    "A2g": (1, 1, 7, 15, 26, 26, 14),
    "E2g": (0, 2, 10, 24, 49, 47, 24),
    "B1u": (0, 1, 4, 14, 21, 26, 10),
    "B2u": (0, 1, 4, 14, 21, 26, 10),
    "E1u": (0, 2, 8, 26, 44, 52, 18),
}
IRREP_DIMS = {"A1g": 1, "A2g": 1, "E2g": 2, "B1u": 1, "B2u": 1, "E1u": 2}
SUPPORT_XI_XXZ = (1, 2, 9, 24, 50, 76, 48)
SUPPORT_CHI_HEISENBERG = (1, 2, 9, 24, 50, 76, 90)
FREQUENCIES_XI_XXZ_M0 = 1128
FREQUENCIES_CHI_HEISENBERG_M0 = 4005

HISTOGRAM_XXZ_FERRO = {1: 312, 2: 838, 4: 527}
HISTOGRAM_HEISENBERG = {
    1: 48, 2: 42, 3: 99, 5: 89, 6: 99, 7: 54, 9: 18,
    10: 93, 11: 3, 13: 1, 14: 50, 18: 18, 22: 4,
}

CROSSOVER_ALPHA6 = (-0.49, -0.48)   # open interval
REFINE_TOL = 1e-6                    # ground_state_scan's default bracket width
ISING_DEGENERACY = {1: 730, -1: 2}
ISING_GROUND_ENERGY_FERRO_SIGN = -6  # jz_sign = +1

N_STATES = 4096
GEOMETRY_ROWS = 12 + 24              # sites plus group elements
SCHMIDT_CUTS = 2047

# Tolerances of the checks, all as in the acceptance tests.
ENERGY_TOL = 1e-10        # ferromagnet energy against Jz * total coupling
PROB_TOL = 1e-10          # conservation, class equality, return probability
EXACT_FLOAT_REL = 1e-12   # rational entry against the float matrix, times max|H|
LABEL_TOL = 1e-6          # integer rounding of summed irrep weights
