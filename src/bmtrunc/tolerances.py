"""Every tolerance, stop rule and scale floor bmtrunc applies, in one table.

Each entry is one rule.  Its comment gives the scale it is multiplied by
(or compared against), the places that apply it, and the test that pins
it: the test fails when the entry is moved by a factor of ten either way,
or, for the two floors, when the floor is dropped.  Values and the
expressions that use them are those each rule had in its own module, so
every certificate, stationary vector and printed number is bit for bit what
it was.

Algorithm constants are not tolerances and stay with their algorithms:
the beta grid (`bmap.GRID_POINTS`, `GRID_PART`, its 1 + 1e-6 and
0.999 r_D ends), `bmap.K_CAP`, `BETA_CAP`, `POWER_ITERS`, `DENSE_GRID_D`
and `solve.GROUP_STATES`.
"""

# Conservativity: a row sum that should vanish, or a rate that should be
# nonnegative, may miss by TAU_CONS times its scale.  Scales: max(1, largest
# |entry|) for a BMAP's phase generator (`BmapQueueModel`), a stochastic
# kernel's rows (`order.is_block_monotone_stochastic`, absolute for its
# signs) and `phase_generator`'s level rows; the largest absolute row sum,
# floored at SCALE_FLOOR, in `validate_q_matrix`; max(1, largest |entry|)
# times the number of states for a truncation's corner (`truncate._truncate`).
# Pinned by tests/test_tolerances.py::test_conservativity_tolerance.
TAU_CONS = 1e-10

# Ordering: every dominance or monotonicity check (`order._scan`) forgives a
# shortfall of TAU_ORD times the largest finite entry it compared, at least
# 1.  It is the default of every check's `tol` and of `bmtrunc sweep --tol`.
# Pinned by tests/test_tolerances.py::test_ordering_tolerance.
TAU_ORD = 1e-12

# Drift: row k of Qv <= -c v + b 1(k <= K) may exceed 0 by DRIFT_TOL times
# max(1, c max v(k), b) (`bounds.drift_check`, exact rows and the slack law).
# Pinned by tests/test_tolerances.py::test_drift_tolerance.
DRIFT_TOL = 1e-10

# Invariant-vector residual: a computed Perron pair, or a stationary
# vector, is accepted when its residual is at most RESIDUAL times the
# scale of its matrix: max |Dhat(z)|, floored at SCALE_FLOOR, for the
# Perron pairs of `spectral` and `_power_perron`; max(1, max |diag Q|) for
# x Q in `solve.stationary` and `solve_truncation`.  The contract alone
# stops both power iterations: each stops at the first step where both
# residuals pass.  `spectral` forms its Rayleigh quotient, and evaluates
# them, only at steps where free lower bounds, less a rounding margin from
# d times the scale (`bmap._rounding_margin`), are within it; `_power_perron`
# checks the right one at every step and the left one where the right passes.
# Pinned by tests/test_tolerances.py::test_residual_contract.
RESIDUAL = 1e-12

# GTH pivot: an elimination pivot at most PIVOT_FLOOR times
# max(1, max |diag Q|) means no path back down: the chain is reducible.
# Pinned by tests/test_tolerances.py::test_pivot_floor.
PIVOT_FLOOR = 1e-14

# Weights: a weight profile u (`bounds.GeometricVector`) or weight vector
# (`solve.v_norm`) must be >= 1; an entry down to WEIGHT_FLOOR passes.
# Absolute: weights are scaled to minimum 1.
# Pinned by tests/test_tolerances.py::test_weight_floor.
WEIGHT_FLOOR = 1.0 - 1e-12

# Redistribution weights of a custom truncation must sum to 1 within
# WEIGHT_SUM_TOL, absolute (`truncate._check_weights`).
# Pinned by tests/test_tolerances.py::test_weight_sum_tolerance.
WEIGHT_SUM_TOL = 1e-12

# Uniformization: the Poisson series of exp(Gt) is cut once the mass left
# falls below POISSON_TAIL, absolute (`solve.transition_matrix`'s default
# `tol` and `transient_decay_check`).
# Pinned by tests/test_tolerances.py::test_poisson_tail.
POISSON_TAIL = 1e-12

# Leaks: in `truncate.check_no_closed_classes_above`, a frozen diagonal
# block's entry counts as a transition, and a row sum as a leak out of its
# level, above LEAK_TOL times max(1, largest |entry| of the block).
# Pinned by tests/test_tolerances.py::test_leak_tolerance.
LEAK_TOL = 1e-12

# Tail ratios: in `order._tail_beyond` a left geometric tail decays slower
# than the right one when its ratio exceeds the right one's by more than
# RATIO_TOL, absolute (ratios lie in (0, 1)).
# Pinned by tests/test_tolerances.py::test_ratio_tolerance.
RATIO_TOL = 1e-15

# Closed-form minimizer: `bmap.bound_pipeline` notes on the report a
# closed-form theta that differs from the generic one by more than
# THETA_AGREEMENT times max(1, |theta|).
# Pinned by tests/test_tolerances.py::test_theta_agreement.
THETA_AGREEMENT = 1e-9

# Scale floor: a scale that a tolerance or a residual is multiplied or
# divided by is raised to at least SCALE_FLOOR, so that an all-zero matrix
# gives a positive scale: max |Dhat(z)| in `spectral` and `_power_perron`,
# the row scale of `validate_q_matrix`.
# Pinned by tests/test_tolerances.py::test_scale_floor.
SCALE_FLOOR = 1e-300

# Edges: a rate of a BMAP's phase generator counts as a transition for its
# irreducibility check when it exceeds EDGE_FLOOR, absolute.
# Pinned by tests/test_tolerances.py::test_edge_floor.
EDGE_FLOOR = 1e-300
