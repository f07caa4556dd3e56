"""Every numerical threshold of the toolkit, named once.

All thresholds are absolute.  They fall into five roles: structural
identities that a validated object must satisfy, residuals of results
derived from validated inputs, decision margins that separate two verdicts,
cutoffs below which a number counts as zero, and the defaults of the
report-level ``tol`` arguments.  Only the report defaults can be overridden
at run time (``--tol`` or ``ONTOKIT_TOL`` on the command line, ``tol=`` in
the library); every other threshold is fixed here.
"""

# -- structural identities of validated objects ------------------------------

# Hermiticity, unit trace and spectra of density matrices and effects, Kraus
# sums, basis orthogonality, column sums of kernels, transfers and
# distributions, the frame sum, off-diagonal images of states and channels into C^k.
IDENTITY_TOL = 1e-9
# Range slack of weights, responses and kernel entries: a value within it of
# its allowed range counts as inside, so it sets SignedKernel.markov and
# Distribution.is_probability.
NONNEG_TOL = 1e-9
# Identities that hold up to rounding: frame conditions (Hermitian, unit trace, square,
# Gram, a commutative frame's diagonal), ket norms (of every basis too), image imaginary parts.
TIGHT_IDENTITY_TOL = 1e-10

# -- derived results ---------------------------------------------------------

# Compression-channel output residuals.
DERIVED_TOL = 1e-8
# Residuals (target weight 0, rest weight 1) of an anti-distinguishability
# certificate.
CERTIFICATE_TOL = 1e-7

# -- decision margins --------------------------------------------------------

# Anti-distinguishability is feasible once the greatest rest weight reaches
# 1 - FEAS_TOL.
FEAS_TOL = 1e-9
# classify_model: a catalogue overlap strictly inside (0, 1) and a
# variational distance below 1, each by this margin.
STRICT_MARGIN = 1e-9
# epistemic_report: the trace distance may exceed (n/2) l1 by this much.
DISTANCE_BOUND_MARGIN = 1e-9
# antidist_quantum_check: an assigned Born probability at most this never
# occurs.
NEVER_FIRES_TOL = 1e-9
# compression_channel: |<psi|phi>| must lie this far inside (0, 1).
OVERLAP_INTERIOR_MARGIN = 1e-10
# Compression power: overlap^n within this of 1/sqrt(2) passes.
POWER_MARGIN = 1e-12

# -- cutoffs -----------------------------------------------------------------

# A weight above SUPPORT_EPS is in the support; |weight| <= SUPPORT_EPS is
# read as zero by the anti-distinguishability decision.
SUPPORT_EPS = 1e-12
# preparation_channel, measurement_channel: an eigenpair of weight at most
# this gets no Kraus operator.
EIGEN_WEIGHT_EPS = 1e-14
# sampling: a Haar draw whose part orthogonal to psi has norm below this is
# redrawn.
DEGENERATE_DRAW_EPS = 1e-8

# -- report defaults (--tol and ONTOKIT_TOL override these) ------------------

# validate_model, maximal_predicates, `ontokit validate-model`.
MODEL_TOL = 1e-7
# check_operational_model, check_equivariance, monoidality_check,
# `ontokit wigner functor-check`.
FUNCTOR_TOL = 1e-8
# pbr_demo's exclusion verdict, `ontokit pbr-demo`.
PBR_TOL = 1e-8
# quantum-measure and decoherence validators, `ontokit qmeasure validate`.
QMEASURE_TOL = 1e-9
