"""Exception hierarchy for the laboratory."""


class GaussBsdeError(Exception):
    """Base class for all package errors.  A check's refusal names in
    ``key`` the config key of its cause (``solver.n_time``,
    ``scenario.generator.kappa_z``, ..), which ``validate`` prints; any
    other error's ``key`` is None."""

    def __init__(self, *args, key: str | None = None):
        super().__init__(*args)
        self.key = key


# --- driver / clock ---------------------------------------------------------

class NonMonotoneVariance(GaussBsdeError):
    """A variance step on the clock grid is <= 0 (invalid covariance model)."""


class CholeskyFailure(GaussBsdeError):
    """Covariance matrix not numerically PSD, even after one jitter retry."""


class OutOfRange(GaussBsdeError):
    """Time or variance argument outside the admissible interval."""


# --- measures ---------------------------------------------------------------

class NonpositiveMass(GaussBsdeError):
    """Entropy functional of a test function with nonpositive total mass."""


# --- scenario DSL -----------------------------------------------------------

class ProbeViolation(GaussBsdeError):
    """Empirical Lipschitz ratio exceeds the symbolic constant (DSL bookkeeping bug)."""


class EmptyCloud(GaussBsdeError):
    """Particle cloud slice with no particles."""


# --- solver -----------------------------------------------------------------

class StepTooCoarse(GaussBsdeError, ValueError):
    """A grid step too coarse for the explicit scheme: max ds * L_f above 0.5,
    or ds * rho * kappa_y at 1 or more, where a node's law has no solution."""


class RegressionIllConditioned(GaussBsdeError):
    """Normal-equations condition estimate above 1e12 even with ridge."""


class DegenerateInterval(GaussBsdeError):
    """Variance clock does not move on the requested interval."""


class NonFiniteSolution(GaussBsdeError):
    """A backward sweep produced a non-finite value or regression coefficient,
    or a check's own arithmetic overflowed (a closed form, an entropy)."""


# --- Wick layer -------------------------------------------------------------

class DegenerateIncrement(GaussBsdeError):
    """Driver increment with zero variance."""


class GridMismatch(GaussBsdeError):
    """Paths and integrand are not on the same grid."""


# --- theorem checks ---------------------------------------------------------

class HypothesisUnsatisfied(GaussBsdeError):
    """A check refused to run because a theorem hypothesis fails on the inputs."""


class UnsupportedScenario(GaussBsdeError):
    """Scenario outside the closed-form family required by the check."""


# --- configuration / IO -----------------------------------------------------

class ConfigInvalid(GaussBsdeError):
    """Experiment configuration failed schema validation; message names the key."""


class IoFailure(GaussBsdeError):
    """A file of a run (report, series, manifest or log) could not be written."""
