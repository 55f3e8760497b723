"""Exception types, grouped by how the CLI maps them to exit codes."""


class BmtruncError(Exception):
    """Base class for all library errors."""


class InputError(BmtruncError):
    """Malformed input: bad model files, incompatible shapes, invalid specs."""


class CheckFailure(BmtruncError):
    """A validation or ordering check failed on well-formed input."""


class NumericalFailure(BmtruncError):
    """An algorithm could not produce a trustworthy result."""


class DimensionMismatch(InputError):
    pass


class IncompatibleModels(InputError):
    pass


class InvalidModelFile(InputError):
    pass


class InvalidRedistribution(InputError):
    pass


class TailSumUnavailable(InputError):
    pass


class InvalidBmap(InputError):
    pass


class KNotZero(InputError):
    pass


class NotStochastic(CheckFailure):
    pass


class NotConstantAcrossLevels(CheckFailure):
    pass


class DriftViolated(CheckFailure):
    """Drift inequality fails; carries the first failing state."""

    def __init__(self, level, phase, slack):
        self.level = level
        self.phase = phase
        self.slack = slack
        super().__init__(
            f"drift inequality violated at level {level}, phase {phase} (slack {slack:.3e})"
        )


class CertificateNotVerified(CheckFailure):
    pass


class FirstColumnUnreachable(CheckFailure):
    pass


class MultipleClosedClasses(NumericalFailure):
    pass


class NoConvergence(NumericalFailure):
    pass


class NoPositiveC(NumericalFailure):
    pass


class NoFeasibleK(NumericalFailure):
    pass


class DegenerateArrivals(NumericalFailure):
    pass
