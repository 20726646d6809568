"""Exception types shared by all nsdeg modules."""


class NsdegError(Exception):
    """Base class for every error raised by this library."""


class EmptyGenerators(NsdegError):
    """A generating set was empty."""


class GcdNotOne(NsdegError):
    """Generators do not generate a numerical semigroup (gcd > 1)."""

    def __init__(self, gcd: int):
        self.gcd = gcd
        super().__init__(f"gcd of generators is {gcd}, expected 1")


class Overflow(NsdegError):
    """A membership window would exceed the configured size bound."""


class FullSemigroup(NsdegError):
    """The operation is undefined for the full semigroup (the DVR case)."""


class AmbientMismatch(NsdegError):
    """Two ideals over different ambient semigroups were combined."""


class NotContained(NsdegError):
    """A containment F <= E required by a quotient length fails."""

    def __init__(self, witness: int):
        self.witness = witness
        super().__init__(f"containment fails: {witness} lies in the smaller set only")


class NotThreeGenerated(NsdegError):
    """The semigroup is not minimally generated by three elements."""


class SymmetricSemigroup(NsdegError):
    """The semigroup is symmetric (complete intersection case)."""


class NoValidOrientation(NsdegError):
    """No generator-to-variable assignment satisfies the exponent inequalities."""


class TooLarge(NsdegError):
    """An exhaustive enumeration was requested above its feasibility cap."""


class CapExceeded(NsdegError):
    """A sweep bound exceeds the hard cap."""


class InternalInvariantViolation(NsdegError):
    """A cross-check that must hold by theorem failed: implementation bug."""
