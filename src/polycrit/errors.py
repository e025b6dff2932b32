"""Exception types distinguished by the CLI exit-code contract."""


class NumericalError(RuntimeError):
    """An iterative kernel failed to converge, or a computed quantity
    landed in a numerically impossible state."""


class GenerationCapExceeded(RuntimeError):
    """Rejection sampling exhausted its attempt budget."""


class PreconditionsUnmet(ValueError):
    """A hypothesis of a checked result does not hold: the message is the
    reason, ``evidence`` the ``(name, value)`` pairs that show it."""

    def __init__(self, reason: str, evidence=()):
        super().__init__(reason)
        self.evidence = tuple(evidence)
