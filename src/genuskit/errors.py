"""Error types shared across the package."""


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed the configured element cap.

    ``phase`` names the refused step (``"closure"``, ``"enumeration"``,
    ``"determinant"``, ``"scan"`` or ``"factorization"``), ``needed`` the size
    it would have reached and ``cap`` the limit that size is above.  When
    ``lower_bound`` is true, ``needed`` is only a lower bound on that size:
    the step was refused before the size itself was known.
    """

    def __init__(self, message: str, *, phase: str | None = None,
                 needed: int | None = None, cap: int | None = None,
                 lower_bound: bool = False):
        super().__init__(message)
        self.phase = phase
        self.needed = needed
        self.cap = cap
        self.lower_bound = lower_bound


class InternalInconsistencyError(RuntimeError):
    """A computed value violated an invariant that correct code cannot break."""
