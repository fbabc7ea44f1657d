"""Error types and the frozen value base shared across the package."""

from operator import attrgetter


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed the configured element cap.

    ``phase`` names the refused step (``"closure"``, ``"enumeration"``,
    ``"determinant"``, ``"scan"`` or ``"factorization"``), ``needed`` the size
    it would have reached and ``cap`` the limit that size is above; only
    :mod:`genuskit.matrices` raises ``"determinant"``, for a Laplace plan.
    When ``lower_bound`` is true, ``needed`` is only a lower bound on that
    size: the step was refused before the size itself was known, as a
    subring closure is as soon as its span passes the cap.
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


class Frozen:
    """An immutable value whose fields are its ``__slots__``.

    Instances of one class are equal, and hash alike, when their field
    tuples are; assignment and deletion raise AttributeError, and pickle and
    copy rebuild an instance as ``cls(*fields)``.  The shared ``__init__``
    takes the fields by position or keyword, fills the missing ones from
    ``_defaults`` and then calls ``_validate``.  A class built on a hot path
    defines its own ``__init__`` and sets its fields with
    ``object.__setattr__``, as the shared one makes every construction
    several times slower; one hashed and compared in bulk also spells out
    ``__eq__`` and ``__hash__`` on its field tuple.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names) or not set(kwargs) <= set(names[len(args):]):
            raise TypeError(f"{type(self).__name__}() takes the fields {names}")
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        for name in names:
            if name not in values:
                raise TypeError(f"{type(self).__name__} is missing the field {name!r}")
            object.__setattr__(self, name, values[name])
        self._validate()

    def _validate(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen value")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen value")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
