"""Run configuration: resource caps and output options, and Record, the
one base of the validated records: a plain __slots__ class, because a
dataclass costs every fresh process the import of inspect and a compiled
__init__, __eq__ and __repr__ per class.

A record whose __init__ validates its arguments subclasses Record; a
record that validates nothing is a NamedTuple."""

from __future__ import annotations

FORMATS = ("json", "csv", "pretty")


class CapExceeded(RuntimeError):
    """A configured resource cap would be exceeded; the run is aborted loudly."""

    def __init__(self, what: str, needed: int, cap: int, setting: str):
        super().__init__(f"{what}: needed {needed}, cap {cap} ({setting})")
        self.what = what
        self.needed = needed
        self.cap = cap
        self.setting = setting


class Record:
    """A frozen record over the fields named in __slots__: its __init__
    validates the arguments and stores them with _freeze.  It compares
    equal only to a record of the same class with the same values, has a
    dataclass's repr, and is hashable when its values are."""

    __slots__ = ()

    def _freeze(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{k}={getattr(self, k)!r}"
                            for k in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class RunConfig(Record):
    """Caps are in units of table entries / matrix side / search nodes.

    For cone lattice counts, max_enum_nodes bounds the DP states expanded
    (not the points it counts) and max_table_entries the states of one DP
    layer; a `cones` run also counts its levels against max_table_entries.
    """

    __slots__ = ("max_table_entries", "max_matrix_dim", "max_enum_nodes",
                 "fmt", "seed")

    def __init__(self, max_table_entries: int = 5_000_000,
                 max_matrix_dim: int = 100_000,
                 max_enum_nodes: int = 100_000_000, fmt: str = "pretty",
                 seed: int = 0) -> None:
        values = (max_table_entries, max_matrix_dim, max_enum_nodes, fmt, seed)
        for name, value in zip(self.__slots__[:3], values):
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        if fmt not in FORMATS:
            raise ValueError(f"format must be one of {', '.join(FORMATS)}")
        self._freeze(*values)

    def replace(self, **changes: object) -> RunConfig:
        """A copy with the given fields changed, validated as a new one."""
        return RunConfig(**{**dict(zip(self.__slots__, self._values())),
                            **changes})

    def check_table(self, needed: int, what: str) -> None:
        if needed > self.max_table_entries:
            raise CapExceeded(what, needed, self.max_table_entries,
                              "max_table_entries")

    def check_matrix(self, needed: int) -> None:
        if needed > self.max_matrix_dim:
            raise CapExceeded("matrix dimension", needed, self.max_matrix_dim,
                              "max_matrix_dim")

    def check_nodes(self, needed: int, what: str = "enumeration nodes") -> None:
        if needed > self.max_enum_nodes:
            raise CapExceeded(what, needed, self.max_enum_nodes,
                              "max_enum_nodes")


DEFAULT_CONFIG = RunConfig()
