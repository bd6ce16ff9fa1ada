"""Run configuration: resource caps and output options."""

from __future__ import annotations

from dataclasses import dataclass

FORMATS = ("json", "csv", "pretty")


class CapExceeded(RuntimeError):
    """A configured resource cap would be exceeded; the run is aborted loudly."""

    def __init__(self, what: str, needed: int, cap: int, setting: str):
        super().__init__(f"{what}: needed {needed}, cap {cap} ({setting})")
        self.what = what
        self.needed = needed
        self.cap = cap
        self.setting = setting


@dataclass(frozen=True)
class RunConfig:
    """Caps are in units of table entries / matrix side / search nodes.

    For cone lattice counts, max_enum_nodes bounds the DP states expanded
    (not the points counted) and max_table_entries the states of one DP
    layer; a `cones` run also counts its levels against max_table_entries.
    """

    max_table_entries: int = 5_000_000
    max_matrix_dim: int = 100_000
    max_enum_nodes: int = 100_000_000
    fmt: str = "pretty"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("max_table_entries", "max_matrix_dim", "max_enum_nodes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.fmt not in FORMATS:
            raise ValueError(f"format must be one of {', '.join(FORMATS)}")

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
