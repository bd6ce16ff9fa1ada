"""Exact Schur-functor decompositions of plethysms and Veronese syzygies.

Everything is computed in exact integer or rational arithmetic.  The main
entry points are:

* :mod:`veroschur.characters` -- Schur decompositions of tensor, symmetric
  and exterior powers of symmetric powers, and of weight tables,
* :mod:`veroschur.syzygy` -- syzygy functors, by Green's rules where they
  apply,
* :mod:`veroschur.koszul` -- the Koszul complex and its per-weight ranks,
  the basis search for every other spec,
* :mod:`veroschur.cones` -- lattice-point counts on the two cone sections
  that govern complexity and total multiplicity (integer inequalities with
  closed-form slice bounds, no linear programming),
* :mod:`veroschur.constructions` -- explicit subfunctor constructions and
  pattern censuses,
* :mod:`veroschur.verify` -- the named check suites and the ratio experiments,
* :mod:`veroschur.cli` -- the command line interface.
"""

from veroschur.config import CapExceeded, RunConfig

__all__ = ["CapExceeded", "RunConfig"]
__version__ = "0.1.0"
