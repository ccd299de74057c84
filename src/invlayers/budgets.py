"""Default size caps for enumerative computations.

Every cap can be overridden per call.  The command-line interface also
reads overrides from environment variables (``INVLAYERS_<FIELD>`` with the
field name upper-cased, e.g. ``INVLAYERS_TUPLE_ENUMERATION``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Budgets:
    # Max number of k-tuples (n**k) walked by orbit enumeration.
    tuple_enumeration: int = 10_000_000
    # Max group order materialised by closure.
    closure_cap: int = 100_000
    # Max tensor order / number of node types for descriptor enumeration.
    axis_cap: int = 8
    type_cap: int = 8
    # Largest modulus for which the Davenport constant is certified by
    # exhaustive search (beyond this a witness-only certificate is given).
    davenport_exhaustive_max_d: int = 4
    # Max monomial count per degree in invariant-ring rank computations.
    monomials_per_degree: int = 2_000_000

    @classmethod
    def from_env(cls) -> "Budgets":
        """The defaults, overridden by the environment; ValueError on a bad value."""
        overrides = {}
        for f in fields(cls):
            name = "INVLAYERS_" + f.name.upper()
            raw = os.environ.get(name)
            if raw is not None:
                if not raw.strip().isdecimal():
                    raise ValueError(f"{name} must be a non-negative integer, got {raw!r}")
                overrides[f.name] = int(raw)
        return cls(**overrides)


DEFAULT = Budgets()
