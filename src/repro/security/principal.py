"""Security principals.

A principal is the unit of trust in SeNDlog (Section 2.2): every node in the
network acts as (at least) one principal, rules execute within a principal's
context, and exported tuples are asserted by — and attributed to — a
principal via ``says``.

Section 4.5 of the paper additionally gives principals *security levels* so
that quantifiable provenance can compute the trust level of a derivation
(``max`` over alternative derivations of the ``min`` over joined facts).
Those levels live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

DEFAULT_SECURITY_LEVEL = 1


@dataclass(frozen=True)
class Principal:
    """A security principal.

    Attributes
    ----------
    name:
        Unique principal name; in the network experiments this is the node
        address.
    security_level:
        Trust level used by quantifiable provenance; larger is more trusted.
    """

    name: str
    security_level: int = DEFAULT_SECURITY_LEVEL

    def __str__(self) -> str:
        return self.name


class PrincipalRegistry:
    """Directory of principals and their security levels.

    The registry is the single source of truth the trust-management use case
    and the quantifiable-provenance evaluator consult when mapping a
    principal name to its level.
    """

    def __init__(self, default_level: int = DEFAULT_SECURITY_LEVEL) -> None:
        self._default_level = default_level
        self._principals: Dict[str, Principal] = {}
        #: Each provenance variable's one ``(name, 1)`` pair, shared by the
        #: derivation logs of every node given this registry
        #: (:class:`~repro.provenance.log.DerivationLog` ``pairs``).
        self.pairs: Dict[str, Tuple[str, int]] = {}

    def register(self, name: str, security_level: Optional[int] = None) -> Principal:
        """Register *name*, or update its security level when given."""
        existing = self._principals.get(name)
        if existing is not None and security_level is None:
            return existing
        principal = Principal(
            name=name,
            security_level=(
                security_level if security_level is not None else self._default_level
            ),
        )
        self._principals[name] = principal
        return principal

    def register_all(self, names: Iterable[str]) -> None:
        for name in names:
            self.register(name)

    def get(self, name: str) -> Principal:
        """Return the principal, registering it with the default level if unknown."""
        return self._principals.get(name) or self.register(name)

    def security_level(self, name: str) -> int:
        return self.get(name).security_level

    def __contains__(self, name: str) -> bool:
        return name in self._principals

    def __len__(self) -> int:
        return len(self._principals)

    def principals(self) -> Tuple[Principal, ...]:
        return tuple(self._principals.values())

    def names(self) -> Tuple[str, ...]:
        return tuple(self._principals)
