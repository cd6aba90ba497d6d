"""Service signatures, access patterns, and schemas (paper Section 3.1).

Each service ``s`` is equipped with a signature ``s^alpha(A1, ..., An)``
where ``n`` is the arity, each ``Ai`` is an *abstract domain* (a named
type such as ``City`` or ``Date``), and ``alpha`` is a set of feasible
*access patterns*.  An access pattern is a string over ``{'i', 'o'}`` of
length ``n``: position ``k`` is an input argument if the k-th symbol is
``'i'`` and an output argument otherwise.

The module also implements the *cogency* preorder between access
patterns used by the "bound is better" heuristic (Section 4.1.1):
``a1`` is *more cogent* than ``a2`` (written ``a1 ⊑IO a2`` in the
paper) when every field marked input in ``a2`` is also input in ``a1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


class SchemaError(ValueError):
    """Raised for malformed signatures, patterns, or schema lookups."""


@dataclass(frozen=True, slots=True)
class AccessPattern:
    """An i/o adornment for a service signature.

    >>> p = AccessPattern("iooio")
    >>> p.input_positions
    (0, 3)
    >>> p.output_positions
    (1, 2, 4)
    """

    code: str
    #: Zero-based positions of input (bound) arguments.
    input_positions: tuple[int, ...] = field(
        init=False, repr=False, compare=False
    )
    #: Zero-based positions of output (free) arguments.
    output_positions: tuple[int, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.code:
            raise SchemaError("access pattern must be non-empty")
        bad = set(self.code) - {"i", "o"}
        if bad:
            raise SchemaError(
                f"access pattern may only contain 'i' and 'o', got {self.code!r}"
            )
        # Derived from ``code`` once: the optimizer asks for them on
        # every callability check and plan build.
        for name, symbol in (("input_positions", "i"), ("output_positions", "o")):
            object.__setattr__(
                self, name, tuple(k for k, c in enumerate(self.code) if c == symbol)
            )

    @property
    def arity(self) -> int:
        """Number of arguments the pattern adorns."""
        return len(self.code)

    def is_input(self, position: int) -> bool:
        """True if *position* is an input argument under this pattern."""
        return self.code[position] == "i"

    def is_more_cogent_than(self, other: "AccessPattern") -> bool:
        """The ⊑IO relation: every input of *other* is an input of self.

        Note this is reflexive: a pattern is more cogent than itself.
        """
        if self.arity != other.arity:
            raise SchemaError(
                f"cannot compare patterns of different arity: {self.code} vs {other.code}"
            )
        return all(self.code[k] == "i" for k in other.input_positions)

    def is_strictly_more_cogent_than(self, other: "AccessPattern") -> bool:
        """The ≺IO relation: ⊑IO holds one way but not the other."""
        return self.is_more_cogent_than(other) and not other.is_more_cogent_than(self)

    def __str__(self) -> str:
        return self.code


@dataclass(frozen=True)
class ServiceSignature:
    """The interface of a service: name, abstract domains, patterns.

    ``domains[k]`` names the abstract domain of the k-th argument; the
    paper uses these to detect "off-query" services that can seed input
    fields of the same domain (Section 7).
    """

    name: str
    domains: tuple[str, ...]
    patterns: tuple[AccessPattern, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("service name must be non-empty")
        if not self.patterns:
            raise SchemaError(f"service {self.name!r} must have at least one pattern")
        for pattern in self.patterns:
            if pattern.arity != self.arity:
                raise SchemaError(
                    f"pattern {pattern.code!r} has arity {pattern.arity}, "
                    f"but service {self.name!r} has arity {self.arity}"
                )
        if len(set(p.code for p in self.patterns)) != len(self.patterns):
            raise SchemaError(f"duplicate access patterns for service {self.name!r}")

    @property
    def arity(self) -> int:
        """Number of arguments of the service."""
        return len(self.domains)

    def pattern(self, code: str) -> AccessPattern:
        """Return the feasible pattern with the given code.

        Raises :class:`SchemaError` if the pattern is not feasible for
        this service.
        """
        for candidate in self.patterns:
            if candidate.code == code:
                return candidate
        raise SchemaError(f"service {self.name!r} has no access pattern {code!r}")

    def most_cogent_patterns(self) -> tuple[AccessPattern, ...]:
        """Feasible patterns that are maximal under the cogency order."""
        result = []
        for candidate in self.patterns:
            dominated = any(
                other.is_strictly_more_cogent_than(candidate)
                for other in self.patterns
            )
            if not dominated:
                result.append(candidate)
        return tuple(result)

    def domain_of(self, position: int) -> str:
        """Abstract domain name of the argument at *position*."""
        return self.domains[position]

    def describe(self) -> str:
        """Human-readable rendering, e.g. ``conf{ioooo,ooooi}(Topic, ...)``."""
        codes = ",".join(p.code for p in self.patterns)
        args = ", ".join(self.domains)
        return f"{self.name}{{{codes}}}({args})"


def signature(
    name: str,
    domains: Iterable[str],
    patterns: Iterable[str],
) -> ServiceSignature:
    """Convenience constructor from plain strings.

    >>> sig = signature("conf", ["Topic", "Name", "Start", "End", "City"],
    ...                 ["ioooo", "ooooi"])
    >>> sig.arity
    5
    """
    return ServiceSignature(
        name=name,
        domains=tuple(domains),
        patterns=tuple(AccessPattern(code) for code in patterns),
    )


@dataclass
class Schema:
    """A set of service signatures, indexed by service name."""

    _signatures: dict[str, ServiceSignature] = field(default_factory=dict)

    def add(self, sig: ServiceSignature) -> None:
        """Register a signature; names must be unique."""
        if sig.name in self._signatures:
            raise SchemaError(f"duplicate service {sig.name!r} in schema")
        self._signatures[sig.name] = sig

    def get(self, name: str) -> ServiceSignature:
        """Look up the signature of service *name*."""
        try:
            return self._signatures[name]
        except KeyError:
            raise SchemaError(f"unknown service {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._signatures

    def __iter__(self) -> Iterator[ServiceSignature]:
        return iter(self._signatures.values())

    def __len__(self) -> int:
        return len(self._signatures)

    @property
    def names(self) -> tuple[str, ...]:
        """Names of all registered services, in insertion order."""
        return tuple(self._signatures)

    def services_outputting_domain(self, domain: str) -> tuple[ServiceSignature, ...]:
        """Signatures having *domain* in an output position of some pattern.

        Used by off-query expansion (Section 7) to find services whose
        outputs can seed input fields of the same abstract domain.
        """
        found = []
        for sig in self:
            for pattern in sig.patterns:
                if any(sig.domains[k] == domain for k in pattern.output_positions):
                    found.append(sig)
                    break
        return tuple(found)


def schema_of(signatures: Iterable[ServiceSignature]) -> Schema:
    """Build a :class:`Schema` from an iterable of signatures."""
    result = Schema()
    for sig in signatures:
        result.add(sig)
    return result
