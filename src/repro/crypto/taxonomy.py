"""The encryption-class taxonomy of Figure 1, as an executable artefact.

Figure 1 of the paper arranges the property-preserving encryption classes on
security levels (higher is better) with subclass arrows::

    level 3 (most secure):  PROB      HOM  (HOM -> PROB)
    level 2:                DET       JOIN (JOIN is a usage mode of DET)
    level 1 (least secure): OPE       JOIN-OPE (OPE -> DET, JOIN-OPE -> JOIN)

Definition 6 ("appropriate encryption class") selects, among the classes that
ensure a given equivalence notion, one with the *highest possible security*
according to this taxonomy.  :class:`EncryptionTaxonomy` encodes the levels
and subclass edges (as a transitively closed relation) and provides exactly that
selection primitive, plus the comparisons the security-assessment step and
the experiments need.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.crypto.base import EncryptionClass
from repro.exceptions import TaxonomyError

#: Security level per class; higher numbers mean "more secure" (Figure 1 rows).
SECURITY_LEVELS: dict[EncryptionClass, int] = {
    EncryptionClass.PROB: 3,
    EncryptionClass.HOM: 3,
    EncryptionClass.DET: 2,
    EncryptionClass.JOIN: 2,
    EncryptionClass.OPE: 1,
    EncryptionClass.JOIN_OPE: 1,
    EncryptionClass.PLAIN: 0,
}

#: What an adversary holding only ciphertexts of a class can do with them.
#: This "revealed capability" view refines the coarse level ranking: within a
#: level the paper declines to rank classes, but a class whose capability set
#: is a strict subset of another's reveals strictly less (e.g. PROB vs HOM —
#: the basis of the "via CryptDB, except HOM" security argument).
REVEALED_CAPABILITIES: dict[EncryptionClass, frozenset[str]] = {
    EncryptionClass.PROB: frozenset(),
    EncryptionClass.HOM: frozenset({"addition"}),
    EncryptionClass.DET: frozenset({"equality"}),
    EncryptionClass.JOIN: frozenset({"equality", "cross-column equality"}),
    EncryptionClass.OPE: frozenset({"equality", "order"}),
    EncryptionClass.JOIN_OPE: frozenset({"equality", "cross-column equality", "order"}),
    EncryptionClass.PLAIN: frozenset({"equality", "order", "addition", "plaintext"}),
}

#: Subclass edges (child, parent): child is a subclass / usage mode of parent.
SUBCLASS_EDGES: tuple[tuple[EncryptionClass, EncryptionClass], ...] = (
    (EncryptionClass.HOM, EncryptionClass.PROB),
    (EncryptionClass.OPE, EncryptionClass.DET),
    (EncryptionClass.JOIN, EncryptionClass.DET),
    (EncryptionClass.JOIN_OPE, EncryptionClass.JOIN),
    (EncryptionClass.JOIN_OPE, EncryptionClass.OPE),
)


class EncryptionTaxonomy:
    """Security levels and subclass relation over encryption classes."""

    def __init__(
        self,
        levels: dict[EncryptionClass, int] | None = None,
        subclass_edges: Iterable[tuple[EncryptionClass, EncryptionClass]] | None = None,
    ) -> None:
        self._levels = dict(SECURITY_LEVELS if levels is None else levels)
        edges = tuple(SUBCLASS_EDGES if subclass_edges is None else subclass_edges)
        parents: dict[EncryptionClass, set[EncryptionClass]] = {c: set() for c in self._levels}
        for child, parent in edges:
            if child not in self._levels or parent not in self._levels:
                raise TaxonomyError(f"subclass edge {child} -> {parent} uses unknown class")
            parents[child].add(parent)
        strictly_above = {c: _reachable(parents, c) for c in parents}
        if any(c in above for c, above in strictly_above.items()):
            raise TaxonomyError("subclass relation must be acyclic")
        #: Reflexive-transitive closure: each class's superclasses, itself included.
        self._above = {c: above | {c} for c, above in strictly_above.items()}

    # -- structure ----------------------------------------------------------- #

    @property
    def classes(self) -> tuple[EncryptionClass, ...]:
        """All classes known to the taxonomy."""
        return tuple(self._levels)

    def security_level(self, encryption_class: EncryptionClass) -> int:
        """The security level (Figure 1 row) of ``encryption_class``."""
        try:
            return self._levels[encryption_class]
        except KeyError:
            raise TaxonomyError(f"unknown encryption class {encryption_class}") from None

    def is_subclass(self, child: EncryptionClass, parent: EncryptionClass) -> bool:
        """True if ``child`` is (transitively) a subclass/usage mode of ``parent``."""
        if child == parent:
            return True
        return parent in self.superclasses(child)

    def superclasses(self, encryption_class: EncryptionClass) -> frozenset[EncryptionClass]:
        """All classes that ``encryption_class`` is a subclass of (including itself)."""
        try:
            return self._above[encryption_class]
        except KeyError:
            raise TaxonomyError(f"unknown encryption class {encryption_class}") from None

    def subclasses(self, encryption_class: EncryptionClass) -> frozenset[EncryptionClass]:
        """All subclasses of ``encryption_class`` (including itself)."""
        self.superclasses(encryption_class)  # rejects an unknown class
        return frozenset(
            other for other, above in self._above.items() if encryption_class in above
        )

    # -- comparisons ---------------------------------------------------------- #

    def more_secure(self, a: EncryptionClass, b: EncryptionClass) -> bool:
        """True if class ``a`` sits on a strictly higher security level than ``b``.

        Classes on the same level are incomparable ("a security ranking is
        not possible", Section II-2), so this is a strict partial order on
        levels.
        """
        return self.security_level(a) > self.security_level(b)

    def at_least_as_secure(self, a: EncryptionClass, b: EncryptionClass) -> bool:
        """True if ``a``'s level is greater than or equal to ``b``'s."""
        return self.security_level(a) >= self.security_level(b)

    def revealed_capabilities(self, encryption_class: EncryptionClass) -> frozenset[str]:
        """The operations an adversary can perform on ciphertexts of this class."""
        try:
            return REVEALED_CAPABILITIES[encryption_class]
        except KeyError:
            raise TaxonomyError(f"unknown encryption class {encryption_class}") from None

    def reveals_strictly_less(self, a: EncryptionClass, b: EncryptionClass) -> bool:
        """True if ``a`` reveals strictly less to an adversary than ``b``.

        Holds when ``a`` sits on a strictly higher security level, or when the
        two are on the same level but ``a``'s revealed-capability set is a
        strict subset of ``b``'s (e.g. PROB reveals strictly less than HOM).
        """
        if self.more_secure(a, b):
            return True
        if self.security_level(a) != self.security_level(b):
            return False
        capabilities_a = self.revealed_capabilities(a)
        capabilities_b = self.revealed_capabilities(b)
        return capabilities_a < capabilities_b

    def most_secure(self, candidates: Iterable[EncryptionClass]) -> list[EncryptionClass]:
        """Return the candidates with the maximal security level.

        This is the core of Definition 6: among the classes that ensure an
        equivalence notion, the appropriate ones are those providing the
        highest possible security.  Several classes can tie (e.g. PROB and
        HOM), in which case all of them are returned and the caller picks by
        secondary criteria (functionality needed by the query workload).
        """
        candidate_list = list(candidates)
        if not candidate_list:
            raise TaxonomyError("cannot pick the most secure class from an empty set")
        best = max(self.security_level(c) for c in candidate_list)
        return [c for c in candidate_list if self.security_level(c) == best]

    def to_figure(self) -> str:
        """Render the taxonomy as the text diagram of Figure 1."""
        by_level: dict[int, list[EncryptionClass]] = {}
        for encryption_class, level in self._levels.items():
            if encryption_class is EncryptionClass.PLAIN:
                continue
            by_level.setdefault(level, []).append(encryption_class)
        lines = ["security (higher is better)"]
        for level in sorted(by_level, reverse=True):
            names = "   ".join(sorted(c.value for c in by_level[level]))
            lines.append(f"  level {level}:  {names}")
        lines.append("subclass edges: " + ", ".join(
            f"{child.value} -> {parent.value}" for child, parent in SUBCLASS_EDGES
        ))
        return "\n".join(lines)


def _reachable(
    parents: dict[EncryptionClass, set[EncryptionClass]], start: EncryptionClass
) -> frozenset[EncryptionClass]:
    """Every class reachable from ``start`` along subclass edges.

    ``start`` itself is included only when the edges form a cycle through it.
    """
    seen: set[EncryptionClass] = set()
    stack = list(parents[start])
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(parents[node])
    return frozenset(seen)


_DEFAULT = EncryptionTaxonomy()


def default_taxonomy() -> EncryptionTaxonomy:
    """Return the shared default taxonomy instance (Figure 1 as published)."""
    return _DEFAULT
