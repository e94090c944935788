"""One resolve surface for every named-policy registry in the system.

The serving layer grew three parallel registry APIs — schedulers, cluster
routers and admission controllers in :mod:`repro.serving.policies` — next
to the retrieval layer's selection-policy registry
(:func:`repro.retrieval.registry.make_policy`). Each had its own
normalization, aliasing, listing and error spelling. This module folds
them behind one uniform surface::

    from repro.serving import registry

    registry.available("router")            # ("least_loaded", ...)
    registry.resolve("scheduler", "FIFO")   # "fcfs"
    router = registry.make("router", "prefix_affinity", stickiness_tokens=16)
    policy = registry.make("policy", "quest", model, budget=256)

Uniform guarantees, for every kind:

- **aliasing** is case-, dash- and underscore-insensitive, and resolves
  to the *display-preserving* canonical name (``prefix_affinity`` stays
  ``prefix_affinity``, never a squashed ``prefixaffinity``);
- **listing** via :func:`available` returns the sorted canonical names;
- **unknown names** raise a *typed* error — :class:`UnknownSchedulerError`,
  :class:`UnknownRouterError`, :class:`UnknownAdmissionError` (all
  ``KeyError`` subclasses carrying ``.name`` and ``.available``) or the
  existing :class:`repro.api.errors.UnknownPolicyError` — with the same
  ``unknown <kind> <name>; available: [...]`` message shape throughout.

Builders register themselves with the ``SCHEDULERS`` / ``ROUTERS`` /
``ADMISSIONS`` ``.register(name, *aliases)`` decorators
(:mod:`repro.serving.policies` holds the built-in ones).
"""

from __future__ import annotations

from typing import Callable


class UnknownNameError(KeyError):
    """An unrecognized registry name; carries what *would* have worked.

    ``KeyError`` ancestry keeps every pre-existing ``except KeyError``
    and ``pytest.raises(KeyError)`` working; the typed subclasses let new
    call sites catch exactly the registry they resolved against.
    """

    kind = "name"

    def __init__(self, name: str, available: tuple[str, ...]):
        self.name = name
        self.available = tuple(available)
        super().__init__(
            f"unknown {self.kind} {name!r}; available: {list(self.available)}"
        )

    def __str__(self) -> str:  # KeyError.__str__ repr()s its arg; undo that
        return self.args[0]


class UnknownSchedulerError(UnknownNameError):
    """No scheduler policy is registered under this name."""

    kind = "scheduler"


class UnknownRouterError(UnknownNameError):
    """No cluster router is registered under this name."""

    kind = "router"


class UnknownAdmissionError(UnknownNameError):
    """No admission controller is registered under this name."""

    kind = "admission policy"


def normalize(name: str) -> str:
    """Alias-lookup key: lowercase, dashes/underscores/spaces stripped."""
    return name.strip().lower().replace("-", "").replace("_", "")


class Registry:
    """One named-builder registry: display-preserving names plus aliases.

    ``register`` is a decorator factory adding a builder under a
    canonical (display) name and any number of aliases; ``resolve`` maps
    any alias spelling back to the canonical name or raises the
    registry's typed error; ``make`` resolves and calls the builder.
    """

    def __init__(self, kind: str, error_cls: type[UnknownNameError]):
        self.kind = kind
        self._error_cls = error_cls
        self._builders: dict[str, Callable] = {}
        self._lookup: dict[str, str] = {}

    def register(self, name: str, *aliases: str) -> Callable:
        def deco(builder: Callable) -> Callable:
            if name in self._builders:
                raise ValueError(f"duplicate {self.kind} name {name!r}")
            self._builders[name] = builder
            for alias in (name, *aliases):
                self._lookup[normalize(alias)] = name
            return builder

        return deco

    def available(self) -> tuple[str, ...]:
        """Canonical names, sorted."""
        return tuple(sorted(self._builders))

    def resolve(self, name: str) -> str:
        """Canonical name for ``name`` (alias- and case-insensitive)."""
        key = self._lookup.get(normalize(name))
        if key is None:
            raise self._error_cls(name, self.available())
        return key

    def make(self, name: str, *args, **opts):
        """Build the entry registered under ``name``.

        ``opts`` are forwarded to the builder; builders reject options
        they do not understand (a misspelled knob must not silently fall
        back to defaults).
        """
        return self._builders[self.resolve(name)](*args, **opts)


SCHEDULERS = Registry("scheduler", UnknownSchedulerError)
ROUTERS = Registry("router", UnknownRouterError)
ADMISSIONS = Registry("admission policy", UnknownAdmissionError)

_KINDS = {
    "scheduler": SCHEDULERS,
    "router": ROUTERS,
    "admission": ADMISSIONS,
}


def _ensure_loaded() -> None:
    # Builders register at policies-import time; the import lives here
    # (not at module top) because policies imports this module for the
    # Registry instances — the lazy direction breaks the cycle.
    import repro.serving.policies  # noqa: F401


def _registry(kind: str) -> Registry:
    _ensure_loaded()
    try:
        return _KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown registry kind {kind!r}; "
            f"available: {sorted(_KINDS)} + ['policy']"
        ) from None


def available(kind: str) -> tuple[str, ...]:
    """Sorted canonical names registered under ``kind``.

    Kinds: ``"scheduler"``, ``"router"``, ``"admission"`` (serving) and
    ``"policy"`` (retrieval selection policies).
    """
    if kind == "policy":
        from repro.retrieval.registry import available_policies

        return available_policies()
    return _registry(kind).available()


def resolve(kind: str, name: str) -> str:
    """Canonical name for ``name`` within ``kind``; typed error if unknown."""
    if kind == "policy":
        from repro.retrieval.registry import resolve_policy_name

        return resolve_policy_name(name)
    return _registry(kind).resolve(name)


def make(kind: str, name: str, *args, **opts):
    """Resolve ``name`` within ``kind`` and build it with ``opts``."""
    if kind == "policy":
        from repro.retrieval.registry import make_policy

        return make_policy(name, *args, **opts)
    return _registry(kind).make(name, *args, **opts)
