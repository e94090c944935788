"""One named-builder registry for every kind of name the system resolves.

Selection policies (:data:`repro.retrieval.registry.POLICIES`), schedulers,
cluster routers and admission controllers
(:data:`repro.serving.policies.SCHEDULERS` / ``ROUTERS`` / ``ADMISSIONS``)
are each one :class:`Registry`::

    ROUTERS.available()                       # ("least_loaded", ...)
    SCHEDULERS.resolve("FIFO")                # "fcfs"
    router = ROUTERS.make("prefix_affinity", stickiness_tokens=16)

Uniform guarantees, for every registry:

- **aliasing** is case-, dash- and underscore-insensitive, and resolves
  to the *display-preserving* canonical name (``prefix_affinity`` stays
  ``prefix_affinity``, never a squashed ``prefixaffinity``);
- **listing** via :meth:`Registry.available` returns the sorted canonical
  names;
- **unknown names** raise the registry's typed :class:`UnknownNameError`
  subclass (a ``KeyError`` carrying ``.name`` and ``.available``) with the
  message ``unknown <kind> '<name>'; available: [...]``.
"""

from __future__ import annotations

from typing import Callable


class UnknownNameError(KeyError):
    """An unrecognized registry name; carries what *would* have worked.

    ``KeyError`` ancestry keeps every ``except KeyError`` working; the
    typed subclasses let call sites catch exactly the registry they
    resolved against. Pickles by name and choices, so it survives the
    worker pipe of a multiprocess executor.
    """

    kind = "name"

    def __init__(self, name: str, available: tuple[str, ...]):
        self.name = name
        self.available = tuple(available)
        super().__init__(
            f"unknown {self.kind} {name!r}; available: {list(self.available)}"
        )

    def __reduce__(self):
        return type(self), (self.name, self.available)

    def __str__(self) -> str:  # KeyError.__str__ repr()s its arg; undo that
        return self.args[0]


def normalize(name: str) -> str:
    """Alias-lookup key: lowercase, dashes/underscores/spaces stripped."""
    return name.strip().lower().replace("-", "").replace("_", "")


class Registry:
    """Display-preserving canonical names plus aliases, one builder each.

    ``register`` is a decorator factory adding a builder under a
    canonical (display) name and any number of aliases; ``resolve`` maps
    any alias spelling back to the canonical name or raises the
    registry's typed error; ``make`` resolves and calls the builder.
    """

    def __init__(self, error_cls: type[UnknownNameError]):
        self._error_cls = error_cls
        self._builders: dict[str, Callable] = {}
        self._lookup: dict[str, str] = {}

    def register(self, name: str, *aliases: str) -> Callable:
        def deco(builder: Callable) -> Callable:
            if name in self._builders:
                raise ValueError(
                    f"duplicate {self._error_cls.kind} name {name!r}"
                )
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
