"""The scenario registry: named recipes, resolvable like backends.

A recipe is a factory ``(backend, seed, quick) -> ScenarioRun`` plus the
metadata reports and CLIs need (name, one-line summary). Registration
mirrors the membership-backend registry: claiming a taken name with a
different factory is an error, the built-ins load lazily so importing
the registry does not execute every recipe module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.errors import ConfigurationError


@dataclass
class ScenarioRun:
    """One finished recipe execution.

    The :class:`~repro.workloads.builder.ScenarioBuilder` that scripted
    the run carries the finished network and the ground truth it recorded
    while scripting (initial members, window start, crash/leave/join
    instants), so the QoS engine can judge views against the truth.
    """

    #: The builder the recipe scripted through.
    scenario: object
    #: Recipe-specific facts worth reporting (babble frames, storm
    #: windows, injected-fault counts, ...). Plain data only.
    detail: Dict[str, object] = field(default_factory=dict)


RecipeFactory = Callable[[str, int, bool], ScenarioRun]


@dataclass(frozen=True)
class ScenarioRecipe:
    """One named catalog entry."""

    name: str
    summary: str
    factory: RecipeFactory

    def build(self, backend: str = "canely", seed: int = 0,
              quick: bool = False) -> ScenarioRun:
        """Execute the recipe and return the finished run."""
        return self.factory(backend, seed, quick)


#: name -> recipe. Built-ins register on first catalog query.
_REGISTRY: Dict[str, ScenarioRecipe] = {}
_BUILTINS_LOADED = False


def register_recipe(entry: ScenarioRecipe) -> None:
    """Add ``entry`` to the catalog under its name.

    Re-registering the identical recipe is a no-op; claiming a taken
    name with a different recipe is an error (names are CLI values and
    report labels).
    """
    if not entry.name:
        raise ConfigurationError(f"scenario recipe {entry!r} has no name")
    taken = _REGISTRY.get(entry.name)
    if taken is not None and taken is not entry:
        raise ConfigurationError(
            f"scenario name {entry.name!r} is already registered"
        )
    _REGISTRY[entry.name] = entry


def recipe(name: str, summary: str) -> Callable[[RecipeFactory], RecipeFactory]:
    """Decorator form of :func:`register_recipe` for recipe modules."""

    def register(factory: RecipeFactory) -> RecipeFactory:
        register_recipe(ScenarioRecipe(name=name, summary=summary,
                                       factory=factory))
        return factory

    return register


def _load_builtins() -> None:
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        import repro.scenarios.recipes  # noqa: F401  (registers on import)


def scenario_names() -> List[str]:
    """The registered scenario names, sorted."""
    _load_builtins()
    return sorted(_REGISTRY)


def resolve_recipe(name: str) -> ScenarioRecipe:
    """Resolve a catalog name to its recipe."""
    _load_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; catalog: {scenario_names()}"
        ) from None
