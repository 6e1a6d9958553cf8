"""Every annotation in ratapprox names something its module can resolve."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import typing

import ratapprox

MODULES = [importlib.import_module(f"ratapprox.{info.name}") for info in pkgutil.iter_modules(ratapprox.__path__)]


def test_the_annotations_of_every_function_and_class_resolve():
    unresolved = []
    for module in MODULES:
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == module.__name__:
                try:
                    typing.get_type_hints(obj)
                except NameError as exc:
                    unresolved.append(f"{module.__name__}.{name}: {exc}")
    assert not unresolved, "; ".join(unresolved)
