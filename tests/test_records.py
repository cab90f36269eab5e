"""The package's records: every subclass of buchi.Record refuses
assignment, with no class opting out."""

import importlib
import pkgutil

import buchi
from buchi import Record


def record_classes() -> list[type]:
    """Every Record subclass, at any depth, once every module is imported."""
    for module in pkgutil.walk_packages(buchi.__path__, "buchi."):
        importlib.import_module(module.name)
    found, todo = [], [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            found.append(cls)
            todo.append(cls)
    return found


def test_every_record_refuses_assignment():
    classes = record_classes()
    assert len(classes) >= 20
    mutable = [cls.__qualname__ for cls in classes
               if cls.__setattr__ is not Record.__setattr__
               or cls.__delattr__ is not Record.__delattr__]
    assert mutable == []
