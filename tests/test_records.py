"""The value types the package returns.

Records that only carry fields are `typing.NamedTuple` classes; a frozen
dataclass is kept only for a type that checks its fields in `__post_init__`,
or for `Root`, which must not equal a plain tuple.  The reprs below are those
the records printed as frozen dataclasses.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import parabolics
from parabolics import (
    CensusQuery,
    LongRootSubsystem,
    Root,
    RootSystemType,
    anticanonical_character,
    fano_census,
    fibration_sequence,
    hasse_diagram,
    levi_components,
    normalize,
    p_sm,
    reduced_scheme,
    root_system,
    very_special_dual,
)

A2, B2 = root_system("A2"), root_system("B2")


def _normalized():
    P = parabolics.ParabolicScheme(B2, 2, (), {Root.of(1, 0): 2, Root.of(0, 1): 1,
                                               Root.of(1, 1): 1, Root.of(1, 2): 1})
    return normalize(P)


def _a1_query():
    return CensusQuery(RootSystemType.parse("A1"), 2, frozenset(), 1)


RECORDS = {
    "LongRootSubsystem": (
        lambda: LongRootSubsystem(roots=(Root((1,)),), basis=(Root((1,)),),
                                  subsystem_type=RootSystemType("A", 1)),
        "LongRootSubsystem(roots=(Root(coeffs=(1,)),), basis=(Root(coeffs=(1,)),), "
        "subsystem_type=RootSystemType(series='A', rank=1))",
    ),
    "LeviComponent": (
        lambda: levi_components(root_system("B3"), {2, 3})[0],
        "LeviComponent(rtype=RootSystemType(series='B', rank=2), index_map=(2, 3))",
    ),
    "KernelRecord": (
        lambda: _normalized().stripped[0],
        "KernelRecord(kind=<KernelKind.FROBENIUS: 'frobenius'>, m=1)",
    ),
    "NormalizationResult": (
        _normalized,
        "NormalizationResult(scheme=ParabolicScheme(B2, p=2, levi=[], "
        "phi={a2:0, a1:1, a1+a2:0, a1+2a2:0}), "
        "stripped=(KernelRecord(kind=<KernelKind.FROBENIUS: 'frobenius'>, m=1),))",
    ),
    "FanoRow": (
        lambda: fano_census(_a1_query())[1],
        "FanoRow(scheme=ParabolicScheme(A1, p=2, levi=[], phi={a1:1}), fano=True, "
        "certificate=None)",
    ),
    "HasseDiagram": (
        lambda: hasse_diagram(_a1_query()),
        "HasseDiagram(schemes=(ParabolicScheme(A1, p=2, levi=[], phi={a1:0}), "
        "ParabolicScheme(A1, p=2, levi=[], phi={a1:1})), edges=((0, 1),))",
    ),
    "Character": (
        lambda: anticanonical_character(reduced_scheme(A2, 2)),
        "Character(coeffs=(2, 2))",
    ),
    "SmoothPart": (
        lambda: p_sm(reduced_scheme(B2, 2, {1})),
        "SmoothPart(reduced=ParabolicScheme(B2, p=2, levi=[1], phi={a2:0, a1+a2:0, a1+2a2:0}), "
        "complement=ParabolicScheme(B2, p=2, levi=[1, 2], phi={}), complement_kernels=(), "
        "complement_normalized=ParabolicScheme(B2, p=2, levi=[1, 2], phi={}))",
    ),
    "FiberFactor": (
        lambda: fibration_sequence(reduced_scheme(A2, 3))[0].fiber[0],
        "FiberFactor(scheme=ParabolicScheme(A1, p=3, levi=[], phi={a1:0}), labels=(2,))",
    ),
    "FibrationStep": (
        lambda: fibration_sequence(reduced_scheme(A2, 3))[0],
        "FibrationStep(target_type=RootSystemType(series='A', rank=2), target_alpha=1, "
        "base_dimension=2, fiber=(FiberFactor(scheme=ParabolicScheme(A1, p=3, levi=[], "
        "phi={a1:0}), labels=(2,)),), stripped=())",
    ),
}

#: the types that stay frozen dataclasses
DATACLASSES = {"RootSystemType", "Root", "RankOneBlock", "CensusQuery", "NotFanoCertificate"}


def _package_classes():
    for info in pkgutil.iter_modules(parabolics.__path__):
        module = importlib.import_module(f"parabolics.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                yield cls


@pytest.mark.parametrize("name", RECORDS)
def test_record_repr_is_unchanged(name):
    make, expected = RECORDS[name]
    rec = make()
    assert type(rec).__name__ == name
    assert repr(rec) == expected


@pytest.mark.parametrize("name", RECORDS)
def test_records_with_equal_fields_are_equal(name):
    rec = RECORDS[name][0]()
    copy = type(rec)(**{f: getattr(rec, f) for f in rec._fields})
    assert copy is not rec
    assert copy == rec and hash(copy) == hash(rec)


@pytest.mark.parametrize("name", [*RECORDS, "VerySpecialDuality"])
def test_record_fields_cannot_be_assigned(name):
    rec = very_special_dual(B2)[1] if name == "VerySpecialDuality" else RECORDS[name][0]()
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, None)


def test_very_special_duality_keeps_its_images():
    bij = very_special_dual(B2)[1]
    assert bij.images == {g: bij.forward(g) for g in B2.roots}


def test_only_types_that_check_their_fields_are_dataclasses():
    classes = list(_package_classes())
    unchecked = [cls.__qualname__ for cls in classes if dataclasses.is_dataclass(cls)
                 and not hasattr(cls, "__post_init__") and cls is not Root]
    assert unchecked == []
    assert {cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)} == DATACLASSES
    records = {cls.__name__ for cls in classes if issubclass(cls, tuple) and cls.__name__[0] != "_"}
    assert records == {*RECORDS, "VerySpecialDuality"}
