"""Value classes: building, equality, hashing, immutability and pickling.

Every Record subclass of the package is listed here with one instance's
fields, and its repr is compared with that of a frozen dataclass with the
same fields, the representation Record replaced.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import os
import pathlib
import pickle
import pkgutil
import subprocess
import sys

import pytest

import hesscomb
from hesscomb.components import ComponentCandidate
from hesscomb.harness import CheckReport, Failure
from hesscomb.hessvar import HessCell, HessenbergFunction
from hesscomb.nilpotent import BaseFilling, Partition, Tableau
from hesscomb.poly import Poly
from hesscomb.record import Record
from hesscomb.rootsys import RootSet
from hesscomb.schubert import UnionComparison
from hesscomb.symgroup import ParabolicData, Permutation, StringDecomposition

SRC = pathlib.Path(hesscomb.__file__).resolve().parents[1]

E2, S1 = Permutation((1, 2)), Permutation((2, 1))

# one instance's fields per class, as keywords in declaration order
CASES = {
    Permutation: {"images": (2, 3, 1)},
    ParabolicData: {"n": 3, "J": frozenset({1})},
    StringDecomposition: {"strings": ((1,), (1, 2))},
    Partition: {"parts": (2, 1)},
    BaseFilling: {"shape": Partition((2, 1)), "rows": ((2, 3), (1,))},
    Tableau: {"shape": Partition((2, 1)), "rows": ((1, 3), (2,))},
    HessenbergFunction: {"values": (2, 3, 3)},
    HessCell: {"w": S1, "dim": 1, "v": E2, "y": S1},
    Poly: {"coeffs": (1, 2, 1)},
    RootSet: {"n": 3, "roots": frozenset({(1, 2), (2, 3)})},
    ComponentCandidate: {
        "v": E2,
        "top_cell": S1,
        "schubert_top": S1,
        "cell_dim": 1,
        "full_cell": True,
        "bruhat_maximal": True,
    },
    Failure: {"shape": (2, 1), "j": (1,), "witness": "2,1,3"},
    CheckReport: {
        "check_id": "fixed-points",
        "n": 2,
        "cases_run": 3,
        "failures": (Failure((2,), (1,), "2,1"),),
        "failures_total": 1,
        "elapsed": 0.25,
        "out_of_regime": (20, 32),
    },
    UnionComparison: {
        "shape": Partition((2,)),
        "parabolic": ParabolicData(2, frozenset({1})),
        "hessenberg_poly": Poly((1, 1)),
        "schubert_union_poly": Poly((1, 1)),
        "equal": True,
        "in_hypothesis": True,
        "tops": (S1,),
    },
}

classes = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def _package_records() -> set[type]:
    found = set()
    for info in pkgutil.iter_modules(hesscomb.__path__):
        module = importlib.import_module(f"hesscomb.{info.name}")
        found |= {
            obj
            for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, Record) and obj.__module__ == module.__name__
        }
    return found - {Record}


def test_every_record_of_the_package_is_checked():
    assert _package_records() == set(CASES)


@classes
def test_position_and_keyword_build_equal_objects(cls):
    fields = CASES[cls]
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert not by_position != by_keyword


@classes
def test_missing_unknown_or_repeated_fields_raise_type_error(cls):
    fields = CASES[cls]
    first, *rest = fields
    with pytest.raises(TypeError):
        cls(**{name: fields[name] for name in rest})
    with pytest.raises(TypeError):
        cls(**fields, bogus=1)
    with pytest.raises(TypeError):
        cls(fields[first], **fields)
    with pytest.raises(TypeError):
        cls(*fields.values(), 1)


@classes
def test_repr_matches_the_frozen_dataclass(cls):
    fields = CASES[cls]
    mirror = dataclasses.make_dataclass(cls.__name__, list(fields), frozen=True)
    assert repr(cls(**fields)) == repr(mirror(**fields))


@classes
def test_equal_only_to_the_same_class(cls):
    fields = CASES[cls]
    obj = cls(**fields)
    assert obj != tuple(fields.values())
    assert obj != dataclasses.make_dataclass(cls.__name__, list(fields), frozen=True)(**fields)


def test_no_equality_across_types_or_with_tuples():
    assert Partition((2, 1)) != Permutation((2, 1))
    assert Partition((2, 1)) != ((2, 1),)
    assert Permutation((2, 1)) != ((2, 1),)
    assert len({Partition((2, 1)), Permutation((2, 1))}) == 2


@classes
def test_assignment_and_deletion_raise_attribute_error(cls):
    fields = CASES[cls]
    obj = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert obj == cls(**fields)


@classes
def test_pickle_and_copy_round_trip(cls):
    obj = cls(**CASES[cls])
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(twin) is cls
        assert twin == obj and hash(twin) == hash(obj)


def test_pickle_rebuilds_through_the_constructor():
    # so a validating class checks its fields again on the way in
    assert Permutation((2, 1)).__reduce__() == (Permutation, ((2, 1),))
    assert CheckReport(**CASES[CheckReport]).__reduce__() == (CheckReport, tuple(CASES[CheckReport].values()))


def test_permutation_has_no_dict_and_sorts_by_images():
    w = Permutation((2, 3, 1))
    assert not hasattr(w, "__dict__")
    perms = [Permutation(images) for images in ((3, 1, 2), (1, 3, 2), (2, 1, 3), (1, 2, 3))]
    assert [p.images for p in sorted(perms)] == sorted(p.images for p in perms)
    assert Permutation((1, 3, 2)) < Permutation((2, 1, 3)) <= Permutation((2, 1, 3))
    assert Permutation((3, 2, 1)) > Permutation((3, 1, 2)) >= Permutation((3, 1, 2))
    with pytest.raises(TypeError):
        Permutation((2, 1)) < (2, 1)


def _modules_after(code: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(' '.join(sys.modules))"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return set(proc.stdout.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # compared against a bare interpreter, whose site may import modules itself
    added = _modules_after("import hesscomb.cli") - _modules_after("pass")
    assert "hesscomb.cli" in added
    assert not {"dataclasses", "inspect"} & added
