"""The public API, pinned, its immutable report records, and the imports
of the package's modules."""

import ast
import copy
import importlib
import inspect
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import waringcert
from waringcert import (Certificate, Diagnostics, GenericInfo, HilbertProfile,
                        KruskalReport, PointSet, ReshapingSearch, TerraciniReport,
                        certify, generic_info, hilbert_profile, reshaped_kruskal,
                        terracini_dimension)
from waringcert.cli import PointSetDocument, parse_point_file
from waringcert.geometry import Record

PUBLIC = [
    "Certificate", "Diagnostics", "DuplicatePointError", "GenericInfo",
    "HilbertProfile", "KruskalReport", "PointSet", "ProjectivePoint",
    "ReshapingSearch", "TerraciniReport", "Verdict", "certify",
    "check_gkr_inequality", "check_minimal", "complementary_bound",
    "degree_partitions", "generic_info", "generic_terracini_dimension",
    "gup_cutoff", "hilbert_function", "hilbert_profile", "integer_rank",
    "is_gup", "is_lgp", "kruskal_and_collinear", "kruskal_rank",
    "max_collinear_subset_size", "monomial_basis", "monomial_values",
    "random_point_set", "reshaped_kruskal", "satisfies_cb", "separates_point",
    "span_dim", "span_intersection_dim", "terracini_dimension", "union",
    "union_profile_drop", "veronese_kruskal_rank",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(waringcert.__all__) == sorted(PUBLIC)
    assert len(set(waringcert.__all__)) == len(waringcert.__all__)
    for name in waringcert.__all__:
        assert getattr(waringcert, name) is not None


def _fresh(script):
    """The literal a fresh interpreter prints last, run under -X dev with
    every warning an error."""
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_importing_the_package_registers_every_layer_and_runs_none():
    # dir() lists every public name before any is read, and type() reads a
    # lazily registered module without running its body.
    names, registered, executed = _fresh(
        "import sys, types, waringcert\n"
        "layers = [m for m in sys.modules if m.startswith('waringcert.')]\n"
        "print(repr((dir(waringcert), sorted(layers), [m for m in layers\n"
        "            if type(sys.modules[m]) is types.ModuleType])))\n")
    assert set(PUBLIC) <= set(names)
    assert registered == sorted(f"waringcert.{m}" for m in (
        "linalg", "geometry", "hilbert", "kruskal", "terracini", "certify"))
    assert executed == []


def test_an_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'waringcert' has no attribute 'no_such_name'"):
        waringcert.no_such_name
    assert not hasattr(waringcert, "_CASCADE")
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from waringcert import no_such_name", {})


@pytest.mark.parametrize("first", [
    "import waringcert.certify",
    "from waringcert.certify import _CASCADE",
    "importlib.import_module('waringcert.certify')",
], ids=["import", "from-import", "import-module"])
def test_the_certify_module_never_shadows_the_certify_function(first):
    # A module registered by hand is never bound onto its package, so
    # whatever is imported first, the package's certify is the function.
    assert _fresh(
        "import importlib, types\n"
        f"{first}\n"
        "from waringcert import PointSet, certify\n"
        "import waringcert\n"
        "module = importlib.import_module('waringcert.certify')\n"
        "cert = certify(PointSet.from_rows([(1, 0), (0, 1), (1, 1)]), 5)\n"
        "print(repr((type(certify) is types.FunctionType, waringcert.certify is certify,\n"
        "            type(module) is types.ModuleType, module.certify is certify,\n"
        "            cert.verdict.value, cert.criterion)))\n"
    ) == (True, True, True, True, "Identifiable", "sylvester")


@pytest.mark.parametrize("module", ["linalg", "hilbert", "kruskal", "terracini", "certify",
                                    "cli"])
def test_rank_layers_use_no_fractions(module):
    # The package binds the name certify to the function, so import by path.
    source = inspect.getsource(importlib.import_module(f"waringcert.{module}"))
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(alias.name != "fractions" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "fractions"
            assert all(alias.name != "Fraction" for alias in node.names)
        elif isinstance(node, ast.Name):
            assert node.id != "Fraction"
        elif isinstance(node, ast.Attribute):
            assert node.attr != "Fraction"


@pytest.mark.parametrize("path", sorted(Path(waringcert.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    # The report classes are Records: a cold CLI run loads neither
    # dataclasses nor the inspect module it imports.
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            assert all(alias.name != "dataclasses" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "dataclasses"


def test_every_lru_cache_is_bounded():
    # Caches keyed by user input (n, d) must not grow for the life of the
    # process: every lru_cache in the package has a finite maxsize.
    caches = {}
    for info in pkgutil.iter_modules(waringcert.__path__):
        module = importlib.import_module(f"waringcert.{info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_parameters", None)):
                caches[f"{info.name}.{name}"] = value.cache_parameters()["maxsize"]
    assert {"geometry.monomial_basis", "terracini._tangent_index",
            "terracini._product_index"} <= caches.keys()
    assert {name for name, size in caches.items() if size is None} == set()


def test_terracini_imports_nothing_from_kruskal():
    # Both frames live in hilbert; kruskal keeps only Kruskal ranks.
    path = Path(waringcert.__file__).with_name("terracini.py")
    parts = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            parts += [part for alias in node.names for part in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            parts += (node.module or "").split(".") + [alias.name for alias in node.names]
    assert "kruskal" not in parts


PACKED_LAYOUT = {"_eliminate_mod_p", "_packed", "_slot_width", "_fold_masks"}


def _names(path):
    """Every name a module's source binds, imports or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _functions(path):
    """Every function a module's source defines, by name."""
    return {node.name: node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef)}


def _calls(node, name):
    """The calls of ``name`` in the body of ``node``."""
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id == name]


def test_only_linalg_lays_out_a_modular_elimination():
    # The packed rows and their elimination live in linalg alone, and there
    # is one modular elimination: ``_leading_pivots`` writes the
    # leading-block rule once, and the standard form is one call of the
    # same elimination with its pivots drawn from B.  A change to either is
    # made in one place.
    package = Path(waringcert.__file__).parent
    for path in sorted(package.glob("*.py")):
        names = _names(path)
        if path.name == "linalg.py":
            assert PACKED_LAYOUT <= names
        else:
            assert not names & PACKED_LAYOUT, path.name
    functions = _functions(package / "linalg.py")
    callers = {name for name, node in functions.items() if _calls(node, "_eliminate_mod_p")}
    assert callers == {"_leading_pivots", "_standard_form_mod_p"}
    # Only ``_eliminate_mod_p`` inverts a pivot or folds a tail: a fold
    # needs the masks of ``_fold_masks``, which reads ``_FOLD`` to count the
    # folds a slot bound takes and is called by the elimination alone.
    inverters = {(path.name, name) for path in package.glob("*.py")
                 for name, node in _functions(path).items()
                 if any(len(call.args) == 3 and ast.unparse(call.args[1]) == "-1"
                        for call in _calls(node, "pow"))}
    assert inverters == {("linalg.py", "_eliminate_mod_p")}
    fold_readers = {name for name, node in functions.items()
                    if any(isinstance(leaf, ast.Name) and leaf.id == "_FOLD"
                           for leaf in ast.walk(node))}
    assert fold_readers == {"_eliminate_mod_p", "_fold_masks"}
    assert {name for name, node in functions.items()
            if _calls(node, "_fold_masks")} == {"_eliminate_mod_p"}
    # The standard form has no pivot steps of its own: no pivot search
    # (no break), no closure over steps, one elimination.
    form = functions["_standard_form_mod_p"]
    assert len(_calls(form, "_eliminate_mod_p")) == 1
    assert not any(isinstance(node, (ast.Break, ast.While, ast.FunctionDef, ast.Lambda))
                   for node in ast.walk(form) if node is not form)


def test_only_veronese_kruskal_rank_sweeps_subsets():
    # Every rule for a Kruskal rank is in ``veronese_kruskal_rank``: no other
    # code of ``kruskal`` sweeps subsets or takes a standard form.
    tree = ast.parse((Path(waringcert.__file__).parent / "kruskal.py").read_text())
    sweepers = {getattr(node, "name", type(node).__name__) for node in tree.body
                if _calls(node, "_all_subsets_independent") or _calls(node, "_standard_form")}
    assert sweepers == {"veronese_kruskal_rank"}


def _records():
    a = PointSet.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1),
                            (1, 1, 1), (1, 2, 3), (1, 4, 5)])
    cert = certify(a, 5)
    search = reshaped_kruskal(a, 5)
    return {
        Certificate: cert, Diagnostics: cert.diagnostics,
        GenericInfo: generic_info(2, 4), HilbertProfile: hilbert_profile(a),
        KruskalReport: search.passing, ReshapingSearch: search,
        TerraciniReport: terracini_dimension(a, 4),
        PointSetDocument: parse_point_file("label: three\n1 0 0\n0 1 0\n1 1 1\n"),
    }


@pytest.mark.parametrize("cls", [Certificate, Diagnostics, GenericInfo, HilbertProfile,
                                 KruskalReport, ReshapingSearch, TerraciniReport,
                                 PointSetDocument], ids=lambda cls: cls.__name__)
def test_report_records_are_immutable_and_compare_by_type_and_fields(cls):
    record = _records()[cls]
    assert type(record) is cls and isinstance(record, Record)
    fields = list(cls.__annotations__)
    assert list(vars(record)) == fields
    kwargs = dict(vars(record))
    values = list(kwargs.values())
    for built in (cls(**kwargs), cls(**dict(reversed(kwargs.items()))), cls(*values),
                  cls(*values[:1], **dict(list(kwargs.items())[1:]))):
        assert built == record and hash(built) == hash(record)
        assert repr(built) == repr(record)
        assert list(vars(built)) == fields
    assert repr(record).startswith(f"{cls.__name__}({fields[0]}=")

    with pytest.raises(TypeError):
        cls(**dict(list(kwargs.items())[:-1]))
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(**kwargs, unknown=None)
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})

    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])
    with pytest.raises(AttributeError):
        setattr(record, "unknown", None)
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    assert vars(record) == kwargs

    twin = type(cls.__name__, (Record,), {"__annotations__": dict(cls.__annotations__)})
    assert twin(*values) != record and record != twin(*values)
    assert record != tuple(values)

    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(record, protocol))
        assert type(clone) is cls and clone == record and hash(clone) == hash(record)
    clone = copy.deepcopy(record)
    assert clone == record and hash(clone) == hash(record)
    assert list(vars(clone)) == fields


def test_records_derive_what_they_do_not_store():
    # A value that follows from a record's fields is a property, not a field.
    records = _records()
    info, diag = records[GenericInfo], records[Diagnostics]
    assert {"space_dim", "expected_generic_rank", "generic_rank"}.isdisjoint(GenericInfo._fields)
    assert (info.space_dim, info.expected_generic_rank, info.generic_rank) == (15, 5, 6)
    assert "kruskal_rank" not in Diagnostics._fields
    assert diag.veronese_kruskal_ranks == ((1, 3), (2, 6)) and diag.kruskal_rank == 3
    no_k1 = Diagnostics(**{**vars(diag), "veronese_kruskal_ranks": ((2, 6),),
                           "max_collinear": None})
    assert no_k1.kruskal_rank is None


@pytest.mark.parametrize("build", [
    lambda: Certificate(**{**vars(_records()[Certificate]), "criterion": None}),
    lambda: HilbertProfile((1, 3, 2)),
    lambda: HilbertProfile((1, 3, 3)),
    lambda: KruskalReport(set_size=4, partition=(2, 1, 1), ranks=(3, 3, 3)),
    lambda: TerraciniReport(num_points=2, ambient_dim=2, degree=4, dim=6),
], ids=["certificate", "hilbert-decreasing", "hilbert-stalled", "kruskal", "terracini"])
def test_record_validation_still_raises(build):
    with pytest.raises(ValueError):
        build()
