"""The public API, pinned, and the integer-only arithmetic of the rank layers."""

import ast
import importlib
import inspect

import pytest

import waringcert

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


@pytest.mark.parametrize("module", ["linalg", "hilbert", "kruskal", "terracini", "certify"])
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
