"""The public API: every name in ``kinterp.__all__`` resolves, none appears
twice, and ``from kinterp import *`` binds exactly those names."""

import kinterp


def test_every_exported_name_resolves():
    assert [n for n in kinterp.__all__ if not hasattr(kinterp, n)] == []


def test_no_name_exported_twice():
    assert len(set(kinterp.__all__)) == len(kinterp.__all__)


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from kinterp import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(kinterp.__all__)
