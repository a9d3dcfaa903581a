"""The pre-session entry points stay importable without warnings."""

import warnings

from repro import Catalog, INT, compile_sql


def _table():
    catalog = Catalog()
    catalog.add_table("R", [("a", INT), ("b", INT)])
    return catalog


def test_core_homes_do_not_warn():
    from repro.core.equivalence import (
        check_query_equivalence,
        queries_equivalent,
    )
    catalog = _table()
    q = compile_sql("SELECT a FROM R", catalog).query
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        assert queries_equivalent(q, q)
        assert check_query_equivalence(q, q).equal


def test_compile_sql_and_pipeline_do_not_warn():
    from repro.solver.pipeline import Pipeline
    catalog = _table()
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        q = compile_sql("SELECT a FROM R", catalog).query
        verdict = Pipeline().check(q, q)
    assert verdict.proved
