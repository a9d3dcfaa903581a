"""Layered end-to-end benchmark of the verification product.

Four workloads, each driving one layer through the public entry points:
``verify-cold`` (SQL front end, kernel normalization, decision tiers),
``serve-reask`` (the ``repro serve`` daemon and its proof store),
``optimize-certify`` (e-graph search plus certification) and
``refute-bounded`` (the bounded-exhaustive disprover).  See
``perfbench/README.md`` for the metrics and how to run it.
"""
