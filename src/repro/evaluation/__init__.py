"""Evaluation harnesses: one module per table of the paper's Section 5.

Each module exposes a function that computes the table's rows from the
reproduction's own substrates, so ``jobs/tableN.py`` (printing) and
``tests/test_tableN*.py`` (asserting shape/exactness) share one
implementation.
"""
