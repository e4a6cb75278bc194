"""Hypothesis profiles for the property tests.

``default`` keeps tier-1 runs short; ``ci`` runs the series kernel's,
verify's block rule's and the catalog routes' oracles, the CLI's exit-code
fuzz, the fast command-line parser's argparse oracle and the affine
kernels' mpmath budgets ten times longer, with Hypothesis' own CI settings
(derandomized, no example database):

    python -m pytest -q tests/test_series_properties.py tests/test_products_agree.py \
        tests/test_catalog_routes.py tests/test_cli_fuzz.py tests/test_cli_fastparse.py \
        tests/test_affine_budget.py --hypothesis-profile=ci

Tests that set ``max_examples`` themselves keep their own count.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("default", max_examples=80, deadline=None)
    settings.register_profile("ci", settings.get_profile("ci"), max_examples=800)
    settings.load_profile("default")
