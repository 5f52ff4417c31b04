"""Repo-wide pytest configuration."""

from hypothesis import settings

#: A deeper budget for Hypothesis tests that do not pin ``max_examples``,
#: selected with ``--hypothesis-profile=kernel-deep``.  CI runs the kernel
#: tests, the trace generator's tests and the layout tests (``tests/des``,
#: ``tests/trace``, ``tests/layout``) under it; the default profile keeps
#: tier-1 fast.
settings.register_profile("kernel-deep", max_examples=3000, deadline=None)


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="Regenerate the golden snapshots under tests/golden/ and the "
        "campaign cells in tests/experiments/cells.json from the current "
        "code instead of comparing against them.",
    )
