"""Entry points of the benchmark: ``perfbench/`` is their only caller.

The reduction kernel itself lives in ``milnor``.  This module imports nothing
at module level, so ``from singspec import kernel`` loads only this module.
The benchmark change that stops calling them deletes this file.
"""


def active():
    """The module that holds the reduction kernel (``milnor``);
    ``perfbench/spans.py`` finds ``normal_form`` and ``s_polynomial`` on it."""
    from . import milnor

    return milnor


def backend_name() -> str:
    """Always ``"python"``; ``perfbench/child.py`` reports it in its setup probe."""
    return "python"
