"""``python -m cliffsteer``: the command line, as the ``cliffsteer`` script runs it."""

import runpy

# the command line runs as the main module, as ``python -m cliffsteer.cli`` runs
# it, so no module of the package imports it
runpy.run_module("cliffsteer.cli", run_name="__main__", alter_sys=True)
