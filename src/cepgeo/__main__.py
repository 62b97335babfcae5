"""Process entry point: ``python -m cepgeo`` and the installed ``cepgeo`` script.

Importing numpy and the CLI builds over 20k container objects that live
until the process exits.  Collecting cycles while they are built frees a few
hundred at most, and every later full collection, those at interpreter exit
included, would walk them all again.  So the import runs with the collector
paused, :func:`gc.freeze` moves the heap it built to the permanent
generation, which no collection visits (the few hundred unreachable objects
are kept, not freed), and the collector is on again before ``main`` runs:
cycles that a run makes are still collected.  :func:`cepgeo.cli.main`
changes no collector state, so a caller that imports it keeps its own.

``cepgeo.cli`` imports no numpy itself.  numpy is imported here, inside the
paused window, for every subcommand but those in
:data:`cepgeo.cli.NUMPY_FREE_COMMANDS`, which run no numpy code and skip
its import altogether.  The subcommand is always ``argv[1]``: every option
belongs to a subcommand's parser.
"""

import gc
import sys

gc.disable()
from .cli import NUMPY_FREE_COMMANDS, main  # noqa: E402

if not NUMPY_FREE_COMMANDS.intersection(sys.argv[1:2]):  # imported now, it is frozen too
    import numpy  # noqa: E402, F401
gc.freeze()
gc.enable()

if __name__ == "__main__":
    sys.exit(main())
