"""Spawn-only entry point for the fabric's worker zygote.

``python -m repro.fabric._zygote FD`` serves fork requests on the
inherited socket ``FD`` (see :mod:`repro.fabric.zygote`).  Like
:mod:`._worker_main`, nothing imports this module, so runpy never finds
it already loaded.
"""

import sys

from .zygote import serve

if __name__ == "__main__":
    sys.exit(serve(int(sys.argv[1])))
