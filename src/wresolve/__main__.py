"""``python -m wresolve``: the same command line as the ``wresolve`` script."""

from .cli import main

raise SystemExit(main())
