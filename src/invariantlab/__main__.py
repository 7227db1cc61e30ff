"""``python -m invariantlab``: the ``invariantlab`` command."""

from .cli import main

raise SystemExit(main())
