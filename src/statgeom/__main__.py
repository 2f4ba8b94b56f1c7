"""``python -m statgeom``: the command-line interface of :mod:`statgeom.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
