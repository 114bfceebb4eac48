"""``python -m exactwkb``: the ``exactwkb`` command line (``exactwkb.cli``)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
