"""``python -m wbrst``: the ``wbrst`` command."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
