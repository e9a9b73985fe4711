"""``python -m elliptic_loops``: the same command as ``elliptic-loops``."""

from .cli import main

if __name__ == "__main__":
    main()
