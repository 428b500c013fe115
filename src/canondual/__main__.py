"""``python -m canondual``: the command-line front end (see canondual.cli)."""

from .cli import main

if __name__ == "__main__":
    main()
