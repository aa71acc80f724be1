"""``python -m polarcographs``: the same command line as the ``polarcographs`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
