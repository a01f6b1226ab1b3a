"""Run the command-line interface as `python -m xorkron`."""

from .cli import entry

if __name__ == "__main__":
    entry()
