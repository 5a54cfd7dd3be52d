"""`python -m treeucat`: the command line, as the `treeucat` script runs it."""

from .cli import run

if __name__ == "__main__":
    run()
