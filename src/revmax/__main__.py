"""``python -m revmax``: the same command line as the ``revmax`` script."""

from .cli import main

main()
