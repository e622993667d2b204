"""The base class of every exception the package raises on purpose.

The command line reports any ``WbrstError`` as bad input (exit 2), never
as a failed check.
"""


class WbrstError(Exception):
    pass
