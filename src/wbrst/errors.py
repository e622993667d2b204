"""The base class of every exception the package raises on purpose.

The command line reports any ``WbrstError`` as bad input (exit 2), never
as a failed check.
"""


class WbrstError(Exception):
    pass


def carried(err) -> str:
    """An exception as the "Class: message" text that ``rebuilt`` reads,
    to send it to another process."""
    return f"{type(err).__name__}: {err}"


def rebuilt(text):
    """The exception that another process sent as "Class: message": a
    WbrstError subclass as itself, any other as a RuntimeError."""
    name, _, message = text.partition(": ")
    todo = [WbrstError]
    for cls in todo:
        if cls.__name__ == name:
            return cls(message)
        todo += cls.__subclasses__()
    return RuntimeError(text)
