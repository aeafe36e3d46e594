"""IR-level type information: struct layouts and global variables.

The IR is word-oriented: every scalar, pointer, and struct field occupies
exactly one simulated-memory slot.  Struct types exist so that the
argument-integrity analysis can be *field-sensitive* — sensitivity attaches
to ``(struct, field)`` pairs, not whole objects (§6.3.3, Figure 2's
``gshm->size``).
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class StructType:
    """A named record type whose fields each occupy one slot.

    Example::

        StructType("ngx_exec_ctx_t", ("path", "argv", "envp"))
    """

    name: str
    fields: tuple

    def __post_init__(self):
        if len(set(self.fields)) != len(self.fields):
            raise ValueError("duplicate field in struct %r" % self.name)

    @property
    def size(self):
        """Size in slots."""
        return len(self.fields)

    def offset(self, field_name):
        """Slot offset of ``field_name`` within the struct.

        Raises:
            KeyError: if the field does not exist.
        """
        try:
            return self.fields.index(field_name)
        except ValueError:
            raise KeyError(
                "struct %s has no field %r" % (self.name, field_name)
            ) from None


@dataclass
class GlobalVar:
    """A module-level variable laid out in the data segment.

    Attributes:
        name: symbol name.
        size: size in slots (ignored when ``init`` is a string).
        init: initial contents — ``None`` (zeroed), a list of ints (one per
            slot), or a ``str`` (one character code per slot plus a NUL
            terminator, C-string style).
        struct: optional struct type name this global is an instance of
            (enables field-sensitive tracking of globals).
    """

    name: str
    size: int = 1
    init: object = None
    struct: str = None

    def __post_init__(self):
        if isinstance(self.init, str):
            self.size = len(self.init) + 1
        elif isinstance(self.init, (list, tuple)):
            self.init = list(self.init)
            if self.size < len(self.init):
                self.size = len(self.init)
        elif self.init is not None and not isinstance(self.init, int):
            raise TypeError("global init must be None, int, list, or str")
        if isinstance(self.init, int):
            self.init = [self.init]
        if self.size < 1:
            raise ValueError("global %r must occupy at least one slot" % self.name)

    def initial_words(self):
        """The initial slot values written by the loader."""
        if self.init is None:
            return [0] * self.size
        if isinstance(self.init, str):
            return [ord(c) for c in self.init] + [0]
        words = list(self.init) + [0] * (self.size - len(self.init))
        return words


@dataclass
class TypeTable:
    """Registry of struct types for a module."""

    structs: dict = field(default_factory=dict)

    def define(self, struct_type):
        if struct_type.name in self.structs:
            raise ValueError("struct %r already defined" % struct_type.name)
        self.structs[struct_type.name] = struct_type
        return struct_type

    def get(self, name):
        return self.structs[name]

    def __contains__(self, name):
        return name in self.structs
