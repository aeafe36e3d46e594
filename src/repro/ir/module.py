"""IR module: the unit of compilation, loading, and protection."""

import copy

from repro.errors import IRError
from repro.ir.types import TypeTable, GlobalVar


class Module:
    """A whole program: functions, globals, and struct types.

    Attributes:
        name: module (program) name, used in reports.
        functions: ordered dict of name -> :class:`repro.ir.function.Function`.
        globals: ordered dict of name -> :class:`repro.ir.types.GlobalVar`.
        types: :class:`repro.ir.types.TypeTable` of struct definitions.
        entry: entry-point function name (default ``main``).
    """

    def __init__(self, name="a.out", entry="main"):
        self.name = name
        self.entry = entry
        self.functions = {}
        self.globals = {}
        self.types = TypeTable()

    def add_function(self, function):
        if function.name in self.functions:
            raise IRError("function %r already defined" % function.name)
        self.functions[function.name] = function
        return function

    def add_global(self, global_var):
        if global_var.name in self.globals:
            raise IRError("global %r already defined" % global_var.name)
        if not isinstance(global_var, GlobalVar):
            raise IRError("add_global expects a GlobalVar")
        self.globals[global_var.name] = global_var
        return global_var

    def function(self, name):
        try:
            return self.functions[name]
        except KeyError:
            raise IRError("no function %r in module %s" % (name, self.name)) from None

    def has_function(self, name):
        return name in self.functions

    def struct(self, name):
        return self.types.get(name)

    def clone(self):
        """Deep copy of the program — the instrumenter works on a copy,
        never in place — without the loader's record of it (its image)."""
        new = Module(self.name, self.entry)
        new.functions, new.globals, new.types = copy.deepcopy(
            (self.functions, self.globals, self.types)
        )
        return new

    def instruction_count(self):
        return sum(len(f.body) for f in self.functions.values())

    def __repr__(self):
        return "<Module %s: %d functions, %d globals, %d instrs>" % (
            self.name,
            len(self.functions),
            len(self.globals),
            self.instruction_count(),
        )
