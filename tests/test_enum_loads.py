"""No function in the modules an event runs through loads an attribute of an
enum class: on CPython 3.10 and 3.11 each such load goes through
``EnumType.__getattr__``, several times the cost of a plain name.  Each
module binds its members to plain names once; module-level code and class
bodies are exempt."""

import dis
import enum
import inspect
import types

import pytest

from coexsim import arbiter, engine, medium, reservation, wifi


def _functions(code: types.CodeType):
    """The code of every function nested in ``code``, lambdas and
    comprehensions included, class bodies not."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield const
            yield from _functions(const)


def enum_loads(code: types.CodeType, namespace: dict) -> list[str]:
    """``function: dotted.name`` for each attribute load, in a function
    nested in ``code``, from an enum class that a global name, or a chain of
    attribute loads from one, resolves to in ``namespace``."""
    found = []
    for func in _functions(code):
        obj = path = None  # what the loads so far resolve to, and their text
        for ins in dis.get_instructions(func):
            if ins.opname == "EXTENDED_ARG":
                continue
            if ins.opname == "LOAD_GLOBAL":
                obj, path = namespace.get(ins.argval), ins.argval
            elif ins.opname in ("LOAD_ATTR", "LOAD_METHOD") and obj is not None:
                path = f"{path}.{ins.argval}"
                if isinstance(obj, enum.EnumMeta):
                    found.append(f"{func.co_name}: {path}")
                chained = isinstance(obj, (types.ModuleType, type))
                obj = getattr(obj, ins.argval, None) if chained else None
            else:
                obj = None
    return found


@pytest.mark.parametrize("module", [engine, arbiter, wifi, medium, reservation],
                         ids=lambda m: m.__name__)
def test_no_function_loads_an_enum_attribute(module):
    code = compile(inspect.getsource(module), module.__file__, "exec")
    assert enum_loads(code, vars(module)) == []


def test_the_check_sees_loads_through_the_class():
    """Direct and through a module, in functions, lambdas and methods; not at
    module level, nor through a member already bound to a name."""
    source = """
KIND = FrameKind.CTS
def direct(kind):
    return kind is FrameKind.CTS
def through_module(state):
    return state is arb.ArbiterState.TX
ANY = lambda: list(FrameKind)
NAMED = lambda: WIMAX_BURST.value
class Holder:
    def method(self):
        return FrameKind.DATA
"""
    code = compile(source, "<check>", "exec")
    assert enum_loads(code, vars(engine)) == [
        "direct: FrameKind.CTS", "through_module: arb.ArbiterState.TX", "method: FrameKind.DATA"]
