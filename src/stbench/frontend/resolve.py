"""Name and type resolution: Ast -> TypedProgram.

A built-in block's name always means the built-in, as does a built-in
function's or conversion's: a FUNCTION_BLOCK or FUNCTION taking one is
rejected.  Any other name is looked up in the unit itself, then in the
supplied libraries in order.  All diagnostics found in one pass are collected and raised
together as a ResolveError.  Expression nodes are annotated in place with
their resolved type (the `ty` field, excluded from node equality).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import builtins as bi
from . import types as T
from .diagnostics import Diagnostic, ResolveError
from .nodes import (
    Assign,
    Ast,
    Binary,
    BinOp,
    Call,
    CaseStmt,
    Expr,
    ExitStmt,
    FbCall,
    ForStmt,
    IfBranch,
    IfStmt,
    IndexRef,
    Literal,
    MemberRef,
    PouDecl,
    PouKind,
    RepeatStmt,
    ReturnStmt,
    Section,
    Stmt,
    TypeRef,
    Unary,
    UnOp,
    VarRef,
    WhileStmt,
)
from .source import SourceUnit, Span


@dataclass(slots=True)
class VarInfo:
    name: str
    ty: T.STType
    section: Section
    init: object = None  # plain python value, already range-checked
    span: Span = Span(0, 0)


@dataclass(slots=True)
class PouInfo:
    name: str
    kind: PouKind
    decl: PouDecl
    vars: dict[str, VarInfo]
    fb_instances: dict[str, str]  # instance var -> FB type name
    ret_type: T.STType | None = None
    sites: tuple[Stmt | IfBranch, ...] = ()  # the body's site nodes, in sid order
    # the user FUNCTION each call expression in the body names, one entry per call
    calls: list[str] = field(default_factory=list)
    # the values one instance (or call frame) holds: a variable, an ARRAY
    # element or a nested instance is one, plus the nested instance's own
    size: int = 0

    def inputs(self) -> list[VarInfo]:
        return [v for v in self.vars.values() if v.section is Section.INPUT]

    def outputs(self) -> list[VarInfo]:
        return [v for v in self.vars.values() if v.section is Section.OUTPUT]


@dataclass
class TypedProgram:
    ast: Ast
    src: SourceUnit | None
    pous: dict[str, PouInfo]
    libraries: tuple["TypedProgram", ...] = ()
    # compiled POU bodies by name (stbench.runtime.interp), filled on first run
    runtime_cache: dict | None = field(default=None, repr=False, compare=False)

    def lookup_pou(self, name: str) -> PouInfo | None:
        info = self.pous.get(name)
        if info is not None:
            return info
        for lib in self.libraries:
            info = lib.lookup_pou(name)
            if info is not None:
                return info
        return None

    def layers(self) -> list["TypedProgram"]:
        """This program and every library below it, each once, in the
        order lookup_pou searches them.  A loop, not a recursive closure: a
        closure that calls itself is a reference cycle, which would keep the
        whole program alive until the cyclic garbage collector ran."""
        out: list[TypedProgram] = []
        seen: set[int] = set()
        stack = [self]
        while stack:
            unit = stack.pop()
            if id(unit) not in seen:
                seen.add(id(unit))
                out.append(unit)
                stack.extend(reversed(unit.libraries))
        return out


# each built-in block's variables, as PouInfo.vars holds a user block's
BUILTIN_VARS = {
    fb_type: {name: VarInfo(name, ty, section) for name, (ty, section) in slots.items()}
    for fb_type, slots in bi.BUILTIN_FBS.items()
}

# The most values a POU's instance may hold (PouInfo.size): the runtime
# builds each one, so a larger unit is rejected, as parser.MAX_DEPTH bounds
# nesting.
MAX_STORAGE = 1_000_000

_INT_LITERAL_KINDS = (T.Kind.INT, T.Kind.DINT, T.Kind.BYTE, T.Kind.WORD)
# each integer kind a literal can take: its one STType and its range
_INT_LITERAL_TYPES = {ty.kind: (ty, *T.INT_RANGES[ty.kind]) for ty in (T.INT, T.DINT, T.BYTE, T.WORD)}
# the literal kinds and operator and type sets type_binary tests
_ADAPTABLE_LITERALS = (Literal.K.INT, Literal.K.REAL)
_ORDERINGS = frozenset({BinOp.LT, BinOp.LE, BinOp.GT, BinOp.GE})
_COMPARISONS = _ORDERINGS | {BinOp.EQ, BinOp.NE}
_ORDERED_KINDS = frozenset({
    T.Kind.INT, T.Kind.DINT, T.Kind.BYTE, T.Kind.WORD, T.Kind.REAL, T.Kind.LREAL, T.Kind.TIME,
})
_WRITABLE_LVALUE_MSG = "assignment target must be a variable of this POU"


class _Resolver:
    def __init__(self, ast: Ast, libraries: list[TypedProgram]):
        self.ast = ast
        self.libraries = tuple(libraries)
        self.diags: list[Diagnostic] = []
        self.pous: dict[str, PouInfo] = {}
        # the program being built: its lookup sees this unit's POUs as they
        # are registered, then the libraries'
        self.prog = TypedProgram(ast, ast.src, self.pous, self.libraries)
        # state while checking one POU body
        self.cur: PouInfo | None = None
        self.loop_depth = 0

    # -- diagnostics ---------------------------------------------------------

    def err(self, message: str, span: Span) -> None:
        self.diags.append(Diagnostic(message, span))

    # -- entry ----------------------------------------------------------------

    def run(self) -> TypedProgram:
        # pass 1: register POU names so declarations may refer forward
        order: list[PouInfo] = []
        for pou in self.ast.pous:
            if pou.name in self.pous:
                self.err(f"duplicate declaration of {pou.name}", pou.span)
                continue
            if pou.kind is PouKind.FUNCTION_BLOCK and pou.name in bi.BUILTIN_FBS:
                self.err(f"{pou.name} is reserved for the built-in function block", pou.span)
                continue
            if pou.kind is PouKind.FUNCTION and bi.is_builtin_function(pou.name):
                self.err(f"{pou.name} is reserved for the built-in function", pou.span)
                continue
            info = PouInfo(pou.name, pou.kind, pou, {}, {})
            self.pous[pou.name] = info
            order.append(info)
        # pass 2: variable sections and return types
        for info in order:
            self.declare_pou(info)
        self.check_instances()

        for info in self.pous.values():
            self.cur = info
            self.check_body(info.decl.body)
            info.sites = info.decl.sites
        self.cur = None

        if self.diags:
            raise ResolveError(self.diags, self.ast.src)
        return self.prog

    # -- declarations ----------------------------------------------------------

    def resolve_type_ref(self, tref: TypeRef) -> T.STType | None:
        if tref.name == "ARRAY":
            elem = self.resolve_type_ref(tref.array_elem)
            if elem is None:
                return None
            if elem.kind is T.Kind.ARRAY:
                self.err("nested arrays are not supported", tref.span)
                return None
            if tref.array_lo > tref.array_hi:
                self.err("array lower bound exceeds upper bound", tref.span)
                return None
            return T.array(tref.array_lo, tref.array_hi, elem)
        if tref.name == "STRING":
            cap = tref.string_cap if tref.string_cap is not None else T.DEFAULT_STRING_CAP
            if cap <= 0:
                self.err("string capacity must be positive", tref.span)
                return None
            return T.string(cap)
        scalar = T.SCALARS.get(tref.name)
        if scalar is not None:
            return scalar
        return None  # possibly an FB type; caller decides

    def declare_pou(self, info: PouInfo) -> None:
        pou = info.decl
        if pou.kind is PouKind.FUNCTION:
            if pou.ret_type is None:
                self.err(f"function {pou.name} needs a return type", pou.span)
            else:
                rt = self.resolve_type_ref(pou.ret_type)
                if rt is None or rt.kind is T.Kind.ARRAY:
                    self.err(f"invalid return type for function {pou.name}", pou.ret_type.span)
                else:
                    info.ret_type = rt
                    # the function name acts as the result variable
                    info.vars[pou.name] = VarInfo(pou.name, rt, Section.OUTPUT, span=pou.span)

        for decl in pou.decls:
            if decl.name in info.vars or decl.name in info.fb_instances:
                self.err(f"duplicate declaration of variable {decl.name}", decl.span)
                continue
            ty = self.resolve_type_ref(decl.type_ref)
            name = decl.type_ref.name
            if ty is None and name not in ("ARRAY", "STRING"):
                fb = self.prog.lookup_pou(name)
                if name in bi.BUILTIN_FBS or fb is not None and fb.kind is PouKind.FUNCTION_BLOCK:
                    self._declare_instance(info, decl, name)
                else:
                    self.err(f"unknown type {name}", decl.type_ref.span)
                continue
            if ty is None:
                continue
            init = self.check_initializer(decl, ty) if decl.init is not None else None
            info.vars[decl.name] = VarInfo(decl.name, ty, decl.section, init, decl.span)

    def _declare_instance(self, info: PouInfo, decl, fb_type: str) -> None:
        if info.kind is PouKind.FUNCTION:
            self.err("function blocks cannot be instantiated inside functions", decl.span)
            return
        if decl.section not in (Section.LOCAL,):
            self.err(f"FB instance {decl.name} must be declared in VAR", decl.span)
            return
        if decl.init is not None:
            self.err(f"FB instance {decl.name} cannot take an initializer", decl.span)
            return
        info.fb_instances[decl.name] = fb_type

    def instance_edges(self, info: PouInfo):
        """(declaration, FB) for each of info's instances of this unit's FBs."""
        for decl in info.decl.decls:
            target = self.pous.get(info.fb_instances.get(decl.name))
            if target is not None and target.kind is PouKind.FUNCTION_BLOCK:
                yield decl, target

    def check_instances(self) -> None:
        """Reject an FB whose instance tree holds the FB itself: no finite
        instance could be built.  A cycle runs through this unit's FBs
        alone, since a library cannot name them.  A depth-first walk (a
        loop, so a long chain costs no Python stack) reports each cycle
        once, at the declaration that closes it.  It sizes each POU once
        it leaves it, after the FBs the POU holds (`size_pou`)."""
        done: set[str] = set()
        for root in self.pous.values():
            if root.name in done:
                continue
            # the FBs on the walk's path, each with the edges it has left
            path = [(root.name, self.instance_edges(root))]
            on_path = {root.name: 0}
            while path:
                edge = next(path[-1][1], None)
                if edge is None:
                    name = path.pop()[0]
                    del on_path[name]
                    done.add(name)
                    self.size_pou(self.pous[name])
                    continue
                decl, target = edge
                if target.name in on_path:
                    names = [name for name, _ in path[on_path[target.name]:]] + [target.name]
                    self.err(f"recursive instantiation: {' -> '.join(names)}", decl.span)
                elif target.name not in done:
                    on_path[target.name] = len(path)
                    path.append((target.name, self.instance_edges(target)))

    def size_pou(self, info: PouInfo) -> None:
        """Set info.size from its declarations and the sizes of the FBs it
        holds, sized before it (an FB of a cycle, already reported, counts
        as empty).  A POU above MAX_STORAGE is reported at the declaration
        that takes it past, unless that is an instance of an FB already
        above it."""
        total = 0
        seen: set[str] = set()
        for decl in info.decl.decls:
            if decl.name in seen:
                continue
            seen.add(decl.name)
            var = info.vars.get(decl.name)
            fb_type = info.fb_instances.get(decl.name)
            inner = 0
            if var is not None:
                n = var.ty.hi - var.ty.lo + 1 if var.ty.kind is T.Kind.ARRAY else 1
            elif fb_type is not None:
                builtin = bi.BUILTIN_FBS.get(fb_type)
                inner = len(builtin) if builtin else self.prog.lookup_pou(fb_type).size
                n = 1 + inner
            else:
                continue
            if total <= MAX_STORAGE < total + n and inner <= MAX_STORAGE:
                self.err(f"{info.name} would hold more than {MAX_STORAGE} values", decl.span)
            total += n
        info.size = total

    def check_initializer(self, decl, ty: T.STType):
        init = decl.init
        if ty.kind is T.Kind.ARRAY:
            if not isinstance(init, list):
                self.err(f"array variable {decl.name} needs a bracketed initializer", decl.span)
                return None
            want = ty.hi - ty.lo + 1
            if len(init) != want:
                self.err(
                    f"array initializer for {decl.name} has {len(init)} elements, expected {want}",
                    decl.span,
                )
                return None
            vals = []
            for lit in init:
                v = self.literal_value(lit, ty.elem, decl.span)
                if v is None:
                    return None
                vals.append(v)
            return vals
        if isinstance(init, list):
            self.err(f"scalar variable {decl.name} cannot take an array initializer", decl.span)
            return None
        return self.literal_value(init, ty, decl.span)

    def literal_value(self, lit: Literal, ty: T.STType, span: Span):
        """Check one literal against a declared type, returning the value."""
        k = lit.lit_kind
        if ty.kind in _INT_LITERAL_KINDS:
            if k is not Literal.K.INT:
                self.err(f"expected {ty} literal", lit.span if lit.span.end else span)
                return None
            lo, hi = T.INT_RANGES[ty.kind]
            if not (lo <= lit.value <= hi):
                self.err(f"literal {lit.value} exceeds {ty} range {lo}..{hi}", lit.span if lit.span.end else span)
                return None
            return lit.value
        if ty.kind in (T.Kind.REAL, T.Kind.LREAL):
            if k not in (Literal.K.REAL, Literal.K.INT):
                self.err(f"expected {ty} literal", lit.span if lit.span.end else span)
                return None
            return float(lit.value)
        if ty.kind is T.Kind.BOOL:
            if k is not Literal.K.BOOL:
                self.err("expected BOOL literal", lit.span if lit.span.end else span)
                return None
            return lit.value
        if ty.kind is T.Kind.TIME:
            if k is not Literal.K.TIME:
                self.err("expected TIME literal", lit.span if lit.span.end else span)
                return None
            return lit.value
        if ty.kind is T.Kind.STRING:
            if k is not Literal.K.STRING:
                self.err("expected STRING literal", lit.span if lit.span.end else span)
                return None
            return lit.value[: ty.cap]
        self.err(f"cannot initialize {ty}", span)
        return None

    # -- statements -------------------------------------------------------------

    def check_body(self, body: list[Stmt]) -> None:
        for st in body:
            _CHECKS[type(st)](self, st)

    def check_assign(self, st: Assign) -> None:
        target_ty = self.type_lvalue(st.target)
        value_ty = self.type_expr(st.value, expected=target_ty)
        if target_ty is not None and value_ty is not None and not T.assignable(value_ty, target_ty):
            self.err(f"cannot assign {value_ty} to {target_ty}", st.span)

    def check_if(self, st: IfStmt) -> None:
        for br in st.branches:
            self.expect_bool(br.cond)
            self.check_body(br.body)
        self.check_body(st.else_body)

    def check_case(self, st: CaseStmt) -> None:
        sel_ty = self.type_expr(st.selector)
        if sel_ty is not None and sel_ty.kind not in _INT_LITERAL_KINDS:
            self.err(f"CASE selector must be an integer type, got {sel_ty}", st.span)
            sel_ty = None
        for br in st.branches:
            for lab in br.labels:
                if lab.lo > lab.hi:
                    self.err(f"empty case range {lab.lo}..{lab.hi}", br.span)
                if sel_ty is not None:
                    lo, hi = T.INT_RANGES[sel_ty.kind]
                    if not (lo <= lab.lo <= hi and lo <= lab.hi <= hi):
                        self.err(f"case label {lab.lo}..{lab.hi} outside {sel_ty} range", br.span)
            self.check_body(br.body)
        self.check_body(st.else_body)

    def check_for(self, st: ForStmt) -> None:
        var = self.cur.vars.get(st.var)
        if var is None:
            self.err(f"unknown loop variable {st.var}", st.span)
            var_ty = None
        elif var.ty.kind not in (T.Kind.INT, T.Kind.DINT):
            self.err(f"loop variable {st.var} must be INT or DINT", st.span)
            var_ty = None
        else:
            var_ty = var.ty
        for part in (st.start, st.stop, st.step):
            if part is None:
                continue
            ty = self.type_expr(part, expected=var_ty)
            if ty is not None and var_ty is not None and not T.assignable(ty, var_ty):
                self.err(f"FOR bound type {ty} does not fit loop variable {var_ty}", st.span)
        if type(st.step) is Literal and st.step.value == 0:
            self.err("FOR step must not be zero", st.step.span)
        self.loop_depth += 1
        self.check_body(st.body)
        self.loop_depth -= 1

    def check_while(self, st: WhileStmt) -> None:
        self.expect_bool(st.cond)
        self.loop_depth += 1
        self.check_body(st.body)
        self.loop_depth -= 1

    def check_repeat(self, st: RepeatStmt) -> None:
        self.loop_depth += 1
        self.check_body(st.body)
        self.loop_depth -= 1
        self.expect_bool(st.until)

    def check_exit(self, st: ExitStmt) -> None:
        if self.loop_depth == 0:
            self.err("EXIT outside of a loop", st.span)

    def check_return(self, st: ReturnStmt) -> None:
        pass

    def expect_bool(self, cond: Expr) -> None:
        ty = self.type_expr(cond, expected=T.BOOL)
        if ty is not None and ty.kind is not T.Kind.BOOL:
            self.err(f"condition must be BOOL, got {ty}", cond.span)

    def fb_iface(self, fb_type: str) -> dict[str, VarInfo]:
        """The variables of the FB type of a declared instance."""
        return BUILTIN_VARS.get(fb_type) or self.prog.lookup_pou(fb_type).vars

    def check_fb_call(self, st: FbCall) -> None:
        fb_type = self.cur.fb_instances.get(st.instance)
        if fb_type is None:
            if st.instance in self.cur.vars:
                self.err(f"{st.instance} is not a function block instance", st.span)
            else:
                self.err(f"unknown identifier {st.instance}", st.span)
            return
        iface = self.fb_iface(fb_type)
        seen: set[str] = set()
        for p in st.params:
            if p.name in seen:
                self.err(f"parameter {p.name} bound twice", p.span)
                continue
            seen.add(p.name)
            slot = iface.get(p.name)
            if slot is None:
                self.err(f"{fb_type} has no parameter {p.name}", p.span)
                continue
            slot_ty, slot_sec = slot.ty, slot.section
            if p.is_output:
                if slot_sec is not Section.OUTPUT:
                    self.err(f"{p.name} is not an output of {fb_type}", p.span)
                    continue
                tgt_ty = self.type_lvalue(p.expr)
                if tgt_ty is not None and not T.assignable(slot_ty, tgt_ty):
                    self.err(f"cannot store {fb_type}.{p.name} ({slot_ty}) into {tgt_ty}", p.span)
            else:
                if slot_sec is Section.IN_OUT:
                    if type(p.expr) not in (VarRef, MemberRef, IndexRef):
                        self.err(f"VAR_IN_OUT parameter {p.name} needs a variable argument", p.span)
                        continue
                    tgt_ty = self.type_lvalue(p.expr)
                    if tgt_ty is not None and tgt_ty != slot_ty:
                        self.err(f"VAR_IN_OUT parameter {p.name} needs exactly {slot_ty}", p.span)
                    continue
                if slot_sec is not Section.INPUT:
                    self.err(f"{p.name} is not an input of {fb_type}", p.span)
                    continue
                arg_ty = self.type_expr(p.expr, expected=slot_ty)
                if arg_ty is not None and not T.assignable(arg_ty, slot_ty):
                    self.err(f"cannot pass {arg_ty} for {fb_type}.{p.name} ({slot_ty})", p.span)
        # every VAR_IN_OUT must be bound on each invocation
        for slot in iface.values():
            if slot.section is Section.IN_OUT and slot.name not in seen:
                self.err(f"VAR_IN_OUT parameter {slot.name} of {fb_type} must be bound", st.span)

    # -- expressions ---------------------------------------------------------------

    def type_lvalue(self, e: Expr) -> T.STType | None:
        kind = type(e)
        if kind is VarRef:
            var = self.cur.vars.get(e.name)
            if var is None:
                if e.name in self.cur.fb_instances:
                    self.err(f"cannot assign to function block instance {e.name}", e.span)
                else:
                    self.err(f"unknown identifier {e.name}", e.span)
                return None
            e.ty = var.ty
            return var.ty
        if kind is MemberRef:
            # writing into another instance is not allowed, inputs included
            if type(e.base) is VarRef and e.base.name in self.cur.fb_instances:
                fb_type = self.cur.fb_instances[e.base.name]
                slot = self.fb_iface(fb_type).get(e.member)
                if slot is not None and slot.section is Section.INPUT:
                    self.err(
                        f"cannot assign to input {e.member} of instance {e.base.name}; bind it in the call",
                        e.span,
                    )
                    return None
            self.err("cannot assign into a function block instance", e.span)
            return None
        if kind is IndexRef:
            base_ty = self.type_lvalue(e.base) if type(e.base) is VarRef else None
            if base_ty is None:
                return None
            if base_ty.kind is not T.Kind.ARRAY:
                self.err("only array variables can be indexed", e.span)
                return None
            idx_ty = self.type_expr(e.index, expected=T.DINT)
            if idx_ty is not None and idx_ty.kind not in (T.Kind.INT, T.Kind.DINT):
                self.err(f"array index must be INT or DINT, got {idx_ty}", e.span)
            e.ty = base_ty.elem
            return base_ty.elem
        self.err(_WRITABLE_LVALUE_MSG, e.span)
        return None

    def type_expr(self, e: Expr, expected: T.STType | None = None) -> T.STType | None:
        ty = _TYPES[type(e)](self, e, expected)
        if ty is not None:
            e.ty = ty
        return ty

    def type_var(self, e: VarRef, expected: T.STType | None) -> T.STType | None:
        var = self.cur.vars.get(e.name)
        if var is not None:
            return var.ty
        if e.name in self.cur.fb_instances:
            self.err(f"function block instance {e.name} is not a value", e.span)
            return None
        self.err(f"unknown identifier {e.name}", e.span)
        return None

    def type_member(self, e: MemberRef, expected: T.STType | None) -> T.STType | None:
        if type(e.base) is not VarRef:
            self.err("nested member access is not supported", e.span)
            return None
        fb_type = self.cur.fb_instances.get(e.base.name)
        if fb_type is None:
            self.err(f"{e.base.name} is not a function block instance", e.span)
            return None
        slot = self.fb_iface(fb_type).get(e.member)
        if slot is None:
            self.err(f"{fb_type} has no member {e.member}", e.span)
            return None
        if slot.section not in (Section.INPUT, Section.OUTPUT):
            self.err(f"member {e.member} of {fb_type} is not accessible", e.span)
            return None
        return slot.ty

    def type_index(self, e: IndexRef, expected: T.STType | None) -> T.STType | None:
        if type(e.base) is not VarRef:
            self.err("only array variables can be indexed", e.span)
            return None
        var = self.cur.vars.get(e.base.name)
        if var is None:
            self.err(f"unknown identifier {e.base.name}", e.span)
            return None
        e.base.ty = var.ty
        if var.ty.kind is not T.Kind.ARRAY:
            self.err(f"{e.base.name} is not an array", e.span)
            return None
        idx_ty = self.type_expr(e.index, expected=T.DINT)
        if idx_ty is not None and idx_ty.kind not in (T.Kind.INT, T.Kind.DINT):
            self.err(f"array index must be INT or DINT, got {idx_ty}", e.span)
        return var.ty.elem

    def type_literal(self, e: Literal, expected: T.STType | None) -> T.STType | None:
        k = e.lit_kind
        if k is Literal.K.BOOL:
            return T.BOOL
        if k is Literal.K.TIME:
            return T.TIME
        if k is Literal.K.STRING:
            return T.string(max(T.DEFAULT_STRING_CAP, len(e.value)))
        if k is Literal.K.REAL:
            if expected is not None and expected.kind is T.Kind.LREAL:
                return T.LREAL
            return T.REAL
        # integer literal: adopt the expected integer type when given
        if expected is not None and expected.kind in _INT_LITERAL_KINDS:
            ty, lo, hi = _INT_LITERAL_TYPES[expected.kind]
            if lo <= e.value <= hi:
                return ty
            self.err(
                f"literal {e.value} exceeds {expected} range {lo}..{hi}",
                e.span,
            )
            return None
        lo, hi = T.INT_RANGES[T.Kind.INT]
        if lo <= e.value <= hi:
            return T.INT
        lo, hi = T.INT_RANGES[T.Kind.DINT]
        if lo <= e.value <= hi:
            return T.DINT
        self.err(f"integer literal {e.value} out of range", e.span)
        return None

    def type_unary(self, e: Unary, expected: T.STType | None) -> T.STType | None:
        if e.op is UnOp.NOT:
            ty = self.type_expr(e.operand, expected=expected)
            if ty is None:
                return None
            if ty.kind is T.Kind.BOOL or ty.kind in T.BIT_KINDS:
                return ty
            self.err(f"NOT needs BOOL or a bit type, got {ty}", e.span)
            return None
        ty = self.type_expr(e.operand, expected=expected)
        if ty is None:
            return None
        if ty.kind in (T.Kind.INT, T.Kind.DINT, T.Kind.REAL, T.Kind.LREAL):
            return ty
        self.err(f"unary {e.op.value} needs a numeric operand, got {ty}", e.span)
        return None

    def type_binary(self, e: Binary, expected: T.STType | None) -> T.STType | None:
        comparison = e.op in _COMPARISONS
        hint = None if comparison else expected
        # a numeric literal takes its type from the other operand
        left_lit = type(e.left) is Literal and e.left.lit_kind in _ADAPTABLE_LITERALS
        right_lit = type(e.right) is Literal and e.right.lit_kind in _ADAPTABLE_LITERALS
        if left_lit and not right_lit:
            rt = self.type_expr(e.right, expected=hint)
            lt = self.type_expr(e.left, expected=rt)
        elif right_lit and not left_lit:
            lt = self.type_expr(e.left, expected=hint)
            rt = self.type_expr(e.right, expected=lt)
        else:
            lt = self.type_expr(e.left, expected=hint)
            rt = self.type_expr(e.right, expected=hint)
        if lt is None or rt is None:
            return None
        u = T.unify(lt, rt)

        if comparison:
            if u is None:
                self.err(f"cannot compare {lt} with {rt}", e.span)
                return None
            if e.op in _ORDERINGS and u.kind not in _ORDERED_KINDS:
                self.err(f"{u} values are not ordered", e.span)
                return None
            return T.BOOL

        if e.op in (BinOp.AND, BinOp.OR, BinOp.XOR):
            if u is not None and (u.kind is T.Kind.BOOL or u.kind in T.BIT_KINDS):
                return u
            self.err(f"{e.op.value} needs BOOL or bit-type operands", e.span)
            return None

        if e.op is BinOp.MOD:
            if u is not None and u.kind in (T.Kind.INT, T.Kind.DINT):
                return u
            self.err("MOD needs integer operands", e.span)
            return None

        if e.op is BinOp.POW:
            if lt.kind in (T.Kind.REAL, T.Kind.LREAL) and rt.kind in (
                T.Kind.INT, T.Kind.DINT, T.Kind.REAL, T.Kind.LREAL,
            ):
                return lt
            self.err("** needs a REAL or LREAL base and a numeric exponent", e.span)
            return None

        # ADD/SUB/MUL/DIV
        if u is not None and u.kind in (T.Kind.INT, T.Kind.DINT, T.Kind.REAL, T.Kind.LREAL):
            return u
        if u is not None and u.kind is T.Kind.TIME and e.op in (BinOp.ADD, BinOp.SUB):
            return u
        self.err(f"invalid operands for {e.op.value}: {lt} and {rt}", e.span)
        return None

    def type_call(self, e: Call, expected: T.STType | None) -> T.STType | None:
        if bi.is_builtin_function(e.name):
            # type arguments first (conversions get their declared source as hint)
            conv = bi.conversion_target(e.name)
            hint = conv[0] if conv and len(e.args) == 1 else None
            arg_types = []
            for arg in e.args:
                ty = self.type_expr(arg, expected=hint)
                if ty is None:
                    return None
                arg_types.append(ty)
            result = bi.check_builtin_call(e.name, arg_types)
            if isinstance(result, str):
                self.err(result, e.span)
                return None
            return result
        user = self.prog.lookup_pou(e.name)
        if user is None:
            self.err(f"unknown function {e.name}", e.span)
            return None
        if user.kind is not PouKind.FUNCTION:
            self.err(f"{e.name} is not a function", e.span)
            return None
        self.cur.calls.append(user.name)
        params = [v for v in user.vars.values() if v.section is Section.INPUT]
        if len(e.args) != len(params):
            self.err(f"{e.name} takes {len(params)} argument(s), got {len(e.args)}", e.span)
            return user.ret_type
        for arg, param in zip(e.args, params):
            ty = self.type_expr(arg, expected=param.ty)
            if ty is not None and not T.assignable(ty, param.ty):
                self.err(f"cannot pass {ty} for {e.name} parameter {param.name} ({param.ty})", e.span)
        return user.ret_type


# per node class, the method that checks a statement of it or types an
# expression of it
_CHECKS = {
    Assign: _Resolver.check_assign,
    FbCall: _Resolver.check_fb_call,
    ExitStmt: _Resolver.check_exit,
    ReturnStmt: _Resolver.check_return,
    IfStmt: _Resolver.check_if,
    CaseStmt: _Resolver.check_case,
    ForStmt: _Resolver.check_for,
    WhileStmt: _Resolver.check_while,
    RepeatStmt: _Resolver.check_repeat,
}
_TYPES = {
    Literal: _Resolver.type_literal,
    VarRef: _Resolver.type_var,
    MemberRef: _Resolver.type_member,
    IndexRef: _Resolver.type_index,
    Unary: _Resolver.type_unary,
    Binary: _Resolver.type_binary,
    Call: _Resolver.type_call,
}


def resolve(ast: Ast, libraries: list[TypedProgram] | None = None) -> TypedProgram:
    """Resolve an Ast against optional library units into a TypedProgram."""
    return _Resolver(ast, libraries or []).run()
