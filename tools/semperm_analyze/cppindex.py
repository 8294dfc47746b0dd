"""Structural C++ index for semperm_analyze.

Builds, from the token stream, the three structures the checks consume:

  * FuncDef   — every function *definition*, with its enclosing class /
                namespace qualification, SEMPERM_HOT marking, and body
                tokens (lambdas inside a body are simply part of it);
  * StructDef — every struct/class with its data members in declaration
                order (name, type text, atomic-ness);
  * CallSite  — extracted per function body: callee name, how it was
                qualified (plain / member / scoped), and whether the call
                sits inside a compiled-out instrumentation macro
                (SEMPERM_AUDIT_ONLY / SEMPERM_TRACE_* / SEMPERM_OWNER_*).

The parser is deliberately structural, not semantic: it tracks brace,
paren, and angle nesting plus scope names, which is sufficient to resolve
"which function does this statement belong to" and "what are this
struct's members in order" — the two questions grep fundamentally cannot
answer and the previous lint.sh got wrong at the margins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from lexer import Token, tokenize

# Control-flow / expression keywords that look like calls at token level.
_NOT_CALLS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "alignas",
    "decltype", "static_assert", "catch", "noexcept", "static_cast",
    "dynamic_cast", "const_cast", "reinterpret_cast", "throw", "new",
    "delete", "assert", "defined", "co_await", "co_return", "co_yield",
}

# Instrumentation macros whose arguments are compiled out of measurement
# builds: calls inside them never run on a protected hot path. The
# SEMPERM_OWNER_SCOPE attribution macro (DESIGN.md §16) expands to
# nothing when SEMPERM_TRACE is 0, so it earns the same exemption.
_EXEMPT_MACRO_PREFIXES = ("SEMPERM_AUDIT", "SEMPERM_TRACE", "SEMPERM_OWNER")


def _is_macroish(name: str) -> bool:
    return bool(name) and name.upper() == name and any(c.isalpha() for c in name)


@dataclass
class CallSite:
    name: str
    line: int
    qualifier: str        # 'plain' | 'member' | scope name for 'X::name'
    exempt: bool          # inside a compiled-out instrumentation macro


@dataclass
class FuncDef:
    name: str
    qname: str            # namespaces + class + name, '::'-joined
    cls: str              # enclosing (or qualifying) class name, '' if free
    file: str
    decl_line: int
    body_start: int       # line of the opening brace
    body_end: int         # line of the closing brace
    hot: bool
    body: List[Token] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)


@dataclass
class Member:
    name: str
    type_text: str
    line: int
    is_atomic: bool
    is_static: bool


@dataclass
class StructDef:
    name: str
    qname: str
    file: str
    line: int
    members: List[Member] = field(default_factory=list)
    tags: List[str] = field(default_factory=list)  # header-comment tags


@dataclass
class FileIndex:
    path: str
    tokens: List[Token]
    comments: list
    funcs: List[FuncDef] = field(default_factory=list)
    structs: List[StructDef] = field(default_factory=list)
    # (class, name) of member-function *declarations* marked SEMPERM_HOT:
    # the marker lives on the in-class declaration, the body elsewhere.
    hot_decls: List[Tuple[str, str]] = field(default_factory=list)

    def enclosing_function(self, line: int) -> Optional[FuncDef]:
        best = None
        for f in self.funcs:
            if f.body_start <= line <= f.body_end:
                if best is None or (f.body_end - f.body_start) < (
                        best.body_end - best.body_start):
                    best = f
        return best


def _skip_angles(tokens: List[Token], i: int) -> int:
    """tokens[i] == '<': return index just past the matching '>'.
    '>>' closes two levels (template terminator)."""
    depth = 0
    while i < len(tokens):
        t = tokens[i].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
        elif t == ">>":
            depth -= 2
        elif t in (";", "{"):       # bail out: was a comparison after all
            return i
        i += 1
        if depth <= 0:
            return i
    return i


def _match_group(tokens: List[Token], i: int, open_: str, close: str) -> int:
    """tokens[i] == open_: return index just past the matching close."""
    depth = 0
    while i < len(tokens):
        t = tokens[i].text
        if t == open_:
            depth += 1
        elif t == close:
            depth -= 1
        i += 1
        if depth == 0:
            return i
    return i


def _decl_function_name(decl: List[Token]) -> Tuple[Optional[str], List[str]]:
    """Given the declaration tokens preceding a '{' at class/namespace
    scope, decide whether it is a function definition. Returns
    (name, scope_chain) — name None if it is not a function."""
    # A top-level '=' means an initialized variable (possibly a lambda).
    depth = 0
    seen_close = False
    cut = len(decl)
    for idx, t in enumerate(decl):
        if t.text in ("(", "[", "{"):
            depth += 1
        elif t.text in (")", "]", "}"):
            depth -= 1
            seen_close = True
        elif depth == 0 and t.text == "=":
            return None, []
        elif depth == 0 and t.text == ":" and seen_close:
            cut = idx          # constructor init-list starts here
            break
    decl = decl[:cut]

    # Find top-level paren groups and what precedes them.
    best: Optional[Tuple[int, str]] = None  # (index of name token, name)
    i = 0
    depth = 0
    while i < len(decl):
        t = decl[i].text
        if t == "(" and depth == 0 and i > 0:
            prev = decl[i - 1]
            if prev.kind == "id" and prev.text not in _NOT_CALLS:
                if prev.text == "operator" or not _is_macroish(prev.text):
                    best = (i - 1, prev.text)
            elif prev.kind == "punct" and i >= 2 and decl[i - 2].text == "operator":
                best = (i - 2, "operator" + prev.text)
            i = _match_group(decl, i, "(", ")")
            continue
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
        i += 1

    if best is None:
        return None, []
    name_idx, name = best
    # operator conversions: `operator bool (`.
    if name_idx > 0 and decl[name_idx - 1].text == "operator":
        name = "operator " + name
        name_idx -= 1
    # Walk back over `A::B::name` qualification.
    chain: List[str] = []
    j = name_idx - 1
    while j >= 1 and decl[j].text == "::" and decl[j - 1].kind == "id":
        chain.insert(0, decl[j - 1].text)
        j -= 2
    return name, chain


def _finalize_member(decl: List[Token], struct: StructDef,
                     fi: "FileIndex") -> None:
    texts = [t.text for t in decl]
    if not decl or "friend" in texts or "using" in texts or \
            "typedef" in texts or "operator" in texts:
        return
    is_static = "static" in texts
    # Find the member name: last top-level identifier before the first
    # '=', '{', or '[' (or the end). Annotation macros and their
    # arguments are transparent.
    name = None
    name_line = decl[0].line
    type_end = 0
    i = 0
    while i < len(decl):
        t = decl[i]
        if t.text == "<":
            i = _skip_angles(decl, i)
            continue
        if t.text == "(":
            i = _match_group(decl, i, "(", ")")
            continue
        if t.text in ("=", "{", "["):
            break
        if t.kind == "id" and t.text not in ("const", "mutable", "static",
                                             "constexpr", "volatile",
                                             "inline", "struct", "class"):
            if _is_macroish(t.text):
                # all-caps macro (GUARDED_BY etc. — a following paren group
                # is skipped by the '(' branch above)
                i += 1
                continue
            name = t.text
            name_line = t.line
            type_end = i
        i += 1
    if name is None:
        return
    # Function declaration (`void f();`) => name followed by a paren group.
    j = type_end + 1
    if j < len(decl) and decl[j].text == "(":
        if "SEMPERM_HOT" in texts:
            fi.hot_decls.append((struct.name, name))
        return
    type_text = " ".join(t.text for t in decl[:type_end])
    struct.members.append(Member(
        name=name,
        type_text=type_text,
        line=name_line,
        is_atomic="atomic" in type_text or "atomic_flag" in type_text,
        is_static=is_static,
    ))


def _extract_calls(body: List[Token]) -> List[CallSite]:
    calls: List[CallSite] = []
    # Stack of token depths at which an exempt macro's arg list closes.
    depth = 0
    exempt_until: List[int] = []
    i = 0
    while i < len(body):
        t = body[i]
        if t.text == "(":
            depth += 1
        elif t.text == ")":
            depth -= 1
            while exempt_until and depth < exempt_until[-1]:
                exempt_until.pop()
        elif (t.kind == "id" and i + 1 < len(body)
              and body[i + 1].text == "("):
            if t.text.startswith(_EXEMPT_MACRO_PREFIXES):
                exempt_until.append(depth + 1)
            elif t.text not in _NOT_CALLS:
                prev = body[i - 1] if i > 0 else None
                qualifier = "plain"
                if prev is not None:
                    if prev.text in (".", "->"):
                        qualifier = "member"
                    elif prev.text == "::":
                        scope = body[i - 2].text if i >= 2 else ""
                        qualifier = scope or "member"
                calls.append(CallSite(t.text, t.line, qualifier,
                                      bool(exempt_until)))
        i += 1
    return calls


def index_file(path: str, source: str) -> FileIndex:
    tokens, comments = tokenize(source)
    fi = FileIndex(path=path, tokens=tokens, comments=comments)

    # Scope stack: ('ns', name) | ('class', name, StructDef) | ('brace',)
    stack: List[tuple] = []
    decl: List[Token] = []
    i = 0
    n = len(tokens)

    def scope_names() -> List[str]:
        return [s[1] for s in stack if s[0] in ("ns", "class")]

    def current_class() -> Optional[StructDef]:
        for s in reversed(stack):
            if s[0] == "class":
                return s[2]
            if s[0] == "ns":
                break
        return None

    while i < n:
        t = tokens[i]

        if t.text == "template" and i + 1 < n and tokens[i + 1].text == "<":
            decl.append(t)
            i = _skip_angles(tokens, i + 1)
            continue

        if t.text == "namespace":
            j = i + 1
            name_parts = []
            while j < n and tokens[j].text not in ("{", ";", "="):
                if tokens[j].kind == "id":
                    name_parts.append(tokens[j].text)
                j += 1
            if j < n and tokens[j].text == "{":
                stack.append(("ns", "::".join(name_parts) or "<anon>"))
                decl = []
                i = j + 1
                continue
            # alias / using-directive: treat as plain declaration
            i = j
            continue

        if t.text == "enum":
            # enum [class] Name [: base] { ... } ;  — skip wholesale.
            j = i + 1
            while j < n and tokens[j].text not in ("{", ";"):
                j += 1
            if j < n and tokens[j].text == "{":
                j = _match_group(tokens, j, "{", "}")
            while j < n and tokens[j].text != ";":
                j += 1
            decl = []
            i = j + 1
            continue

        if t.text in ("class", "struct") and not (decl and decl[-1].text in
                                                  ("enum",)):
            # Peek: definition or forward declaration / parameter?
            j = i + 1
            header: List[Token] = []
            while j < n and tokens[j].text not in ("{", ";"):
                header.append(tokens[j])
                j += 1
            if j < n and tokens[j].text == "{":
                # Name: last plain identifier before a lone ':' (base
                # clause), skipping macro groups and alignas(...).
                name = "<anon>"
                k = 0
                while k < len(header):
                    h = header[k]
                    if h.text == "alignas" and k + 1 < len(header) and \
                            header[k + 1].text == "(":
                        k = _match_group(header, k + 1, "(", ")")
                        continue
                    if h.text == "(":
                        k = _match_group(header, k, "(", ")")
                        continue
                    if h.text == ":" :
                        break
                    if h.text == "<":
                        k = _skip_angles(header, k)
                        continue
                    if h.kind == "id" and h.text != "final" and \
                            not _is_macroish(h.text):
                        name = h.text
                    k += 1
                sd = StructDef(name=name,
                               qname="::".join(scope_names() + [name]),
                               file=path, line=t.line)
                fi.structs.append(sd)
                stack.append(("class", name, sd))
                decl = []
                i = j + 1
                continue
            # fwd decl or elaborated type: fall through as decl tokens.
            decl.append(t)
            i += 1
            continue

        if t.text == "{":
            name, chain = _decl_function_name(decl)
            if name is not None:
                end = _match_group(tokens, i, "{", "}")
                body = tokens[i + 1:end - 1]
                cls = chain[-1] if chain else (
                    stack[-1][1] if stack and stack[-1][0] == "class" else "")
                qname = "::".join([s for s in scope_names()] + chain + [name])
                hot = any(d.text == "SEMPERM_HOT" for d in decl)
                fn = FuncDef(name=name, qname=qname, cls=cls, file=path,
                             decl_line=decl[0].line,
                             body_start=t.line,
                             body_end=tokens[end - 1].line if end - 1 < n
                             else t.line,
                             hot=hot, body=body)
                fn.calls = _extract_calls(body)
                fi.funcs.append(fn)
                decl = []
                i = end
                continue
            # Not a function: brace initializer or unknown block — skip it
            # but keep accumulating the declaration (e.g. `x{0};`).
            i = _match_group(tokens, i, "{", "}")
            continue

        if t.text == ";":
            cls = current_class()
            if cls is not None and stack and stack[-1][0] == "class":
                _finalize_member(decl, stack[-1][2], fi)
            decl = []
            i += 1
            continue

        if t.text == "}":
            if stack:
                stack.pop()
            decl = []
            i += 1
            # struct/class closers are followed by optional declarators
            # and ';' — those parse as a harmless empty-ish declaration.
            continue

        if (t.text in ("public", "private", "protected") and i + 1 < n
                and tokens[i + 1].text == ":"):
            decl = []
            i += 2
            continue

        decl.append(t)
        i += 1

    # Struct tag comments: `semperm-analyze: <tag>` in a comment on the
    # struct's line or up to 2 lines above its definition.
    for sd in fi.structs:
        for c in fi.comments:
            if sd.line - 3 <= c.line <= sd.line and "semperm-analyze:" in c.text:
                sd.tags.append(c.text.split("semperm-analyze:", 1)[1].strip())
    return fi


class ProjectIndex:
    """All indexed files plus cross-file call resolution."""

    def __init__(self) -> None:
        self.files: Dict[str, FileIndex] = {}
        self._by_name: Dict[str, List[FuncDef]] = {}
        self._by_cls_name: Dict[Tuple[str, str], List[FuncDef]] = {}

    def add(self, fi: FileIndex) -> None:
        self.files[fi.path] = fi
        for fn in fi.funcs:
            self._by_name.setdefault(fn.name, []).append(fn)
            self._by_cls_name.setdefault((fn.cls, fn.name), []).append(fn)

    def all_funcs(self) -> List[FuncDef]:
        return [f for fi in self.files.values() for f in fi.funcs]

    def hot_roots(self) -> List[FuncDef]:
        declared = {pair for fi in self.files.values()
                    for pair in fi.hot_decls}
        return [f for f in self.all_funcs()
                if f.hot or (f.cls, f.name) in declared]

    def resolve(self, call: CallSite, caller: FuncDef) -> List[FuncDef]:
        """Resolve a call to candidate definitions. Same-class methods win;
        otherwise unique free functions by name. Member calls through an
        object of another type are not resolved (documented limitation —
        the banned-name check still sees them)."""
        if call.qualifier == "member":
            return []
        if call.qualifier not in ("plain",):
            # X::name — resolve against class X when indexed.
            return self._by_cls_name.get((call.qualifier, call.name), [])
        if caller.cls:
            same = self._by_cls_name.get((caller.cls, call.name), [])
            if same:
                return same
        free = self._by_cls_name.get(("", call.name), [])
        if len(free) == 1:
            return free
        return []
