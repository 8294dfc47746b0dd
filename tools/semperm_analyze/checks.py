"""The semperm domain checks.

Every check has a stable ID (reported, testable, suppressible):

  determinism-rand          rand()/srand()/rand_r() in simulation code
  determinism-wall-clock    wall/steady clock reads in simulation code
  determinism-unseeded-rng  std::random_device / default-seeded <random>
                            engines in simulation code
  audit-mesi-bypass         a directory entry's sharers/owner/modified
                            written outside CoherentHierarchy::set_state /
                            drop_sharer
  hotpath-alloc             allocation reachable from a SEMPERM_HOT root
  seqlock-payload           non-atomic payload member in a seqlock slot
  alloc-raw-new             raw `new` outside placement form
  alloc-raw-delete          raw `delete` expression
  suppression-missing-justification
                            an allow() tag without a `-- why` justification

Suppression: a comment `semperm-analyze: allow(<id>) -- <justification>`
suppresses findings of <id> on its own line and the line below (so both
trailing and line-above placements work). The justification is mandatory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from cppindex import FileIndex, FuncDef, ProjectIndex

ALL_CHECKS = (
    "determinism-rand",
    "determinism-wall-clock",
    "determinism-unseeded-rng",
    "audit-mesi-bypass",
    "hotpath-alloc",
    "seqlock-payload",
    "alloc-raw-new",
    "alloc-raw-delete",
    "suppression-missing-justification",
)

# Directories whose code runs inside the simulated world and must be a
# pure function of its explicit seeds and clocks.
SIM_DIR_FRAGMENTS = (
    "src/cachesim", "src/coherence", "src/traffic", "src/simmpi", "src/fault",
    "src/resilience",
)

_CLOCK_NAMES = {"steady_clock", "system_clock", "high_resolution_clock"}
_CLOCK_CALLS = {"gettimeofday", "clock_gettime", "ftime", "timespec_get"}
_RAND_CALLS = {"rand", "srand", "rand_r", "drand48", "lrand48", "random",
               "srandom"}
_RNG_ENGINES = {"mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
                "default_random_engine", "ranlux24", "ranlux48",
                "knuth_b"}

# Names whose call means a dynamic allocation (or amortized growth) on
# any receiver. Receiver-blind by design: a push_back is a potential
# allocation no matter what it is called on.
_ALLOC_NAMES = {
    "malloc", "calloc", "realloc", "aligned_alloc", "strdup",
    "make_unique", "make_shared",
    "push_back", "emplace_back", "push_front", "emplace_front",
    "resize", "reserve", "insert", "emplace", "assign",
    "shrink_to_fit",
    # NOT banned: `append` — it is the match queues' fixed-storage domain
    # operation (the allocation-free structure the paper studies), and a
    # receiver-blind ban on the name would outlaw the hot path itself.
}


@dataclass
class Finding:
    check: str
    file: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.file}:{self.line}: [{self.check}] {self.message}"


# ---------------------------------------------------------------------------
# Suppressions


class Suppressions:
    def __init__(self, fi: FileIndex):
        # line -> set of allowed check ids (tag line and the line after)
        self.allowed: Dict[int, Set[str]] = {}
        self.malformed: List[Finding] = []
        for c in fi.comments:
            text = c.text
            marker = "semperm-analyze:"
            if marker not in text:
                continue
            body = text.split(marker, 1)[1].strip()
            if not body.startswith("allow("):
                continue  # other tags (e.g. struct markers) live elsewhere
            close = body.find(")")
            if close == -1:
                self.malformed.append(Finding(
                    "suppression-missing-justification", fi.path, c.line,
                    "malformed allow() tag"))
                continue
            ids = [x.strip() for x in body[len("allow("):close].split(",")]
            rest = body[close + 1:].strip()
            if not rest.startswith("--") or not rest[2:].strip():
                self.malformed.append(Finding(
                    "suppression-missing-justification", fi.path, c.line,
                    f"allow({', '.join(ids)}) tag has no `-- <justification>`"))
                continue
            bad = [x for x in ids if x not in ALL_CHECKS]
            if bad:
                self.malformed.append(Finding(
                    "suppression-missing-justification", fi.path, c.line,
                    f"allow() names unknown check id(s): {', '.join(bad)}"))
                continue
            for ln in (c.line, c.line + 1):
                self.allowed.setdefault(ln, set()).update(ids)

    def is_allowed(self, check: str, line: int) -> bool:
        return check in self.allowed.get(line, set())


# ---------------------------------------------------------------------------
# Determinism checks (simulation directories only)


def _in_sim_dirs(path: str, sim_fragments: Sequence[str]) -> bool:
    norm = path.replace("\\", "/")
    return any(frag in norm for frag in sim_fragments)


def check_determinism(fi: FileIndex, sup: Suppressions,
                      sim_fragments: Sequence[str]) -> List[Finding]:
    if not _in_sim_dirs(fi.path, sim_fragments):
        return []
    out: List[Finding] = []
    toks = fi.tokens
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        nxt = toks[i + 1].text if i + 1 < len(toks) else ""
        prev = toks[i - 1].text if i > 0 else ""
        if t.text in _RAND_CALLS and nxt == "(" and prev != ".":
            if not sup.is_allowed("determinism-rand", t.line):
                out.append(Finding(
                    "determinism-rand", fi.path, t.line,
                    f"`{t.text}()` in simulation code — use the seeded "
                    "xoshiro generators (common/rng)"))
        elif t.text in _CLOCK_NAMES and nxt == "::":
            member = toks[i + 2].text if i + 2 < len(toks) else ""
            if member == "now":
                if not sup.is_allowed("determinism-wall-clock", toks[i + 2].line):
                    out.append(Finding(
                        "determinism-wall-clock", fi.path, toks[i + 2].line,
                        f"`{t.text}::now()` in simulation code — simulated "
                        "components must take explicit `now_ns` inputs"))
        elif t.text in _CLOCK_CALLS and nxt == "(":
            if not sup.is_allowed("determinism-wall-clock", t.line):
                out.append(Finding(
                    "determinism-wall-clock", fi.path, t.line,
                    f"`{t.text}()` in simulation code"))
        elif t.text == "time" and nxt == "(" and prev in ("::", ";", "{", "=",
                                                          "(", ","):
            # std::time / ::time / bare time( — not `x.time(...)`.
            if not sup.is_allowed("determinism-wall-clock", t.line):
                out.append(Finding(
                    "determinism-wall-clock", fi.path, t.line,
                    "`time()` in simulation code"))
        elif t.text == "random_device":
            if not sup.is_allowed("determinism-unseeded-rng", t.line):
                out.append(Finding(
                    "determinism-unseeded-rng", fi.path, t.line,
                    "`std::random_device` in simulation code — seeds must "
                    "come from the experiment configuration"))
        elif t.text in _RNG_ENGINES:
            # `std::mt19937 gen;` / `mt19937 gen{};` — default-seeded.
            # A seeded constructor has a '(' or '{' with arguments.
            j = i + 1
            if j < len(toks) and toks[j].kind == "id":
                j += 1
                terminator = toks[j].text if j < len(toks) else ";"
                unseeded = (
                    terminator == ";" or
                    (terminator in ("(", "{") and j + 1 < len(toks)
                     and toks[j + 1].text in (")", "}")))
                if unseeded and not sup.is_allowed(
                        "determinism-unseeded-rng", t.line):
                    out.append(Finding(
                        "determinism-unseeded-rng", fi.path, t.line,
                        f"default-seeded `{t.text}` in simulation code"))
    return out


# ---------------------------------------------------------------------------
# MESI audit routing


_MESI_MUTATORS = {"set_state", "drop_sharer"}
# The directory entry is the only coherence record: every core's MESI
# state is derived from these three fields.
_DIR_ENTRY_FIELDS = {"sharers", "owner", "modified"}
_ASSIGN_OPS = {"=", "|=", "&=", "^=", "+=", "-=", "*=", "/=", "%=", "<<=",
               ">>=", "++", "--"}


def check_mesi_routing(fi: FileIndex, sup: Suppressions) -> List[Finding]:
    if "src/coherence" not in fi.path.replace("\\", "/"):
        return []
    out: List[Finding] = []
    toks = fi.tokens
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in _DIR_ENTRY_FIELDS:
            continue
        if i == 0 or toks[i - 1].text not in (".", "->"):
            continue
        op = toks[i + 1].text if i + 1 < len(toks) else ""
        pre = toks[i - 3].text if i >= 3 else ""
        if op not in _ASSIGN_OPS and pre not in ("++", "--"):
            continue
        fn = fi.enclosing_function(t.line)
        fname = fn.name if fn else "<file scope>"
        if fn is not None and fn.name in _MESI_MUTATORS and \
                (fn.cls == "CoherentHierarchy" or not fn.cls):
            continue
        if sup.is_allowed("audit-mesi-bypass", t.line):
            continue
        out.append(Finding(
            "audit-mesi-bypass", fi.path, t.line,
            f"write to directory-entry field `.{t.text}` in `{fname}` — "
            "MESI state must change through CoherentHierarchy::set_state / "
            "drop_sharer so the audit layer sees every transition"))
    return out


# ---------------------------------------------------------------------------
# Hot-path allocation freedom


def _body_alloc_findings(fn: FuncDef, root: FuncDef,
                         sup_for: Dict[str, Suppressions]) -> List[Finding]:
    out: List[Finding] = []
    sup = sup_for.get(fn.file)
    via = "" if fn is root else f" (reached from SEMPERM_HOT `{root.qname}`)"
    # Raw `new` expressions in the body (placement new is exempt).
    body = fn.body
    exempt_depth: List[int] = []
    depth = 0
    for i, t in enumerate(body):
        if t.text == "(":
            depth += 1
        elif t.text == ")":
            depth -= 1
            while exempt_depth and depth < exempt_depth[-1]:
                exempt_depth.pop()
        elif t.kind == "id" and t.text.startswith(
                ("SEMPERM_AUDIT", "SEMPERM_TRACE", "SEMPERM_OWNER")) and \
                i + 1 < len(body) and body[i + 1].text == "(":
            exempt_depth.append(depth + 1)
        elif t.text == "new" and t.kind == "id" and not exempt_depth:
            nxt = body[i + 1].text if i + 1 < len(body) else ""
            if nxt != "(":  # `new (addr) T` is placement — allocation-free
                if sup is None or not sup.is_allowed("hotpath-alloc", t.line):
                    out.append(Finding(
                        "hotpath-alloc", fn.file, t.line,
                        f"`new` expression in `{fn.qname}`{via}"))
    for call in fn.calls:
        if call.exempt:
            continue
        if call.name in _ALLOC_NAMES:
            if sup is None or not sup.is_allowed("hotpath-alloc", call.line):
                out.append(Finding(
                    "hotpath-alloc", fn.file, call.line,
                    f"`{call.name}(...)` in `{fn.qname}`{via} — hot paths "
                    "must not allocate (preallocate in setup, or tag a "
                    "deliberate sim-only side channel)"))
    return out


def check_hotpath_alloc(index: ProjectIndex,
                        sup_for: Dict[str, Suppressions]) -> List[Finding]:
    out: List[Finding] = []
    roots = index.hot_roots()
    for root in roots:
        seen: Set[int] = set()
        stack: List[FuncDef] = [root]
        while stack:
            fn = stack.pop()
            if id(fn) in seen:
                continue
            seen.add(id(fn))
            out.extend(_body_alloc_findings(fn, root, sup_for))
            for call in fn.calls:
                if call.exempt:
                    continue
                for callee in index.resolve(call, fn):
                    if id(callee) not in seen:
                        stack.append(callee)
    # The same allocation reached from several roots reports once.
    uniq: Dict[Tuple[str, int, str], Finding] = {}
    for f in out:
        uniq.setdefault((f.file, f.line, f.message), f)
    return list(uniq.values())


# ---------------------------------------------------------------------------
# Seqlock payload + layout contracts


def check_seqlock_payload(fi: FileIndex, sup: Suppressions) -> List[Finding]:
    out: List[Finding] = []
    for sd in fi.structs:
        is_seqlock = any("seqlock" in tag for tag in sd.tags) or any(
            m.name == "version" and m.is_atomic for m in sd.members)
        if not is_seqlock:
            continue
        for m in sd.members:
            if m.is_static or m.name == "version":
                continue
            if not m.is_atomic and not sup.is_allowed(
                    "seqlock-payload", m.line):
                out.append(Finding(
                    "seqlock-payload", fi.path, m.line,
                    f"`{sd.qname}::{m.name}` ({m.type_text or 'non-atomic'}) "
                    "is a plain field in a seqlock-versioned struct: readers "
                    "race with the writer by design, so every payload field "
                    "must be std::atomic"))
    return out


# ---------------------------------------------------------------------------
# Raw new / delete (migrated from tools/lint.sh greps, now scope-aware)


def check_raw_new_delete(fi: FileIndex, sup: Suppressions) -> List[Finding]:
    out: List[Finding] = []
    toks = fi.tokens
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        prev = toks[i - 1].text if i > 0 else ""
        nxt = toks[i + 1].text if i + 1 < len(toks) else ""
        if t.text == "new":
            if prev == "operator" or nxt == "(":
                continue  # operator-new declaration / placement new
            if not sup.is_allowed("alloc-raw-new", t.line):
                out.append(Finding(
                    "alloc-raw-new", fi.path, t.line,
                    "raw `new` — own allocations through std::unique_ptr / "
                    "std::vector / the arena allocators (memlayout)"))
        elif t.text == "delete":
            if prev in ("=", "operator"):
                continue  # deleted function / operator-delete declaration
            if nxt == "[":
                if not sup.is_allowed("alloc-raw-delete", t.line):
                    out.append(Finding("alloc-raw-delete", fi.path, t.line,
                                       "raw `delete[]`"))
                continue
            if not sup.is_allowed("alloc-raw-delete", t.line):
                out.append(Finding(
                    "alloc-raw-delete", fi.path, t.line,
                    "raw `delete` — pair allocations with RAII owners "
                    "instead"))
    return out


# ---------------------------------------------------------------------------
# Driver


def run_checks(index: ProjectIndex,
               sim_fragments: Sequence[str] = SIM_DIR_FRAGMENTS,
               only: Optional[Set[str]] = None) -> List[Finding]:
    findings: List[Finding] = []
    sup_for = {path: Suppressions(fi) for path, fi in index.files.items()}

    def want(check: str) -> bool:
        return only is None or check in only

    for path, fi in index.files.items():
        sup = sup_for[path]
        if want("suppression-missing-justification"):
            findings.extend(sup.malformed)
        if want("determinism-rand") or want("determinism-wall-clock") or \
                want("determinism-unseeded-rng"):
            det = check_determinism(fi, sup, sim_fragments)
            findings.extend(f for f in det if want(f.check))
        if want("audit-mesi-bypass"):
            findings.extend(check_mesi_routing(fi, sup))
        if want("seqlock-payload"):
            findings.extend(check_seqlock_payload(fi, sup))
        if want("alloc-raw-new") or want("alloc-raw-delete"):
            raw = check_raw_new_delete(fi, sup)
            findings.extend(f for f in raw if want(f.check))
    if want("hotpath-alloc"):
        findings.extend(check_hotpath_alloc(index, sup_for))
    findings.sort(key=lambda f: (f.file, f.line, f.check))
    return findings
