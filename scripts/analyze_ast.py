#!/usr/bin/env python3
"""AST-grade concurrency analyzer: memory-order and lock-free protocol rules.

Where scripts/lint_invariants.py checks invariants a regex can see, this
engine checks the ones that need program structure: which atomic ops a
function performs, in what order, under which claim. Rules (each with a
per-rule allowlist whose every entry carries a reason, see *_ALLOW):

  A1 explicit-memory-order
      Every load/store/exchange/fetch_*/compare_exchange_*/wait on a
      std::atomic must name an explicit std::memory_order, and the
      operator forms (a++, a += n, a = v, implicit conversion reads)
      are forbidden outright — they cannot name one. Implicit seq_cst
      is a full fence on x86 and a dmb on ARM that nobody decided to
      pay; spelling the order is the decision record. Deliberate
      seq_cst stays legal when written out (std::memory_order_seq_cst).
  A2 seqlock-protocol
      In functions using seqClaim/seqRelease (common/striped.hpp):
      claims and releases must pair up, atomic stores to the claimed
      object's sibling fields must happen inside the claim window and
      use release (or seq_cst) order — the exact ARM-visibility bug the
      PR 5 review caught by hand. Reader-side: a function that loads a
      sequence word directly must re-load it AFTER the protected field
      loads (torn-snapshot re-check), and the first sequence load must
      be acquire.
  A3 claim-release-exception-safety
      A function that claims a busy word with compare_exchange and
      manually store-releases it later may not call anything potentially
      throwing in between: a throw leaks the claim forever (the inline-
      lane leak class PR 5 fixed by hand). Use the RAII releaser
      (common::ClaimGuard) instead of a manual store.
  A4 lock-free-audit-coverage
      Every function touching a std::atomic member (class member or
      namespace-scope global; function locals are exempt) outside a
      MutexLock/TP_REQUIRES scope must carry TP_LOCK_FREE_AUDITED, so
      no lock-free code ships without a named audit + TSan test
      (rule R7 checks the reason string's "TSan:" tag).

Front end: a comment/string-stripped token scanner over src/ that
builds per-function event streams from declarations it collects across
the tree. It needs no toolchain, so tier-1 enforces the rules (and the
self-tests exercise them) on every machine. It resolves names, not
types: a name is atomic when some std::atomic declaration in src/ uses
it, and a namesake plain field is told apart by its owner's declared
type. Its one known blind spot is an atomic passed as a call argument
(seqClaim(slot.seq), ClaimGuard g(lane.busy), f(counter)): a textual
scan cannot tell a by-reference parameter from a by-value one, so such
an argument is never reported as an implicit conversion read.

Usage:
  python3 scripts/analyze_ast.py [--root DIR] [--json REPORT]
Exit status: 0 clean, 1 findings, 2 internal error.
"""

import argparse
import bisect
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Only src/ carries the concurrency contracts; bench/ and tools/ are
# single-purpose drivers allowed raw primitives (same scope as lint R2).
SOURCE_DIRS = ("src",)
SOURCE_EXTS = (".hpp", ".cpp")

# --------------------------------------------------------------------------
# Allowlists. Every entry is (path-prefix, symbol, reason): `symbol`
# narrows the suppression to events whose chain or base name matches
# (None suppresses the whole path for that rule). A reason is mandatory;
# validate_allowlists() and the self-tests reject empty ones.

A1_ALLOW = (
    # No entries: every implicit-seq_cst site in the tree was converted
    # to an explicit order. Deliberate seq_cst (the drain()/shutdown()
    # accepting_/inFlight_ protocol in serve/service.cpp) is spelled
    # std::memory_order_seq_cst and therefore passes without suppression.
)

A2_ALLOW = (
    ("src/serve/cache.cpp", "ref",
     "CLOCK second-chance bit is advisory by design: readers set it after "
     "the sequence re-check and the sweep reads it relaxed — a stale value "
     "only perturbs eviction order, never the published decision payload"),
)

A3_ALLOW = (
    # No entries: the one claim/release section (the admission breaker's
    # evaluation) holds its claim through common::ClaimGuard, which
    # releases on every path.
)

A4_ALLOW = (
    # No entries: every function touching a member atomic outside a lock
    # scope carries TP_LOCK_FREE_AUDITED naming its TSan coverage.
)

RULES = {
    "A1": ("explicit-memory-order", A1_ALLOW),
    "A2": ("seqlock-protocol", A2_ALLOW),
    "A3": ("claim-release-exception-safety", A3_ALLOW),
    "A4": ("lock-free-audit-coverage", A4_ALLOW),
}


def validate_allowlists():
    for rule, (_, allow) in sorted(RULES.items()):
        for entry in allow:
            if len(entry) != 3:
                raise ValueError(
                    f"{rule} allowlist entry {entry!r}: must be "
                    "(path, symbol, reason)")
            path, _symbol, reason = entry
            if not path or not isinstance(reason, str) or not reason.strip():
                raise ValueError(
                    f"{rule} allowlist entry for {path!r}: every entry "
                    "must carry a non-empty reason string")


def suppressed(rule, rel, symbol_candidates):
    _, allow = RULES[rule]
    for path, symbol, _reason in allow:
        if not (rel == path or rel.startswith(path.rstrip("/") + "/")):
            continue
        if symbol is None or symbol in symbol_candidates:
            return True
    return False


# --------------------------------------------------------------------------
# Shared IR

ATOMIC_OPS = {
    "load": "load", "store": "store", "exchange": "rmw",
    "fetch_add": "rmw", "fetch_sub": "rmw", "fetch_and": "rmw",
    "fetch_or": "rmw", "fetch_xor": "rmw",
    "compare_exchange_weak": "cas", "compare_exchange_strong": "cas",
    "wait": "wait", "test_and_set": "rmw", "clear": "store",
}

RELEASING = ("release", "acq_rel", "seq_cst")
ACQUIRING = ("acquire", "acq_rel", "seq_cst", "consume")


class Event:
    """One atomic operation (or claim/release/plain call) in a function.

    kind: load|store|rmw|cas|wait|compound|assign|incdec|conv|
          seq_claim|seq_release|call
    chain: normalized object expression, '.'-joined ("slot.seq")
    scope: member|local|unknown — member covers class members and
           namespace-scope globals (both A4-relevant)
    orders: memory_order suffixes named in the argument list
    pos: offset in the stripped source (orders events in a function)
    """

    __slots__ = ("kind", "chain", "orders", "line", "pos", "scope", "name")

    def __init__(self, kind, chain, orders, line, pos, scope="unknown",
                 name=""):
        self.kind = kind
        self.chain = chain
        self.orders = orders
        self.line = line
        self.pos = pos
        self.scope = scope
        self.name = name  # for kind == "call": callee name

    @property
    def base(self):
        return self.chain.split(".")[-1] if self.chain else ""

    @property
    def root(self):
        return self.chain.split(".")[0] if self.chain else ""

    @property
    def explicit(self):
        return bool(self.orders)


class FunctionModel:
    __slots__ = ("name", "qualname", "path", "line", "audited", "requires",
                 "locks", "events")

    def __init__(self, name, qualname, path, line, audited=False,
                 requires=False, locks=False):
        self.name = name
        self.qualname = qualname
        self.path = path
        self.line = line
        self.audited = audited
        self.requires = requires
        self.locks = locks
        self.events = []


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def as_dict(self):
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message}


# --------------------------------------------------------------------------
# Rule engine


def check_a1(functions):
    out = []
    for fn in functions:
        for ev in fn.events:
            if ev.kind in ("load", "store", "rmw", "cas", "wait"):
                if ev.explicit:
                    continue
                if suppressed("A1", fn.path, {ev.chain, ev.base}):
                    continue
                out.append(Finding(
                    "A1", fn.path, ev.line,
                    f"atomic {ev.kind} '{ev.chain}.{ev.kind}' in "
                    f"{fn.qualname}() names no std::memory_order (implicit "
                    "seq_cst pays a full fence nobody chose); spell the "
                    "order — std::memory_order_seq_cst if that is the "
                    "intent"))
            elif ev.kind in ("compound", "assign", "incdec", "conv"):
                if suppressed("A1", fn.path, {ev.chain, ev.base}):
                    continue
                forms = {"compound": "compound assignment",
                         "assign": "operator=",
                         "incdec": "increment/decrement",
                         "conv": "implicit conversion read"}
                out.append(Finding(
                    "A1", fn.path, ev.line,
                    f"{forms[ev.kind]} on std::atomic '{ev.chain}' in "
                    f"{fn.qualname}() is an implicit seq_cst operation; "
                    "use .fetch_add/.store/.load with an explicit "
                    "std::memory_order"))
    return out


def check_a2(functions, seq_names):
    out = []
    for fn in functions:
        events = sorted(fn.events, key=lambda e: e.pos)
        claims = [e for e in events if e.kind == "seq_claim"]
        releases = [e for e in events if e.kind == "seq_release"]
        if claims or releases:
            out.extend(_a2_writer(fn, events, claims, releases))
        else:
            out.extend(_a2_reader(fn, events, seq_names))
    return out


def _a2_writer(fn, events, claims, releases):
    out = []
    if bool(claims) != bool(releases):
        out.append(Finding(
            "A2", fn.path, (claims or releases)[0].line,
            f"{fn.qualname}(): {len(claims)} seqClaim vs {len(releases)} "
            "seqRelease — every claim must have a matching release on "
            "every path (a stuck-odd word spins readers forever)"))
    # Window per root: [first claim, last release]. Early-out branches
    # release before returning, so release count may legitimately exceed
    # claim count; the conservative envelope still catches stores before
    # the claim or after the final release.
    windows = []
    by_root = {}
    for ev in claims + releases:
        by_root.setdefault(ev.root, []).append(ev)
    for root, evs in by_root.items():
        c = [e.pos for e in evs if e.kind == "seq_claim"]
        r = [e.pos for e in evs if e.kind == "seq_release"]
        if c and r:
            windows.append((root, min(c), max(r)))
    claimed_roots = {c.root for c in claims}
    for ev in events:
        if ev.kind not in ("store", "compound", "assign", "incdec"):
            continue
        if ev.root not in claimed_roots or not ev.root:
            continue
        if ev.base in {c.base for c in claims}:
            continue  # the sequence word itself is seqRelease's job
        inside = any(r == ev.root and s < ev.pos < e
                     for (r, s, e) in windows)
        if suppressed("A2", fn.path, {ev.chain, ev.base}):
            continue
        if not inside:
            out.append(Finding(
                "A2", fn.path, ev.line,
                f"store to seqlock-protected field '{ev.chain}' in "
                f"{fn.qualname}() outside the claim window — the claim "
                "must dominate every protected store"))
        elif ev.kind == "store" and \
                not any(o in RELEASING for o in ev.orders):
            out.append(Finding(
                "A2", fn.path, ev.line,
                f"seqlock writer stores '{ev.chain}' in {fn.qualname}() "
                "without release order inside the claim window; a relaxed "
                "store can become visible after seqRelease publishes the "
                "even sequence (torn read on ARM) — use "
                "std::memory_order_release"))
    return out


def _a2_reader(fn, events, seq_names):
    out = []
    loads = [e for e in events if e.kind == "load"]
    by_root = {}
    for ev in loads:
        if "." in ev.chain:
            by_root.setdefault(ev.root, []).append(ev)
    for root, evs in sorted(by_root.items()):
        seq_loads = [e for e in evs if e.base in seq_names]
        field_loads = [e for e in evs if e.base not in seq_names]
        if not seq_loads or not field_loads:
            continue
        field_loads = [e for e in field_loads
                       if not suppressed("A2", fn.path, {e.chain, e.base})]
        if not field_loads:
            continue
        first = seq_loads[0]
        if first.explicit and not any(o in ACQUIRING for o in first.orders):
            out.append(Finding(
                "A2", fn.path, first.line,
                f"seqlock reader '{fn.qualname}()' loads sequence word "
                f"'{first.chain}' without acquire order before reading "
                "protected fields; the field loads may be satisfied before "
                "the sequence check — use std::memory_order_acquire"))
        if len(seq_loads) < 2:
            out.append(Finding(
                "A2", fn.path, field_loads[0].line,
                f"seqlock reader '{fn.qualname}()' reads fields of "
                f"'{root}' but never re-checks the sequence word after the "
                "field loads — a concurrent writer tears the snapshot "
                "undetected (the PR 5 bug class); re-load and compare"))
            continue
        last_recheck = max(e.pos for e in seq_loads)
        for ev in field_loads:
            if ev.pos > last_recheck:
                out.append(Finding(
                    "A2", fn.path, ev.line,
                    f"field load '{ev.chain}' in {fn.qualname}() happens "
                    "after the final sequence re-check — it is outside the "
                    "validated window and may observe a torn write; move "
                    "it before the re-check or re-validate"))
    return out


# Calls assumed non-throwing in a claim window: atomic/claim machinery,
# trivial accessors, and noexcept std helpers common on these paths.
A3_SAFE_CALLS = set(ATOMIC_OPS) | {
    "seqClaim", "seqRelease", "notify_one", "notify_all",
    "min", "max", "move", "size", "empty", "data", "begin", "end",
    "count", "get", "release", "claimed", "nowTicks", "threadStripe",
    "threadOrdinal",
}

_TYPE_WORDS = {
    "void", "bool", "char", "int", "float", "double", "auto", "unsigned",
    "signed", "long", "short", "size_t", "ptrdiff_t", "uint8_t", "uint16_t",
    "uint32_t", "uint64_t", "int8_t", "int16_t", "int32_t", "int64_t",
    "uintptr_t", "intptr_t",
}
_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "else", "do",
    "new", "delete", "sizeof", "alignof", "alignas", "decltype", "noexcept",
    "static_assert", "explicit", "throw", "case", "default", "template",
    "typename", "static_cast", "const_cast", "reinterpret_cast",
    "dynamic_cast", "operator", "assert", "defined", "this",
}


def _throw_candidate(name):
    if name in A3_SAFE_CALLS or name in _KEYWORDS or name in _TYPE_WORDS:
        return False
    if re.fullmatch(r"[A-Z][A-Z0-9_]+", name):
        return False  # macros (TP_TRACE_*, TP_ASSERT, ...) — audited noexcept
    return True


def check_a3(functions):
    out = []
    for fn in functions:
        events = sorted(fn.events, key=lambda e: e.pos)
        cas_by_chain = {}
        for ev in events:
            if ev.kind == "cas":
                cas_by_chain.setdefault(ev.chain, []).append(ev)
        for chain, cas_list in sorted(cas_by_chain.items()):
            rels = [e for e in events
                    if e.kind == "store" and e.chain == chain
                    and e.pos > cas_list[0].pos]
            if not rels:
                continue  # RAII releaser (or no manual release): fine
            if suppressed("A3", fn.path, {chain, chain.split(".")[-1]}):
                continue
            start, end = cas_list[0].pos, max(e.pos for e in rels)
            risky = [e for e in events
                     if e.kind == "call" and start < e.pos < end
                     and _throw_candidate(e.name)]
            if risky:
                out.append(Finding(
                    "A3", fn.path, risky[0].line,
                    f"{fn.qualname}() claims '{chain}' by compare_exchange "
                    f"and releases it with a manual store, but calls "
                    f"'{risky[0].name}(...)' in between — a throw leaks the "
                    "claim forever; hold it through an RAII releaser "
                    "(common::ClaimGuard) instead"))
    return out


def check_a4(functions):
    out = []
    for fn in functions:
        if fn.audited or fn.requires or fn.locks:
            continue
        touched = [ev for ev in fn.events
                   if ev.scope == "member" and ev.kind in
                   ("load", "store", "rmw", "cas", "wait", "compound",
                    "assign", "incdec", "conv", "seq_claim", "seq_release")]
        touched = [ev for ev in touched
                   if not suppressed("A4", fn.path,
                                     {ev.chain, ev.base, fn.qualname,
                                      fn.name})]
        if not touched:
            continue
        ev = touched[0]
        out.append(Finding(
            "A4", fn.path, fn.line,
            f"{fn.qualname}() touches std::atomic member '{ev.chain}' "
            "outside any MutexLock/TP_REQUIRES scope but carries no "
            "TP_LOCK_FREE_AUDITED — annotate it with the protocol summary "
            "and the covering TSan test (rule R7 checks the \"TSan:\" "
            "tag)"))
    return out


def run_rules(functions, seq_names):
    findings = []
    findings += check_a1(functions)
    findings += check_a2(functions, seq_names)
    findings += check_a3(functions)
    findings += check_a4(functions)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


# --------------------------------------------------------------------------
# Front end: comment/string-stripped token scanner over src/


def strip_comments_and_strings(text):
    """Blank comments and string/char literals, preserving line structure
    (same contract as lint_invariants.strip_comments_and_strings)."""
    out = []
    i, n = 0, len(text)
    mode = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode, i = "line_comment", i + 2
                out.append("  ")
                continue
            if c == "/" and nxt == "*":
                mode, i = "block_comment", i + 2
                out.append("  ")
                continue
            if c == '"':
                mode = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                mode = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append(c)
            else:
                out.append(" ")
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode, i = "code", i + 2
                out.append("  ")
                continue
            out.append("\n" if c == "\n" else " ")
        else:  # string | char
            quote = '"' if mode == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                mode = "code"
                out.append(" ")
            elif c == "\n":
                mode = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


_IDENT = r"[A-Za-z_]\w*"
_FUNC_CAND_RE = re.compile(r"((?:" + _IDENT + r"\s*::\s*)*)([~]?" + _IDENT +
                           r")\s*\(")
_RECORD_RE = re.compile(r"\b(class|struct|union|enum)\b")
OP_CALL_RE = re.compile(
    r"(?:\.|->)\s*(" + "|".join(sorted(ATOMIC_OPS)) + r")\s*\(")
SEQ_CALL_RE = re.compile(r"\b(seqClaim|seqRelease)\s*\(")
CALL_RE = re.compile(r"\b(" + _IDENT + r")\s*\(")
_CHAIN_PAT = (r"[A-Za-z_]\w*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*"
              r"|\s*\[[^][]*\]\s*(?:\.|->)\s*[A-Za-z_]\w*)*")
MUTATE_RE = re.compile(
    r"(?<![\w.])(" + _CHAIN_PAT +
    r")\s*(\+=|-=|\|=|&=|\^=|\+\+|--|(?<![=!<>+\-*/&|^%])=(?![=]))")
PREFIX_INCDEC_RE = re.compile(
    r"(?<![\w.+\-])(\+\+|--)\s*(" + _CHAIN_PAT + r")")
ATOMIC_DECL_RE = re.compile(r"\b(?:std\s*::\s*)?atomic(?:_ref)?\s*<")
MAKE_SHARED_ATOMIC_RE = re.compile(
    r"\b(" + _IDENT + r")\s*=\s*std\s*::\s*make_shared\s*<"
    r"\s*std\s*::\s*atomic\b")
PLAIN_FIELD_RE = re.compile(
    r"\b(?:std\s*::\s*)?(?:u?int(?:8|16|32|64)?_t|size_t|int|bool|double|"
    r"float|long|unsigned|string)\s+(" + _IDENT + r")\s*[;={]")
CHAIN_RE = re.compile(r"(?<![\w.:])(?<!->)(" + _CHAIN_PAT + r")")
# An implicit conversion read is a chain used as a value. Left of the
# chain that means return, an if/while condition or an operator; `*`,
# a lone `&` and `>` are left out there because they may be a
# declarator, an address-of or the close of a template argument list.
# `(` and `,` are left out too: a call argument may bind by reference.
_VALUE_BEFORE_RE = re.compile(
    r"(?:\breturn|\b(?:if|while)\s*\(|=|&&|\|\||<<|<|!|\?|(?<!:):|"
    r"(?<!\+)\+|(?<!-)-|[/%|^])\s*$")
_VALUE_AFTER_RE = re.compile(
    r"\s*(?:==|!=|<=|>=|&&|\|\||<<|>>|[-+*/%^|&<>?](?![-+=>&|<]))")
# Whatever follows the chain that makes it a member access, a call, a
# subscript or a mutation (the op-call and mutate scans own those).
_NOT_A_READ_RE = re.compile(
    r"\s*(?:\.|->|\(|\[|\{|::|\+\+|--|<<=|>>=|[-+*/%^|&]?=(?!=))")
LOCK_RE = re.compile(
    r"\b(?:common\s*::\s*)?(?:MutexLock|SharedMutexLock|"
    r"SharedMutexLockShared)\s+" + _IDENT + r"\s*[({]")
AUDIT_TOKEN = "TP_LOCK_FREE_AUDITED"


def _function_name_from(header):
    """Last plausible function-name candidate `name(` in `header`."""
    best = None
    for m in _FUNC_CAND_RE.finditer(header):
        name = m.group(2)
        bare = name.lstrip("~")
        if bare in _KEYWORDS or bare in _TYPE_WORDS:
            continue
        if re.fullmatch(r"[A-Z][A-Z0-9_]+", bare):
            continue  # attribute/annotation macros
        if best is None:
            best = (m.group(1).replace(" ", "") + name, name)
    return best


def _skip_balanced(code, i, open_c, close_c):
    depth = 0
    n = len(code)
    while i < n:
        if code[i] == open_c:
            depth += 1
        elif code[i] == close_c:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _skip_balanced_back(code, i, open_c, close_c):
    depth = 0
    while i >= 0:
        if code[i] == close_c:
            depth += 1
        elif code[i] == open_c:
            depth -= 1
            if depth == 0:
                return i - 1
        i -= 1
    return -1


def _chain_before(code, idx):
    """Object chain ending just before `idx` (the '.'/'->' of a call),
    as '.'-joined component names; [] and () groups are elided."""
    comps = []
    i = idx - 1
    while i >= 0:
        while i >= 0 and code[i].isspace():
            i -= 1
        if i < 0:
            break
        if code[i] == "]":
            i = _skip_balanced_back(code, i, "[", "]")
            continue
        if code[i] == ")":
            # call or parenthesized expression as chain root: opaque
            comps.append("()")
            break
        j = i
        while j >= 0 and (code[j].isalnum() or code[j] == "_"):
            j -= 1
        if j == i:
            break
        comps.append(code[j + 1:i + 1])
        i = j
        while i >= 0 and code[i].isspace():
            i -= 1
        if i >= 1 and code[i] == ">" and code[i - 1] == "-":
            i -= 2
        elif i >= 0 and code[i] == "." and (i == 0 or code[i - 1] != "."):
            i -= 1
        else:
            break
    comps.reverse()
    return ".".join(c for c in comps if c != "()") if comps else ""


class _Scope:
    __slots__ = ("kind", "name", "header", "header_start", "body_start")

    def __init__(self, kind, name, header, header_start, body_start):
        self.kind = kind
        self.name = name
        self.header = header
        self.header_start = header_start
        self.body_start = body_start


def _scan_scopes(code):
    """One pass over stripped code: function spans, record spans, and a
    paren-depth array (for parameter detection)."""
    functions = []   # (name, qualname, header, header_start, body span)
    records = []     # (name, body span)
    depth_at = bytearray(len(code))
    stack = []
    stmt_start = 0
    paren = 0
    fn_depth = 0  # how many enclosing function scopes
    for i, c in enumerate(code):
        depth_at[i] = min(paren, 255)
        if c == "(":
            paren += 1
        elif c == ")":
            paren = max(0, paren - 1)
        elif c == ";" and paren == 0:
            stmt_start = i + 1
        elif c == "{":
            header = code[stmt_start:i]
            kind, name = _classify_header(header, fn_depth, paren)
            stack.append(_Scope(kind, name, header, stmt_start, i + 1))
            if kind == "function":
                fn_depth += 1
            stmt_start = i + 1
        elif c == "}":
            if stack:
                s = stack.pop()
                if s.kind == "function":
                    fn_depth -= 1
                    qual = s.name
                    if "::" not in qual:
                        for outer in reversed(stack):
                            if outer.kind == "record" and outer.name:
                                qual = outer.name + "::" + qual
                                break
                    functions.append((s.name, qual, s.header,
                                      s.header_start, (s.body_start, i)))
                elif s.kind == "record" and s.name:
                    records.append((s.name, (s.body_start, i)))
            stmt_start = i + 1
    return functions, records, depth_at


def _classify_header(header, fn_depth, paren):
    if fn_depth > 0 or paren > 0:
        return "block", None
    h = header.strip()
    if not h or h.endswith("="):
        return "block", None
    rec = _RECORD_RE.search(h)
    par = h.find("(")
    if rec and (par == -1 or rec.start() < par):
        left = re.split(r"(?<!:):(?!:)", h, maxsplit=1)[0]
        idents = re.findall(_IDENT, left)
        name = idents[-1] if idents else None
        return "record", name
    if re.search(r"\bnamespace\b", h):
        return "namespace", None
    if par != -1:
        cand = _function_name_from(h)
        if cand is not None:
            return "function", cand[0]
    return "block", None


def _line_index(code):
    offs = [0]
    for m in re.finditer(r"\n", code):
        offs.append(m.end())
    return offs


def _line_of(offs, pos):
    return bisect.bisect_right(offs, pos)


class TokenBackend:
    """Builds FunctionModels from a textual scan of src/."""

    def __init__(self, root):
        self.root = root
        self.files = {}       # rel -> stripped code
        self.scopes = {}      # rel -> (functions, records, depth_at)
        self.atomic_members = set()
        self.container_members = set()  # vector<atomic<T>> etc. — element
        # access is an atomic op, whole-object assignment is not
        self.plain_fields = set()
        self.owner_types = set()   # record types that declare atomics
        self.owner_of = {}         # (rel, root) -> _root_is_atomic_owner
        self.file_locals = {}      # rel -> set of local atomic names
        self.audited_names = set()
        self.seq_names = {"seq"}

    def _iter_files(self):
        for d in SOURCE_DIRS:
            base = os.path.join(self.root, d)
            if not os.path.isdir(base):
                continue
            for dirpath, _dirs, names in os.walk(base):
                for name in sorted(names):
                    if name.endswith(SOURCE_EXTS):
                        path = os.path.join(dirpath, name)
                        yield path.replace(os.sep, "/")

    def load(self):
        for path in self._iter_files():
            rel = os.path.relpath(path, self.root).replace(os.sep, "/")
            with open(path, encoding="utf-8", errors="replace") as f:
                code = strip_comments_and_strings(f.read())
            self.files[rel] = code
            self.scopes[rel] = _scan_scopes(code)
        for rel in self.files:
            self._collect_declarations(rel)
        return self

    def _collect_declarations(self, rel):
        code = self.files[rel]
        functions, records, depth_at = self.scopes[rel]
        fn_spans = [span for (_n, _q, _h, _hs, span) in functions]
        locals_here = self.file_locals.setdefault(rel, set())

        def in_function(pos):
            return any(s <= pos < e for (s, e) in fn_spans)

        for m in ATOMIC_DECL_RE.finditer(code):
            end = _skip_balanced(code, code.find("<", m.start()), "<", ">")
            name = None
            container = False
            nm = re.match(r"\s*[&*]?\s*(" + _IDENT + ")", code[end:])
            if nm:
                name = nm.group(1)
            else:
                # nested in a template argument (vector<atomic<T>> x):
                # fall back to the declared name at the statement tail.
                tail = re.match(r"[\s>&*]*(" + _IDENT + r")\s*[;={]",
                                code[end:])
                if tail:
                    name = tail.group(1)
                    container = True
            if not name or name in _TYPE_WORDS or name in _KEYWORDS:
                continue
            if in_function(m.start()) or depth_at[m.start()] > 0:
                locals_here.add(name)
            elif container:
                self.container_members.add(name)
            else:
                self.atomic_members.add(name)
                for rec_name, (s, e) in records:
                    if s <= m.start() < e:
                        self.owner_types.add(rec_name)
                        break
        for m in MAKE_SHARED_ATOMIC_RE.finditer(code):
            locals_here.add(m.group(1))
        for rec_name, (s, e) in records:
            for pm in PLAIN_FIELD_RE.finditer(code, s, e):
                self.plain_fields.add(pm.group(1))
        for m in re.finditer(AUDIT_TOKEN, code):
            cand = None
            for c in _FUNC_CAND_RE.finditer(code, max(0, m.start() - 400),
                                            m.start()):
                name = c.group(2).lstrip("~")
                if name in _KEYWORDS or name in _TYPE_WORDS:
                    continue
                if re.fullmatch(r"[A-Z][A-Z0-9_]+", name):
                    continue
                cand = c.group(2)
            if cand:
                self.audited_names.add(cand)

    def _scope_of(self, rel, base):
        if base in self.file_locals.get(rel, ()):
            return "local"
        if base in self.atomic_members:
            return "member"
        return "unknown"

    def _is_atomic_name(self, rel, base, mutate=False):
        if base in self.atomic_members or base in self.file_locals.get(
                rel, ()):
            return True
        # Element access on a container of atomics is an atomic op; a
        # whole-container assignment (stripes_ = std::vector<...>(n)) is
        # not, so containers only count for the method-call forms.
        return not mutate and base in self.container_members

    def _root_is_atomic_owner(self, rel, root):
        """Resolve a chain root's declared type against the record types
        known to own atomic fields (disambiguates counters_.x += 1 from
        stats.x = ... when field names collide across structs). Searches
        the event's own file first, then the rest of the tree (members
        are usually declared in the matching header)."""
        if (rel, root) not in self.owner_of:
            self.owner_of[(rel, root)] = self._resolve_owner(rel, root)
        return self.owner_of[(rel, root)]

    def _resolve_owner(self, rel, root):
        decl_re = re.compile(r"\b([A-Za-z_][\w:]*)\s+[&*]?\s*" +
                             re.escape(root) + r"\s*[;={(,]")
        ordered = [rel] + [p for p in sorted(self.files) if p != rel]
        for path in ordered:
            if root not in self.files[path]:
                continue  # cheap pre-filter: the regex is slow to miss
            m = decl_re.search(self.files[path])
            if not m:
                continue
            t = m.group(1).split("::")[-1]
            if t in self.owner_types:
                return True
            if t in _TYPE_WORDS or t in ("auto", "const", "mutable",
                                         "return", "constexpr", "static"):
                continue
            return False
        return None

    def _plain_namesake(self, rel, chain):
        """Whether `chain` names a plain field that merely shares its
        name with an atomic one (CacheCounters::hits vs an atomic hits):
        true unless the chain root's declared type owns atomics."""
        if chain.split(".")[-1] not in self.plain_fields:
            return False
        return self._root_is_atomic_owner(rel, chain.split(".")[0]) is not True

    def functions(self):
        models = []
        for rel, code in sorted(self.files.items()):
            offs = _line_index(code)
            fns, _records, _depth = self.scopes[rel]
            for (name, qual, header, hstart, (bs, be)) in fns:
                fn = FunctionModel(
                    name.split("::")[-1], qual, rel, _line_of(offs, hstart),
                    audited=(AUDIT_TOKEN in header or
                             name.split("::")[-1] in self.audited_names or
                             name in self.audited_names),
                    requires="TP_REQUIRES" in header,
                    locks=bool(LOCK_RE.search(code, bs, be)))
                fn.line = _line_of(offs, bs)
                self._extract_events(fn, rel, code, offs, hstart, bs, be)
                models.append(fn)
        return models

    def _extract_events(self, fn, rel, code, offs, hstart, bs, be):
        taken = []  # spans already claimed by op-call matches

        def overlaps(a, b):
            return any(not (b <= s or e <= a) for (s, e) in taken)

        for m in OP_CALL_RE.finditer(code, bs, be):
            chain = _chain_before(code, m.start())
            base = chain.split(".")[-1] if chain else ""
            if not self._is_atomic_name(rel, base):
                continue
            paren = code.index("(", m.end() - 1)
            close = _skip_balanced(code, paren, "(", ")")
            args = code[paren + 1:close - 1]
            orders = re.findall(r"memory_order(?:_|\s*::\s*)(\w+)", args)
            fn.events.append(Event(
                ATOMIC_OPS[m.group(1)], chain, orders,
                _line_of(offs, m.start()), m.start(),
                self._scope_of(rel, base)))
            taken.append((m.start(), close))
        for m in SEQ_CALL_RE.finditer(code, bs, be):
            paren = code.index("(", m.end() - 1)
            close = _skip_balanced(code, paren, "(", ")")
            first_arg = code[paren + 1:close - 1].split(",")[0]
            chain = ".".join(re.findall(_IDENT, first_arg.replace("->", ".")))
            base = chain.split(".")[-1] if chain else ""
            kind = "seq_claim" if m.group(1) == "seqClaim" else "seq_release"
            if kind == "seq_claim" and base:
                self.seq_names.add(base)
            fn.events.append(Event(
                kind, chain, [], _line_of(offs, m.start()), m.start(),
                self._scope_of(rel, base)))
            taken.append((m.start(), close))
        for m in MUTATE_RE.finditer(code, bs, be):
            chain_txt, op = m.group(1), m.group(2)
            if overlaps(m.start(1), m.end(2)):
                continue
            chain = ".".join(re.findall(_IDENT, chain_txt.replace("->", ".")))
            base = chain.split(".")[-1]
            if not self._is_atomic_name(rel, base, mutate=True):
                continue
            # A type/declarator immediately before the chain means this is
            # a declaration of a shadowing local ("uint64_t meta = ..."),
            # not an operation on the atomic of the same name.
            j = m.start(1) - 1
            while j >= bs and code[j] in " \t\n":
                j -= 1
            if j >= bs and (code[j].isalnum() or code[j] in "_>&*"):
                continue
            stmt_start = max(code.rfind(";", bs, m.start(1)),
                             code.rfind("{", bs, m.start(1)),
                             code.rfind("}", bs, m.start(1)), bs - 1) + 1
            stmt_end = code.find(";", m.end(2), be)
            stmt = code[stmt_start:stmt_end if stmt_end != -1 else be]
            if re.search(r"\b(atomic|auto|make_shared)\b", stmt):
                continue  # declaration/initialization, not an atomic op
            if self._plain_namesake(rel, chain):
                continue
            kind = ("incdec" if op in ("++", "--")
                    else "assign" if op == "=" else "compound")
            fn.events.append(Event(
                kind, chain, [], _line_of(offs, m.start(1)), m.start(1),
                self._scope_of(rel, base)))
        for m in PREFIX_INCDEC_RE.finditer(code, bs, be):
            chain = ".".join(re.findall(
                _IDENT, m.group(2).replace("->", ".")))
            base = chain.split(".")[-1]
            if not self._is_atomic_name(rel, base, mutate=True):
                continue
            if self._plain_namesake(rel, chain):
                continue
            fn.events.append(Event(
                "incdec", chain, [], _line_of(offs, m.start()), m.start(),
                self._scope_of(rel, base)))
        self._extract_conversions(fn, rel, code, offs, hstart, bs, be)
        for m in CALL_RE.finditer(code, bs, be):
            name = m.group(1)
            if name in _KEYWORDS or name in _TYPE_WORDS:
                continue
            if name in ("seqClaim", "seqRelease") or name in ATOMIC_OPS:
                continue
            fn.events.append(Event(
                "call", "", [], _line_of(offs, m.start()), m.start(),
                name=name))

    def _extract_conversions(self, fn, rel, code, offs, hstart, bs, be):
        """Implicit conversion reads (operator T): an atomic chain used as
        a value. A chain passed as a call argument is never one (see the
        module docstring), nor is a bare name the function declares as a
        parameter or local of its own."""
        shadowed = {}
        for m in CHAIN_RE.finditer(code, bs, be):
            start, end = m.span(1)
            chain = ".".join(re.findall(_IDENT, m.group(1).replace("->", ".")))
            base = chain.split(".")[-1]
            if not self._is_atomic_name(rel, base, mutate=True):
                continue
            if _NOT_A_READ_RE.match(code, end):
                continue
            before = _VALUE_BEFORE_RE.search(code, max(bs, start - 64), start)
            if before is None and not _VALUE_AFTER_RE.match(code, end):
                continue
            if before is not None and before.group(0)[0] == "=":
                eq = before.start()
                if code[eq - 1] not in "=!<>+-*/%^|&" and re.search(
                        r"&\s*" + _IDENT + r"\s*$", code[max(bs, eq - 200):eq]):
                    continue  # binds a reference, reads nothing
            if "." not in chain:
                if base not in shadowed:
                    shadowed[base] = _declares(code, hstart, be, base)
                if shadowed[base]:
                    continue
            if self._plain_namesake(rel, chain):
                continue
            fn.events.append(Event(
                "conv", chain, [], _line_of(offs, start), start,
                self._scope_of(rel, base)))


def _declares(code, start, end, name):
    """Whether code[start:end] declares `name` as a parameter or local.
    The word before a declarator is its type, never a keyword: `return
    flag == 1` is a read of flag, not a declaration."""
    decl = re.compile(r"(?:\b(" + _IDENT + r")|(?<!-)>)\s*[&*]*\s*\b" +
                      re.escape(name) + r"\s*(?:=(?!=)|[;{(,)\[:])")
    return any(m.group(1) not in _KEYWORDS
               for m in decl.finditer(code, start, end))


def analyze_token(root):
    backend = TokenBackend(root).load()
    functions = backend.functions()
    return run_rules(functions, backend.seq_names)


# --------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="AST-grade concurrency analyzer (rules A1-A4)")
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repo root to analyze (default: this repo)")
    parser.add_argument("--json", metavar="REPORT",
                        help="also write findings as JSON to REPORT")
    args = parser.parse_args(argv)

    try:
        validate_allowlists()
        findings = analyze_token(args.root)
    except Exception as e:  # pragma: no cover - defensive
        print(f"analyze_ast: internal error: {e}", file=sys.stderr)
        return 2

    for f in findings:
        print(f)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fp:
            json.dump({"findings": [f.as_dict() for f in findings]},
                      fp, indent=2)
            fp.write("\n")
    if findings:
        print(f"analyze_ast: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("analyze_ast: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
