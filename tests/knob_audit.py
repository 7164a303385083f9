#!/usr/bin/env python3
"""Knob audit: every settable config field and runtime method needs a caller.

Lists the data members of the user-facing config structs in STRUCTS and
fails on any field that no file outside its own layer and tests/ assigns
(`.field = ...`, `->field = ...` or `.field.sub = ...`; `==` does not
count), or whose every such assignment writes the field's default value.
The callers searched are bench/, examples/, perfbench/src/ and every other
src/ layer. A field that only tests (or nothing) set is a constant in
disguise: it multiplies the configurations the tests would have to cover
and no run exercises. Writes are matched by field name, so a same-named
field of another struct counts as a caller: the audit errs toward passing.

Fields kept on purpose live in ALLOWLIST, each with its reason. An entry
that names no field, or a field that has since gained a caller, fails the
audit too, so the list cannot go stale.

The API pass applies the same rule to the public methods of the classes
in API_CLASSES: it fails on a method that no file outside its owner and
tests/ calls (`.name(`, `->name(` or `X::name(`). An out-of-line
definition (`void X::name(...) {`: a return type, then the qualified name,
at the start of a statement) is no call. Calls are matched by name, so a
same-named method of another class counts as a caller: `lk.unlock()` on a
std::unique_lock is a caller of every public `unlock`. Methods kept on
purpose live in API_ALLOWLIST under the same stale-entry rule.

Usage: knob_audit.py [REPO_ROOT]   (default: the checkout holding this file)
       knob_audit.py --selftest    (the parsers on inline fixture text)
"""

import functools
import pathlib
import re
import sys
import tempfile

# (struct, header, struct name, owner). The struct is found by its
# `struct <name> {` line; Engine::Config is the only `struct Config` in
# engine.h. The owner is a path prefix: files under it are the struct's
# own code and never count as its callers.
STRUCTS = [
    ("clampi::Config", "src/clampi/config.h", "Config", "src/clampi/"),
    ("kv::StoreConfig", "src/kv/store.h", "StoreConfig", "src/kv/"),
    ("kv::Layout", "src/kv/bucket.h", "Layout", "src/kv/"),
    ("kv::WorkloadConfig", "src/kv/workload.h", "WorkloadConfig", "src/kv/"),
    ("rmasim::Engine::Config", "src/rt/engine.h", "Config", "src/rt/"),
    ("bh::SolverConfig", "src/bh/solver.h", "SolverConfig", "src/bh/"),
    ("graph::LccConfig", "src/graph/lcc.h", "LccConfig", "src/graph/"),
]

_ADAPTIVE = "paper Sec. III-E adaptive tuning parameter; kept as the paper's knob"
ALLOWLIST = {
    "clampi::Config.conflict_threshold": _ADAPTIVE,
    "clampi::Config.capacity_threshold": _ADAPTIVE,
    "clampi::Config.stable_threshold": _ADAPTIVE,
    "clampi::Config.sparsity_threshold": _ADAPTIVE,
    "clampi::Config.free_threshold": _ADAPTIVE,
    "clampi::Config.shrink_patience": _ADAPTIVE,
    "clampi::Config.index_increase_factor": _ADAPTIVE,
    "clampi::Config.index_decrease_factor": _ADAPTIVE,
    "clampi::Config.memory_increase_factor": _ADAPTIVE,
    "clampi::Config.memory_decrease_factor": _ADAPTIVE,
    "clampi::Config.health_window_us":
        "HealthWindow.DetectorDecisionsArePinned pins the detector at 1000 us",
    "clampi::Config.breaker_halfopen_successes":
        "HealthWindow.DetectorDecisionsArePinned pins the breaker at 2 probes",
    "kv::StoreConfig.hedge_window_us":
        "HedgedReads.BackupWinsAgainstAStragglingPrimary needs a 1e9 us window",
    "kv::StoreConfig.load_factor":
        "KvStore.OversubscribedLoadFactorForcesChains runs 2.5 to force chains",
    "kv::StoreConfig.overflow_frac":
        "KvStore.OversubscribedLoadFactorForcesChains needs 2.0 to hold the chains",
    "kv::StoreConfig.group_commit_n":
        "perfbench/src/kv_workloads.cc writes it (its default, 8); perfbench/ "
        "changes only with the benchmark itself, so the field stays until then",
    "bh::SolverConfig.skip_dead_ranks":
        "error handling for dead owners (docs/FAULTS.md §6); "
        "BhCaching.SkipDeadRanksDropsDeadOwnersPayloads drives it",
    "graph::LccConfig.skip_dead_ranks":
        "error handling for dead owners (docs/FAULTS.md §6); "
        "LccDistributed.SkipDeadRanksDropsDeadOwnersAdjacency drives it",
}

# (class, header, class name, owner) for the API pass. CacheCore's own code
# is cache.h/.cc alone: the window above it is its caller. Likewise the KV
# store calls the ring and the journal, and the workload engine the store.
API_CLASSES = [
    ("rmasim::Process", "src/rt/engine.h", "Process", "src/rt/"),
    ("clampi::CachedWindow", "src/clampi/window.h", "CachedWindow", "src/clampi/"),
    ("clampi::CacheCore", "src/clampi/cache.h", "CacheCore", "src/clampi/cache."),
    ("kv::Store", "src/kv/store.h", "Store", "src/kv/store."),
    ("kv::Ring", "src/kv/ring.h", "Ring", "src/kv/ring."),
    ("kv::Journal", "src/kv/journal.h", "Journal", "src/kv/journal."),
    ("metrics::SlidingWindowCounter", "src/metrics/sliding_window.h",
     "SlidingWindowCounter", "src/metrics/"),
    ("graph::DistributedLcc", "src/graph/lcc.h", "DistributedLcc", "src/graph/"),
    ("bh::DistributedBarnesHut", "src/bh/solver.h", "DistributedBarnesHut", "src/bh/"),
    ("bh::NativeBlockCache", "src/bh/native_cache.h", "NativeBlockCache", "src/bh/"),
    ("fault::Injector", "src/fault/injector.h", "Injector", "src/fault/"),
]

API_ALLOWLIST = {
    "rmasim::Process.crash_wipes_applied":
        "crash_restart_test observes through it that the crash wipe is lazy",
    "clampi::CachedWindow.record_faults_to":
        "trace::RecordingWindow (src/clampi/trace.cc) installs itself here to "
        "mirror fault and retry events into a trace",
    "clampi::CachedWindow.process":
        "trace::RecordingWindow (src/clampi/trace.cc) reads the virtual clock "
        "of the window's process through it",
    "bh::DistributedBarnesHut.accel_of":
        "BhForceAccuracy.ThetaZeroMatchesDirectSummation compares it with "
        "the O(N^2) direct_accel reference",
}

CALLER_DIRS = ["bench", "examples", "perfbench/src"]
SOURCE_SUFFIXES = {".h", ".cc", ".cpp"}


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    return re.sub(r"//[^\n]*", " ", text)


def struct_body(text, name, keyword="struct"):
    m = re.search(r"\b" + keyword + r"\s+" + name + r"\s*\{", text)
    if m is None:
        raise SystemExit(f"knob_audit: {keyword} {name} not found")
    depth, i = 1, m.end()
    start = i
    while depth:
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        i += 1
    return text[start:i - 1]


def skip_block(body, i):
    """Index just past the brace block that opens at body[i]."""
    depth = 0
    while True:
        depth += {"{": 1, "}": -1}.get(body[i], 0)
        i += 1
        if depth == 0:
            return i


def statements(body):
    """Top-level member statements, with nested types dropped, function
    bodies cut off their heads and brace initializers kept."""
    out, cur, i = [], "", 0
    while i < len(body):
        c = body[i]
        if c == "{":
            head = cur.strip()
            if re.search(r"(\)|\bconst|\bnoexcept|\boverride)$", head) or re.match(
                    r"(struct|class|enum|union)\b", head):
                i = skip_block(body, i)
                if re.match(r"(struct|class|enum|union)\b", head):
                    while i < len(body) and body[i] != ";":
                        i += 1
                    i += 1
                else:
                    out.append(head)  # a function defined in the body
                cur = ""
                continue
            j = skip_block(body, i)
            cur += body[i:j]
            i = j
            continue
        if c == ";":
            out.append(cur.strip())
            cur = ""
        else:
            cur += c
        i += 1
    return out


def fields(header_text, name):
    """(field, default expression or None) for every non-static data member."""
    result = []
    for st in statements(struct_body(strip_comments(header_text), name)):
        st = re.sub(r"^(public|private|protected)\s*:", "", st).strip()
        if not st or re.match(r"(static|using|friend|typedef|template)\b", st):
            continue
        decl, _, init = st.partition("=")
        bare = decl
        while re.search(r"<[^<>]*>", bare):
            bare = re.sub(r"<[^<>]*>", "", bare)
        if "(" in bare:
            continue  # a member function declaration
        m = re.search(r"(\w+)\s*$", bare)
        if m:
            result.append((m.group(1), init.strip() or None))
    return result


def public_methods(header_text, name):
    """Names of the public member functions of class `name`."""
    body = struct_body(strip_comments(header_text), name, keyword="class")
    names, public = [], False
    for part in re.split(r"\b(public|private|protected)\s*:", body):
        if part in ("public", "private", "protected"):
            public = part == "public"
        elif public:
            for st in statements(part):
                if re.match(r"(using|typedef|friend|static_assert)\b", st):
                    continue  # `using F = std::function<void(...)>` is no method
                m = re.match(r"[^(]*?(\w+)\s*\(", st)  # a destructor matches `name`
                if m and m.group(1) != name and m.group(1) not in names:
                    names.append(m.group(1))
    return names


def normalize(expr, constants):
    expr = expr.strip()
    if expr in constants:
        expr = constants[expr]
    try:
        return repr(float(expr.rstrip("uUlLfF")))
    except ValueError:
        return expr


@functools.lru_cache(maxsize=None)
def source(path):
    """A caller file's text without comments, and its named constants."""
    text = strip_comments(path.read_text(errors="replace"))
    return text, dict(re.findall(r"\b(k\w+)\s*=\s*([^;,]+?)\s*;", text))


def caller_files(root, own):
    """Source files of CALLER_DIRS and src/ outside the `own` path prefix."""
    files = []
    for d in CALLER_DIRS + ["src"]:
        files += [p for p in sorted((root / d).rglob("*"))
                  if p.suffix in SOURCE_SUFFIXES
                  and not p.relative_to(root).as_posix().startswith(own)]
    return files


def assignments(files, field):
    """Right-hand sides of `.field = rhs;` / `->field = rhs;`, with each
    file's named constants for resolving an identifier right-hand side. A
    write to a member of a struct-typed field (`.cache.mode = ...`) counts
    as a write to the field."""
    pat = re.compile(r"(?:\.|->)\s*" + field + r"((?:\.\w+)*)\s*=(?!=)\s*([^;]*);")
    found = []
    for path in files:
        text, consts = source(path)
        # A member write never equals the struct's (absent) default.
        found += [(sub + "=" + r if sub else r, consts) for sub, r in pat.findall(text)]
    return found


# What may stand between the start of a statement and the `X::` of an
# out-of-line definition: a return type (template head included), then the
# qualified name, separated from it by a space, `*` or `&`.
DEFINITION_HEAD = re.compile(
    r"(?:template\s*<[^;{}]*>\s*)?(?:[\w:<>,]+[\s*&]+)+[\w:<>]+")
# Words that make `word X::f(` a call, not a definition returning `word`.
CALL_KEYWORDS = {"return", "throw", "else", "do", "case", "default", "new",
                 "delete", "co_return", "co_yield", "co_await"}


def is_definition(text, qual_at):
    """True if the `::` at text[qual_at] qualifies an out-of-line
    definition: only a return type and the qualified name stand between it
    and the start of its statement."""
    start = max(text.rfind(c, 0, qual_at) for c in ";{}") + 1
    head = re.sub(r"^\s*#.*$", "", text[start:qual_at], flags=re.M).strip()
    return (DEFINITION_HEAD.fullmatch(head) is not None
            and re.search(r"(?<!:):(?!:)", head) is None
            and not CALL_KEYWORDS & set(re.findall(r"\w+", head)))


def calls(files, method):
    """True if any file calls `.method(`, `->method(` or `X::method(`;
    `void X::method(` defines it and is no call."""
    pat = re.compile(r"(?:\.|->|::)\s*" + method + r"\s*\(")
    for path in files:
        text = source(path)[0]
        for m in pat.finditer(text):
            if not (text.startswith("::", m.start()) and is_definition(text, m.start())):
                return True
    return False


def api_audit(root, classes=API_CLASSES, allowlist=API_ALLOWLIST):
    problems, counts, seen = [], [], set()
    for qual, header, name, own in classes:
        methods = public_methods((root / header).read_text(), name)
        counts.append(f"{qual}: {len(methods)}")
        files = caller_files(root, own)
        for method in methods:
            key = f"{qual}.{method}"
            seen.add(key)
            called = calls(files, method)
            if key in allowlist:
                if called:
                    problems.append(f"{key}: stale allowlist entry, it has a caller")
            elif not called:
                problems.append(f"{key}: no caller outside {own}* and tests/")
    for key in sorted(set(allowlist) - seen):
        problems.append(f"{key}: stale allowlist entry, no such method")
    return problems, counts


def field_problem(files, own, field, default):
    """Why `field` (declared with `default`) needs a caller, or None."""
    rhs = assignments(files, field)
    if not rhs:
        return f"no caller outside {own}* and tests/ assigns it"
    if default is not None and all(
            normalize(r, c) == normalize(default, {}) for r, c in rhs):
        return f"every caller assigns its default ({default})"
    return None


def audit(root):
    problems, counts, seen = [], [], set()
    for qual, header, name, own in STRUCTS:
        flist = fields((root / header).read_text(), name)
        counts.append(f"{qual}: {len(flist)}")
        files = caller_files(root, own)
        for field, default in flist:
            key = f"{qual}.{field}"
            seen.add(key)
            why = field_problem(files, own, field, default)
            if key in ALLOWLIST:
                if why is None:
                    problems.append(f"{key}: stale allowlist entry, it has a caller")
            elif why is not None:
                problems.append(f"{key}: {why}")
    for key in sorted(set(ALLOWLIST) - seen):
        problems.append(f"{key}: stale allowlist entry, no such field")
    return problems, counts


SELFTEST_HEADER = """
class Demo {
 public:
  void probe();
  int reset();
};
class Widget {
 public:
  using Observer = std::function<void(const int&)>;
  typedef int Id;
  friend class Helper;
  static_assert(sizeof(int) == 4, "int");
  static Widget make(int n);
  int size() const { return n_; }
 private:
  int n_ = 0;
};
struct Knobs {
  int depth = 3;
  double ratio = 0.5;
};
"""

SELFTEST_CALLER = """
void use() {
  auto w = Widget::make(2);
  Knobs k;
  k.depth = 3;
  k.ratio = 0.25;
}
"""

# Demo's methods defined outside their owner: probe's definition is its
# only use, reset's definition is followed by a real call.
SELFTEST_DEFINITIONS = """
#include "demo/demo.h"
void Demo::probe() {}
int Demo::reset() { return 0; }
int restart() { return Demo::reset(); }
"""


def selftest():
    """Run the parsers on SELFTEST_HEADER and SELFTEST_CALLER in a scratch
    tree: `using`/`typedef`/`friend`/`static_assert` lines are no methods,
    a static call `X::f(` is a caller, an out-of-line definition
    `void X::f() {}` is not, and a field that every caller writes with its
    default is reported."""
    with tempfile.TemporaryDirectory() as d:
        root = pathlib.Path(d)
        for sub in CALLER_DIRS + ["src/demo"]:
            (root / sub).mkdir(parents=True, exist_ok=True)
        (root / "src/demo/demo.h").write_text(SELFTEST_HEADER)
        (root / "bench/use.cc").write_text(SELFTEST_CALLER)
        (root / "examples/demo.cc").write_text(SELFTEST_DEFINITIONS)
        files = caller_files(root, "src/demo/")
        api_problems, _ = api_audit(root, [
            ("demo::Demo", "src/demo/demo.h", "Demo", "src/demo/"),
            ("demo::Widget", "src/demo/demo.h", "Widget", "src/demo/"),
        ], allowlist={})
        got = {
            "methods": public_methods(SELFTEST_HEADER, "Widget"),
            "make called": calls(files, "make"),
            "size called": calls(files, "size"),
            "depth": field_problem(files, "src/demo/", "depth", "3"),
            "ratio": field_problem(files, "src/demo/", "ratio", "0.5"),
            "api": api_problems,
        }
    want = {
        "methods": ["make", "size"],
        "make called": True,
        "size called": False,
        "depth": "every caller assigns its default (3)",
        "ratio": None,
        "api": ["demo::Demo.probe: no caller outside src/demo/* and tests/",
                "demo::Widget.size: no caller outside src/demo/* and tests/"],
    }
    failed = [f"{k}: got {got[k]!r}, want {want[k]!r}" for k in want if got[k] != want[k]]
    for f in failed:
        print("knob_audit selftest: " + f)
    print("knob_audit selftest: " + ("FAIL" if failed else "OK"))
    return 1 if failed else 0


def main():
    if sys.argv[1:] == ["--selftest"]:
        return selftest()
    here = pathlib.Path(__file__).resolve().parent.parent
    root = pathlib.Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else here
    problems, counts = audit(root)
    print("settable fields: " + "; ".join(counts))
    for p in problems:
        print("knob_audit: " + p)
    api_problems, api_counts = api_audit(root)
    print("public methods: " + "; ".join(api_counts))
    for p in api_problems:
        print("api_audit: " + p)
    if problems:
        print(f"knob_audit: FAIL ({len(problems)} field(s) need a caller, "
              "a constant or an allowlist reason)")
    else:
        print(f"knob_audit: OK ({len(ALLOWLIST)} allowlisted)")
    if api_problems:
        print(f"api_audit: FAIL ({len(api_problems)} method(s) need a caller "
              "or an allowlist reason)")
    else:
        print(f"api_audit: OK ({len(API_ALLOWLIST)} allowlisted)")
    return 1 if problems or api_problems else 0


if __name__ == "__main__":
    sys.exit(main())
