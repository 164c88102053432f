#!/usr/bin/env python3
"""Static determinism lint for the FairCap tree.

The repo's determinism contract — rulesets and estimates bit-identical
across SIMD tiers, shard counts, and thread counts — is enforced
dynamically by pinning tests, which only sample configurations. This
lint checks the *static* preconditions those tests rely on, so a
regression fails CI on the line that introduced it instead of on
whichever pinning combination happens to exercise it:

  fp-contract      Every SIMD vector TU (per-file -m<isa> flags in
                   src/util/CMakeLists.txt) must pin -ffp-contract=off.
                   -mavx512f implies -mfma; default contraction would
                   fuse mul+add chains into FMAs and break scalar/vector
                   bit-identity (the PR 8 regression). So must the
                   scalar TUs in PINNED_SCALAR_TUS, whose loops are
                   written to vectorize yet must round like their scalar
                   references under any -march (the normal-equation
                   solver's column-batched inverse).

  fp-accumulate    No floating-point accumulation inside vector kernel
                   TUs (src/util/simd/simd_<isa>.cc): FP adds must stay
                   in the shared scalar core (core::ReplayFp and the
                   staged dense-word path in simd_kernels_core.h) so every
                   tier sums in the same order with the same rounding.
                   FP *compare* intrinsics are fine.

  unordered-iter   No iteration over unordered containers in
                   result-ordering code (mining selection, merge order,
                   estimation solves). Iteration order of
                   std::unordered_* is implementation- and run-dependent;
                   membership tests (.count/.find/.insert/[]) are fine.

  nondeterminism   No banned nondeterminism sources in src/ or tools/:
                   rand()/srand()/random()/drand48(), std::random_device,
                   std::default_random_engine, wall-clock time() /
                   gettimeofday() / system_clock, or getpid()-style seed
                   material. Seeded engines (util/random.h's xoshiro,
                   explicitly-seeded std engines) and steady_clock timing
                   are allowed.

Suppression: append `// determinism:allow(<rule>)` to the offending line
with a justification comment nearby. The lint treats it like NOLINT —
visible, greppable, reviewed.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
Run `tools/lint_determinism.py --self-test` to check the lint against
its known-bad/known-good fixtures (tools/lint_fixtures/); CI runs both.
"""

import argparse
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# --------------------------------------------------------------------------
# Source preprocessing


def strip_comments_and_strings(text):
    """Blanks out comments, string literals, and char literals, keeping
    line structure intact so findings carry real line numbers. Suppression
    markers (determinism:allow) survive via the caller keeping raw lines.
    """
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(" ")
            elif c == "\n":  # unterminated (raw strings not used in src/)
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


ALLOW_RE = re.compile(r"//\s*determinism:allow\((?P<rule>[a-z-]+)\)")


def allowed(raw_line, rule):
    m = ALLOW_RE.search(raw_line)
    return m is not None and m.group("rule") == rule


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        rel = self.path
        try:
            rel = self.path.relative_to(REPO_ROOT)
        except ValueError:
            pass
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Rule 1: fp-contract — vector TUs must pin -ffp-contract=off in CMake.

SET_VAR_RE = re.compile(r'set\(\s*(\w+)\s+"([^"]*)"')
SRC_PROPS_RE = re.compile(
    r"set_source_files_properties\(\s*(\S+)\s+PROPERTIES\s+"
    r'COMPILE_OPTIONS\s+"([^"]*)"\s*\)',
    re.DOTALL,
)


# Scalar TUs that must pin -ffp-contract=off too (when present in the
# linted tree): their vectorizable loops reproduce a scalar reference bit
# for bit, which an FMA-enabled build could otherwise break.
PINNED_SCALAR_TUS = ["src/causal/linear_model.cc"]


def check_fp_contract(root):
    findings = []
    tus = sorted(root.glob("src/**/simd/simd_*.cc"))
    tus = [p for p in tus if p.name != "simd.cc"]
    tus += [root / rel for rel in PINNED_SCALAR_TUS if (root / rel).is_file()]
    # Dispatch TU (simd.cc) has no -march flags and no kernels; only the
    # per-ISA TUs (and PINNED_SCALAR_TUS) are in scope.
    pinned = {}
    for cml in sorted(root.glob("src/**/CMakeLists.txt")):
        text = cml.read_text(encoding="utf-8")
        variables = dict(SET_VAR_RE.findall(text))
        for match in SRC_PROPS_RE.finditer(text):
            source, options = match.groups()
            # Expand one level of ${VAR} indirection (FAIRCAP_AVX512_FLAGS).
            options = re.sub(
                r"\$\{(\w+)\}", lambda m: variables.get(m.group(1), ""), options
            )
            line = text[: match.start()].count("\n") + 1
            pinned[(cml.parent / source).resolve()] = (
                cml,
                line,
                options,
            )
    for tu in tus:
        entry = pinned.get(tu.resolve())
        if entry is None:
            findings.append(
                Finding(
                    "fp-contract",
                    tu,
                    1,
                    "TU has no per-file COMPILE_OPTIONS in its "
                    "CMakeLists.txt; it must pin -ffp-contract=off "
                    "(alongside its -m<isa> flags, for a SIMD TU)",
                )
            )
            continue
        cml, line, options = entry
        if "-ffp-contract=off" not in options.split(";"):
            findings.append(
                Finding(
                    "fp-contract",
                    cml,
                    line,
                    f"COMPILE_OPTIONS for {tu.name} ({options!r}) is missing "
                    "-ffp-contract=off; FMA contraction breaks "
                    "bit-identity with the scalar reference",
                )
            )
    return findings


# --------------------------------------------------------------------------
# Rule 2: fp-accumulate — no FP accumulation in vector kernel TUs.

FP_ARITH_INTRINSIC_RE = re.compile(
    r"_mm\d*_(?:mask[z]?_)?"
    r"(?:add|sub|mul|div|fmadd|fmsub|fnmadd|fnmsub|hadd|hsub|dp|"
    r"reduce_add|reduce_mul)_(?:round_)?(?:pd|ps|sd|ss|ph)\b"
)
FP_DECL_RE = re.compile(r"\b(?:double|float|__m\d+[d]?\b(?![i]))\s+(\w+)")
COMPOUND_RE = re.compile(r"\b([A-Za-z_]\w*)\s*[+\-*/]=")
FP_LITERAL_RHS_RE = re.compile(r"[+\-*/]=\s*[^;=]*\d\.\d")


def check_fp_accumulate(root):
    findings = []
    vector_tus = sorted(root.glob("src/**/simd/simd_*.cc"))
    vector_tus = [p for p in vector_tus if p.name != "simd.cc"]
    for tu in vector_tus:
        raw = tu.read_text(encoding="utf-8")
        stripped = strip_comments_and_strings(raw)
        raw_lines = raw.splitlines()
        lines = stripped.splitlines()
        # FP-typed locals/params declared anywhere in the TU (double, float,
        # or FP vector registers — __m256d etc.; __m256i is integer).
        fp_names = set(FP_DECL_RE.findall(stripped))
        for lineno, (code, rawline) in enumerate(zip(lines, raw_lines), 1):
            if FP_ARITH_INTRINSIC_RE.search(code):
                if not allowed(rawline, "fp-accumulate"):
                    findings.append(
                        Finding(
                            "fp-accumulate",
                            tu,
                            lineno,
                            "FP arithmetic intrinsic in a vector TU; FP math "
                            "belongs in the shared scalar core "
                            "(simd_kernels_core.h) so all tiers round "
                            "identically",
                        )
                    )
                continue
            for m in COMPOUND_RE.finditer(code):
                name = m.group(1)
                if name in fp_names and not allowed(rawline, "fp-accumulate"):
                    findings.append(
                        Finding(
                            "fp-accumulate",
                            tu,
                            lineno,
                            f"compound FP accumulation on '{name}' in a "
                            "vector TU; route sums through core::ReplayFp / "
                            "the staged-flush paths",
                        )
                    )
                    break
            else:
                if FP_LITERAL_RHS_RE.search(code) and not allowed(
                    rawline, "fp-accumulate"
                ):
                    findings.append(
                        Finding(
                            "fp-accumulate",
                            tu,
                            lineno,
                            "compound assignment with an FP literal in a "
                            "vector TU",
                        )
                    )
    return findings


# --------------------------------------------------------------------------
# Rule 3: unordered-iter — no unordered-container iteration in
# result-ordering code.

# Files whose output order feeds user-visible results: mining selection,
# greedy/merge order, ruleset assembly, estimation solve order. Extend
# this list when a new subsystem starts producing ordered output.
ORDERING_FILES = [
    "src/mining/lattice.cc",
    "src/mining/apriori.cc",
    "src/core/faircap.cc",
    "src/core/greedy.cc",
    "src/core/ruleset.cc",
    "src/causal/cate_stats_engine.cc",
    "src/causal/estimator.cc",
]

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*&?\s*(\w+)\s*[;={(]"
)
RANGE_FOR_RE = re.compile(r"for\s*\([^;)]*:\s*&?\s*(\w+)\s*\)")
# Only begin(): iteration always needs it, while a bare end() is the
# find(x) == c.end() membership idiom, which is order-insensitive.
BEGIN_CALL_RE = re.compile(r"\b(\w+)\s*(?:\.|->)\s*c?begin\s*\(")
INLINE_UNORDERED_FOR_RE = re.compile(r"for\s*\([^)]*:\s*[^)]*unordered_")


def check_unordered_iteration(root):
    findings = []
    for rel in ORDERING_FILES:
        path = root / rel
        if not path.exists():
            continue
        raw = path.read_text(encoding="utf-8")
        stripped = strip_comments_and_strings(raw)
        unordered_names = set(UNORDERED_DECL_RE.findall(stripped))
        raw_lines = raw.splitlines()
        for lineno, (code, rawline) in enumerate(
            zip(stripped.splitlines(), raw_lines), 1
        ):
            hits = set()
            for m in RANGE_FOR_RE.finditer(code):
                if m.group(1) in unordered_names:
                    hits.add(m.group(1))
            for m in BEGIN_CALL_RE.finditer(code):
                if m.group(1) in unordered_names:
                    hits.add(m.group(1))
            if INLINE_UNORDERED_FOR_RE.search(code):
                hits.add("<inline unordered container>")
            for name in sorted(hits):
                if allowed(rawline, "unordered-iter"):
                    continue
                findings.append(
                    Finding(
                        "unordered-iter",
                        path,
                        lineno,
                        f"iteration over unordered container '{name}' in "
                        "result-ordering code; iterate a sorted copy or an "
                        "ordered container instead",
                    )
                )
    return findings


# --------------------------------------------------------------------------
# Rule 4: nondeterminism — banned randomness/clock sources in src/, tools/.

BANNED_TOKENS = [
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"(?<![\w:])random\s*\("), "random()"),
    (re.compile(r"\b[dlm]rand48\s*\("), "*rand48()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bdefault_random_engine\b"), "std::default_random_engine"),
    (re.compile(r"(?<![\w:.])time\s*\("), "time()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bsystem_clock\b"), "wall-clock system_clock"),
    (re.compile(r"\bgetpid\s*\("), "getpid()"),
]

NONDET_SCOPES = ["src", "tools"]
CPP_SUFFIXES = {".cc", ".h", ".cpp", ".hpp", ".cxx"}


def check_nondeterminism(root):
    findings = []
    for scope in NONDET_SCOPES:
        base = root / scope
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in CPP_SUFFIXES or not path.is_file():
                continue
            # The lint's own known-bad fixtures are intentionally dirty.
            if "lint_fixtures" in path.relative_to(root).parts:
                continue
            raw = path.read_text(encoding="utf-8")
            stripped = strip_comments_and_strings(raw)
            raw_lines = raw.splitlines()
            for lineno, (code, rawline) in enumerate(
                zip(stripped.splitlines(), raw_lines), 1
            ):
                for token_re, label in BANNED_TOKENS:
                    if token_re.search(code) and not allowed(
                        rawline, "nondeterminism"
                    ):
                        findings.append(
                            Finding(
                                "nondeterminism",
                                path,
                                lineno,
                                f"banned nondeterminism source {label}; use "
                                "the seeded faircap::Rng (util/random.h) or "
                                "steady_clock timing",
                            )
                        )
    return findings


ALL_RULES = {
    "fp-contract": check_fp_contract,
    "fp-accumulate": check_fp_accumulate,
    "unordered-iter": check_unordered_iteration,
    "nondeterminism": check_nondeterminism,
}


def run_lint(root, rules=None):
    findings = []
    for name, check in ALL_RULES.items():
        if rules and name not in rules:
            continue
        findings.extend(check(root))
    return findings


# --------------------------------------------------------------------------
# Self-test: each known-bad fixture tree must trigger exactly its rule;
# the known-good tree must be clean.


def self_test():
    fixtures = REPO_ROOT / "tools" / "lint_fixtures"
    failures = []
    expect = {
        "bad_fp_contract": "fp-contract",
        "bad_fp_contract_solver": "fp-contract",
        "bad_fp_accumulate": "fp-accumulate",
        "bad_unordered_iter": "unordered-iter",
        "bad_nondeterminism": "nondeterminism",
    }
    for tree, rule in sorted(expect.items()):
        root = fixtures / tree
        if not root.is_dir():
            failures.append(f"{tree}: fixture tree missing")
            continue
        findings = run_lint(root)
        hit_rules = {f.rule for f in findings}
        if rule not in hit_rules:
            failures.append(
                f"{tree}: expected a {rule} finding, got "
                f"{[str(f) for f in findings] or 'none'}"
            )
        extra = hit_rules - {rule}
        if extra:
            failures.append(
                f"{tree}: unexpected extra findings from rules {sorted(extra)}"
            )
    good = fixtures / "good"
    findings = run_lint(good)
    if findings:
        failures.append(
            "good: expected a clean pass, got "
            + "; ".join(str(f) for f in findings)
        )
    # The suppression escape must work: the allow tree trips the same
    # patterns as the bad trees but carries determinism:allow markers.
    allow_tree = fixtures / "allowed"
    findings = run_lint(allow_tree)
    if findings:
        failures.append(
            "allowed: determinism:allow suppression ignored — "
            + "; ".join(str(f) for f in findings)
        )
    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL: {f}", file=sys.stderr)
        return 1
    print(f"self-test OK ({len(expect)} bad trees, good tree, allow tree)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=REPO_ROOT,
        help="tree to lint (default: the repo root)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        choices=sorted(ALL_RULES),
        help="run only the given rule(s); default all",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="check the lint against its fixtures and exit",
    )
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    findings = run_lint(args.root.resolve(), rules=args.rule)
    for finding in findings:
        print(finding)
    if findings:
        print(
            f"\n{len(findings)} determinism finding(s). Fix them or append "
            "'// determinism:allow(<rule>)' with a justification.",
            file=sys.stderr,
        )
        return 1
    print("determinism lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
