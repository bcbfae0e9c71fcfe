"""One benchmark worker: a fresh interpreter that runs one job and exits.

    python3 bench/worker.py '{"role": "dfa-nth", "seed": 1, "index": 0, ...}'

run.py starts every worker with ``src`` on PYTHONPATH.  The worker
imports derivrex, rebuilds its inputs from the seed, notes the time just
before its first timed op (``ready_ns``, on the same monotonic clock the
parent reads when it starts the process), runs the op, checks the
output, and prints one JSON line.

Roles:

* ``dfa-nth`` and ``equiv-wide``: one timed op each, so no op runs in an
  interpreter whose memo caches another op has filled.
* ``match-long``: one fixed-order batch of ``matches`` calls; the first
  word of each pattern is cold, the rest warm.
* ``cli-setup``: import ``derivrex.cli`` and build a round of CLI inputs,
  which is what each CLI command pays before it parses its arguments.
* ``cli-main`` (traced runs): one CLI command through
  ``derivrex.cli.main`` with stdout captured.
* ``cli-layers`` (traced runs): ``parse`` and ``enumerate_lang`` on the
  inputs of a CLI round.
* ``equiv-pairs`` (traced runs): the smallest ``max_pairs`` with which
  ``equivalent`` completes, found by bisection, for one pair of each kind.

When the spec asks for tracing, the worker records a span around each
call it makes into derivrex; spans go back to the parent with the
result.  Only public names of derivrex are used.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import checks
import inputs


class Tracer:
    """Spans held in memory: name, start, end, parent span and op id."""

    def __init__(self, enabled: bool, parent: str | None):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack = [parent]

    @contextlib.contextmanager
    def span(self, name: str, op: str, **attrs):
        """Yield a dict for attributes known only after the call."""
        if not self.enabled:
            yield {}
            return
        record = {"id": f"{op}/{len(self.spans)}", "parent": self._stack[-1],
                  "op": op, "name": name, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start_ns"] = time.monotonic_ns()
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end_ns"] = time.monotonic_ns()
            self._stack.pop()


def timed(tr: Tracer, workload: str, op: str, body) -> tuple[dict, object]:
    """Run *body* as one op: (record, what body returned).  An exception
    from the engine makes the op failed; the worker goes on."""
    record = {"op": op, "failed": None, "problem": None}
    start = time.perf_counter_ns()
    try:
        with tr.span(f"{workload}.op", op):
            outcome = body()
    except Exception as exc:
        outcome = None
        record["failed"] = f"{type(exc).__name__}: {exc}"[:200]
    record["ms"] = (time.perf_counter_ns() - start) / 1e6
    return record, outcome


def dfa_nth(spec: dict, sizes: dict, tr: Tracer, ready) -> dict:
    from derivrex import build_dfa, canonicalize, parse, to_dot, to_json

    seed, index, n = spec["seed"], spec["index"], sizes["dfa_n"]
    text = inputs.dfa_text(seed, index, sizes)
    words = inputs.dfa_check_words(seed, index, n)
    op = spec["op"]
    ready()

    def body():
        with tr.span("syntax.parse", op):
            e = parse(text)
        with tr.span("syntax.canonicalize", op):
            c = canonicalize(e)
        with tr.span("automaton.build_dfa", op, symbols=2) as s:
            d = build_dfa(c, "ab")
            s["states"] = len(d.states)
        with tr.span("automaton.to_json", op):
            js = to_json(d)
        with tr.span("automaton.to_dot", op):
            dot = to_dot(d)
        return js, dot

    record, outcome = timed(tr, "dfa-nth", op, body)
    if outcome:
        js, dot = outcome
        record["problem"] = checks.check_dfa_json(
            js, 2 ** (n + 1), inputs.nth_from_last(n), words
        ) or checks.check_dot(dot, checks.read_dfa_json(js))
    return {"ops": [record]}


def match_long(spec: dict, sizes: dict, tr: Tracer, ready) -> dict:
    from derivrex import deriv_word, matches, nullable, parse

    batch = inputs.match_batch(spec["seed"], spec["index"], sizes)
    terms = {text: parse(text) for _, text, _, _ in batch}
    re_preds = {text: checks.re_predicate(text) for text in terms}
    ready()
    records = []
    for j, (name, text, pred, w) in enumerate(batch):
        e, op = terms[text], f"{spec['op']}.{j}"
        cold = j % sizes["match_words"] == 0

        def body():
            if not tr.enabled:
                return matches(e, w)
            with tr.span("derivative.deriv_word", op, symbols=len(w), cold=cold):
                d = deriv_word(w, e)
            with tr.span("derivative.nullable", op):
                return nullable(d)

        record, verdict = timed(tr, "match-long", op, body)
        if record["failed"] is None and not verdict == pred(w) == re_preds[text](w):
            record["problem"] = f"{name}: matches gave {verdict} on a word ending {w[-12:]!r}"
        records.append(record)
    return {"ops": records}


def equiv_wide(spec: dict, sizes: dict, tr: Tracer, ready) -> dict:
    from derivrex import canonicalize, equivalent, parse

    kind = "equal" if spec["index"] % 2 == 0 else "unequal"
    left, right, lp, rp, cx = inputs.equiv_pair(kind, spec["seed"], spec["index"], sizes)
    op = spec["op"]
    ready()

    def body():
        with tr.span("syntax.parse", op):
            e, f = parse(left), parse(right)
        with tr.span("syntax.canonicalize", op):
            e, f = canonicalize(e), canonicalize(f)
        with tr.span("automaton.equivalent", op, kind=kind):
            return equivalent(e, f, sizes["sigma"])

    record, verdict = timed(tr, "equiv-wide", op, body)
    if verdict is not None:
        record["problem"] = checks.check_verdict(
            verdict.equal, verdict.counterexample, lp, rp, cx
        )
    return {"ops": [record]}


def equiv_pairs(spec: dict, sizes: dict, tr: Tracer, ready) -> dict:
    from derivrex import PairBudgetError, equivalent, parse

    ready()
    pairs = {}
    for index, kind in enumerate(("equal", "unequal")):
        left, right, *_ = inputs.equiv_pair(kind, spec["seed"], index, sizes)
        e, f = parse(left), parse(right)

        def completes(budget: int) -> bool:
            try:
                equivalent(e, f, sizes["sigma"], max_pairs=budget)
            except PairBudgetError:
                return False
            return True

        hi = 1
        while not completes(hi):
            hi *= 2
        lo = hi // 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if completes(mid):
                hi = mid
            else:
                lo = mid
        pairs[kind] = hi
    return {"pairs": pairs}


def cli_setup(spec: dict, sizes: dict, tr: Tracer, ready) -> dict:
    import derivrex.cli  # noqa: F401

    inputs.cli_round(spec["seed"], spec["index"], sizes)
    ready()
    return {}


def cli_main(spec: dict, sizes: dict, tr: Tracer, ready) -> dict:
    ready()
    op, argv = spec["op"], spec["argv"]
    out = io.StringIO()

    def body():
        with tr.span("package.import", op):
            import derivrex.cli
        with tr.span(f"cli.main.{argv[0]}", op), contextlib.redirect_stdout(out):
            return derivrex.cli.main(argv)

    record, code = timed(tr, "cli-oneshot", op, body)
    return {"ops": [record], "stdout": out.getvalue(), "code": code}


def cli_layers(spec: dict, sizes: dict, tr: Tracer, ready) -> dict:
    from derivrex import enumerate_lang, parse

    ready()
    for k, cmd in enumerate(inputs.cli_round(spec["seed"], spec["index"], sizes)):
        if len(cmd["argv"]) < 2 or cmd["argv"][1] == inputs.LONG_LITERAL:
            continue
        op = f"{spec['op']}.{k}"
        exprs = cmd["argv"][1:3] if cmd["command"] == "equiv" else cmd["argv"][1:2]
        for text in exprs:
            with tr.span("syntax.parse", op):
                e = parse(text)
        if cmd["command"] == "enum":
            with tr.span("oracle.enumerate_lang", op):
                enumerate_lang(e, cmd["bound"])
    return {}


ROLES = {
    "dfa-nth": dfa_nth,
    "match-long": match_long,
    "equiv-wide": equiv_wide,
    "equiv-pairs": equiv_pairs,
    "cli-setup": cli_setup,
    "cli-main": cli_main,
    "cli-layers": cli_layers,
}


def main() -> None:
    spec = json.loads(sys.argv[1])
    sizes = inputs.QUICK if spec["quick"] else inputs.FULL
    tr = Tracer(spec["trace"], spec.get("parent"))
    ready_ns = []
    result = ROLES[spec["role"]](spec, sizes, tr, lambda: ready_ns.append(time.monotonic_ns()))
    result.update(ready_ns=ready_ns[0], spans=tr.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
