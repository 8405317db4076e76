"""The unified compile pipeline: ``Query → Logical → Optimized → Physical``.

One dispatcher replaces the per-frontend translate entry points: every
dialect funnels into the same staged pipeline, each stage inspectable
via :func:`explain`.

* **parse** — dialect-specific text → value objects
  (:class:`~repro.query.datalog.RQProgram`, G-CORE AST, regex AST);
* **logical** — Algorithm SGQParser (datalog/gcore) or the direct
  single-PATH construction (rpq), yielding the canonical
  :class:`~repro.algebra.operators.Plan`;
* **optimized** — the semantics-preserving plan rewrite the physical
  compiler applies (relabel fusion; cost-based plan *choice* stays
  opt-in via :mod:`repro.algebra.optimizer`);
* **physical** — operator selection and dataflow wiring
  (:func:`repro.physical.planner.compile_plan`).

Every stage increments the module-level :data:`COUNTERS`, which is how
tests and benchmarks assert the compile-once/bind-many contract of
:class:`~repro.ql.prepared.PreparedQuery`: binding a prepared template
performs **zero** parses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from repro.algebra.explain import explain as explain_logical
from repro.algebra.operators import (
    Filter,
    Path,
    Pattern,
    Plan,
    Relabel,
    Union,
    WScan,
)
from repro.algebra.translate import sgq_to_sga
from repro.core.windows import SlidingWindow
from repro.errors import PlanError
from repro.physical.planner import PhysicalPlan, compile_plan, fuse_relabels
from repro.query.datalog import ANSWER, RQProgram
from repro.query.parser import parse_rq
from repro.query.sgq import SGQ
from repro.ql.params import find_params
from repro.ql.query import Query
from repro.regex.ast import RegexNode
from repro.regex.parser import parse_regex

#: Output label of the PATH operator backing an rpq-dialect query (the
#: final Relabel renames it to the reserved ``Answer``).
RPQ_PATH_LABEL = "AnswerPath"

#: Explain levels, in pipeline order.  ``"kernels"`` renders the
#: physical tree annotated with the kernel-selection pass's choices.
EXPLAIN_LEVELS = ("source", "logical", "optimized", "physical", "kernels")

_GCORE_LEADING = re.compile(
    r"^\s*(GRAPH|PATH|CONSTRUCT|MATCH)\b", re.IGNORECASE
)
#: Unambiguous G-CORE edge punctuation (``-[:l]->`` / ``<-[:l]-`` /
#: ``-/<:l*>/->``): label regexes cannot contain brackets or slashes,
#: so this distinguishes G-CORE from an rpq whose first label merely
#: *starts* with a keyword (e.g. the label ``path``).
_GCORE_EDGE = re.compile(r"-\[|-/")
#: A rule arrow: ``<-`` or ``:-`` — but not the head of a G-CORE
#: backward edge ``<-[:label]-`` (checked on whitespace-normalized text,
#: where the ASCII-art edge is always exactly ``<-[``).
_RULE_ARROW = re.compile(r"<-(?!\[)|:-")


@dataclass
class CompileCounters:
    """Pipeline-stage counters (compile-once/bind-many instrumentation).

    ``parses`` counts text→AST runs of any frontend, ``translations``
    counts logical-plan constructions, ``physical_compiles`` counts
    dataflow compilations, ``binds`` counts prepared-query binds.
    """

    parses: int = 0
    translations: int = 0
    physical_compiles: int = 0
    binds: int = 0


#: The live counters.  Reset with :func:`reset_counters`.
COUNTERS = CompileCounters()


def reset_counters() -> CompileCounters:
    """Zero the counters and return the live instance.

    Also clears the pipeline's logical-plan memo, so a fresh count
    observes real pipeline work (prepared-query template caches are
    per-template and live on; that is exactly the reuse the counters
    exist to demonstrate).
    """
    COUNTERS.parses = 0
    COUNTERS.translations = 0
    COUNTERS.physical_compiles = 0
    COUNTERS.binds = 0
    _logical_plan_memo.cache_clear()
    return COUNTERS


# ----------------------------------------------------------------------
# Dialect detection and counted parse entry points
# ----------------------------------------------------------------------
def detect_dialect(text: str) -> str:
    """``"datalog"`` / ``"gcore"`` / ``"rpq"`` from the text shape.

    Rule arrows (``<-`` / ``:-``) mean Datalog — except the ``<-`` of a
    G-CORE backward edge ``(x)<-[:l]-(y)``, which is excluded by
    checking the whitespace-normalized text.  A leading G-CORE clause
    keyword means G-CORE; everything else is read as a label regex.
    """
    from repro.gcore.lexer import normalize

    normalized = normalize(text)
    if _RULE_ARROW.search(normalized):
        return "datalog"
    if _GCORE_LEADING.match(text) and _GCORE_EDGE.search(normalized):
        return "gcore"
    return "rpq"


def parse_datalog_text(text: str) -> RQProgram:
    COUNTERS.parses += 1
    return parse_rq(text)


def parse_gcore_text(text: str) -> SGQ:
    from repro.gcore import parse_gcore

    COUNTERS.parses += 1
    return parse_gcore(text)


def parse_rpq_text(text: str) -> RegexNode:
    COUNTERS.parses += 1
    return parse_regex(text)


def translate_sgq(sgq: SGQ) -> Plan:
    COUNTERS.translations += 1
    return sgq_to_sga(sgq)


def rpq_plan(
    regex: RegexNode,
    window: SlidingWindow,
    label_windows: dict[str, SlidingWindow] | None = None,
) -> Plan:
    """The direct single-PATH plan for a label regex (plans "P1")."""
    COUNTERS.translations += 1
    overrides = label_windows or {}
    inputs: dict[str, Plan] = {
        label: WScan(label, overrides.get(label, window))
        for label in regex.alphabet()
    }
    path = Path.over(inputs, regex, RPQ_PATH_LABEL)
    return Relabel(path, ANSWER)


# ----------------------------------------------------------------------
# The staged pipeline over Query values
# ----------------------------------------------------------------------
def _require_bound(query: Query) -> None:
    params = find_params(query.text)
    if params:
        raise PlanError(
            f"query text has unbound parameter(s) "
            f"{tuple('$' + p for p in params)}; use "
            "ql.prepare(...).bind(...) to instantiate a template"
        )


def to_sgq(query: Query) -> SGQ:
    """The SGQ a datalog/gcore query denotes (window attached)."""
    precompiled = query.precompiled_sgq
    if precompiled is not None:
        if callable(precompiled):
            # A bound query defers its program substitution; resolve it
            # once and pin the result (bypassing the frozen dataclass —
            # the field is excluded from equality/hash, so this is pure
            # memoization, not mutation of the value).
            precompiled = precompiled()
            object.__setattr__(query, "precompiled_sgq", precompiled)
        return precompiled  # type: ignore[return-value]
    _require_bound(query)
    if query.dialect == "datalog":
        assert query.window is not None
        return SGQ(
            parse_datalog_text(query.text),
            query.window,
            dict(query.label_windows),
        )
    if query.dialect == "gcore":
        return parse_gcore_text(query.text)
    raise PlanError(
        "an rpq query has no rule program (the dd backend and SGQ "
        "consumers need datalog or gcore dialects)"
    )


@lru_cache(maxsize=512)
def _logical_plan_memo(query: Query) -> Plan:
    # NOTE: queries are value objects — equal text/dialect/window/options
    # means an identical canonical plan, so memoizing on the Query is
    # sound (precompiled plans short-circuit in logical_plan()).
    if query.dialect == "rpq":
        assert query.window is not None
        return rpq_plan(
            parse_rpq_text(query.text),
            query.window,
            dict(query.label_windows),
        )
    return translate_sgq(to_sgq(query))


def logical_plan(query: Query) -> Plan:
    """Stage 1: the canonical logical plan for any dialect (memoized)."""
    if query.precompiled_plan is not None:
        return query.precompiled_plan  # type: ignore[return-value]
    _require_bound(query)
    return _logical_plan_memo(query)


def optimized_plan(query: Query) -> Plan:
    """Stage 2: the plan after the rewrite stage (relabel fusion)."""
    return fuse_relabels(logical_plan(query))


def physical_plan(query: Query) -> PhysicalPlan:
    """Stage 3: a standalone compiled dataflow for this query."""
    COUNTERS.physical_compiles += 1
    return compile_plan(logical_plan(query), *query.options.resolved())


# ----------------------------------------------------------------------
# Kernel selection
# ----------------------------------------------------------------------
def kernel_choices(physical: PhysicalPlan) -> dict[int, str]:
    """The kernel the executor will run per physical operator.

    Maps ``id(op)`` → a kernel tag.  Consumed by :func:`explain` (level
    ``"kernels"``) and usable directly for plan inspection in tests.
    """
    from repro.physical.coalesce_op import CoalesceOp
    from repro.physical.filter import FilterOp
    from repro.physical.join import PatternOp
    from repro.physical.rpq_negative import NegativeTupleRpqOp
    from repro.physical.spath import SPathOp
    from repro.physical.union import UnionOp
    from repro.physical.wscan import WScanOp

    tags = (
        (WScanOp, "wscan.columnar"),
        (FilterOp, "filter.columnar"),
        (PatternOp, "join.columnar"),
        (UnionOp, "union.zero-copy"),
        (CoalesceOp, "coalesce.columnar"),
        # PATH expansion is order-sensitive: an arrival-order row loop.
        ((SPathOp, NegativeTupleRpqOp), "path.row-ingest"),
    )
    choices: dict[int, str] = {}
    for op in physical.graph.operators:
        for kind, tag in tags:
            if isinstance(op, kind):
                choices[id(op)] = tag
                break
    return choices


# ----------------------------------------------------------------------
# Explain
# ----------------------------------------------------------------------
def explain_physical(
    physical: PhysicalPlan, kernels: dict[int, str] | None = None
) -> str:
    """Render a compiled dataflow as an indented operator tree.

    Walks upward from the sink; operators feeding several consumers are
    expanded once and referenced as ``(shared)`` afterwards.  With a
    ``kernels`` map (see :func:`kernel_choices`) each operator line is
    annotated with its selected kernel.
    """
    producers: dict[int, list[tuple[int, object]]] = {}
    for op in physical.graph.operators:
        for consumer, port in op._downstream:
            producers.setdefault(id(consumer), []).append((port, op))

    lines: list[str] = []
    seen: set[int] = set()

    def render(op, depth: int) -> None:
        pad = "  " * depth
        tag = type(op).__name__
        name = getattr(op, "name", "")
        if id(op) in seen:
            lines.append(f"{pad}{tag} {name} (shared)")
            return
        seen.add(id(op))
        line = f"{pad}{tag} {name}"
        if kernels is not None:
            kernel = kernels.get(id(op))
            if kernel is not None:
                line += f" [kernel={kernel}]"
        lines.append(line)
        for _, producer in sorted(
            producers.get(id(op), []), key=lambda pair: pair[0]
        ):
            render(producer, depth + 1)

    render(physical.sink, 0)
    return "\n".join(lines)


def explain_kernels(physical: PhysicalPlan) -> str:
    """The kernels-level rendering: ingress header + annotated tree."""
    tree = explain_physical(physical, kernel_choices(physical))
    return f"ingress: interned same-label runs\n{tree}"


def explain_plan_stage(
    plan: Plan,
    level: str = "logical",
    options: tuple[str, bool, bool] = ("spath", True, True),
) -> str:
    """Render a logical plan at one pipeline stage (the shared dispatch
    behind :func:`explain` and ``QueryHandle.explain``)."""
    if level == "logical":
        return explain_logical(plan)
    if level == "optimized":
        return explain_logical(fuse_relabels(plan))
    if level == "physical":
        return explain_physical(compile_plan(plan, *options))
    if level == "kernels":
        return explain_kernels(compile_plan(plan, *options))
    raise PlanError(
        f"unknown explain level {level!r}; expected one of "
        f"{EXPLAIN_LEVELS[1:]}"
    )


def explain(query: Query, level: str = "logical") -> str:
    """Render one pipeline stage of ``query`` (or ``"all"`` of them)."""
    if level == "all":
        sections = []
        for stage in EXPLAIN_LEVELS:
            sections.append(f"-- {stage} " + "-" * max(1, 60 - len(stage)))
            sections.append(explain(query, stage))
        return "\n".join(sections)
    if level == "source":
        return str(query)
    if level == "physical":
        return explain_physical(physical_plan(query))
    if level == "kernels":
        return explain_plan_stage(
            logical_plan(query), "kernels", query.options.resolved()
        )
    if level in ("logical", "optimized"):
        return explain_plan_stage(logical_plan(query), level)
    raise PlanError(
        f"unknown explain level {level!r}; expected one of "
        f"{EXPLAIN_LEVELS + ('all',)}"
    )
