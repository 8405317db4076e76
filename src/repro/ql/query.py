"""First-class queries: the frozen :class:`Query` value object.

A :class:`Query` is *what* to run — source text, dialect, window
specification and per-query compile options — decoupled from *where* it
runs (an engine session).  Being a frozen value object it is hashable,
comparable and safely shareable: the compile pipeline memoizes on it,
and the engine's shared-subexpression caches key off the plans it
produces.

Construction goes through the dialect constructors
(:meth:`Query.datalog`, :meth:`Query.gcore`, :meth:`Query.rpq`),
dialect auto-detection (:meth:`Query.from_text`), the fluent builder
(:func:`repro.ql.builder.match`) or a
:class:`~repro.ql.prepared.PreparedQuery` bind.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.tuples import Label
from repro.core.windows import SlidingWindow
from repro.errors import PlanError, QueryValidationError

#: Text dialects the unified pipeline understands.
DIALECTS = ("datalog", "gcore", "rpq")


@dataclass(frozen=True, slots=True)
class CompileOptions:
    """Per-query compile options, each ``None`` = engine/library default.

    These are exactly the fields a single query may override at
    registration time (:data:`repro.engine.session.PER_QUERY_OPTIONS`);
    engine-wide settings (backend, batch_size, late_policy) stay on
    :class:`~repro.engine.session.EngineConfig`.
    """

    path_impl: str | None = None
    materialize_paths: bool | None = None
    coalesce_intermediate: bool | None = None

    #: Library defaults applied when compiling outside an engine session.
    DEFAULTS = ("spath", True, True)

    def __post_init__(self) -> None:
        if self.path_impl is not None:
            from repro.physical.planner import PATH_IMPLS

            if self.path_impl not in PATH_IMPLS:
                raise PlanError(
                    f"unknown PATH implementation {self.path_impl!r}; "
                    f"expected one of {PATH_IMPLS}"
                )
        for name in ("materialize_paths", "coalesce_intermediate"):
            value = getattr(self, name)
            if value is not None and type(value) is not bool:
                raise PlanError(f"{name} must be a bool, got {value!r}")

    def overrides(self) -> dict[str, object]:
        """The explicitly-set fields, as ``register(**overrides)`` kwargs."""
        out: dict[str, object] = {}
        if self.path_impl is not None:
            out["path_impl"] = self.path_impl
        if self.materialize_paths is not None:
            out["materialize_paths"] = self.materialize_paths
        if self.coalesce_intermediate is not None:
            out["coalesce_intermediate"] = self.coalesce_intermediate
        return out

    def resolved(self) -> tuple[str, bool, bool]:
        """(path_impl, materialize_paths, coalesce_intermediate) with
        library defaults filled in."""
        defaults = self.DEFAULTS
        return (
            self.path_impl if self.path_impl is not None else defaults[0],
            self.materialize_paths
            if self.materialize_paths is not None
            else defaults[1],
            self.coalesce_intermediate
            if self.coalesce_intermediate is not None
            else defaults[2],
        )


def _coerce_window(
    window: SlidingWindow | int | None, slide: int | None
) -> SlidingWindow | None:
    if window is None:
        if slide is not None:
            raise QueryValidationError(
                "slide given without a window; pass window= (or set it "
                "on the template) alongside slide="
            )
        return None
    if isinstance(window, SlidingWindow):
        if slide is not None and slide != window.slide:
            return SlidingWindow(window.size, slide)
        return window
    return SlidingWindow(int(window), slide if slide is not None else 1)


def _freeze_label_windows(
    label_windows: dict[Label, SlidingWindow] | None,
) -> tuple[tuple[Label, SlidingWindow], ...]:
    if not label_windows:
        return ()
    return tuple(sorted(label_windows.items(), key=lambda kv: kv[0]))


@dataclass(frozen=True, slots=True)
class Query:
    """A persistent streaming graph query as an immutable value.

    Parameters
    ----------
    text:
        Source text in ``dialect``.
    dialect:
        ``"datalog"`` (Regular Query rules), ``"gcore"`` (the paper's
        user-level language, window embedded in the text) or ``"rpq"``
        (a bare label regex evaluated by one PATH operator).
    window:
        Default sliding window (required for datalog/rpq; ``None`` for
        gcore, whose ``ON ... WINDOW`` clauses carry it).
    label_windows:
        Per-input-label window overrides (stored sorted, hashable).
    options:
        Per-query :class:`CompileOptions`.
    bindings:
        The parameter values this query was bound from, when it came out
        of :meth:`~repro.ql.prepared.PreparedQuery.bind` (informational;
        excluded from equality).
    """

    text: str
    dialect: str
    window: SlidingWindow | None = None
    label_windows: tuple[tuple[Label, SlidingWindow], ...] = ()
    options: CompileOptions = CompileOptions()
    bindings: tuple[tuple[str, str], ...] = field(default=(), compare=False)
    #: Plan/SGQ precompiled by PreparedQuery.bind (or the builder);
    #: excluded from equality — a bound query *is* its text + window.
    precompiled_plan: object = field(default=None, compare=False, repr=False)
    precompiled_sgq: object = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.dialect not in DIALECTS:
            raise PlanError(
                f"unknown query dialect {self.dialect!r}; "
                f"expected one of {DIALECTS}"
            )
        if self.dialect != "gcore" and self.window is None:
            raise QueryValidationError(
                f"the {self.dialect!r} dialect requires a window "
                "(gcore queries carry it in their ON clauses)"
            )
        if not self.text.strip():
            raise QueryValidationError("empty query text")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def datalog(
        cls,
        text: str,
        window: SlidingWindow | int,
        *,
        slide: int | None = None,
        label_windows: dict[Label, SlidingWindow] | None = None,
        **options: object,
    ) -> "Query":
        """A Regular Query (binary Datalog with transitive closure)."""
        return cls(
            text=text,
            dialect="datalog",
            window=_coerce_window(window, slide),
            label_windows=_freeze_label_windows(label_windows),
            options=CompileOptions(**options),  # type: ignore[arg-type]
        )

    @classmethod
    def gcore(cls, text: str, **options: object) -> "Query":
        """A G-CORE statement (window embedded via ``ON ... WINDOW``)."""
        return cls(
            text=text,
            dialect="gcore",
            options=CompileOptions(**options),  # type: ignore[arg-type]
        )

    @classmethod
    def rpq(
        cls,
        text: str,
        window: SlidingWindow | int,
        *,
        slide: int | None = None,
        label_windows: dict[Label, SlidingWindow] | None = None,
        **options: object,
    ) -> "Query":
        """A regular path query given as a bare label regex.

        Compiles to the direct single-PATH plan (the "P1" plans of
        Section 7.4) rather than the canonical union/join decomposition.
        """
        return cls(
            text=text,
            dialect="rpq",
            window=_coerce_window(window, slide),
            label_windows=_freeze_label_windows(label_windows),
            options=CompileOptions(**options),  # type: ignore[arg-type]
        )

    @classmethod
    def from_text(
        cls,
        text: str,
        window: SlidingWindow | int | None = None,
        *,
        slide: int | None = None,
        label_windows: dict[Label, SlidingWindow] | None = None,
        **options: object,
    ) -> "Query":
        """Auto-detect the dialect and construct the matching query.

        ``<-``/``:-`` means datalog; a leading G-CORE clause keyword
        (CONSTRUCT / MATCH / PATH / GRAPH) means gcore; anything else is
        treated as a label regex (rpq).
        """
        from repro.ql.pipeline import detect_dialect

        dialect = detect_dialect(text)
        if dialect == "gcore":
            if window is not None or label_windows:
                raise QueryValidationError(
                    "text detected as 'gcore', which carries its window "
                    "in ON ... WINDOW clauses; drop the window argument "
                    "(or edit the query text)"
                )
            return cls.gcore(text, **options)
        ctor = cls.datalog if dialect == "datalog" else cls.rpq
        if window is None:
            raise QueryValidationError(
                f"text detected as {dialect!r}, which requires a window"
            )
        return ctor(
            text,
            window,
            slide=slide,
            label_windows=label_windows,
            **options,
        )

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_options(self, **options: object) -> "Query":
        """A copy with compile options replaced (unset fields kept)."""
        merged = {**self.options.overrides(), **options}
        return replace(self, options=CompileOptions(**merged))  # type: ignore[arg-type]

    def with_window(
        self, window: SlidingWindow | int, *, slide: int | None = None
    ) -> "Query":
        """A copy over a different window (drops any precompiled plan)."""
        if self.dialect == "gcore":
            raise QueryValidationError(
                "gcore queries carry their window in the text"
            )
        return replace(
            self,
            window=_coerce_window(window, slide),
            precompiled_plan=None,
            precompiled_sgq=None,
        )

    # ------------------------------------------------------------------
    # The compile pipeline (delegates to repro.ql.pipeline)
    # ------------------------------------------------------------------
    def sgq(self):
        """The :class:`~repro.query.sgq.SGQ` this query denotes
        (datalog/gcore only — an rpq has no rule program)."""
        from repro.ql import pipeline

        return pipeline.to_sgq(self)

    def plan(self):
        """Stage 1: the canonical logical plan (memoized)."""
        from repro.ql import pipeline

        return pipeline.logical_plan(self)

    def optimized_plan(self):
        """Stage 2: the logical plan after the rewrite stage."""
        from repro.ql import pipeline

        return pipeline.optimized_plan(self)

    def physical_plan(self):
        """Stage 3: the compiled physical dataflow (standalone; inside
        an engine session the dataflow is shared across queries)."""
        from repro.ql import pipeline

        return pipeline.physical_plan(self)

    def explain(self, level: str = "logical") -> str:
        """Render one pipeline stage: ``"source"``, ``"logical"``,
        ``"optimized"``, ``"physical"`` or ``"all"``."""
        from repro.ql import pipeline

        return pipeline.explain(self, level)

    @property
    def params(self) -> tuple[str, ...]:
        """Unbound ``$name`` parameters in the text (a runnable query
        has none; prepare + bind to instantiate them)."""
        from repro.ql.params import find_params

        return find_params(self.text)

    def __str__(self) -> str:
        window = f" {self.window}" if self.window is not None else ""
        return f"Query[{self.dialect}{window}]\n{self.text.strip()}"
