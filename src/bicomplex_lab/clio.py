"""Command-line interface, file parsing, and report/diagram emitters.

Input formats (detected by extension):

* ``.json`` - the plain-dict complex schema of :mod:`.bicomplex`
  (``label``, optional ``n``, ``spaces``, ``del``, ``delbar`` with
  scalar-string matrices).
* ``.bba`` - the structure-equation text format of :mod:`.models`
  (``n = <int>`` followed by ``d w<k> = <expr>`` lines).

Commands: ``validate``, ``cohomology``, ``decompose``, ``check``,
``render``, ``corpus``, ``convert``.  Exit codes: 0 success, 1 usage
error, 2 parse/validation error, 3 a theorem-as-test check failed, 4 an
internal engine error (a ``DecompositionError`` or ``LinAlgError`` that a
valid input should never raise; the message goes to stderr).

All emissions are deterministic byte-for-byte for identical inputs and
flags; corpus workers (at most ``BICOMPLEX_LAB_THREADS``, the number of
complexes and the usable CPUs) never affect output order.  Dimension
reports are model cohomology: exact invariants of the given finite
complex, with no claim attached about any geometric object the complex
may have been derived from.
"""

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .bicomplex import (BicomplexFormatError, ensure_valid, from_json_dict,
                        to_json_dict, validate)
from .checkers import ALL_CHECK_NAMES, THEOREM_CHECK_NAMES, run_all_checks
from . import cohomology
from .exactla import LinAlgError
from .models import (PART_KINDS, StructureEquationError,
                     from_structure_equations, iwasawa, kodaira_surface,
                     parse_structure_text, random_bicomplex, torus)
from .zigzag import (DecompositionError, decompose,
                     decomposition_to_json_dict)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_THEOREM = 3
EXIT_INTERNAL = 4

PRESETS = {
    "torus1": lambda: torus(1),
    "torus2": lambda: torus(2),
    "torus3": lambda: torus(3),
    "iwasawa": iwasawa,
    "kodaira": kodaira_surface,
}

GRID_CONVENTION = ("grid convention: rows are the first index p "
                   "(top row p = 0), columns the second index q")


class UsageError(Exception):
    """Bad flags or flag combinations (exit code 1)."""


class InputError(Exception):
    """Unreadable, unparsable, or invalid input (exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    """Parsed command line; exactly one input source per command."""

    command: str
    preset: str = None
    input_path: str = None
    out_dir: str = None
    fmt: str = None
    seed: int = 0
    n_corpus: int = 100
    kinds: tuple = PART_KINDS
    hide_squares: bool = True


# --------------------------------------------------------------------------
# Input.
# --------------------------------------------------------------------------

class _RepeatedKey(ValueError):
    pass


def _unique_keys(pairs):
    """``object_pairs_hook`` that rejects a key repeated in one object.

    It sees each object's own pairs once, so it costs O(keys) per object
    and never walks the row lists.
    """
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise _RepeatedKey(key)
            seen.add(key)
    return obj


# Unicode category Cc: the C0 controls, DEL and the C1 controls.
_CONTROL = re.compile("[\x00-\x1f\x7f-\x9f]")


def _escaped(path):
    """``path`` with each control character written as ``\\xNN``, so that
    a message naming it stays on one line."""
    return _CONTROL.sub(lambda m: f"\\x{ord(m.group()):02x}", str(path))


def parse_bicomplex_file(path):
    """Parse a ``.json`` or ``.bba`` file into a Bicomplex.

    Raises :class:`InputError` with file/line context on unreadable
    files, text that is not UTF-8, parse errors (a key repeated in one
    JSON object and JSON nested too deeply among them), a label (the JSON
    ``label``, else the file stem) holding a control character, and
    unknown extensions.  Validation is the caller's concern (the
    ``validate`` command reports violations, every other command aborts
    on them).
    """
    path = Path(path)
    name = _escaped(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {name}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{name}: not UTF-8 text at byte {exc.start}"
                         ) from exc
    if path.suffix == ".json":
        try:
            obj = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise InputError(f"{name}: invalid JSON at line {exc.lineno}, "
                             f"column {exc.colno}: {exc.msg}") from exc
        except RecursionError as exc:
            raise InputError(f"{name}: invalid JSON: nested too deeply"
                             ) from exc
        except _RepeatedKey as exc:
            raise InputError(f"{name}: repeated key {exc.args[0]!r} in a "
                             f"JSON object") from exc
        try:
            k = from_json_dict(obj, default_label=path.stem)
        except BicomplexFormatError as exc:
            raise InputError(f"{name}: {exc}") from exc
    elif path.suffix == ".bba":
        try:
            spec = parse_structure_text(text)
            k = from_structure_equations(spec, label=path.stem)
        except StructureEquationError as exc:
            raise InputError(f"{name}: {exc}") from exc
    else:
        raise InputError(f"{name}: unknown input extension {path.suffix!r} "
                         f"(expected .json or .bba)")
    # Reports and diagrams print the label inside one line or comment.
    bad = _CONTROL.search(k.label)
    if bad:
        raise InputError(f"{name}: label contains the control character "
                         f"U+{ord(bad.group()):04X}")
    return k


def _load(config, *, require_valid=True):
    if config.preset is not None:
        k = PRESETS[config.preset]()
    else:
        k = parse_bicomplex_file(config.input_path)
    if require_valid:
        try:
            ensure_valid(k)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    return k


# --------------------------------------------------------------------------
# Table emission.
# --------------------------------------------------------------------------

def _span(values):
    return range(min(values), max(values) + 1)


def _grid_rows(dims):
    """The bounding box of a nonempty bidegree-keyed table as rows: a
    header of q values, then each p with its row (0 where absent)."""
    qs = _span([q for _, q in dims])
    return [["p\\q", *qs]] + [[p, *(dims.get((p, q), 0) for q in qs)]
                              for p in _span([p for p, _ in dims])]


def _grid_lines(dims):
    """Aligned text grid of a bidegree-keyed table."""
    if not dims:
        return ["(empty)"]
    rows = [[str(cell) for cell in row] for row in _grid_rows(dims)]
    widths = [max(len(cell) for cell in col) for col in zip(*rows)]
    return ["  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            for row in rows]


def _csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _camel(name):
    """A snake_case name in camelCase (``e_infinity`` -> ``eInfinity``)."""
    head, *rest = name.split("_")
    return head + "".join(word.title() for word in rest)


def _keyed(dims):
    """A dimension dict as a JSON object in key order: bidegrees as "p,q",
    degrees as "k"."""
    return {",".join(map(str, key)) if isinstance(key, tuple) else str(key):
            dims[key] for key in sorted(dims)}


_TITLES = {"de_rham": "de Rham (by total degree)",
           "dolbeault": "Dolbeault",
           "conj_dolbeault": "conjugate Dolbeault",
           "bott_chern": "Bott-Chern",
           "aeppli": "Aeppli"}


def emit_tables(k, fmt):
    """Render the cohomology tables of the complex ``k`` as
    {filename: text}, headed by ``k.label``.

    ``text`` gives one aligned grid per theory in a single file, ``csv``
    one file per theory, ``json`` a single lossless integer report that
    also carries the Frolicher pages and natural-map ranks; only ``json``
    computes those.  Theories come in the order of
    ``cohomology.THEORIES`` and maps in the field order of
    ``NaturalMapRanks``; file names are the theory names and JSON keys
    their camelCase.  The tables come from the complex's store, so they
    are computed once however often the complex is emitted.
    """
    if fmt not in _FORMATS["cohomology"]:
        raise UsageError(f"unknown table format {fmt!r}")
    dims = {theory: getattr(cohomology, theory)(k).dims
            for theory in cohomology.THEORIES}
    betti = dims["de_rham"]
    if fmt == "text":
        lines = [f"# model cohomology tables: {k.label}",
                 f"# {GRID_CONVENTION}", f"== {_TITLES['de_rham']} =="]
        if betti:
            degs = _span(betti)
            lines.append("degree  " + "  ".join(str(d) for d in degs))
            lines.append("dim     "
                         + "  ".join(str(betti.get(d, 0)) for d in degs))
        else:
            lines.append("(empty)")
        for theory in cohomology.BIGRADED_THEORIES:
            lines.append(f"== {_TITLES[theory]} ==")
            lines.extend(_grid_lines(dims[theory]))
        return {"tables.txt": "\n".join(lines) + "\n"}
    if fmt == "csv":
        out = {"de_rham.csv": _csv_text([["degree", "dim"],
                                         *sorted(betti.items())])}
        for theory in cohomology.BIGRADED_THEORIES:
            out[f"{theory}.csv"] = _csv_text(
                _grid_rows(dims[theory]) if dims[theory] else [])
        return out
    frol = cohomology.frolicher_pages(k)
    obj = {
        "label": k.label,
        "convention": GRID_CONVENTION,
        **{_camel(theory): _keyed(d) for theory, d in dims.items()},
        "frolicher": {
            "rStabilizes": frol.r_stab,
            "pages": {str(r): _keyed(page)
                      for r, page in sorted(frol.pages.items())},
            "eInfinity": _keyed(frol.e_infinity),
        },
        "naturalMapRanks": {
            _camel(name): _keyed(ranks)
            for name, ranks in vars(cohomology.natural_maps(k)).items()},
    }
    return {"tables.json": json.dumps(obj, indent=2) + "\n"}


# --------------------------------------------------------------------------
# Diagram rendering.
# --------------------------------------------------------------------------

def _diagram_data(d, hide_squares):
    """Nodes and edges of a decomposition diagram.

    Nodes are (x, y, p, q, role, label); same-bidegree nodes get small
    deterministic offsets so nothing overlaps.  Edges are (i, j, kind)
    with the arrow running from node i to node j; kind is "del" for
    horizontal and "delbar" for vertical arrows.
    """
    nodes = []
    edges = []
    occupancy = {}

    def place(p, q, role, text):
        slot = occupancy.get((p, q), 0)
        occupancy[(p, q)] = slot + 1
        x = p + 0.22 * (slot % 3)
        y = q + 0.22 * (slot // 3)
        nodes.append((x, y, p, q, role, text))
        return len(nodes) - 1

    for part in d.parts:
        if part.kind == "square":
            if not hide_squares:
                p, q = part.anchor
                place(p, q, "square", f"square ({p},{q})")
            continue
        ids = [place(p, q, role, f"({p},{q})")
               for (p, q), role in zip(part.dots, part.roles())]
        for pos, kind in enumerate(part.arrows):
            if kind == "del":
                edges.append((ids[pos], ids[pos + 1], "del"))
            else:
                edges.append((ids[pos + 1], ids[pos], "delbar"))
    return nodes, edges


_DOT_STYLE = {"source": "shape=circle, style=solid",
              "sink": "shape=circle, style=filled, fillcolor=black, "
                      "fontcolor=white",
              "lone": "shape=circle, style=dashed",
              "square": "shape=box, style=dotted"}

_EDGE_LABEL = {"del": "∂", "delbar": "∂̅"}


def render_diagram(d, fmt, *, hide_squares=True, label=""):
    """Render a verified decomposition as a diagram source string.

    One node per dot placed at its bidegree (first index horizontal,
    second vertical, origin bottom-left), one labelled edge per arrow;
    sinks are filled, sources hollow, lone dots dashed.  Squares are
    hidden by default and otherwise collapsed to one marker node per
    anchor bidegree.
    """
    if not d.verified:
        raise ValueError("refusing to render an unverified decomposition")
    nodes, edges = _diagram_data(d, hide_squares)
    if fmt == "dot":
        name = ((label or "decomposition").replace("\\", "\\\\")
                .replace('"', '\\"'))
        lines = [f'digraph "{name}" {{',
                 "  layout=neato;"]
        for i, (x, y, _p, _q, role, text) in enumerate(nodes):
            lines.append(f'  n{i} [label="{text}", pos="{x:.2f},{y:.2f}!", '
                         f'{_DOT_STYLE[role]}];')
        for a, b, kind in edges:
            lines.append(f'  n{a} -> n{b} [label="{_EDGE_LABEL[kind]}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "tikz":
        tex_label = {"del": r"$\partial$", "delbar": r"$\bar{\partial}$"}
        style = {"source": "circle, draw",
                 "sink": "circle, draw, fill=black",
                 "lone": "circle, draw, dashed",
                 "square": "rectangle, draw, dotted"}
        lines = [f"% {label or 'decomposition'}",
                 "\\begin{tikzpicture}[x=1.6cm, y=1.6cm]"]
        for i, (x, y, _p, _q, role, text) in enumerate(nodes):
            lines.append(f"  \\node ({f'n{i}'}) at ({x:.2f},{y:.2f}) "
                         f"[{style[role]}, inner sep=2pt, "
                         f"label=below:{{\\tiny {text}}}] {{}};")
        for a, b, kind in edges:
            lines.append(f"  \\draw[->] (n{a}) -- (n{b}) "
                         f"node[midway, above] {{{tex_label[kind]}}};")
        lines.append("\\end{tikzpicture}")
        return "\n".join(lines) + "\n"
    if fmt == "svg":
        scale = 70.0
        margin = 50.0
        max_x = max((x for x, *_ in nodes), default=0.0)
        max_y = max((y for _, y, *_ in nodes), default=0.0)
        width = max_x * scale + 2 * margin
        height = max_y * scale + 2 * margin
        # Escaped for XML, with no "--" to end the comment early.
        comment = re.sub("-(?=-)", "- ", (label or "decomposition")
                         .replace("&", "&amp;").replace("<", "&lt;")
                         .replace(">", "&gt;"))

        def cx(x):
            return margin + x * scale

        def cy(y):  # origin bottom-left
            return height - margin - y * scale

        lines = [f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'width="{width:.0f}" height="{height:.0f}">',
                 '  <defs><marker id="arr" viewBox="0 0 10 10" refX="9" '
                 'refY="5" markerWidth="6" markerHeight="6" orient="auto">'
                 '<path d="M 0 0 L 10 5 L 0 10 z"/></marker></defs>',
                 f'  <!-- {comment}; first index '
                 f'horizontal, second vertical, origin bottom-left -->']
        for a, b, kind in edges:
            xa, ya = cx(nodes[a][0]), cy(nodes[a][1])
            xb, yb = cx(nodes[b][0]), cy(nodes[b][1])
            lines.append(f'  <line x1="{xa:.1f}" y1="{ya:.1f}" '
                         f'x2="{xb:.1f}" y2="{yb:.1f}" stroke="black" '
                         f'marker-end="url(#arr)"/>')
            lines.append(f'  <text x="{(xa + xb) / 2:.1f}" '
                         f'y="{(ya + yb) / 2 - 4:.1f}" font-size="11">'
                         f'{_EDGE_LABEL[kind]}</text>')
        fill = {"source": "white", "sink": "black", "lone": "gray",
                "square": "none"}
        for x, y, _p, _q, role, text in nodes:
            lines.append(f'  <circle cx="{cx(x):.1f}" cy="{cy(y):.1f}" '
                         f'r="6" fill="{fill[role]}" stroke="black"/>')
            lines.append(f'  <text x="{cx(x) + 8:.1f}" '
                         f'y="{cy(y) + 12:.1f}" font-size="10">'
                         f'{text}</text>')
        lines.append("</svg>")
        return "\n".join(lines) + "\n"
    raise UsageError(f"unknown diagram format {fmt!r}")


# --------------------------------------------------------------------------
# Corpus runs.
# --------------------------------------------------------------------------

def _corpus_row(args):
    seed, kinds = args
    k, _parts = random_bicomplex(seed, kinds=kinds)
    reports = run_all_checks(k)
    row = {"seed": seed, "label": k.label, "totalDim": k.total_dim}
    for rep in reports:
        row[rep.check_name] = rep.verdict
        if rep.check_name == "non_ddbar_degrees":
            row["deltaSum"] = rep.witnesses["DeltaSum"]
        if rep.check_name == "ddbar_lemma":
            row["lemmaHolds"] = rep.witnesses.get("LemmaHolds", "")
    return row, _theorem_failed(reports)


def _theorem_failed(reports):
    """Whether a theorem-as-test check failed, which exits 3."""
    return any(rep.check_name in THEOREM_CHECK_NAMES
               and rep.verdict == "fails" for rep in reports)


def _thread_cap():
    raw = os.environ.get("BICOMPLEX_LAB_THREADS", "1")
    try:
        value = int(raw)
    except ValueError as exc:
        raise UsageError(f"BICOMPLEX_LAB_THREADS must be an integer, "
                         f"got {raw!r}") from exc
    if value < 1:
        raise UsageError("BICOMPLEX_LAB_THREADS must be >= 1")
    return value


def _usable_cpus():
    """The number of CPUs this process may run on (its affinity mask where
    the platform has one, else the machine's CPU count)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_corpus(config):
    """Generate seeded complexes, run every check, summarize as CSV.

    Returns (csv_text, any_theorem_failure).  Rows are ordered by seed
    no matter how many workers run, so output is deterministic.
    """
    seeds = range(config.seed, config.seed + config.n_corpus)
    jobs = [(seed, config.kinds) for seed in seeds]
    # The pool starts all of its workers at once, so never ask it for
    # more than there are jobs or CPUs.
    workers = min(_thread_cap(), len(jobs), _usable_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # One chunk per worker: a job takes a few milliseconds, about
            # what handing one job to a worker costs.
            results = list(pool.map(_corpus_row, jobs,
                                    chunksize=math.ceil(len(jobs) / workers)))
    else:
        results = [_corpus_row(job) for job in jobs]
    columns = ["seed", "label", "totalDim", *ALL_CHECK_NAMES,
               "deltaSum", "lemmaHolds"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    failure = False
    for row, bad in results:
        writer.writerow(row)
        failure = failure or bad
    return buf.getvalue(), failure


# --------------------------------------------------------------------------
# Output plumbing.
# --------------------------------------------------------------------------

def _write_atomic(path, text):
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _deliver(files, out_dir):
    """Write {name: text} into out_dir, or print to stdout if none.

    A directory or file that cannot be created (say, ``out_dir`` names an
    existing regular file) is a UsageError naming the path.
    """
    if out_dir is not None:
        out = Path(out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
            for name in sorted(files):
                _write_atomic(out / name, files[name])
        except OSError as exc:
            raise UsageError(f"cannot write {_escaped(exc.filename or out)}: "
                             f"{exc.strerror or exc}") from exc
        return
    for i, name in enumerate(sorted(files)):
        if len(files) > 1:
            if i:
                print()
            print(f"## {name}")
        print(files[name], end="")


# --------------------------------------------------------------------------
# Commands.
# --------------------------------------------------------------------------

def _cmd_validate(config):
    k = _load(config, require_valid=False)
    bad = validate(k)
    if bad:
        for violation in bad:
            print(violation.message)
        return EXIT_INPUT
    print(f"valid: {k.label or 'complex'} "
          f"({len(k.support())} bidegrees, total dim {k.total_dim})")
    return EXIT_OK


def _cmd_cohomology(config):
    k = _load(config)
    files = emit_tables(k, config.fmt)
    _deliver(files, config.out_dir)
    return EXIT_OK


def _summarize_parts(parts):
    counts = Counter()
    for part in parts:
        if part.kind == "square":
            counts[f"square at {part.anchor}"] += 1
        elif part.is_dot:
            counts[f"dot at {part.dots[0]}"] += 1
        else:
            path = " -> ".join(str(d) for d in part.dots)
            counts[f"zigzag {path}"] += 1
    return [f"{text} x{mult}" for text, mult in sorted(counts.items())]


def _cmd_decompose(config):
    k = _load(config)
    d = decompose(k)
    if config.fmt == "json":
        files = {"decomposition.json":
                 json.dumps(decomposition_to_json_dict(d), indent=2) + "\n"}
    else:
        lines = [f"# decomposition of {k.label or 'complex'}: "
                 f"{len(d.parts)} indecomposable summands (verified)"]
        lines.extend(_summarize_parts(d.parts))
        files = {"decomposition.txt": "\n".join(lines) + "\n"}
    _deliver(files, config.out_dir)
    return EXIT_OK


def _cmd_check(config):
    k = _load(config)
    reports = run_all_checks(k)
    if config.fmt == "json":
        payload = [rep.to_json_dict() for rep in reports]
        files = {"checks.json": json.dumps(payload, indent=2) + "\n"}
    else:
        lines = [f"# checks for {k.label or 'complex'}"]
        for rep in reports:
            lines.append(f"{rep.check_name}: {rep.verdict}")
        files = {"checks.txt": "\n".join(lines) + "\n"}
    _deliver(files, config.out_dir)
    return EXIT_THEOREM if _theorem_failed(reports) else EXIT_OK


_RENDER_SUFFIX = {"tikz": "diagram.tex", "dot": "diagram.dot",
                  "svg": "diagram.svg"}


def _cmd_render(config):
    k = _load(config)
    d = decompose(k)
    text = render_diagram(d, config.fmt, hide_squares=config.hide_squares,
                          label=k.label)
    _deliver({_RENDER_SUFFIX[config.fmt]: text}, config.out_dir)
    return EXIT_OK


def _cmd_corpus(config):
    _deliver({}, config.out_dir)  # the directory, before any work
    csv_text, failure = run_corpus(config)
    _deliver({"corpus.csv": csv_text}, config.out_dir)
    return EXIT_THEOREM if failure else EXIT_OK


def _cmd_convert(config):
    k = _load(config)
    files = {"bicomplex.json": json.dumps(to_json_dict(k), indent=2) + "\n"}
    _deliver(files, config.out_dir)
    return EXIT_OK


_COMMANDS = {"validate": _cmd_validate, "cohomology": _cmd_cohomology,
             "decompose": _cmd_decompose, "check": _cmd_check,
             "render": _cmd_render, "corpus": _cmd_corpus,
             "convert": _cmd_convert}


# --------------------------------------------------------------------------
# Argument parsing.
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_FORMATS = {"cohomology": ("text", "csv", "json"),
            "decompose": ("json", "text"),
            "check": ("text", "json"),
            "render": ("dot", "tikz", "svg")}


def build_parser():
    parser = _Parser(prog="bicomplex-lab",
                     description="Exact cohomology, zigzag decomposition, "
                                 "and theorem checks for bounded double "
                                 "complexes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("validate", "cohomology", "decompose", "check",
                    "render", "convert"):
        p = sub.add_parser(command)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--preset", choices=sorted(PRESETS))
        group.add_argument("--in", dest="input_path", metavar="PATH")
        p.add_argument("--out", dest="out_dir", metavar="DIR")
        if command in _FORMATS:
            p.add_argument("--format", dest="fmt",
                           choices=_FORMATS[command],
                           default=_FORMATS[command][0])
        if command == "render":
            p.add_argument("--hide-squares",
                           action=argparse.BooleanOptionalAction,
                           default=RunConfig.hide_squares)
    p = sub.add_parser("corpus")
    p.add_argument("--out", dest="out_dir", metavar="DIR")
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--n-corpus", type=int, default=RunConfig.n_corpus)
    p.add_argument("--kinds", default=",".join(RunConfig.kinds),
                   help="comma-separated part kinds for the generator")
    return parser


def parse_args(argv=None):
    ns = build_parser().parse_args(argv)
    if ns.command == "corpus":
        ns.kinds = tuple(s for s in ns.kinds.split(",") if s)
        if not ns.kinds:
            raise UsageError("--kinds must name at least one part kind")
        for kind in ns.kinds:
            if kind not in PART_KINDS:
                raise UsageError(f"unknown part kind {kind!r}")
        if ns.n_corpus < 0:
            raise UsageError("--n-corpus must be >= 0")
    return RunConfig(**vars(ns))


def main(argv=None):
    try:
        config = parse_args(argv)
        return _COMMANDS[config.command](config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DecompositionError, LinAlgError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
