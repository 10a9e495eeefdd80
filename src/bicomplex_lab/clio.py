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
flags; corpus workers (capped by ``BICOMPLEX_LAB_THREADS``) never affect
output order.  Dimension reports are model cohomology: exact invariants
of the given finite complex, with no claim attached about any geometric
object the complex may have been derived from.
"""

import argparse
import csv
import io
import json
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .bicomplex import (BicomplexFormatError, from_json_dict, to_json_dict,
                        validate)
from .checkers import ALL_CHECK_NAMES, THEOREM_CHECK_NAMES, run_all_checks
from .cohomology import all_tables
from .exactla import LinAlgError
from .models import (StructureEquationError, from_structure_equations,
                     iwasawa, kodaira_surface, parse_structure_text,
                     random_bicomplex, torus)
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
    kinds: tuple = ("dot", "square", "zigzag")
    hide_squares: bool = True


# --------------------------------------------------------------------------
# Input.
# --------------------------------------------------------------------------

def parse_bicomplex_file(path):
    """Parse a ``.json`` or ``.bba`` file into a Bicomplex.

    Raises :class:`InputError` with file/line context on unreadable
    files, parse errors, and unknown extensions.  Validation is the
    caller's concern (the ``validate`` command reports violations, every
    other command aborts on them).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if path.suffix == ".json":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON at line {exc.lineno}, "
                             f"column {exc.colno}: {exc.msg}") from exc
        try:
            return from_json_dict(obj, default_label=path.stem)
        except BicomplexFormatError as exc:
            raise InputError(f"{path}: {exc}") from exc
    if path.suffix == ".bba":
        try:
            spec = parse_structure_text(text)
            return from_structure_equations(spec, label=path.stem)
        except StructureEquationError as exc:
            raise InputError(f"{path}: {exc}") from exc
    raise InputError(f"{path}: unknown input extension {path.suffix!r} "
                     f"(expected .json or .bba)")


def _load(config, *, require_valid=True):
    if config.preset is not None:
        k = PRESETS[config.preset]()
    else:
        k = parse_bicomplex_file(config.input_path)
    if require_valid:
        bad = validate(k)
        if bad:
            raise InputError("invalid double complex: "
                             + "; ".join(v.message for v in bad))
    return k


# --------------------------------------------------------------------------
# Table emission.
# --------------------------------------------------------------------------

def _grid_lines(dims):
    """Aligned text grid of a bidegree-indexed dimension table."""
    if not dims:
        return ["(empty)"]
    ps = sorted({p for (p, q) in dims})
    qs = sorted({q for (p, q) in dims})
    ps = list(range(min(ps), max(ps) + 1))
    qs = list(range(min(qs), max(qs) + 1))
    rows = [["p\\q"] + [str(q) for q in qs]]
    for p in ps:
        rows.append([str(p)] + [str(dims.get((p, q), 0)) for q in qs])
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    return ["  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            for row in rows]


def _bid_key_dict(dims):
    return {f"{p},{q}": dims[(p, q)] for (p, q) in sorted(dims)}


def _deg_key_dict(dims):
    return {str(deg): dims[deg] for deg in sorted(dims)}


_THEORY_FIELDS = (("dolbeault", "Dolbeault"),
                  ("conj_dolbeault", "conjugate Dolbeault"),
                  ("bott_chern", "Bott-Chern"),
                  ("aeppli", "Aeppli"))


def emit_tables(tables, fmt, *, label=""):
    """Render an :class:`AllTables` bundle as {filename: text}.

    ``text`` gives one aligned grid per theory in a single file, ``csv``
    one file per theory, ``json`` a single lossless integer report that
    also carries the Frolicher pages and natural-map ranks.
    """
    if fmt == "text":
        lines = [f"# model cohomology tables: {label}", f"# {GRID_CONVENTION}"]
        lines.append("== de Rham (by total degree) ==")
        betti = tables.de_rham.dims
        if betti:
            degs = list(range(min(betti), max(betti) + 1))
            lines.append("degree  " + "  ".join(str(d) for d in degs))
            lines.append("dim     "
                         + "  ".join(str(betti.get(d, 0)) for d in degs))
        else:
            lines.append("(empty)")
        for field, title in _THEORY_FIELDS:
            lines.append(f"== {title} ==")
            lines.extend(_grid_lines(getattr(tables, field).dims))
        return {"tables.txt": "\n".join(lines) + "\n"}
    if fmt == "csv":
        out = {}
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["degree", "dim"])
        for deg in sorted(tables.de_rham.dims):
            writer.writerow([deg, tables.de_rham.dims[deg]])
        out["de_rham.csv"] = buf.getvalue()
        for field, _ in _THEORY_FIELDS:
            dims = getattr(tables, field).dims
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            if dims:
                qs = list(range(min(q for _, q in dims),
                                max(q for _, q in dims) + 1))
                ps = list(range(min(p for p, _ in dims),
                                max(p for p, _ in dims) + 1))
                writer.writerow(["p\\q"] + qs)
                for p in ps:
                    writer.writerow([p] + [dims.get((p, q), 0) for q in qs])
            out[f"{field}.csv"] = buf.getvalue()
        return out
    if fmt == "json":
        frol = tables.frolicher
        ranks = tables.natural_ranks
        obj = {
            "label": label,
            "convention": GRID_CONVENTION,
            "deRham": _deg_key_dict(tables.de_rham.dims),
            "dolbeault": _bid_key_dict(tables.dolbeault.dims),
            "conjDolbeault": _bid_key_dict(tables.conj_dolbeault.dims),
            "bottChern": _bid_key_dict(tables.bott_chern.dims),
            "aeppli": _bid_key_dict(tables.aeppli.dims),
            "frolicher": {
                "rStabilizes": frol.r_stab,
                "pages": {str(r): _bid_key_dict(frol.pages[r])
                          for r in sorted(frol.pages)},
                "eInfinity": _bid_key_dict(frol.e_infinity),
            },
            "naturalMapRanks": {
                "bottChernToDolbeault":
                    _bid_key_dict(ranks.bott_chern_to_dolbeault),
                "bottChernToConjDolbeault":
                    _bid_key_dict(ranks.bott_chern_to_conj_dolbeault),
                "bottChernToDeRham":
                    _deg_key_dict(ranks.bott_chern_to_de_rham),
                "bottChernToAeppli":
                    _bid_key_dict(ranks.bott_chern_to_aeppli),
                "dolbeaultToAeppli":
                    _bid_key_dict(ranks.dolbeault_to_aeppli),
                "conjDolbeaultToAeppli":
                    _bid_key_dict(ranks.conj_dolbeault_to_aeppli),
                "deRhamToAeppli": _deg_key_dict(ranks.de_rham_to_aeppli),
            },
        }
        return {"tables.json": json.dumps(obj, indent=2) + "\n"}
    raise UsageError(f"unknown table format {fmt!r}")


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
        lines = [f'digraph "{label or "decomposition"}" {{',
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

        def cx(x):
            return margin + x * scale

        def cy(y):  # origin bottom-left
            return height - margin - y * scale

        lines = [f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'width="{width:.0f}" height="{height:.0f}">',
                 '  <defs><marker id="arr" viewBox="0 0 10 10" refX="9" '
                 'refY="5" markerWidth="6" markerHeight="6" orient="auto">'
                 '<path d="M 0 0 L 10 5 L 0 10 z"/></marker></defs>',
                 f'  <!-- {label or "decomposition"}; first index '
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
    theorem_failure = False
    for rep in reports:
        row[rep.check_name] = rep.verdict
        if rep.check_name in THEOREM_CHECK_NAMES and rep.verdict == "fails":
            theorem_failure = True
        if rep.check_name == "non_ddbar_degrees":
            row["deltaSum"] = rep.witnesses["DeltaSum"]
        if rep.check_name == "ddbar_lemma":
            row["lemmaHolds"] = rep.witnesses.get("LemmaHolds", "")
    return row, theorem_failure


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


def run_corpus(config):
    """Generate seeded complexes, run every check, summarize as CSV.

    Returns (csv_text, any_theorem_failure).  Rows are ordered by seed
    no matter how many workers run, so output is deterministic.
    """
    seeds = range(config.seed, config.seed + config.n_corpus)
    jobs = [(seed, config.kinds) for seed in seeds]
    workers = _thread_cap()
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_corpus_row, jobs))
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
    """Write {name: text} into out_dir, or print to stdout if none."""
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name in sorted(files):
            _write_atomic(out / name, files[name])
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
    files = emit_tables(all_tables(k), config.fmt or "text", label=k.label)
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
    fmt = config.fmt or "json"
    if fmt == "json":
        files = {"decomposition.json":
                 json.dumps(decomposition_to_json_dict(d), indent=2) + "\n"}
    elif fmt == "text":
        lines = [f"# decomposition of {k.label or 'complex'}: "
                 f"{len(d.parts)} indecomposable summands (verified)"]
        lines.extend(_summarize_parts(d.parts))
        files = {"decomposition.txt": "\n".join(lines) + "\n"}
    else:
        raise UsageError(f"unknown decomposition format {fmt!r}")
    _deliver(files, config.out_dir)
    return EXIT_OK


def _cmd_check(config):
    k = _load(config)
    reports = run_all_checks(k)
    fmt = config.fmt or "text"
    if fmt == "json":
        payload = [rep.to_json_dict() for rep in reports]
        files = {"checks.json": json.dumps(payload, indent=2) + "\n"}
    elif fmt == "text":
        lines = [f"# checks for {k.label or 'complex'}"]
        for rep in reports:
            lines.append(f"{rep.check_name}: {rep.verdict}")
        files = {"checks.txt": "\n".join(lines) + "\n"}
    else:
        raise UsageError(f"unknown check format {fmt!r}")
    _deliver(files, config.out_dir)
    theorem_failure = any(
        rep.check_name in THEOREM_CHECK_NAMES and rep.verdict == "fails"
        for rep in reports)
    return EXIT_THEOREM if theorem_failure else EXIT_OK


_RENDER_SUFFIX = {"tikz": "diagram.tex", "dot": "diagram.dot",
                  "svg": "diagram.svg"}


def _cmd_render(config):
    k = _load(config)
    d = decompose(k)
    fmt = config.fmt or "dot"
    if fmt not in _RENDER_SUFFIX:
        raise UsageError(f"unknown diagram format {fmt!r}")
    text = render_diagram(d, fmt, hide_squares=config.hide_squares,
                          label=k.label)
    _deliver({_RENDER_SUFFIX[fmt]: text}, config.out_dir)
    return EXIT_OK


def _cmd_corpus(config):
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
                           default=True)
    p = sub.add_parser("corpus")
    p.add_argument("--out", dest="out_dir", metavar="DIR")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-corpus", type=int, default=100)
    p.add_argument("--kinds", default="dot,square,zigzag",
                   help="comma-separated part kinds for the generator")
    return parser


def parse_args(argv=None):
    ns = build_parser().parse_args(argv)
    kinds = tuple(s for s in getattr(ns, "kinds",
                                     "dot,square,zigzag").split(",") if s)
    if not kinds:
        raise UsageError("--kinds must name at least one part kind")
    for kind in kinds:
        if kind not in ("dot", "square", "zigzag"):
            raise UsageError(f"unknown part kind {kind!r}")
    n_corpus = getattr(ns, "n_corpus", 100)
    if n_corpus < 0:
        raise UsageError("--n-corpus must be >= 0")
    return RunConfig(command=ns.command,
                     preset=getattr(ns, "preset", None),
                     input_path=getattr(ns, "input_path", None),
                     out_dir=ns.out_dir,
                     fmt=getattr(ns, "fmt", None),
                     seed=getattr(ns, "seed", 0),
                     n_corpus=n_corpus,
                     kinds=kinds,
                     hide_squares=getattr(ns, "hide_squares", True))


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
