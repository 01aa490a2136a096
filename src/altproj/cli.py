"""Command-line front end: instance files in, CSV reports out.

Instance files are a versioned line-based text format ("altproj-instance
v1", one ``key value...`` pair per line) so fixtures stay diff-able; see
``parse_instance``/``serialize_instance``.  The field names of each kind
come from the instance schema of ``models``; with the value types of
``_FIELDS`` they drive parsing and serialization: the ``component <kind>
key=v1,v2`` lines of a convex combination take the same fields and pass
the same checks as top-level lines.  A command parses and realizes its
instance once and works on that realization.  Every command is
deterministic for a fixed flag set: randomized commands require an
explicit --seed, output files are written atomically (temp + rename),
and reruns produce byte-identical CSVs.

Exit codes: 0 ok; 2 malformed instance file or invalid configuration;
3 numerical contract violation (including any failed suite criterion);
4 capacity limit reached (e.g. an infeasible slow-vector horizon, or an
allocation that runs out of memory).
"""

import argparse
import csv
import dataclasses
import functools
import io
import math
import os
import sys
import tempfile

import numpy as np

from .acceptance import criterion_ids, iter_results
from .errors import CapacityError, NumericalContractError, ParseError
from .fracpow import decay_slope, make_alpha_vector
from .geometry import friedrichs_number, geometry_report, iota2
from .iteration import iterate
from .models import _PARAMETERS, _SEEDED, Instance, InstanceSpec, slow_vector
from .spectral import _RADII, _SLACK, containment_check, resolvent_diagnostic, ritt_power_diagnostic

__all__ = ["main", "parse_instance", "serialize_instance", "parse_instance_text"]

_VERSION_LINE = "altproj-instance v1"

_EXIT_DOC = """\
exit codes:
  0  success
  2  parse error: malformed instance file or invalid configuration
  3  numerical contract violation (includes any failed suite criterion)
  4  capacity limit reached (e.g. slow-vector horizon infeasible, out of memory)
"""


def _g(x: float) -> str:
    """Canonical float formatting: 17 significant digits, locale-free."""
    return "%.17g" % float(x)


# ---------------------------------------------------------------------------
# instance files

# A field's arity, worded for its parse error: exactly one value, one or
# more, or at least two (a list of subspace ranks).
_ONE = "exactly one value"
_LIST = "one or more values"
_RANKS = "at least two ranks"

# Value type and arity of each field of an instance file.  A value type
# is int, float, or a tuple of the strings the field accepts.  The field
# names of each kind are the instance schema of ``models``: ``seed``
# (InstanceSpec.seed) for its seeded kinds, then the parameter names; a
# convex combination's ``components`` are its component lines.  A
# block_aligned instance gives exactly one of ``angle_rule`` and
# ``angles`` (_OTHER pairs them), and either becomes its "angle_rule"
# parameter.
_FIELDS = {"seed": (int, _ONE), "d": (int, _ONE), "dims": (int, _RANKS),
           "theta": (float, _ONE), "k_blocks": (int, _ONE),
           "angle_rule": (("1/k", "1/sqrt(k)"), _ONE), "angles": (float, _LIST),
           "weights": (float, _LIST)}
_OTHER = {"angle_rule": "angles", "angles": "angle_rule"}


def _schema(kind: str) -> list:
    """(name, value type, arity) of each field of ``kind``, in canonical order."""
    fields = []
    for name in ("seed",) * (kind in _SEEDED) + _PARAMETERS[kind]:
        if name == "components":  # component lines, not a field
            continue
        fields.append((name, *_FIELDS[name]))
        if name in _OTHER:  # the alternative of angle_rule follows it
            fields.append((_OTHER[name], *_FIELDS[_OTHER[name]]))
    return fields


def _value(vtype, token: str, name: str, line_no: int):
    """One token of field ``name`` converted to the field's value type."""
    if vtype is int or vtype is float:
        try:
            return vtype(token)
        except ValueError:
            need = "an integer" if vtype is int else "a number"
            raise ParseError(f"line {line_no}: field '{name}' needs {need}, got {token!r}")
    if token not in vtype:
        allowed = " or ".join(f"'{v}'" for v in vtype)
        raise ParseError(f"line {line_no}: field '{name}' must be {allowed}, got {token!r}")
    return token


def _read_spec(entries, components=()) -> InstanceSpec:
    """The spec given by (line_no, field, value tokens) entries.

    Top-level lines and component lines both come through here, so they
    share every check; ``components`` are the specs of a convex
    combination's component lines.
    """
    fields = {}
    for line_no, name, tokens in entries:
        if name in fields:
            raise ParseError(f"line {line_no}: duplicate field '{name}'")
        fields[name] = (line_no, tokens)
    if "kind" not in fields:
        raise ParseError("field 'kind' is missing")
    kind_line, kind = fields.pop("kind")
    if len(kind) != 1:
        raise ParseError(f"line {kind_line}: field 'kind' needs exactly one value")
    kind = kind[0]
    if kind not in _PARAMETERS:
        raise ParseError(f"line {kind_line}: unknown kind '{kind}'")

    values, lines = {}, {}
    for name, vtype, arity in _schema(kind):
        other = _OTHER.get(name)
        if name not in fields:
            if other in fields or other in values:
                continue
            raise ParseError(f"field '{name}' is required for kind '{kind}' and is missing")
        if other in values:
            raise ParseError("fields 'angles' and 'angle_rule' are mutually exclusive")
        line_no, tokens = fields.pop(name)
        if not tokens:
            raise ParseError(f"line {line_no}: field '{name}' has no value")
        if (arity is _ONE and len(tokens) != 1) or (arity is _RANKS and len(tokens) < 2):
            raise ParseError(f"line {line_no}: field '{name}' needs {arity}")
        parsed = tuple(_value(vtype, tok, name, line_no) for tok in tokens)
        values[name] = parsed[0] if arity is _ONE else parsed
        lines[name] = line_no

    if kind == "convex_combination":
        if not components:
            raise ParseError("kind 'convex_combination' needs at least one component line")
        if len(values["weights"]) != len(components):
            raise ParseError(f"line {lines['weights']}: {len(values['weights'])} weights "
                             f"for {len(components)} component lines")
        values["components"] = tuple(components)
    elif components:
        raise ParseError("component lines are only valid for kind 'convex_combination'")
    if fields:
        name = min(fields, key=lambda n: fields[n][0])
        raise ParseError(f"line {fields[name][0]}: unknown field '{name}' for kind '{kind}'")
    if "angles" in values:
        values["angle_rule"] = values.pop("angles")
    seed = values.pop("seed", None)
    return InstanceSpec(kind, values, seed)


def _load_instance_text(text: str) -> Instance:
    """Parse the versioned key-value format and realize the instance once."""
    entries = []  # (line_no, field, value tokens) of the top-level lines
    components = []
    version_seen = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if not version_seen:
            if line != _VERSION_LINE:
                raise ParseError(
                    f"line {line_no}: expected version header '{_VERSION_LINE}', got {line!r}"
                )
            version_seen = True
            continue
        key, *rest = line.split()
        if key != "component":
            entries.append((line_no, key, rest))
            continue
        if rest[:1] == ["convex_combination"]:
            raise ParseError(f"line {line_no}: convex combinations do not nest")
        comp = [(line_no, "kind", rest[:1])]  # component <kind> key=v1,v2 ...
        for tok in rest[1:]:
            name, eq, value = tok.partition("=")
            if not eq:
                raise ParseError(f"line {line_no}: component field {tok!r} is not key=value")
            comp.append((line_no, name, value.split(",") if value else []))
        components.append(_read_spec(comp))
    if not version_seen:
        raise ParseError("line 1: missing version header "
                         f"'{_VERSION_LINE}' (empty file)")

    spec = _read_spec(entries, components)
    try:
        return spec.realize()  # surface bad parameter values as parse errors with the field name
    except (ValueError, TypeError) as exc:
        raise ParseError(f"invalid parameters for kind '{spec.kind}': {exc}")


def _load_instance(path) -> Instance:
    """Read, parse and realize one instance file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read instance file {path}: {exc.strerror or exc}")
    return _load_instance_text(text)


def parse_instance_text(text: str) -> InstanceSpec:
    """Parse the versioned key-value instance format from a string."""
    return _load_instance_text(text).spec


def parse_instance(path) -> InstanceSpec:
    """Read and parse one instance file."""
    return _load_instance(path).spec


def _field_strings(spec: InstanceSpec) -> list:
    """(field, value strings) of each field of spec, in schema order."""
    p = {**spec.parameters, "seed": spec.seed}
    if not isinstance(p.get("angle_rule", ""), str):
        p["angles"] = p.pop("angle_rule")
    out = []
    for name, vtype, arity in _schema(spec.kind):
        if name in p:
            values = (p[name],) if arity is _ONE else p[name]
            out.append((name, [_g(v) if vtype is float else str(v) for v in values]))
    return out


def serialize_instance(spec: InstanceSpec) -> str:
    """Canonical text form; parse(serialize(s)) reproduces s exactly."""
    lines = [_VERSION_LINE, f"kind {spec.kind}"]
    lines += [" ".join([name, *values]) for name, values in _field_strings(spec)]
    for comp in spec.parameters.get("components", ()):
        fields = [f"{name}={','.join(values)}" for name, values in _field_strings(comp)]
        lines.append(" ".join(["component", comp.kind, *fields]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# output plumbing


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".altproj-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(args, header, rows, notes):
    """CSV to --out (atomic) or stdout; human notes to the other stream."""
    text = _csv_text(header, rows)
    if args.out:
        _atomic_write(args.out, text)
        for note in notes:
            print(note)
    else:
        sys.stdout.write(text)
        for note in notes:
            print(note, file=sys.stderr)


# ---------------------------------------------------------------------------
# commands


def _cmd_geometry(args):
    rep = geometry_report(_load_instance(args.instance).cyclic())
    header = [f.name for f in dataclasses.fields(rep)]  # N first, then the floats
    row = [str(rep.N)] + [_g(getattr(rep, name)) for name in header[1:]]
    notes = [f"c = {_g(rep.c)}", f"ell2 = {_g(rep.ell2)}", f"iota2 = {_g(rep.iota2)}",
             f"rate_base = {_g(rep.rate_base)}"]
    _emit(args, header, [row], notes)
    return 0


def _cmd_iterate(args):
    inst = _load_instance(args.instance)
    cp = inst.cyclic()
    c = friedrichs_number(cp)
    i2 = iota2(cp)
    if args.seed is None:
        # canonical start: the first nonzero column of the first factor's
        # span, the first basis vector of the first subspace (e_1 of the
        # first block on the block model); on the two-line instance its
        # errors follow the operator-norm law exactly
        span = cp._spans[0]
        block, col = divmod(int(np.argmax(np.any(span != 0, axis=-2))), span.shape[-1])
        x = np.zeros(span.shape[:2], dtype=np.complex128)
        x[block] = span[block, :, col]
        x = x.reshape(-1)
    else:
        rng = np.random.default_rng(args.seed)
        x = rng.standard_normal(cp.dim) + 1j * rng.standard_normal(cp.dim)
    tr = iterate(cp, x, args.n_max, c=c, iota2=i2)
    rows = [[str(n), _g(tr.errors[n]), _g(tr.bound_c[n]), _g(tr.bound_iota2[n])]
            for n in range(len(tr.errors))]
    notes = [f"c = {_g(c)}, iota2 = {_g(i2)}",
             f"final error e_{args.n_max} = {_g(tr.errors[-1])}"]
    _emit(args, ["n", "error", "bound_c", "bound_iota2"], rows, notes)
    return 0


def _numrange_operator(inst):
    """Operator, Friedrichs number, and factor count for the containment check."""
    if not inst.components:
        cp = inst.cyclic()
        return cp, friedrichs_number(cp), cp.N
    cps = [i.cyclic() for i in inst.components]
    # the result region is governed by the widest component
    return inst.matrix, max(friedrichs_number(cp) for cp in cps), max(cp.N for cp in cps)


def _cmd_numrange(args):
    inst = _load_instance(args.instance)
    t, c, n = _numrange_operator(inst)
    rep = containment_check(t, c, n, m=args.angles)
    b = rep.boundary
    rows = [
        [_g(b.angles[i]), _g(b.support[i]), _g(b.points[i].real), _g(b.points[i].imag),
         str(int(rep.in_omega[i])), str(int(rep.in_stolz[i])), _g(rep.margins[i])]
        for i in range(len(b))
    ]
    worst_z, worst_margin = rep.worst()
    verdict = "contained" if rep.all_contained else "NOT contained"
    notes = [f"W(T) {verdict} in Omega_N and the Stolz domain "
             f"(N = {n}, c = {_g(c)}, slack = {_g(_SLACK)})",
             f"worst margin {_g(worst_margin)} at z = {_g(worst_z.real)} + {_g(worst_z.imag)}i"]
    _emit(args, ["phi", "h", "re_z", "im_z", "in_omega", "in_stolz", "margin"], rows, notes)
    return 0 if rep.all_contained else 3


def _cmd_ritt(args):
    inst = _load_instance(args.instance)
    t = inst.cyclic() if inst.matrix is None else inst.matrix
    sup, argmax, profile = ritt_power_diagnostic(t, args.n_max)
    constants = resolvent_diagnostic(t)
    rows = [["power", str(n + 1), _g(profile[n])] for n in range(len(profile))]
    rows += [["resolvent", _g(r), _g(v)] for r, v in zip(_RADII, constants)]
    notes = [f"sup n||T^n(I-T)|| = {_g(sup)} attained at n = {argmax}",
             f"resolvent constant at the finest radius = {_g(constants[-1])}"]
    _emit(args, ["section", "index", "value"], rows, notes)
    return 0


def _cmd_fracpow(args):
    inst = _load_instance(args.instance)
    cp = inst.cyclic()
    window = (max(1, args.n_max // 10), args.n_max)
    rows = []
    notes = []
    for alpha in args.alpha:
        av = make_alpha_vector(cp, alpha, args.seed)
        tr = iterate(cp, av.x, args.n_max)
        slope = decay_slope(tr, window)
        ns = np.arange(window[0], window[1] + 1, dtype=float)
        sup = float((ns**alpha * tr.errors[window[0] : window[1] + 1]).max())
        rows.append([_g(alpha), f"{window[0]}:{window[1]}", _g(slope), _g(sup)])
        notes.append(f"alpha = {_g(alpha)}: slope {_g(slope)} on n in "
                     f"[{window[0]}, {window[1]}], sup n^alpha e_n = {_g(sup)}")
    _emit(args, ["alpha", "window", "slope", "sup_n_alpha_e_n"], rows, notes)
    return 0


def _cmd_slowvec(args):
    inst = _load_instance(args.instance)
    if inst.model is None:
        raise ParseError("slowvec needs an instance of kind 'block_aligned'")
    model = inst.model
    horizon = args.n_max
    ns = np.arange(horizon + 1, dtype=float)
    r = 1.0 / np.log(ns + 2.0)
    x = slow_vector(model, r, horizon, args.eps)
    tr = iterate(inst.cyclic(), x, horizon)
    rows = [["vector", str(i), _g(x[i])] for i in range(len(x))]
    rows += [["target", str(n), _g(r[n])] for n in range(horizon + 1)]
    rows += [["error", str(n), _g(tr.errors[n])] for n in range(horizon + 1)]
    margin = float((tr.errors[: horizon + 1] - r).min())
    cap = (1.0 + args.eps) * r[0]
    notes = [f"targets r_n = 1/log(n+2), horizon {horizon}, eps = {_g(args.eps)}",
             f"min e_n - r_n = {_g(margin)}; ||x|| = {_g(float(np.linalg.norm(x)))} "
             f"<= {_g(cap)}"]
    _emit(args, ["section", "index", "value"], rows, notes)
    return 0


def _cmd_suite(args):
    ids = args.criteria if args.criteria else None
    results = []
    failed = 0
    for res in iter_results(ids=ids):
        print(res.line())
        sys.stdout.flush()
        results.append(res)
        failed += 0 if res.passed else 1
    if args.out:
        rows = [[str(r.cid), r.name, "1" if r.passed else "0", r.detail] for r in results]
        _atomic_write(args.out, _csv_text(["cid", "name", "passed", "detail"], rows))
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 3


# ---------------------------------------------------------------------------
# argument parsing


def _alpha_list(text: str) -> list:
    try:
        values = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not values or any(not 0.0 < a < math.inf for a in values):
        raise argparse.ArgumentTypeError("alpha values must be positive and finite")
    return values


def _criteria_list(text: str) -> list:
    try:
        ids = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated id list: {text!r}")
    unknown = set(ids) - set(criterion_ids())
    if not ids or unknown:
        raise argparse.ArgumentTypeError(f"criterion ids must be among {criterion_ids()}")
    return ids


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:  # also refuses nan
        raise argparse.ArgumentTypeError("must be positive and finite")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


@functools.cache  # built once per process: parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altproj",
        description="Angles, convergence rates and spectral diagnostics for "
                    "cyclic products of orthogonal projections.",
        epilog=_EXIT_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, help_text, func):
        p = sub.add_parser(name, help=help_text, epilog=_EXIT_DOC,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.set_defaults(func=func)
        return p

    p = add("geometry", "angle quantities of one instance (CSV row)", _cmd_geometry)
    p.add_argument("--instance", required=True, help="instance file")
    p.add_argument("--seed", type=int, default=None,
                   help="ignored: every geometry quantity is deterministic")
    p.add_argument("--out", help="CSV output path (default: stdout)")

    p = add("iterate", "alternating-projection error trace with rate bounds", _cmd_iterate)
    p.add_argument("--instance", required=True, help="instance file")
    p.add_argument("--n-max", type=_positive_int, default=100, help="sweeps (default 100)")
    p.add_argument("--seed", type=int, default=None,
                   help="seeded random start vector (default: first basis vector "
                        "of the first subspace)")
    p.add_argument("--out", help="CSV output path (default: stdout)")

    p = add("numrange", "numerical range boundary and containment check", _cmd_numrange)
    p.add_argument("--instance", required=True, help="instance file")
    p.add_argument("--angles", type=_positive_int, default=256,
                   help="support angles (default 256)")
    p.add_argument("--out", help="CSV output path (default: stdout)")

    p = add("ritt", "power profile n||T^n(I-T)|| and resolvent constants", _cmd_ritt)
    p.add_argument("--instance", required=True, help="instance file")
    p.add_argument("--n-max", type=_positive_int, default=500, help="powers (default 500)")
    p.add_argument("--out", help="CSV output path (default: stdout)")

    p = add("fracpow", "decay slopes of (I-T)^alpha starts", _cmd_fracpow)
    p.add_argument("--instance", required=True, help="instance file")
    p.add_argument("--alpha", type=_alpha_list, default=(0.5, 1.0, 2.0),
                   help="comma-separated exponents (default 0.5,1,2)")
    p.add_argument("--n-max", type=_positive_int, default=1000, help="sweeps (default 1000)")
    p.add_argument("--seed", required=True, type=int, help="seed for the y, z draws")
    p.add_argument("--out", help="CSV output path (default: stdout)")

    p = add("slowvec", "construct a slow vector for targets 1/log(n+2)", _cmd_slowvec)
    p.add_argument("--instance", required=True, help="block_aligned instance file")
    p.add_argument("--n-max", type=_positive_int, default=1000,
                   help="horizon (default 1000)")
    p.add_argument("--eps", type=_positive_float, default=0.1,
                   help="norm budget factor 1+eps (default 0.1)")
    p.add_argument("--out", help="CSV output path (default: stdout)")

    p = add("suite", "run the acceptance battery (exit 3 on any failure)", _cmd_suite)
    p.add_argument("--criteria", type=_criteria_list, default=None,
                   help="comma-separated criterion ids (default: all)")
    p.add_argument("--out", help="summary CSV output path")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalContractError as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"capacity limit: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"capacity limit: out of memory{detail}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
