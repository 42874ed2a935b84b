"""Command-line front end.

Exit codes: 0 success, 2 certified-negative result (e.g. a non-maximal
order under `certify`), 1 error with a structured {code, message,
location} record.
"""

import json
import sys
import types

from .algebras import discriminant
from .errors import InternalError, MaxordError, ParseError
from .exactlin import Lattice, lattice_index
from .serialize import (
    format_certificate,
    format_matrix,
    format_order,
    integer,
    located,
    parse_algebra,
    parse_at,
    parse_frac,
    parse_isogeny_type,
    parse_matrix,
    parse_order,
    parse_period_lattice,
    parse_presentation,
    parse_primes,
)


def _load(path, parse):
    """parse(the JSON document at path); a malformed document is a
    ParseError located by a JSON pointer."""
    doc = _read(path)
    with located(""):
        return parse(doc)


def _read(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON in %s: %s" % (path, exc))


def _emit(doc, args):
    if args.format == "text":
        lines = []

        def walk(prefix, val):
            if isinstance(val, dict):
                for k in sorted(val):
                    walk(prefix + "." + k if prefix else k, val[k])
            elif isinstance(val, list):
                lines.append("%s: %s" % (prefix, json.dumps(val)))
            else:
                lines.append("%s: %s" % (prefix, val))

        walk("", doc)
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(doc, sort_keys=True, separators=(", ", ": ")) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_center(args):
    alg = _load(args.input, parse_algebra)
    basis = [ [str(c) for c in z.coords] for z in alg.center() ]
    _emit({"center": basis, "dim": len(basis)}, args)
    return 0


def cmd_decompose(args):
    alg = _load(args.input, parse_algebra)
    if args.idempotents_file:
        idems = _load(args.idempotents_file, lambda doc: [
            alg.element([parse_frac(alg.ring, c) for c in row]) for row in doc])
    else:
        idems = alg.central_idempotents(seed=args.seed)
    from .decompose import decompose
    dec = decompose(alg, idems)
    _emit({
        "idempotents": [[str(c) for c in e.coords] for e in dec.idempotents],
        "factor_dims": [f.dim for f in dec.factors],
    }, args)
    return 0


def cmd_maximal_order(args):
    from .orders import candidate_primes, is_maximal_at_p, maximal_order
    order = _load(args.input, parse_order)
    ring = order.algebra.ring
    extra = parse_primes(ring, args.primes or "") or None
    out = maximal_order(order, extra_primes=extra)
    certs = [format_certificate(ring, is_maximal_at_p(out, q))
             for q in candidate_primes(out, extra)]
    doc = format_order(out)
    doc["index"] = ring.to_str(lattice_index(order.lattice, out.lattice))
    doc["certificates"] = certs
    _emit(doc, args)
    return 0


def cmd_certify(args):
    from .orders import candidate_primes, is_maximal_at_p
    order = _load(args.input, parse_order)
    ring = order.algebra.ring
    certs = []
    verdict = True
    failing = None
    for q in candidate_primes(order, parse_primes(ring, args.primes or "")):
        cert = is_maximal_at_p(order, q)
        certs.append(format_certificate(ring, cert))
        if not cert["verdict"] and failing is None:
            verdict = False
            failing = ring.to_str(cert["prime"])
    doc = {"verdict": verdict, "certificates": certs}
    if failing is not None:
        doc["failing_prime"] = failing
    _emit(doc, args)
    return 0 if verdict else 2


def cmd_radical(args):
    from .orders import radical_mod_p
    order = _load(args.input, parse_order)
    ring = order.algebra.ring
    primes = parse_primes(ring, args.primes or "")
    if len(primes) != 1:
        raise ParseError("radical needs --primes with exactly one prime")
    j = radical_mod_p(order, primes[0])
    _emit({
        "prime": ring.to_str(primes[0]),
        "basis": format_matrix(j.lattice.basis),
    }, args)
    return 0


def cmd_disc(args):
    order = _load(args.input, parse_order)
    ring = order.algebra.ring
    _emit({"discriminant": ring.to_str(discriminant(order))}, args)
    return 0


def cmd_endo_order(args):
    from .serre import endomorphism_order

    def parse(doc):
        delta = parse_at(doc, "delta", parse_order)
        ring, d = delta.algebra.ring, delta.algebra.dim
        basis = parse_at(doc, "lattice", lambda rows: parse_matrix(ring, rows))
        if doc.get("r") is not None and integer(doc, "r") * d != basis.ncols:
            raise ParseError("r·dim D must be the lattice width %d, with "
                             "dim D = %d" % (basis.ncols, d), "/r")
        return delta, Lattice.from_rows(ring, basis, basis.ncols)

    out = endomorphism_order(*_load(args.input, parse))
    _emit(format_order(out), args)
    return 0


def _order_and_presentation(doc):
    order = parse_at(doc, "order", parse_order)
    return order, parse_presentation(doc, order)


def cmd_serre_class(args):
    from .serre import tensor_isogeny_class

    def parse(doc):
        order, pres = _order_and_presentation(doc)
        emb = parse_at(doc, "embedding",
                       lambda rows: parse_matrix(order.algebra.ring, rows))
        return pres, parse_at(doc, "type", parse_isogeny_type), emb

    out = tensor_isogeny_class(*_load(args.input, parse))
    _emit({
        "factors": [
            {"label": f.label, "mult": f.mult} for f in out.factors
        ],
        "dimension": out.total_dimension(),
    }, args)
    return 0


def cmd_serre_lattice(args):
    from .serre import tensor_lattice

    def parse(doc):
        order, pres = _order_and_presentation(doc)
        return pres, parse_at(
            doc, "lattice", lambda t: parse_period_lattice(t, order))

    out, divisors = tensor_lattice(*_load(args.input, parse))
    ring = out.order.algebra.ring
    _emit({
        "rank": out.lattice.rank,
        "basis": format_matrix(out.lattice.basis),
        "kernel_divisors": [ring.to_str(d) for d in divisors],
    }, args)
    return 0


def cmd_minimal_isogeny(args):
    from .serre import minimal_isogeny

    def parse(doc):
        order = parse_at(doc, "order", parse_order)
        o_prime = parse_at(doc, "orderPrime",
                           lambda o: parse_order(o, algebra=order.algebra))
        lattices = parse_at(doc, "lattices", lambda ts: [
            parse_at(ts, i, lambda t: parse_period_lattice(t, order))
            for i in range(len(ts))])
        return order, o_prime, lattices

    order, o_prime, lattices = _load(args.input, parse)
    desc = minimal_isogeny(order, o_prime, lattices)
    ring = order.algebra.ring
    _emit({
        "degree": ring.to_str(desc.degree),
        "kernels": [
            {
                "prime": p["prime"],
                "elementary_divisors": [
                    ring.to_str(d) for d in p["elementaryDivisors"]
                ],
            }
            for p in desc.per_lattice_divisors
        ],
    }, args)
    return 0


def cmd_selftest(args):
    from . import selftest
    report = selftest.run()
    _emit(report, args)
    return 0 if report["ok"] else 1


COMMANDS = {
    "center": cmd_center,
    "decompose": cmd_decompose,
    "maximal-order": cmd_maximal_order,
    "certify": cmd_certify,
    "radical": cmd_radical,
    "disc": cmd_disc,
    "endo-order": cmd_endo_order,
    "serre-class": cmd_serre_class,
    "serre-lattice": cmd_serre_lattice,
    "minimal-isogeny": cmd_minimal_isogeny,
    "selftest": cmd_selftest,
}


# each option and its default
OPTIONS = {"--primes": None, "--idempotents-file": None, "--seed": 0,
           "--format": "json", "--output": None}

USAGE = """usage: maxord COMMAND [INPUT] [--primes P1,P2] [--seed N]
       [--idempotents-file F] [--format json|text] [--output PATH]
Options are --name VALUE or --name=VALUE.  Commands: %s.
""" % ", ".join(sorted(COMMANDS))


def parse_argv(argv):
    """The namespace of COMMAND, INPUT and the OPTIONS, which may come in
    any order, or None for -h or --help.  A usage error is a ParseError."""
    opts, words, argv = dict(OPTIONS), [], iter(argv)
    for arg in argv:
        if arg in ("-h", "--help"):
            return None
        if arg[:1] != "-":
            words.append(arg)
            continue
        name, eq, value = arg.partition("=")
        if name not in OPTIONS:
            raise ParseError("unknown option %s" % name, "cli")
        if not eq:
            value = next(argv, "--")
            if value[:2] == "--":
                raise ParseError("%s needs a value" % name, "cli")
        try:
            opts[name] = int(value) if name == "--seed" else value
        except ValueError:
            raise ParseError("--seed needs an integer, not %r" % value,
                             "cli") from None
    command, path = (words + ["", None])[:2]
    if command not in COMMANDS:
        raise ParseError("unknown command %r; try --help" % command, "cli")
    if len(words) > 2:
        raise ParseError("unexpected argument %r" % words[2], "cli")
    if opts["--format"] not in ("json", "text"):
        raise ParseError("--format is json or text, not %r"
                         % opts["--format"], "cli")
    if command != "selftest" and not path:
        raise ParseError("missing input path", "cli")
    return types.SimpleNamespace(command=command, input=path, **{
        name[2:].replace("-", "_"): v for name, v in opts.items()})


def main(argv=None):
    command = "cli"  # the location of an unexpected error in parse_argv
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(USAGE)
            return 0
        command = args.command
        return COMMANDS[command](args)
    except MaxordError as exc:
        record = exc.record()
    except Exception as exc:  # unexpected: still emit a structured record
        record = InternalError(str(exc), command).record()
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
