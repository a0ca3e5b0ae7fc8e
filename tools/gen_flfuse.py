#!/usr/bin/env python3
"""Generate lib/runtime/flfuse.ml: fused closures for the unsafe float and
float-complex primitives.

Each (operation, operand-shape) combination becomes a single OCaml closure
with the leaf reads and the arithmetic inlined, so a nest of unsafe
operations evaluates with one closure call per operation and no dynamic
dispatch — the interpreter-level realization of the unboxing that the
unsafe primitives signal to the code generator (paper section 7.1).
Constant and local-slot operands are read unboxed in place; each closure
returns a freshly allocated Float, so an operand that is itself a fused
operation arrives boxed.  Operands evaluate left to right, as in Racket:
the left one is let-bound before the right one is read.

The generator prints the file.  `dune runtest` compares its output with the
committed lib/runtime/flfuse.ml; after editing this script, `dune runtest`
shows the difference and `dune promote` updates the file."""

import sys

binops = [("unsafe-fl+", "{} +. {}"), ("unsafe-fl-", "{} -. {}"),
          ("unsafe-fl*", "{} *. {}"), ("unsafe-fl/", "{} /. {}"),
          ("unsafe-flmin", "Float.min {} {}"), ("unsafe-flmax", "Float.max {} {}"),
          ("unsafe-flexpt", "Float.pow {} {}")]
cmps = [("unsafe-fl<", "{} < {}"), ("unsafe-fl>", "{} > {}"),
        ("unsafe-fl<=", "{} <= {}"), ("unsafe-fl>=", "{} >= {}"),
        ("unsafe-fl=", "Float.equal {} {}")]
unops = [("unsafe-flabs", "Float.abs"), ("unsafe-flsqrt", "Float.sqrt"),
         ("unsafe-flsin", "sin"), ("unsafe-flcos", "cos"), ("unsafe-fltan", "tan"),
         ("unsafe-flatan", "atan"), ("unsafe-flexp", "exp"), ("unsafe-fllog", "log"),
         ("unsafe-flfloor", "Float.floor"), ("unsafe-flceiling", "Float.ceil"),
         ("unsafe-flround", "Numeric.round_half_even"), ("unsafe-fltruncate", "Float.trunc")]

SHAPES = ["C", "L0", "L1", "LD", "X"]


def nm(name):
    s = name.replace("unsafe-", "u_")
    s = s.replace("fl+", "fl_add").replace("fl-", "fl_sub")
    s = s.replace("fl*", "fl_mul").replace("fl/", "fl_div")
    s = s.replace("fl<=", "fl_le").replace("fl>=", "fl_ge")
    s = s.replace("fl<", "fl_lt").replace("fl>", "fl_gt").replace("fl=", "fl_eq")
    return s.replace("-", "_")


def fpat(shape, v):
    return {"C": f"C {v}", "L0": f"L0 {v}", "L1": f"L1 {v}",
            "LD": f"LD (d{v}, {v})", "X": f"X {v}"}[shape]


def fread(shape, v):
    if shape == "C":
        return v
    if shape == "L0":
        return f"(match env.frame.({v}) with Float f -> f | v -> ub v)"
    if shape == "L1":
        return f"(match env.up.frame.({v}) with Float f -> f | v -> ub v)"
    if shape == "LD":
        return f"(match local env d{v} {v} with Float f -> f | v -> ub v)"
    return f"(match {v} env with Float f -> f | v -> ub v)"


def emit_bin(name, tmpl, result):
    lines = [f"let bin_{nm(name)} (a : leaf) (b : leaf) : env -> value =",
             "  match (a, b) with"]
    for sa in SHAPES:
        for sb in SHAPES:
            va, vb = "x", "y"
            pa, pb = fpat(sa, va), fpat(sb, vb)
            expr = tmpl.format(fread(sa, va), fread(sb, vb))
            if sa == "C" and sb == "C":
                lines.append(f"  | C x, C y ->\n      let r = {tmpl.format('x', 'y')} in\n      fun _ -> {result}(r)")
            elif sa == "C":
                lines.append(f"  | {pa}, {pb} -> fun env -> {result}({expr})")
            else:
                # bind the left operand first: OCaml evaluates the
                # operands of an application right to left
                expr = tmpl.format("l", fread(sb, vb))
                lines.append(f"  | {pa}, {pb} -> fun env -> let l = {fread(sa, va)} in {result}({expr})")
    return "\n".join(lines) + "\n"


def emit_un(name, fn):
    lines = [f"let un_{nm(name)} (a : leaf) : env -> value =", "  match a with"]
    for sa in SHAPES:
        pa = fpat(sa, "x")
        if sa == "C":
            lines.append(f"  | C x ->\n      let r = {fn} x in\n      fun _ -> Float r")
        else:
            lines.append(f"  | {pa} -> fun env -> Float ({fn} {fread(sa, 'x')})")
    return "\n".join(lines) + "\n"


def cpat(shape, v):
    return {"C": f"CC ({v}r, {v}i)", "L0": f"CL0 {v}", "L1": f"CL1 {v}",
            "LD": f"CLD (d{v}, {v})", "X": f"CX {v}"}[shape]


def cval(shape, v):
    """expression evaluating to the runtime value holding the complex"""
    if shape == "L0":
        return f"env.frame.({v})"
    if shape == "L1":
        return f"env.up.frame.({v})"
    if shape == "LD":
        return f"local env d{v} {v}"
    return f"{v} env"


def emit_cbin(name, body):
    """body: function of (ar ai br bi) -> OCaml expr producing value"""
    fname = {"unsafe-c+": "cbin_add", "unsafe-c-": "cbin_sub",
             "unsafe-c*": "cbin_mul", "unsafe-c/": "cbin_div"}[name]
    lines = [f"let {fname} (a : cleaf) (b : cleaf) : env -> value =",
             "  match (a, b) with"]
    for sa in SHAPES:
        for sb in SHAPES:
            pa, pb = cpat(sa, "x"), cpat(sb, "y")
            if sa == "C" and sb == "C":
                lines.append(
                    f"  | CC (xr, xi), CC (yr, yi) ->\n"
                    f"      let ar = xr and ai = xi and br = yr and bi = yi in\n"
                    f"      let r = {body} in\n"
                    f"      fun _ -> r")
            elif sa == "C":
                lines.append(
                    f"  | CC (xr, xi), {pb} ->\n"
                    f"      fun env ->\n"
                    f"        let ar = xr and ai = xi in\n"
                    f"        (match {cval(sb, 'y')} with\n"
                    f"        | Cpx (br, bi) -> {body}\n"
                    f"        | v ->\n"
                    f"            let br, bi = ubc v in\n"
                    f"            {body})")
            elif sb == "C":
                lines.append(
                    f"  | {pa}, CC (yr, yi) ->\n"
                    f"      fun env ->\n"
                    f"        let br = yr and bi = yi in\n"
                    f"        (match {cval(sa, 'x')} with\n"
                    f"        | Cpx (ar, ai) -> {body}\n"
                    f"        | v ->\n"
                    f"            let ar, ai = ubc v in\n"
                    f"            {body})")
            else:
                lines.append(
                    f"  | {pa}, {pb} ->\n"
                    f"      fun env ->\n"
                    f"        let va = {cval(sa, 'x')} in\n"
                    f"        (match (va, {cval(sb, 'y')}) with\n"
                    f"        | Cpx (ar, ai), Cpx (br, bi) -> {body}\n"
                    f"        | va, vb ->\n"
                    f"            let ar, ai = ubc va in\n"
                    f"            let br, bi = ubc vb in\n"
                    f"            {body})")
    return "\n".join(lines) + "\n"


def emit_cun(fname, body):
    lines = [f"let {fname} (a : cleaf) : env -> value =", "  match a with"]
    for sa in SHAPES:
        pa = cpat(sa, "x")
        if sa == "C":
            lines.append(
                f"  | CC (xr, xi) ->\n"
                f"      let re = xr and im = xi in\n"
                f"      let r = {body} in\n"
                f"      fun _ -> r")
        else:
            lines.append(
                f"  | {pa} ->\n"
                f"      fun env ->\n"
                f"        (match {cval(sa, 'x')} with\n"
                f"        | Cpx (re, im) -> {body}\n"
                f"        | v ->\n"
                f"            let re, im = ubc v in\n"
                f"            {body})")
    return "\n".join(lines) + "\n"


out = ['''(** GENERATED by tools/gen_flfuse.py — do not edit by hand.

    Fused closures for the unsafe float / float-complex primitives: each
    (operation, operand shape) pair gets a single OCaml closure with the
    leaf reads and the arithmetic inlined, so a nest of unsafe operations
    evaluates with one closure call per operation and no dispatch — the
    interpreter-level realization of the unboxing that the unsafe
    primitives signal to the code generator (§7.1).  Constant and
    local-slot operands are read unboxed in place; every closure returns
    a freshly allocated [Float], so an operand that is itself a fused
    operation arrives boxed.  Operands evaluate left to right. *)

open Value

let ub = Numeric.unsafe_fl
let ubc = Numeric.unsafe_cpx

let local env d i =
  let rec up env d = if d = 0 then env.frame.(i) else up env.up (d - 1) in
  up env d

(** float operand shapes: constant, local slot at depth 0/1/deeper, or a
    generic compiled subexpression *)
type leaf = C of float | L0 of int | L1 of int | LD of int * int | X of (env -> value)

(** complex operand shapes *)
type cleaf = CC of float * float | CL0 of int | CL1 of int | CLD of int * int | CX of (env -> value)
''']

for n, t in binops:
    out.append(emit_bin(n, t, "Float "))
for n, t in cmps:
    out.append(emit_bin(n, t, "Bool "))
for n, fn in unops:
    out.append(emit_un(n, fn))

out.append('''let un_fx_to_fl (a : leaf) : env -> value =
  let cvt = Numeric.unsafe_fx_to_fl in
  match a with
  | C x -> fun _ -> Float x
  | L0 i -> fun env -> Float (cvt env.frame.(i))
  | L1 i -> fun env -> Float (cvt env.up.frame.(i))
  | LD (d, i) -> fun env -> Float (cvt (local env d i))
  | X cx -> fun env -> Float (cvt (cx env))
''')

out.append(emit_cbin("unsafe-c+", "Cpx (ar +. br, ai +. bi)"))
out.append(emit_cbin("unsafe-c-", "Cpx (ar -. br, ai -. bi)"))
out.append(emit_cbin("unsafe-c*", "Cpx ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))"))
out.append(emit_cbin(
    "unsafe-c/",
    "(let d = (br *. br) +. (bi *. bi) in Cpx (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))"))
out.append(emit_cun("cun_neg", "Cpx (-.re, -.im)"))
out.append(emit_cun("cun_conj", "Cpx (re, -.im)"))
out.append(emit_cun("c_magnitude", "Float (Float.hypot re im)"))
out.append(emit_cun("c_real_part", "(let _ = im in Float re)"))
out.append(emit_cun("c_imag_part", "(let _ = re in Float im)"))

out.append('''(* make-rectangular from float leaves *)
let c_rect (a : leaf) (b : leaf) : env -> value =
  let rd (l : leaf) (env : env) =
    match l with
    | C x -> x
    | L0 i -> ( match env.frame.(i) with Float f -> f | v -> ub v)
    | L1 i -> ( match env.up.frame.(i) with Float f -> f | v -> ub v)
    | LD (d, i) -> ( match local env d i with Float f -> f | v -> ub v)
    | X c -> ( match c env with Float f -> f | v -> ub v)
  in
  fun env ->
    let re = rd a env in
    Cpx (re, rd b env)
''')

out.append("let bin_table : (string * (leaf -> leaf -> env -> value)) list =\n  [\n"
           + "\n".join(f'    ("{n}", bin_{nm(n)});' for n, _ in binops) + "\n  ]\n")
out.append("let cmp_table : (string * (leaf -> leaf -> env -> value)) list =\n  [\n"
           + "\n".join(f'    ("{n}", bin_{nm(n)});' for n, _ in cmps) + "\n  ]\n")
out.append("let un_table : (string * (leaf -> env -> value)) list =\n  [\n"
           + "\n".join(f'    ("{n}", un_{nm(n)});' for n, _ in unops)
           + '\n    ("unsafe-fx->fl", un_fx_to_fl);\n  ]\n')
out.append('''let cbin_table =
  [ ("unsafe-c+", cbin_add); ("unsafe-c-", cbin_sub); ("unsafe-c*", cbin_mul); ("unsafe-c/", cbin_div) ]

let cun_table =
  [
    ("unsafe-cneg", cun_neg); ("unsafe-conjugate", cun_conj);
    ("unsafe-magnitude", c_magnitude); ("unsafe-real-part", c_real_part);
    ("unsafe-imag-part", c_imag_part);
  ]
''')

sys.stdout.write("\n".join(out))
