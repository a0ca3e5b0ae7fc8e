(** Flow facts produced by the 0CFA machine ({!Zcfa}) and consumed by the
    optimizer ([Liblang_typed.Optimize]) and, through the syntax it
    rewrites, by the bytecode backend.

    Facts are keyed by {e physical} syntax-node identity: the analysis and
    the optimizer walk the very same expanded forms, and {!Liblang_stx.Stx.view}
    memoizes its materialized children, so node identity is stable between
    the two passes.  A fact that cannot be found (a rebuilt node, a node
    from a different expansion) simply means "nothing proved" — lookups are
    total and conservative. *)

module Stx = Liblang_stx.Stx

module NodeTbl = Hashtbl.Make (struct
  type t = Stx.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(** A proved-monomorphic call site: every value that can flow to the
    operator is the one lambda [callee_stx] (of fixed arity, no rest
    argument). *)
type callee = { callee_stx : Stx.t; callee_name : string; callee_arity : int }

type t = {
  direct : callee NodeTbl.t;  (** [#%plain-app] node -> unique callee *)
  ref_inbounds : unit NodeTbl.t;  (** [vector-ref] app node proved in-bounds *)
  set_inbounds : unit NodeTbl.t;  (** [vector-set!] app node proved in-bounds *)
  unboxable : unit NodeTbl.t;
      (** [#%plain-lambda] nodes that are let-bound, non-escaping,
          referenced exactly once and only in operator position *)
  mutable call_sites : int;
  mutable lambdas : int;
  mutable escaping : int;
  mutable vec_sites : int;
  mutable sweeps : int;
  mutable transfers : int;
  mutable exhausted : bool;  (** fuel ran out: all fact tables are empty *)
}

let create () =
  {
    direct = NodeTbl.create 64;
    ref_inbounds = NodeTbl.create 16;
    set_inbounds = NodeTbl.create 16;
    unboxable = NodeTbl.create 8;
    call_sites = 0;
    lambdas = 0;
    escaping = 0;
    vec_sites = 0;
    sweeps = 0;
    transfers = 0;
    exhausted = false;
  }

let direct_callee (t : t) (app : Stx.t) : callee option = NodeTbl.find_opt t.direct app
let ref_inbounds (t : t) (app : Stx.t) : bool = NodeTbl.mem t.ref_inbounds app
let set_inbounds (t : t) (app : Stx.t) : bool = NodeTbl.mem t.set_inbounds app
let lambda_unboxable (t : t) (lam : Stx.t) : bool = NodeTbl.mem t.unboxable lam

(** Human-readable report for [liblang analyze] — a summary line followed by
    one line per proved fact, sorted by source location for stable output. *)
let render (t : t) : string list =
  let loc_line (s : Stx.t) = Liblang_reader.Srcloc.to_string (Stx.loc s) in
  let collect tbl label =
    NodeTbl.fold (fun s () acc -> Printf.sprintf "  %-10s %s" label (loc_line s) :: acc) tbl []
  in
  let directs =
    NodeTbl.fold
      (fun s c acc ->
        Printf.sprintf "  %-10s %s -> %s/%d" "direct" (loc_line s) c.callee_name c.callee_arity
        :: acc)
      t.direct []
  in
  let summary =
    Printf.sprintf
      "analysis: %d call sites (%d monomorphic), %d lambdas (%d escaping, %d unboxable), %d \
       vector sites, %d in-bounds refs, %d in-bounds sets; %d sweeps, %d transfers%s"
      t.call_sites (NodeTbl.length t.direct) t.lambdas t.escaping
      (NodeTbl.length t.unboxable) t.vec_sites
      (NodeTbl.length t.ref_inbounds)
      (NodeTbl.length t.set_inbounds)
      t.sweeps t.transfers
      (if t.exhausted then " (FUEL EXHAUSTED: no facts)" else "")
  in
  summary
  :: List.sort compare
       (directs
       @ collect t.ref_inbounds "inbounds"
       @ collect t.set_inbounds "inbounds!"
       @ collect t.unboxable "unbox")
