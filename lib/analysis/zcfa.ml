(** A finite-state 0CFA over fully-expanded core forms (ROADMAP item 3).

    The machine abstracts a module body to a monovariant flow analysis: one
    abstract value per binding uid, one abstract record per lambda and per
    vector-allocation site.  The abstract value lattice is finite (closure
    sets over the module's lambdas, vector-site sets, a small integer
    domain with constant sets, non-negativity, and vector-length symbols),
    so the fixpoint terminates; an iteration/transfer fuel backs that
    guarantee up with a hard stop that degrades to {e no facts} rather
    than wrong facts.

    The transfer functions are compiled once into a closure-form node
    graph.  {!analyze_module} solves it with a delta-store worklist: a top
    form is re-evaluated only when a store entry, lambda or vector site it
    read during its last evaluation changed (dependencies are recorded
    dynamically).  {!analyze_module_by_sweeps} is the test oracle: naive
    round-robin sweeps over the same graph until nothing changes.  Both
    reach the same fixpoint, fact for fact (test/test_analysis.ml). *)

module Stx = Liblang_stx.Stx
module Binding = Liblang_stx.Binding
module Denote = Liblang_expander.Denote
module Baselang = Liblang_modules.Baselang
module Metrics = Liblang_observe.Metrics
module Trace = Liblang_observe.Trace
module IntSet = Set.Make (Int)

(** Master switch, for the ablation benchmarks ([Typed_no_cfa]): when off,
    [Liblang_typed.Optimize] skips the analysis and the flow-driven
    rewrites never fire. *)
let enabled = ref true

(* Fuel: the lattice is finite so sweeps converge, but adversarial corpus
   inputs get a hard stop anyway.  Exhaustion yields an *empty* fact table
   (sound: no rewrite fires), never a partial one. *)
let max_sweeps = 256
let max_transfers = 4_000_000

exception Out_of_fuel

(* -- abstract domains ------------------------------------------------------ *)

(* Integer abstraction.  [IConsts] is a small sorted constant set (widened
   past [const_cap]); [ILen s] means "the length of one of the vector sites
   in [s]" — the symbolic link that lets a `(< i (vector-length v))` guard
   prove `(vector-ref v i)` in bounds. *)
type aint = IBot | IConsts of int list | ILen of IntSet.t | INonNeg | ITop

let const_cap = 8

(* An abstract value covers every concrete value that can flow to a point:
   closures by lambda index, tracked vectors by allocation site, integers
   exactly by [ints], and [other] for every remaining first-order value
   (floats, booleans, strings, pairs, untracked vectors...).  [top]
   subsumes everything, including all closures and sites. *)
type aval = { clos : IntSet.t; vecs : IntSet.t; ints : aint; other : bool; top : bool }

let av_bot = { clos = IntSet.empty; vecs = IntSet.empty; ints = IBot; other = false; top = false }
let av_top = { av_bot with top = true }
let av_other = { av_bot with other = true }
let av_int n = { av_bot with ints = IConsts [ n ] }
let av_clos ix = { av_bot with clos = IntSet.singleton ix }
let av_vec ix = { av_bot with vecs = IntSet.singleton ix }

let iconsts ks =
  let ks = List.sort_uniq compare ks in
  if List.length ks <= const_cap then IConsts ks
  else if List.for_all (fun k -> k >= 0) ks then INonNeg
  else ITop

let aint_nonneg = function
  | IBot -> true
  | IConsts ks -> List.for_all (fun k -> k >= 0) ks
  | ILen _ | INonNeg -> true
  | ITop -> false

let join_aint a b =
  match (a, b) with
  | IBot, x | x, IBot -> x
  | ITop, _ | _, ITop -> ITop
  | IConsts xs, IConsts ys -> iconsts (xs @ ys)
  | ILen s1, ILen s2 -> if IntSet.equal s1 s2 then a else INonNeg
  | x, y -> if aint_nonneg x && aint_nonneg y then INonNeg else ITop

let aint_equal a b =
  match (a, b) with
  | ILen s1, ILen s2 -> IntSet.equal s1 s2
  | IConsts xs, IConsts ys -> xs = ys
  | x, y -> x = y

let join a b =
  if b == av_bot then a
  else if a == av_bot then b
  else
    {
      clos = IntSet.union a.clos b.clos;
      vecs = IntSet.union a.vecs b.vecs;
      ints = join_aint a.ints b.ints;
      other = a.other || b.other;
      top = a.top || b.top;
    }

let aval_equal a b =
  IntSet.equal a.clos b.clos && IntSet.equal a.vecs b.vecs && aint_equal a.ints b.ints
  && a.other = b.other && a.top = b.top

(* transfer for + / - / * / add1 / sub1 over the integer domain *)
let arith_aint name a b =
  let cross f xs ys =
    iconsts (List.concat_map (fun x -> List.map (fun y -> f x y) ys) xs)
  in
  match (name, a, b) with
  | _, IBot, _ | _, _, IBot -> IBot
  | "+", IConsts xs, IConsts ys -> cross ( + ) xs ys
  | "+", x, y when aint_nonneg x && aint_nonneg y -> INonNeg
  | "-", IConsts xs, IConsts ys -> cross ( - ) xs ys
  | "*", IConsts xs, IConsts ys -> cross ( * ) xs ys
  | "*", x, y when aint_nonneg x && aint_nonneg y -> INonNeg
  | _ -> ITop

(* -- the compiled node graph ----------------------------------------------- *)

type len_state = LUnknown | LKnown of int | LVar

type node = { n_stx : Stx.t; n_kind : kind; n_op : bool }

and kind =
  | KConst of aval
  | KVar of int
  | KPrim of string
  | KExt  (** unknown reference: an import or a prim without a transfer *)
  | KLam of int
  | KIf of node * node * node * guard option
  | KBegin of node list
  | KSet of int option * node
  | KApp of node * node list
  | KAlloc of int * node list  (** vector site: (vector ...) / (make-vector ...) *)
  | KLet of (int list * node) list * node list
  | KDefine of int list * node
  | KProvide of int list
  | KOpaque of node list  (** unrecognized form: children escape, result top *)
  | KSkip

and guard = { g_i : int; g_n : int }  (** the condition was [(< g_i g_n)] *)

and lam = {
  l_idx : int;
  l_stx : Stx.t;
  l_params : int list;
  l_rest : bool;
  l_arity : int;
  mutable l_name : string;
  l_body : node list;
  mutable l_escapes : bool;
  mutable l_ret : aval;
}

and vsite = {
  v_idx : int;
  v_make : bool;  (** make-vector (length from first arg) vs. vector (length = argc) *)
  mutable v_len : len_state;
  mutable v_elem : aval;
  mutable v_escaped : bool;
}

type st = {
  store : (int, aval) Hashtbl.t;
  bound : (int, unit) Hashtbl.t;
  assigned : (int, unit) Hashtbl.t;
  refs_total : (int, int) Hashtbl.t;
  refs_op : (int, int) Hashtbl.t;
  lams : (int, lam) Hashtbl.t;
  sites : (int, vsite) Hashtbl.t;
  mutable next_lam : int;
  mutable next_site : int;
  mutable let_lams : (int * int) list;  (** (binding uid, lambda idx) of single-id let clauses *)
  mutable escape_all : bool;  (** an unparseable #%provide spec: everything escapes *)
  mutable changed : bool;  (** something grew since the flag was last cleared *)
  mutable sweeps : int;
  mutable transfers : int;
  mutable call_sites : int;
  (* worklist bookkeeping: which top forms read each store entry, lambda
     and vector site *)
  mutable cur_form : int;  (** -1 outside worklist evaluation *)
  uid_deps : (int, IntSet.t) Hashtbl.t;
  lam_deps : (int, IntSet.t) Hashtbl.t;
  site_deps : (int, IntSet.t) Hashtbl.t;
  mutable dirty : IntSet.t;  (** worklist (form indices), drained in order *)
}

let init_state () =
  {
    store = Hashtbl.create 64;
    bound = Hashtbl.create 64;
    assigned = Hashtbl.create 16;
    refs_total = Hashtbl.create 64;
    refs_op = Hashtbl.create 64;
    lams = Hashtbl.create 32;
    sites = Hashtbl.create 16;
    next_lam = 0;
    next_site = 0;
    let_lams = [];
    escape_all = false;
    changed = false;
    sweeps = 0;
    transfers = 0;
    call_sites = 0;
    cur_form = -1;
    uid_deps = Hashtbl.create 64;
    lam_deps = Hashtbl.create 32;
    site_deps = Hashtbl.create 16;
    dirty = IntSet.empty;
  }

let add_dep tbl key st =
  if st.cur_form >= 0 then
    let old = Option.value (Hashtbl.find_opt tbl key) ~default:IntSet.empty in
    if not (IntSet.mem st.cur_form old) then Hashtbl.replace tbl key (IntSet.add st.cur_form old)

(* [key] of [deps] grew: flag the change and re-enqueue its readers *)
let touch st deps key =
  st.changed <- true;
  match Hashtbl.find_opt deps key with
  | Some forms -> st.dirty <- IntSet.union st.dirty forms
  | None -> ()

let store_get st uid =
  add_dep st.uid_deps uid st;
  Option.value (Hashtbl.find_opt st.store uid) ~default:av_bot

let store_join st uid v =
  let old = Option.value (Hashtbl.find_opt st.store uid) ~default:av_bot in
  let nv = join old v in
  if not (aval_equal nv old) then begin
    Hashtbl.replace st.store uid nv;
    touch st st.uid_deps uid
  end

(* Escaping: the value reaches code the analysis cannot see.  Closures get
   top parameters (and their results escape in turn); tracked vector sites
   keep their length — Scheme vectors are fixed-size — but their elements
   become top, since unknown code may vector-set! anything into them. *)
let rec escape_value st (v : aval) =
  IntSet.iter
    (fun ix ->
      let l = Hashtbl.find st.lams ix in
      if not l.l_escapes then begin
        l.l_escapes <- true;
        touch st st.lam_deps ix;
        List.iter (fun p -> store_join st p av_top) l.l_params;
        escape_value st l.l_ret
      end)
    v.clos;
  IntSet.iter
    (fun ix ->
      let s = Hashtbl.find st.sites ix in
      if not s.v_escaped then begin
        s.v_escaped <- true;
        let old = s.v_elem in
        s.v_elem <- join old av_top;
        touch st st.site_deps ix;
        escape_value st old
      end)
    v.vecs

let lam_ret_join st ix v =
  let l = Hashtbl.find st.lams ix in
  let nv = join l.l_ret v in
  if not (aval_equal nv l.l_ret) then begin
    l.l_ret <- nv;
    touch st st.lam_deps ix;
    if l.l_escapes then escape_value st nv
  end

let elem_join st ix v =
  let s = Hashtbl.find st.sites ix in
  let nv = join s.v_elem v in
  if not (aval_equal nv s.v_elem) then begin
    s.v_elem <- nv;
    touch st st.site_deps ix;
    if s.v_escaped then escape_value st nv
  end

let len_merge st ix (cand : len_state) =
  let s = Hashtbl.find st.sites ix in
  let merged =
    match (s.v_len, cand) with
    | LUnknown, x -> x
    | x, LUnknown -> x
    | LKnown a, LKnown b when a = b -> s.v_len
    | _ -> LVar
  in
  if merged <> s.v_len then begin
    s.v_len <- merged;
    touch st st.site_deps ix
  end

(* -- prims with transfer functions ----------------------------------------- *)

(* Everything else resolves to [KExt]: calling it escapes the arguments and
   returns top — sound for higher-order prims (apply, map, vector-map...),
   for pair constructors (contents become untracked), and for anything the
   table simply doesn't know. *)
let pure_prims =
  (* return numbers/booleans/other first-order data; never retain, call,
     or store their arguments *)
  [
    "/"; "quotient"; "remainder"; "modulo"; "min"; "max"; "abs"; "floor"; "ceiling"; "round";
    "truncate"; "sqrt"; "sin"; "cos"; "tan"; "atan"; "exp"; "log"; "expt"; "exact->inexact";
    "exact->float"; "<"; "<="; ">"; ">="; "="; "zero?"; "even?"; "odd?"; "not"; "eq?"; "eqv?";
    "equal?"; "null?"; "pair?"; "number?"; "boolean?"; "procedure?"; "vector?"; "string?";
    "symbol?"; "display"; "write"; "newline"; "void"; "make-rectangular"; "magnitude";
    "real-part"; "imag-part"; "unsafe-fl+"; "unsafe-fl-"; "unsafe-fl*"; "unsafe-fl/";
    "unsafe-flmin"; "unsafe-flmax"; "unsafe-fl<"; "unsafe-fl>"; "unsafe-fl<="; "unsafe-fl>=";
    "unsafe-fl="; "unsafe-flabs"; "unsafe-flsqrt"; "unsafe-flsin"; "unsafe-flcos"; "unsafe-fltan";
    "unsafe-flatan"; "unsafe-flexp"; "unsafe-fllog"; "unsafe-flfloor"; "unsafe-flceiling";
    "unsafe-flround"; "unsafe-fltruncate"; "unsafe-flexpt"; "unsafe-fx->fl";
    "unsafe-make-rectangular"; "unsafe-magnitude"; "unsafe-real-part"; "unsafe-imag-part";
    "unsafe-c+"; "unsafe-c-"; "unsafe-c*"; "unsafe-c/";
  ]

let arith_prims = [ "+"; "-"; "*"; "add1"; "sub1" ]

let vector_prims =
  [
    "vector"; "make-vector"; "vector-length"; "vector-ref"; "vector-set!";
    "unsafe-vector-length"; "unsafe-vector-ref"; "unsafe-vector-set!"; "unchecked-vector-ref";
    "unchecked-vector-set!";
  ]

(* uid -> prim name, resolved once against the base language's binding
   context (uids are exact: a shadowing local binder has a different uid) *)
let prim_uids : (int, string) Hashtbl.t = Hashtbl.create 128
let prim_uids_ready = ref false

let prim_uid_table () =
  if not !prim_uids_ready then begin
    List.iter
      (fun name ->
        match Binding.resolve (Baselang.bid name) with
        | Some b -> Hashtbl.replace prim_uids b.Binding.uid name
        | None -> ())
      (pure_prims @ arith_prims @ vector_prims @ [ "values" ]);
    prim_uids_ready := true
  end;
  prim_uids

let core_kind (hd : Stx.t) : string option =
  match Binding.resolve hd with
  | None -> None
  | Some b -> ( match Denote.get b with Some (Denote.DCore n) -> Some n | _ -> None)

(* -- building the node graph ----------------------------------------------- *)

let aval_of_atom = function Liblang_reader.Datum.Int n -> av_int n | _ -> av_other

let aval_of_quoted (s : Stx.t) =
  match Stx.view s with Stx.Atom a -> aval_of_atom a | _ -> av_other

let formals_of (formals : Stx.t) : int list * bool =
  let uid_of id = match Binding.resolve id with Some b -> b.Binding.uid | None -> -1 in
  match Stx.view formals with
  | Stx.Id _ -> ([ uid_of formals ], true)
  | Stx.List ids -> (List.map uid_of ids, false)
  | Stx.DotList (ids, rest) -> (List.map uid_of ids @ [ uid_of rest ], true)
  | _ -> ([], false)

(* pass 1: record every binder uid, module-wide, so forward references to
   later defines classify as local rather than external *)
let rec collect_binders st (s : Stx.t) =
  match Stx.view s with
  | Stx.List (hd :: args) when Stx.is_id hd -> (
      let bind_ids ids =
        List.iter
          (fun id ->
            match Binding.resolve id with
            | Some b -> Hashtbl.replace st.bound b.Binding.uid ()
            | None -> ())
          ids
      in
      match (core_kind hd, args) with
      | Some "#%plain-lambda", formals :: body ->
          let params, _ = formals_of formals in
          List.iter (fun u -> Hashtbl.replace st.bound u ()) params;
          List.iter (collect_binders st) body
      | Some ("let-values" | "letrec-values"), clauses :: body ->
          (match Stx.to_list clauses with
          | Some cs ->
              List.iter
                (fun c ->
                  match Stx.to_list c with
                  | Some [ ids; rhs ] ->
                      (match Stx.to_list ids with Some l -> bind_ids l | None -> ());
                      collect_binders st rhs
                  | _ -> ())
                cs
          | None -> ());
          List.iter (collect_binders st) body
      | Some "define-values", [ ids; rhs ] ->
          (match Stx.to_list ids with Some l -> bind_ids l | None -> ());
          collect_binders st rhs
      | Some ("quote" | "quote-syntax" | "define-syntaxes" | "begin-for-syntax" | "#%require"), _
        ->
          ()
      | _, args -> List.iter (collect_binders st) args)
  | _ -> ()

let classify st (id : Stx.t) : kind =
  match Binding.resolve id with
  | Some b ->
      if Hashtbl.mem st.bound b.Binding.uid then KVar b.Binding.uid
      else (
        match Hashtbl.find_opt (prim_uid_table ()) b.Binding.uid with
        | Some name -> KPrim name
        | None -> KExt)
  | None -> KExt

let note_ref st op_pos uid =
  let inc tbl = Hashtbl.replace tbl uid (1 + Option.value (Hashtbl.find_opt tbl uid) ~default:0) in
  inc st.refs_total;
  if op_pos then inc st.refs_op

let lam_record st (s : Stx.t) formals body_nodes =
  let params, rest = formals_of formals in
  let l =
    {
      l_idx = st.next_lam;
      l_stx = s;
      l_params = params;
      l_rest = rest;
      l_arity = List.length params - (if rest then 1 else 0);
      l_name = "lambda";
      l_body = body_nodes;
      l_escapes = false;
      l_ret = av_bot;
    }
  in
  st.next_lam <- st.next_lam + 1;
  Hashtbl.replace st.lams l.l_idx l;
  l

let site_record st ~make =
  let v =
    { v_idx = st.next_site; v_make = make; v_len = LUnknown; v_elem = av_bot; v_escaped = false }
  in
  st.next_site <- st.next_site + 1;
  Hashtbl.replace st.sites v.v_idx v;
  v

let rec build st ?(op_pos = false) (s : Stx.t) : node =
  let mk kind = { n_stx = s; n_kind = kind; n_op = op_pos } in
  match Stx.view s with
  | Stx.Id _ ->
      let k = classify st s in
      (match k with KVar uid -> note_ref st op_pos uid | _ -> ());
      mk k
  | Stx.Atom a -> mk (KConst (aval_of_atom a))
  | Stx.List (hd :: args) when Stx.is_id hd -> (
      match (core_kind hd, args) with
      | Some "quote", [ d ] -> mk (KConst (aval_of_quoted d))
      | Some "quote-syntax", _ -> mk (KConst av_other)
      | Some "if", [ c; t; e ] ->
          let cn = build st c in
          let g =
            match cn.n_kind with
            | KApp ({ n_kind = KPrim "<"; _ }, [ { n_kind = KVar i; _ }; { n_kind = KVar n; _ } ])
              ->
                Some { g_i = i; g_n = n }
            | _ -> None
          in
          mk (KIf (cn, build st t, build st e, g))
      | Some ("begin" | "#%expression"), body -> mk (KBegin (List.map (build st) body))
      | Some "set!", [ x; rhs ] ->
          let target =
            match classify st x with
            | KVar uid ->
                Hashtbl.replace st.assigned uid ();
                Some uid
            | _ -> None
          in
          mk (KSet (target, build st rhs))
      | Some "#%plain-lambda", formals :: body ->
          let body_nodes = List.map (build st) body in
          let l = lam_record st s formals body_nodes in
          mk (KLam l.l_idx)
      | Some ("let-values" | "letrec-values"), clauses :: body ->
          let cls =
            match Stx.to_list clauses with
            | Some cs ->
                List.filter_map
                  (fun c ->
                    match Stx.to_list c with
                    | Some [ ids; rhs ] ->
                        let uids =
                          match Stx.to_list ids with
                          | Some l ->
                              List.filter_map
                                (fun id ->
                                  match Binding.resolve id with
                                  | Some b -> Some b.Binding.uid
                                  | None -> None)
                                l
                          | None -> []
                        in
                        let rn = build st rhs in
                        (match (uids, rn.n_kind) with
                        | [ uid ], KLam ix ->
                            let l = Hashtbl.find st.lams ix in
                            if l.l_name = "lambda" then
                              l.l_name <- Option.value (Stx.sym (List.hd (Option.get (Stx.to_list ids)))) ~default:"lambda";
                            st.let_lams <- (uid, ix) :: st.let_lams
                        | _ -> ());
                        Some (uids, rn)
                    | _ -> None)
                  cs
            | None -> []
          in
          mk (KLet (cls, List.map (build st) body))
      | Some "define-values", [ ids; rhs ] ->
          let uids =
            match Stx.to_list ids with
            | Some l ->
                List.filter_map
                  (fun id -> match Binding.resolve id with Some b -> Some b.Binding.uid | None -> None)
                  l
          | None -> []
          in
          let rn = build st rhs in
          (match (uids, rn.n_kind, Stx.to_list ids) with
          | [ _ ], KLam ix, Some [ id ] ->
              let l = Hashtbl.find st.lams ix in
              if l.l_name = "lambda" then l.l_name <- Option.value (Stx.sym id) ~default:"lambda"
          | _ -> ());
          mk (KDefine (uids, rn))
      | Some "#%provide", specs ->
          let uids =
            List.concat_map
              (fun spec ->
                match Stx.view spec with
                | Stx.Id _ -> (
                    match Binding.resolve spec with Some b -> [ b.Binding.uid ] | None -> [])
                | Stx.List (kw :: clauses) when Stx.is_sym "rename-out" kw ->
                    List.filter_map
                      (fun c ->
                        match Stx.to_list c with
                        | Some [ internal; _ ] -> (
                            match Binding.resolve internal with
                            | Some b -> Some b.Binding.uid
                            | None -> None)
                        | _ -> None)
                      clauses
                | _ ->
                    st.escape_all <- true;
                    [])
              specs
          in
          mk (KProvide uids)
      | Some ("define-syntaxes" | "begin-for-syntax" | "#%require"), _ -> mk KSkip
      | Some "#%plain-app", op :: rands -> (
          let opn = build st ~op_pos:true op in
          let rns = List.map (build st) rands in
          match opn.n_kind with
          | KPrim ("vector" | "make-vector") ->
              let v = site_record st ~make:(match opn.n_kind with KPrim "make-vector" -> true | _ -> false) in
              mk (KAlloc (v.v_idx, rns))
          | KPrim _ -> mk (KApp (opn, rns))
          | _ ->
              st.call_sites <- st.call_sites + 1;
              mk (KApp (opn, rns)))
      | Some _, _ -> mk KSkip
      | None, _ -> mk (KOpaque (List.map (build st) (hd :: args))))
  | Stx.List xs -> mk (KOpaque (List.map (build st) xs))
  | Stx.DotList _ | Stx.Vec _ -> mk (KConst av_other)

(* -- the abstract transfer functions --------------------------------------- *)

let rec eval st (n : node) : aval =
  st.transfers <- st.transfers + 1;
  if st.transfers > max_transfers then raise Out_of_fuel;
  match n.n_kind with
  | KConst v -> v
  | KVar uid -> store_get st uid
  | KPrim _ -> av_other
  | KExt -> av_top
  | KLam ix ->
      add_dep st.lam_deps ix st;
      let l = Hashtbl.find st.lams ix in
      let rv = eval_body st l.l_body in
      lam_ret_join st ix rv;
      av_clos ix
  | KIf (c, t, e, _) ->
      ignore (eval st c);
      join (eval st t) (eval st e)
  | KBegin body -> eval_body st body
  | KSet (Some uid, rhs) ->
      store_join st uid (eval st rhs);
      av_other
  | KSet (None, rhs) ->
      escape_value st (eval st rhs);
      av_other
  | KDefine (uids, rhs) ->
      let v = eval st rhs in
      (match uids with
      | [ uid ] -> store_join st uid v
      | uids ->
          escape_value st v;
          List.iter (fun uid -> store_join st uid av_top) uids);
      av_other
  | KLet (clauses, body) ->
      List.iter
        (fun (uids, rhs) ->
          let v = eval st rhs in
          match uids with
          | [ uid ] -> store_join st uid v
          | uids ->
              escape_value st v;
              List.iter (fun uid -> store_join st uid av_top) uids)
        clauses;
      eval_body st body
  | KAlloc (ix, args) ->
      add_dep st.site_deps ix st;
      let vs = List.map (eval st) args in
      let site = Hashtbl.find st.sites ix in
      (if site.v_make then begin
         (match vs with
         | lenv :: initv ->
             let cand =
               match lenv.ints with
               | IConsts [ k ]
                 when (not lenv.other) && (not lenv.top) && IntSet.is_empty lenv.clos
                      && IntSet.is_empty lenv.vecs ->
                   LKnown k
               | _ -> LVar
             in
             len_merge st ix cand;
             List.iter (elem_join st ix) (if initv = [] then [ av_int 0 ] else initv)
         | [] -> len_merge st ix LVar)
       end
       else begin
         len_merge st ix (LKnown (List.length args));
         List.iter (elem_join st ix) vs
       end);
      av_vec ix
  | KApp (op, args) -> (
      match op.n_kind with
      | KPrim name ->
          let vs = List.map (eval st) args in
          prim_transfer st name args vs
      | _ ->
          let fv = eval st op in
          let vs = List.map (eval st) args in
          apply st fv vs)
  | KProvide uids ->
      List.iter
        (fun uid ->
          if Hashtbl.mem st.bound uid then escape_value st (store_get st uid))
        uids;
      av_other
  | KOpaque children ->
      List.iter (fun c -> escape_value st (eval st c)) children;
      av_top
  | KSkip -> av_other

and eval_body st body =
  match body with
  | [] -> av_other
  | _ ->
      let rec go = function
        | [ last ] -> eval st last
        | n :: rest ->
            ignore (eval st n);
            go rest
        | [] -> av_other
      in
      go body

and apply st (fv : aval) (arg_vs : aval list) : aval =
  let nargs = List.length arg_vs in
  let result = ref av_bot in
  IntSet.iter
    (fun ix ->
      add_dep st.lam_deps ix st;
      let l = Hashtbl.find st.lams ix in
      let compatible =
        if l.l_rest then nargs >= l.l_arity else nargs = l.l_arity
      in
      if compatible then begin
        let rec bind params vs =
          match (params, vs) with
          | [ rest_p ], vs when l.l_rest ->
              (* the rest parameter holds a fresh list: its elements are
                 reachable via car/cdr, which are untracked — escape them *)
              List.iter (escape_value st) vs;
              store_join st rest_p av_other
          | p :: ps, v :: rest ->
              store_join st p v;
              bind ps rest
          | p :: ps, [] ->
              store_join st p av_other;
              bind ps []
          | [], _ -> ()
        in
        bind l.l_params arg_vs;
        result := join !result l.l_ret
      end)
    fv.clos;
  if fv.top || fv.other then begin
    (* unknown callee: the arguments reach unseen code *)
    List.iter (escape_value st) arg_vs;
    result := join !result av_top
  end;
  !result

and prim_transfer st name (args : node list) (vs : aval list) : aval =
  ignore args;
  match (name, vs) with
  | ("+" | "-" | "*"), [ a; b ] ->
      let pure_int v =
        (not v.other) && (not v.top) && IntSet.is_empty v.clos && IntSet.is_empty v.vecs
      in
      if pure_int a && pure_int b then { av_bot with ints = arith_aint name a.ints b.ints }
      else { av_bot with ints = ITop; other = true }
  | ("+" | "-" | "*"), _ -> { av_bot with ints = ITop; other = true }
  | "add1", [ a ] -> prim_transfer st "+" [] [ a; av_int 1 ]
  | "sub1", [ a ] -> prim_transfer st "-" [] [ a; av_int 1 ]
  | ("vector-length" | "unsafe-vector-length"), [ v ] ->
      if v.top || v.other then { av_bot with ints = INonNeg }
      else if IntSet.is_empty v.vecs then
        (* the argument has no values yet (still bottom): stay bottom, or an
           early pessimistic INonNeg would poison the later ILen join *)
        av_bot
      else { av_bot with ints = ILen v.vecs }
  | ("vector-ref" | "unsafe-vector-ref" | "unchecked-vector-ref"), v :: _ ->
      if v.top || v.other then av_top
      else
        IntSet.fold
          (fun ix acc ->
            add_dep st.site_deps ix st;
            join acc (Hashtbl.find st.sites ix).v_elem)
          v.vecs av_bot
  | ("vector-set!" | "unsafe-vector-set!" | "unchecked-vector-set!"), [ v; _; x ] ->
      if v.top || v.other then escape_value st x
      else IntSet.iter (fun ix -> elem_join st ix x) v.vecs;
      av_other
  | "values", [ v ] -> v
  | "values", vs ->
      List.iter (escape_value st) vs;
      av_top
  | _ ->
      (* pure numeric / predicate / IO prims: never retain, call, or store
         arguments; may return an integer we no longer track exactly *)
      { av_bot with ints = ITop; other = true }

(* -- solvers ----------------------------------------------------------------- *)

let eval_form st n =
  ignore (eval st n);
  (* exported bindings escape on every pass: re-check after growth (snapshot
     the uids first — escape_value mutates the store mid-iteration) *)
  if st.escape_all then begin
    let uids = Hashtbl.fold (fun uid _ acc -> uid :: acc) st.store [] in
    List.iter (fun uid -> if Hashtbl.mem st.bound uid then escape_value st (store_get st uid)) uids
  end

(* The production solver: a worklist of top-form indices, drained in
   order.  Evaluating form i records what it reads (the [add_dep] hooks);
   anything that grows re-enqueues exactly its readers ([touch]). *)
let run_delta st (graph : node list) =
  let forms = Array.of_list graph in
  let n = Array.length forms in
  let budget = max_sweeps * max 1 n in
  Array.iteri (fun i _ -> st.dirty <- IntSet.add i st.dirty) forms;
  let pops = ref 0 in
  while not (IntSet.is_empty st.dirty) do
    let i = IntSet.min_elt st.dirty in
    st.dirty <- IntSet.remove i st.dirty;
    incr pops;
    if !pops > budget then raise Out_of_fuel;
    st.cur_form <- i;
    (* re-entrancy: changes made while evaluating form i re-enqueue their
       dependents, including i itself, via [touch] *)
    eval_form st forms.(i);
    st.cur_form <- -1;
    st.sweeps <- !pops
  done

(* The oracle: evaluate every form, round-robin, until a whole sweep
   changes nothing. *)
let run_sweeps st (graph : node list) =
  let rec loop () =
    st.changed <- false;
    List.iter (eval_form st) graph;
    st.sweeps <- st.sweeps + 1;
    if st.changed then if st.sweeps >= max_sweeps then raise Out_of_fuel else loop ()
  in
  loop ()

(* -- fact extraction ------------------------------------------------------- *)

let guards_ok st g =
  (not (Hashtbl.mem st.assigned g.g_i)) && not (Hashtbl.mem st.assigned g.g_n)

(* i < len(v) for every vector that can flow to [v] and every int that can
   flow to [i], using either constant knowledge or an active `(< i n)`
   guard tied to the vectors' length *)
let proved_inbounds st (guards : guard list) (vnode : node) (inode : node) : bool =
  let vv = eval st vnode in
  if vv.top || vv.other || IntSet.is_empty vv.vecs then false
  else
    let iv = eval st inode in
    if iv.top || iv.other || (not (IntSet.is_empty iv.clos)) || not (IntSet.is_empty iv.vecs) then
      false
    else
      let min_len =
        IntSet.fold
          (fun ix acc ->
            match ((Hashtbl.find st.sites ix).v_len, acc) with
            | LKnown k, Some m -> Some (min k m)
            | LKnown k, None -> Some k
            | _, _ -> None)
          vv.vecs (Some max_int)
        |> function
        | Some m when m < max_int -> Some m
        | _ -> None
      in
      let const_rule () =
        match (iv.ints, min_len) with
        | IConsts ks, Some len -> List.for_all (fun k -> k >= 0 && k < len) ks
        | _ -> false
      in
      let guard_rule () =
        match inode.n_kind with
        | KVar j when not (Hashtbl.mem st.assigned j) ->
            List.exists
              (fun g ->
                g.g_i = j && guards_ok st g
                && aint_nonneg (store_get st j).ints
                &&
                let nv = store_get st g.g_n in
                (not nv.top)
                &&
                match nv.ints with
                | ILen s ->
                    (* n = length(the one site in s), and v is that site *)
                    IntSet.cardinal s = 1 && IntSet.equal vv.vecs s
                | IConsts ks -> (
                    (* j < n <= max ks <= every possible length of v *)
                    match min_len with
                    | Some len -> ks <> [] && List.for_all (fun k -> k <= len) ks
                    | None -> false)
                | _ -> false)
              guards
        | _ -> false
      in
      const_rule () || guard_rule ()

let extract st (graph : node list) (facts : Facts.t) =
  let rec scan (guards : guard list) (n : node) =
    (match n.n_kind with
    | KApp (op, args) -> (
        match (op.n_kind, args) with
        | KPrim ("vector-ref" | "unsafe-vector-ref" | "unchecked-vector-ref"), [ v; i ] ->
            if proved_inbounds st guards v i then Facts.NodeTbl.replace facts.Facts.ref_inbounds n.n_stx ()
        | KPrim ("vector-set!" | "unsafe-vector-set!" | "unchecked-vector-set!"), [ v; i; _ ] ->
            if proved_inbounds st guards v i then Facts.NodeTbl.replace facts.Facts.set_inbounds n.n_stx ()
        | KPrim _, _ -> ()
        | _, _ -> (
            let fv = eval st op in
            if
              (not fv.top) && (not fv.other)
              && IntSet.is_empty fv.vecs
              && IntSet.cardinal fv.clos = 1
            then
              let l = Hashtbl.find st.lams (IntSet.choose fv.clos) in
              if (not l.l_rest) && l.l_arity = List.length args then
                Facts.NodeTbl.replace facts.Facts.direct n.n_stx
                  {
                    Facts.callee_stx = l.l_stx;
                    callee_name = l.l_name;
                    callee_arity = l.l_arity;
                  }))
    | _ -> ());
    match n.n_kind with
    | KConst _ | KVar _ | KPrim _ | KExt | KSkip | KProvide _ -> ()
    | KLam ix ->
        (* guards do not cross a lambda boundary: the body runs in an
           unrelated dynamic context *)
        List.iter (scan []) (Hashtbl.find st.lams ix).l_body
    | KIf (c, t, e, g) ->
        scan guards c;
        scan (match g with Some g when guards_ok st g -> g :: guards | _ -> guards) t;
        scan guards e
    | KBegin ns | KOpaque ns -> List.iter (scan guards) ns
    | KSet (_, rhs) -> scan guards rhs
    | KApp (f, ns) ->
        scan guards f;
        List.iter (scan guards) ns
    | KAlloc (_, ns) -> List.iter (scan guards) ns
    | KLet (cls, body) ->
        List.iter (fun (_, rhs) -> scan guards rhs) cls;
        List.iter (scan guards) body
    | KDefine (_, rhs) -> scan guards rhs
  in
  List.iter (scan []) graph;
  (* escape-free, single-use, operator-position-only let-bound lambdas *)
  List.iter
    (fun (uid, ix) ->
      let l = Hashtbl.find st.lams ix in
      let total = Option.value (Hashtbl.find_opt st.refs_total uid) ~default:0 in
      let op = Option.value (Hashtbl.find_opt st.refs_op uid) ~default:0 in
      if
        (not l.l_escapes) && (not l.l_rest) && total = 1 && op = 1
        && not (Hashtbl.mem st.assigned uid)
      then Facts.NodeTbl.replace facts.Facts.unboxable l.l_stx ())
    st.let_lams

(* -- entry point ----------------------------------------------------------- *)

let solve_with run (forms : Stx.t list) : Facts.t =
  Trace.span "analyze" @@ fun () ->
  let st = init_state () in
  let facts = Facts.create () in
  List.iter (collect_binders st) forms;
  let graph = List.map (build st) forms in
  (try
     run st graph;
     extract st graph facts
   with Out_of_fuel ->
     (* degrade to "nothing proved": wipe any partial tables *)
     Facts.NodeTbl.reset facts.Facts.direct;
     Facts.NodeTbl.reset facts.Facts.ref_inbounds;
     Facts.NodeTbl.reset facts.Facts.set_inbounds;
     Facts.NodeTbl.reset facts.Facts.unboxable;
     facts.Facts.exhausted <- true;
     Metrics.count "analysis.fuel_exhausted");
  facts.Facts.call_sites <- st.call_sites;
  facts.Facts.lambdas <- st.next_lam;
  facts.Facts.vec_sites <- st.next_site;
  facts.Facts.sweeps <- st.sweeps;
  facts.Facts.transfers <- st.transfers;
  facts.Facts.escaping <-
    Hashtbl.fold (fun _ l acc -> if l.l_escapes then acc + 1 else acc) st.lams 0;
  Metrics.count "analysis.modules";
  Metrics.countn "analysis.call_sites" facts.Facts.call_sites;
  Metrics.countn "analysis.direct_call_sites" (Facts.NodeTbl.length facts.Facts.direct);
  Metrics.countn "analysis.lambdas" facts.Facts.lambdas;
  Metrics.countn "analysis.escaping_lambdas" facts.Facts.escaping;
  Metrics.countn "analysis.unboxable_closures" (Facts.NodeTbl.length facts.Facts.unboxable);
  Metrics.countn "analysis.vector_sites" facts.Facts.vec_sites;
  Metrics.countn "analysis.inbounds_refs" (Facts.NodeTbl.length facts.Facts.ref_inbounds);
  Metrics.countn "analysis.inbounds_sets" (Facts.NodeTbl.length facts.Facts.set_inbounds);
  Metrics.countn "analysis.sweeps" facts.Facts.sweeps;
  Metrics.countn "analysis.transfers" facts.Facts.transfers;
  facts

(** Analyze one module's fully-expanded core forms. *)
let analyze_module (forms : Stx.t list) : Facts.t = solve_with run_delta forms

(** The test oracle: the same analysis solved by naive round-robin sweeps
    instead of the worklist.  Its facts must equal {!analyze_module}'s;
    only the [sweeps]/[transfers] counters differ. *)
let analyze_module_by_sweeps (forms : Stx.t list) : Facts.t = solve_with run_sweeps forms
