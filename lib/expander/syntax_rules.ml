(** [syntax-rules]: pattern/template macros written in the object language.

    Full ellipsis support: patterns and templates may nest [...] to any
    depth, with the usual constraints (a template variable must be used at
    the depth it was matched at).  Literals are compared with
    [free-identifier=?], so a literal keyword respects the binding structure
    of the program (hygienic literal matching).

    Pattern variables are keyed by interned {!Stx.Symbol.t}, so match-env
    lookups are O(1) integer comparisons rather than string compares. *)

module Stx = Liblang_stx.Stx
module Binding = Liblang_stx.Binding
module Symbol = Liblang_symbol.Symbol

exception Bad_syntax of string * Stx.t

type rule = {
  pattern : Stx.t;  (** its head identifier already replaced by [_] ({!parse}) *)
  template : Stx.t;
}

type t = { literals : Stx.t list; rules : rule list; name : string }

let sym_ellipsis = Symbol.intern "..."
let sym_underscore = Symbol.intern "_"
let is_ellipsis s = Stx.has_sym sym_ellipsis s

(* What a pattern variable matched: a single piece of syntax at depth 0, or
   a sequence of matches at depth n+1. *)
type matched = One of Stx.t | Seq of matched list

type menv = (Symbol.t * matched) list

let is_literal literals id =
  List.exists (fun l -> Binding.free_identifier_eq l id) literals

(* -- matching -------------------------------------------------------------- *)

(* [match_pattern literals pat s env]: the bindings [s] gives [pat]'s
   variables, in pattern order, ahead of [env]; [None] if [s] does not
   match.  A sequence is matched from its last element to its first, so
   each element's bindings go on the front of what the later ones bound. *)
let rec match_pattern literals (pat : Stx.t) (s : Stx.t) (env : menv) : menv option =
  match Stx.view pat with
  | Stx.Id name when Symbol.equal name sym_underscore -> Some env
  | Stx.Id _ when is_literal literals pat ->
      if Stx.is_id s && Binding.free_identifier_eq pat s then Some env else None
  | Stx.Id name -> Some ((name, One s) :: env)
  | Stx.Atom a -> (
      match Stx.view s with
      | Stx.Atom b when Liblang_reader.Datum.atom_equal a b -> Some env
      | _ -> None)
  | Stx.List pats -> (
      match Stx.view s with
      | Stx.List elems -> match_list literals pats elems env
      | _ -> None)
  | Stx.DotList (pats, tailpat) -> (
      (* (p1 p2 . tail) can match both dotted and proper input *)
      match Stx.view s with
      | Stx.List elems ->
          let n = List.length pats in
          if List.length elems < n then None
          else
            let front = List.filteri (fun i _ -> i < n) elems in
            let back = List.filteri (fun i _ -> i >= n) elems in
            Option.bind
              (match_pattern literals tailpat (Stx.list ~loc:(Stx.loc s) back) env)
              (match_list literals pats front)
      | Stx.DotList (elems, tl) ->
          let n = List.length pats in
          if List.length elems < n then None
          else
            let front = List.filteri (fun i _ -> i < n) elems in
            let back = List.filteri (fun i _ -> i >= n) elems in
            let tail_stx =
              if back = [] then tl else Stx.mk ~loc:(Stx.loc s) (Stx.DotList (back, tl))
            in
            Option.bind (match_pattern literals tailpat tail_stx env) (match_list literals pats front)
      | _ -> None)
  | Stx.Vec pats -> (
      match Stx.view s with
      | Stx.Vec elems -> match_list literals pats elems env
      | _ -> None)

and match_list literals (pats : Stx.t list) (elems : Stx.t list) (env : menv) : menv option =
  match pats with
  | [] -> if elems = [] then Some env else None
  | p :: rest when rest <> [] && is_ellipsis (List.hd rest) ->
      (* p ... tail-pats *)
      let tail_pats = List.tl rest in
      let min_tail = List.length tail_pats in
      let n_rep = List.length elems - min_tail in
      if n_rep < 0 then None
      else
        let rep = List.filteri (fun i _ -> i < n_rep) elems in
        let tail = List.filteri (fun i _ -> i >= n_rep) elems in
        Option.bind (match_list literals tail_pats tail env) @@ fun env ->
        let sub_envs = List.map (fun e -> match_pattern literals p e []) rep in
        if List.exists Option.is_none sub_envs then None
        else
          let sub_envs = List.map Option.get sub_envs in
          let seq v =
            Seq
              (List.map
                 (fun sub ->
                   match List.assoc_opt v sub with
                   | Some m -> m
                   | None ->
                       raise (Bad_syntax ("syntax-rules: internal var " ^ Symbol.name v, p)))
                 sub_envs)
          in
          Some (List.fold_right (fun v env -> (v, seq v) :: env) (pattern_vars literals p) env)
  | p :: rest -> (
      match elems with
      | [] -> None
      | e :: more -> Option.bind (match_list literals rest more env) (match_pattern literals p e))

and pattern_vars literals (pat : Stx.t) : Symbol.t list =
  match Stx.view pat with
  | Stx.Id name when Symbol.equal name sym_underscore || Symbol.equal name sym_ellipsis
    -> []
  | Stx.Id name -> if is_literal literals pat then [] else [ name ]
  | Stx.Atom _ -> []
  | Stx.List ps | Stx.Vec ps -> List.concat_map (pattern_vars literals) ps
  | Stx.DotList (ps, tl) -> List.concat_map (pattern_vars literals) ps @ pattern_vars literals tl

(* -- template instantiation -------------------------------------------------- *)

let rec template_vars (t : Stx.t) : Symbol.t list =
  match Stx.view t with
  | Stx.Id name -> [ name ]
  | Stx.Atom _ -> []
  | Stx.List ts | Stx.Vec ts -> List.concat_map template_vars ts
  | Stx.DotList (ts, tl) -> List.concat_map template_vars ts @ template_vars tl

let rec instantiate (env : menv) (tmpl : Stx.t) : Stx.t =
  match Stx.view tmpl with
  | Stx.Id name -> (
      match List.assoc_opt name env with
      | Some (One s) -> s
      | Some (Seq _) ->
          raise
            (Bad_syntax
               ( "syntax-rules: pattern variable used at wrong ellipsis depth: "
                 ^ Symbol.name name,
                 tmpl ))
      | None -> tmpl)
  | Stx.Atom _ -> tmpl
  | Stx.List ts -> Stx.rewrap tmpl (Stx.List (instantiate_seq env ts))
  | Stx.DotList (ts, tl) ->
      Stx.rewrap tmpl (Stx.DotList (instantiate_seq env ts, instantiate env tl))
  | Stx.Vec ts -> Stx.rewrap tmpl (Stx.Vec (instantiate_seq env ts))

and instantiate_seq env (ts : Stx.t list) : Stx.t list =
  match ts with
  | t :: rest when rest <> [] && is_ellipsis (List.hd rest) ->
      (* t ... — and possibly more ellipses for deeper splicing *)
      let rec count_ellipses acc = function
        | e :: more when is_ellipsis e -> count_ellipses (acc + 1) more
        | more -> (acc, more)
      in
      let depth, rest' = count_ellipses 0 rest in
      let expanded = expand_ellipsis env t depth in
      expanded @ instantiate_seq env rest'
  | t :: rest -> instantiate env t :: instantiate_seq env rest
  | [] -> []

and expand_ellipsis env (t : Stx.t) (depth : int) : Stx.t list =
  if depth = 0 then [ instantiate env t ]
  else
    let vars = List.filter (fun v -> List.mem_assoc v env) (template_vars t) in
    let seq_vars = List.filter (fun v -> match List.assoc v env with Seq _ -> true | One _ -> false) vars in
    if seq_vars = [] then
      raise (Bad_syntax ("syntax-rules: ellipsis template with no sequence variable", t));
    let len =
      match List.assoc (List.hd seq_vars) env with Seq ms -> List.length ms | One _ -> 0
    in
    List.iter
      (fun v ->
        match List.assoc v env with
        | Seq ms when List.length ms <> len ->
            raise
              (Bad_syntax
                 ("syntax-rules: mismatched ellipsis counts for " ^ Symbol.name v, t))
        | _ -> ())
      seq_vars;
    List.concat
      (List.init len (fun i ->
           let env_i =
             List.map
               (fun (v, m) ->
                 match m with
                 | Seq ms when List.mem v seq_vars -> (v, List.nth ms i)
                 | _ -> (v, m))
               env
           in
           expand_ellipsis env_i t (depth - 1)))

(* -- the transformer --------------------------------------------------------- *)

(* [pattern] with its head identifier replaced by [_], so a use matches
   whatever keyword it is written with (the macro's own name included). *)
let ignore_head (pattern : Stx.t) : Stx.t =
  match Stx.view pattern with
  | Stx.List (hd :: rest) when Stx.is_id hd ->
      Stx.rewrap pattern (Stx.List (Stx.rewrap hd (Stx.Id sym_underscore) :: rest))
  | _ -> pattern

(** Parse [(syntax-rules (lit ...) [pattern template] ...)].  The leading
    identifier of each pattern is ignored (standard behavior). *)
let parse ~name (form : Stx.t) : t =
  match Stx.to_list form with
  | Some (_kw :: lits :: rules) ->
      let literals =
        match Stx.to_list lits with
        | Some ids when List.for_all Stx.is_id ids -> ids
        | _ -> raise (Bad_syntax ("syntax-rules: expected a parenthesized literals list", lits))
      in
      let parse_rule r =
        match Stx.to_list r with
        | Some [ pattern; template ] -> { pattern = ignore_head pattern; template }
        | _ -> raise (Bad_syntax ("syntax-rules: expected [pattern template]", r))
      in
      { literals; rules = List.map parse_rule rules; name }
  | _ -> raise (Bad_syntax ("syntax-rules: bad form", form))

(** Apply a [syntax-rules] transformer to a use-site form: the first rule
    whose pattern matches it gives the expansion. *)
let apply (sr : t) (form : Stx.t) : Stx.t =
  let rec go = function
    | [] -> raise (Bad_syntax (sr.name ^ ": no matching syntax-rules pattern", form))
    | { pattern; template } :: rest -> (
        match match_pattern sr.literals pattern form [] with
        | Some env -> instantiate env template
        | None -> go rest)
  in
  go sr.rules
