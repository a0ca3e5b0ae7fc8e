(** The hygiene engine's performance machinery, checked for semantics:

    - a qcheck property suite driving the hash-consed {!Scope.Set} through
      random operation sequences against a reference [Set.Make(Int)] model
      (interning must be observationally invisible);
    - regression tests for lazy scope propagation: interleavings of
      add/remove/flip applied lazily must agree with the eager
      [map_scopes] semantics, [datum->syntax], [free-identifier=?], and
      syntax properties must all survive delayed pushes. *)

open Liblang_core.Core
module Scope = Liblang_core.Core.Scope
module Binding = Liblang_stx.Binding
module Symbol = Liblang_symbol.Symbol
open Test_util
module Q = QCheck
module IntSet = Set.Make (Int)

let to_alcotest = QCheck_alcotest.to_alcotest

(* -- the model: Scope.Set vs Set.Make(Int) ---------------------------------

   Random scope values are drawn from a small universe so operations
   collide often (adds that are already present, removes of absent
   elements, unions with overlap).  The hash-consed implementation and the
   model run the same op script; after every step the interned set's
   elements must equal the model's. *)

type sop = SAdd of int | SRemove of int | SFlip of int | SUnion of int list

let gen_sop =
  let elt = Q.Gen.int_bound 30 in
  Q.Gen.oneof
    [
      Q.Gen.map (fun x -> SAdd x) elt;
      Q.Gen.map (fun x -> SRemove x) elt;
      Q.Gen.map (fun x -> SFlip x) elt;
      Q.Gen.map (fun xs -> SUnion xs) (Q.Gen.list_size (Q.Gen.int_bound 5) elt);
    ]

let print_sop = function
  | SAdd x -> Printf.sprintf "add %d" x
  | SRemove x -> Printf.sprintf "remove %d" x
  | SFlip x -> Printf.sprintf "flip %d" x
  | SUnion xs -> "union {" ^ String.concat "," (List.map string_of_int xs) ^ "}"

let arb_script =
  Q.make
    ~print:(fun ops -> String.concat "; " (List.map print_sop ops))
    (Q.Gen.list_size (Q.Gen.int_bound 40) gen_sop)

(* Scope [i] of the model is [universe.(i)]; ids increase with [i], so
   element orders agree. *)
let universe = Array.init 31 (fun _ -> Scope.fresh ())
let scope x = universe.(x)

let apply_real s = function
  | SAdd x -> Scope.Set.add (scope x) s
  | SRemove x -> Scope.Set.remove (scope x) s
  | SFlip x -> Scope.Set.flip (scope x) s
  | SUnion xs -> Scope.Set.union s (Scope.Set.of_list (List.map scope xs))

let apply_model m = function
  | SAdd x -> IntSet.add x m
  | SRemove x -> IntSet.remove x m
  | SFlip x -> if IntSet.mem x m then IntSet.remove x m else IntSet.add x m
  | SUnion xs -> IntSet.union m (IntSet.of_list xs)

let agrees (s : Scope.Set.t) (m : IntSet.t) =
  Scope.Set.elements s = List.map scope (IntSet.elements m)
  && Scope.Set.cardinal s = IntSet.cardinal m
  && Scope.Set.is_empty s = IntSet.is_empty m

let prop_model =
  Q.Test.make ~count:500 ~name:"Scope.Set agrees with Set.Make(Int) model" arb_script
    (fun ops ->
      let s, m =
        List.fold_left
          (fun (s, m) op ->
            let s = apply_real s op and m = apply_model m op in
            if not (agrees s m) then Q.Test.fail_reportf "diverged after %s" (print_sop op);
            (s, m))
          (Scope.Set.empty, IntSet.empty) ops
      in
      agrees s m)

let prop_interning =
  Q.Test.make ~count:500
    ~name:"equal-as-sets means pointer-equal (hash-consing) and equal ids"
    (Q.pair arb_script arb_script) (fun (ops1, ops2) ->
      let run ops = List.fold_left apply_real Scope.Set.empty ops in
      let a = run ops1 and b = run ops2 in
      let same_elems = Scope.Set.elements a = Scope.Set.elements b in
      (* one representative per distinct set: structural agreement and
         [equal] (pointer comparison) must coincide, as must id equality;
         equal sets must have equal hashes (the converse can collide) *)
      Bool.equal same_elems (Scope.Set.equal a b)
      && Bool.equal same_elems (Scope.Set.id a = Scope.Set.id b)
      && ((not same_elems) || Scope.Set.hash a = Scope.Set.hash b))

let prop_subset =
  Q.Test.make ~count:500 ~name:"subset agrees with the model" (Q.pair arb_script arb_script)
    (fun (ops1, ops2) ->
      let run ops = List.fold_left apply_real Scope.Set.empty ops in
      let mrun ops = List.fold_left apply_model IntSet.empty ops in
      let a = run ops1 and b = run ops2 in
      let ma = mrun ops1 and mb = mrun ops2 in
      Bool.equal (Scope.Set.subset a b) (IntSet.subset ma mb)
      && Bool.equal (Scope.Set.subset b a) (IntSet.subset mb ma)
      && Scope.Set.subset a (Scope.Set.union a b)
      && Scope.Set.subset b (Scope.Set.union a b))

let prop_mem =
  Q.Test.make ~count:500 ~name:"mem agrees with the model" (Q.pair (Q.int_bound 30) arb_script)
    (fun (x, ops) ->
      let s = List.fold_left apply_real Scope.Set.empty ops in
      let m = List.fold_left apply_model IntSet.empty ops in
      Bool.equal (Scope.Set.mem (scope x) s) (IntSet.mem x m))

let properties =
  List.map to_alcotest [ prop_model; prop_interning; prop_subset; prop_mem ]

(* -- lazy propagation vs the eager semantics ---------------------------------

   [map_scopes] forces everything eagerly, so applying an op script through
   the lazy [add/remove/flip_scope] API and comparing every node's scope
   set against the eagerly-computed expectation checks that delayed deltas
   land exactly where the naive deep-copy implementation would have put
   them. *)

let stx_of src =
  match Reader.read_one src with Some d -> Stx.of_datum d | None -> failwith "empty"

(* Every node's scope set, in preorder (forces all pending deltas). *)
let rec scope_spine (s : Stx.t) : Scope.Set.t list =
  Stx.scopes s
  ::
  (match Stx.view s with
  | Stx.List xs | Stx.Vec xs -> List.concat_map scope_spine xs
  | Stx.DotList (xs, tl) -> List.concat_map scope_spine xs @ scope_spine tl
  | Stx.Id _ | Stx.Atom _ -> [])

type top = TAdd | TRemove | TFlip

let apply_lazy op sc s =
  match op with
  | TAdd -> Stx.add_scope sc s
  | TRemove -> Stx.remove_scope sc s
  | TFlip -> Stx.flip_scope sc s

let apply_eager op sc s =
  let f set =
    match op with
    | TAdd -> Scope.Set.add sc set
    | TRemove -> Scope.Set.remove sc set
    | TFlip -> Scope.Set.flip sc set
  in
  Stx.map_scopes f s

let arb_tops =
  let gen =
    Q.Gen.list_size (Q.Gen.int_bound 12)
      (Q.Gen.oneofl [ TAdd; TRemove; TFlip ])
  in
  Q.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map (function TAdd -> "add" | TRemove -> "rm" | TFlip -> "flip") ops))
    gen

let deep_src = "(a (b (c d) 1) #(e (f)) (g . h))"

(* A tree whose siblings start from different scope sets (runs that share
   a set, then a change of set), so pushes both hit and miss the memo of
   the last (delta, set) application. *)
let mixed_tree () =
  let sa = Scope.fresh () and sb = Scope.fresh () in
  let s0 = Scope.Set.empty and s1 = Scope.Set.singleton sa and s2 = Scope.Set.of_list [ sa; sb ] in
  let id scopes name = Stx.id ~scopes name in
  fun () ->
    Stx.list ~scopes:s0
      [
        id s1 "a";
        id s1 "b";
        id s2 "c";
        Stx.list ~scopes:s1 [ id s1 "d"; id s0 "e"; Stx.list ~scopes:s2 [ id s2 "f"; id s2 "g" ] ];
        id s1 "h";
        Stx.mk ~scopes:s2 (Stx.Vec [ id s0 "i"; id s1 "j"; id s1 "k" ]);
        Stx.mk ~scopes:s1 (Stx.DotList ([ id s1 "l"; id s2 "m" ], id s2 "n"));
      ]

(* The inputs each property runs on, as fresh-tree builders. *)
let input_trees = [ (fun () -> stx_of deep_src); mixed_tree () ]

let prop_lazy_eager =
  Q.Test.make ~count:300 ~name:"lazy add/remove/flip interleavings = eager map_scopes"
    arb_tops (fun ops ->
      (* two scopes, alternated, so removes and flips interact *)
      let sc1 = Scope.fresh () and sc2 = Scope.fresh () in
      List.for_all
        (fun tree ->
          let lazy_s, eager_s, _ =
            List.fold_left
              (fun (ls, es, i) op ->
                let sc = if i mod 2 = 0 then sc1 else sc2 in
                (apply_lazy op sc ls, apply_eager op sc es, i + 1))
              (tree (), tree (), 0)
              ops
          in
          List.for_all2 Scope.Set.equal (scope_spine lazy_s) (scope_spine eager_s))
        input_trees)

let prop_lazy_interleaved_views =
  Q.Test.make ~count:300 ~name:"forcing between ops does not change the outcome" arb_tops
    (fun ops ->
      let sc1 = Scope.fresh () and sc2 = Scope.fresh () in
      let force_some s = ignore (scope_spine s); s in
      List.for_all
        (fun tree ->
          let forced, unforced, _ =
            List.fold_left
              (fun (f, u, i) op ->
                let sc = if i mod 2 = 0 then sc1 else sc2 in
                (* one copy is forced after every step, the other only at the end *)
                (force_some (apply_lazy op sc f), apply_lazy op sc u, i + 1))
              (tree (), tree (), 0)
              ops
          in
          List.for_all2 Scope.Set.equal (scope_spine forced) (scope_spine unforced))
        input_trees)

let lazy_props = List.map to_alcotest [ prop_lazy_eager; prop_lazy_interleaved_views ]

(* -- forcing cost ---------------------------------------------------------------

   The loader's shape: a body read with one scope set, under binders that
   each add a scope to their body.  Under 16 nested lets every node of
   the body has a 16-scope pending delta, and forcing a node must still
   cost O(1) words — one pending delta and one scope set shared by all
   siblings — not O(delta) set operations and a rebuilt delta per node. *)

let nested_lets ~lets ~chain =
  let buf = Buffer.create 1024 in
  for i = 0 to lets - 1 do
    Printf.bprintf buf "(let ((v%d 1)) " i
  done;
  for _ = 1 to chain do
    Buffer.add_string buf "(f "
  done;
  Buffer.add_string buf "x";
  Buffer.add_string buf (String.make (chain + lets) ')');
  stx_of (Buffer.contents buf)

(* Descend [n] lets as the expander does, adding a fresh scope to each body. *)
let rec under_lets s n =
  if n = 0 then s
  else
    match Stx.view s with
    | Stx.List [ _; _; body ] -> under_lets (Stx.add_scope (Scope.fresh ()) body) (n - 1)
    | _ -> Alcotest.fail "shape"

(* Force every node; returns the node count. *)
let rec force_all s =
  match Stx.view s with
  | Stx.List xs | Stx.Vec xs -> List.fold_left (fun n x -> n + force_all x) 1 xs
  | Stx.DotList (xs, tl) -> List.fold_left (fun n x -> n + force_all x) (1 + force_all tl) xs
  | Stx.Id _ | Stx.Atom _ -> 1

let forcing_cost () =
  let tree = nested_lets ~lets:16 ~chain:2000 in
  let before = Gc.minor_words () in
  let nodes = force_all (under_lets tree 16) in
  let words = Gc.minor_words () -. before in
  (* about 13 words a node; re-applying and re-composing the whole delta
     at every push costs about 258 *)
  check_b
    (Printf.sprintf "forcing %d nodes allocated %.0f minor words (<= 32 per node)" nodes words)
    true
    (words <= 32. *. float_of_int nodes)

(* -- targeted regressions ----------------------------------------------------- *)

let check_sets msg a b = check_b msg true (Scope.Set.equal a b)

let regressions =
  [
    Alcotest.test_case "forcing under 16 nested binders costs O(1) words a node" `Quick
      forcing_cost;
    Alcotest.test_case "pending delta survives structure-only reads" `Quick (fun () ->
        let sc = Scope.fresh () in
        let s = Stx.add_scope sc (stx_of "(f x 1)") in
        (* to_datum/equal_datum/to_string read raw structure without forcing *)
        check_s "datum" "(f x 1)" (Datum.to_string (Stx.to_datum s));
        check_b "equal_datum" true (Stx.equal_datum s (stx_of "(f x 1)"));
        match Stx.view s with
        | Stx.List [ f; x; one ] ->
            List.iter
              (fun n -> check_b "child got scope" true (Scope.Set.mem sc (Stx.scopes n)))
              [ f; x; one ]
        | _ -> Alcotest.fail "shape");
    Alcotest.test_case "datum->syntax adopts context scopes under pending deltas" `Quick
      (fun () ->
        let sc = Scope.fresh () in
        let ctx = Stx.add_scope sc (stx_of "(ctx)") in
        (* ctx's own set is updated immediately even though its delta is
           still pending for children *)
        let d = Stx.datum_to_syntax ~ctx (Datum.Atom (Datum.Sym "x")) in
        check_b "adopted" true (Scope.Set.mem sc (Stx.scopes d)));
    Alcotest.test_case "free-identifier=? across delayed pushes" `Quick (fun () ->
        let sc = Scope.fresh () in
        let binder = Stx.add_scope sc (stx_of "hyg-free-id-x") in
        let b = Binding.bind binder in
        (* a reference that reaches the same scopes only after a push *)
        let form = Stx.add_scope sc (stx_of "(hyg-free-id-x)") in
        match Stx.view form with
        | Stx.List [ reference ] ->
            check_b "resolves" true
              (match Binding.resolve reference with Some b' -> Binding.equal b b' | None -> false);
            check_b "free-id=?" true (Binding.free_identifier_eq binder reference)
        | _ -> Alcotest.fail "shape");
    Alcotest.test_case "resolver cache invalidated by later binding" `Quick (fun () ->
        let sc1 = Scope.fresh () and sc2 = Scope.fresh () in
        let mk ss = Stx.id ~scopes:ss "hyg-cache-inval-x" in
        let outer = Scope.Set.singleton sc1 in
        let inner = Scope.Set.add sc2 outer in
        let b1 = Binding.bind (mk outer) in
        (* resolve the inner reference now: caches outer as the answer *)
        check_b "pre" true
          (match Binding.resolve (mk inner) with Some b -> Binding.equal b b1 | None -> false);
        (* a new, more specific binding must invalidate that cache line *)
        let b2 = Binding.bind (mk inner) in
        check_b "post" true
          (match Binding.resolve (mk inner) with Some b -> Binding.equal b b2 | None -> false);
        check_b "outer still outer" true
          (match Binding.resolve (mk outer) with Some b -> Binding.equal b b1 | None -> false));
    Alcotest.test_case "syntax properties preserved across delayed pushes" `Quick (fun () ->
        let sc = Scope.fresh () in
        let tagged = Stx.property_put "hyg-prop" (Stx.str_ "payload") (stx_of "(a b)") in
        let s = Stx.flip_scope sc tagged in
        (* property must survive the scope op before and after forcing *)
        (match Stx.property_get "hyg-prop" s with
        | Some v -> check_s "prop before force" "\"payload\"" (Datum.to_string (Stx.to_datum v))
        | None -> Alcotest.fail "property lost before force");
        ignore (Stx.view s);
        check_b "prop after force" true (Stx.property_get "hyg-prop" s <> None));
    Alcotest.test_case "flip distinguishes macro-introduced syntax" `Quick (fun () ->
        (* the expander's actual use: user syntax flipped twice returns to
           its original set; template syntax flipped once gains the scope *)
        let intro = Scope.fresh () in
        let user = stx_of "(user-part)" in
        let round_tripped = Stx.flip_scope intro (Stx.flip_scope intro user) in
        check_sets "user unchanged" (Stx.scopes user) (Stx.scopes round_tripped);
        (match (Stx.view round_tripped, Stx.view user) with
        | Stx.List [ a ], Stx.List [ b ] ->
            check_sets "child unchanged" (Stx.scopes a) (Stx.scopes b)
        | _ -> Alcotest.fail "shape");
        let template = stx_of "tmpl" in
        check_b "template marked" true
          (Scope.Set.mem intro (Stx.scopes (Stx.flip_scope intro template))));
    Alcotest.test_case "interned symbols: equality, canon, and no probe interning" `Quick
      (fun () ->
        let a = Symbol.intern "hyg-sym-alpha" in
        let b = Symbol.intern "hyg-sym-alpha" in
        check_b "same id" true (Symbol.equal a b);
        check_s "name" "hyg-sym-alpha" (Symbol.name a);
        let foo = stx_of "foo" in
        let before = Symbol.interned_count () in
        (* identifier-name probes must not grow the symbol table *)
        check_b "is_sym" false (Stx.is_sym "hyg-sym-never-interned-xyzzy" foo);
        check_i "no growth" before (Symbol.interned_count ()));
    Alcotest.test_case "hygiene end-to-end still holds (swap example)" `Quick (fun () ->
        (* the classic capture test, as a guard that the fast path did not
           change observable expansion *)
        let out =
          run
            {|#lang racket
(define-syntax-rule (swap! a b) (let ([tmp a]) (set! a b) (set! b tmp)))
(define x 1)
(define tmp 2)
(swap! x tmp)
(display (list x tmp))|}
        in
        check_s "swap" "(2 1)" out);
  ]

(* The cons table's shards pick their home slots from the low bits of a
   set's hash; a shard index taken from those same bits leaves each shard
   one home slot in sixteen, so its runs of sets sharing a home grow long
   instead of staying short.  The sets are held while the table is
   measured: the table holds them weakly. *)
let cons_table =
  [
    Alcotest.test_case "scope-set cons table: short chains in every shard" `Quick (fun () ->
        (* 100k distinct sets of the shapes expansion makes: fresh
           singletons, and pairs under one enclosing scope *)
        let outer = Scope.fresh () in
        (* held, so the weak cons table keeps them while it is measured *)
        let held = ref [] in
        for _ = 1 to 50_000 do
          let sc = Scope.fresh () in
          held := Scope.Set.singleton sc :: Scope.Set.of_list [ outer; sc ] :: !held
        done;
        let longest =
          Array.fold_left
            (fun m (st : Hashtbl.statistics) -> max m st.max_bucket_length)
            0 (Scope.Set.shard_stats ())
        in
        if longest > 16 then Alcotest.failf "longest cons-table chain: %d sets (bound 16)" longest;
        check_i "all held" 100_000 (List.length !held));
  ]

(* The resolver memoizes only names with several binders, so a program
   that shadows one name must hit the memo: a memo that every lookup
   misses resolves the same bindings, so no output shows it. *)
let shadowing_hits_the_memo () =
  let src =
    source_file
      "#lang racket\n(define x 1)\n(define (f x)\n  (let ([x (+ x 10)])\n    (let ([x (+ x 100)])\n\
      \      (+ x x))))\n(define (g x) (+ x (f x)))\n(display (g x))\n"
  in
  let c = counted "the shadowing program" (fun observe -> Liblang_core.Pipeline.run_file ~observe src) in
  check_b "expand.resolve_hits > 0" true (Metrics.get c "expand.resolve_hits" > 0)

let suite =
  properties @ lazy_props @ regressions @ cons_table
  @ cleaning [ Alcotest.test_case "resolver memo: shadowing hits it" `Quick shadowing_hits_the_memo ]
