(** The 0CFA flow analysis (lib/analysis): qcheck soundness properties —
    the abstract facts must over-approximate what the concrete
    interpreter actually does — plus pinned parity cases asserting the
    fact-driven rewrites never change observable behavior under either
    engine. *)

open Liblang_core.Core
open Test_util
module Pipeline = Liblang_core.Pipeline
module Q = QCheck

let to_alcotest = QCheck_alcotest.to_alcotest

(* Expand an (untyped) module and run the analysis over its core forms —
   the programmatic twin of [liblang analyze].  Untyped so the optimizer
   has not rewritten anything: the facts describe the program as
   written. *)
let analyze_src (src : string) : Facts.t =
  let forms = Modsys.expand_source ~name:(fresh "analysis-prop") src in
  Zcfa.analyze_module forms

(* -- soundness: monomorphic call facts ----------------------------------------

   Generated chain programs where the generator knows the ground truth:
   every worker is called by name exactly once, so every call site is
   concretely monomorphic and the abstract facts must agree — and the
   typed twin, whose call sites the optimizer rewrites to direct calls
   on the strength of those facts, must print the same closed-form
   answer as the untyped original under both engines, analyzed or
   not. *)

(* The untyped twin, then the typed one analyzed and not, under the
   interpreter and the VM; fuel is unlimited, as under {!run}.  A program
   of files runs its files in each. *)
let parity =
  let under engine variant = Matrix.in_process ~fuel:max_int ~engine ~variant Matrix.Uncached in
  Matrix.[ under interp Untyped; under interp Typed; under interp Typed_nocfa; under vm Typed; under vm Typed_nocfa ]

let gen_chain = Q.Gen.(pair (int_range 1 4) (list_size (return 4) (int_range (-9) 9)))

let chain_soundness =
  Q.Test.make ~name:"0cfa: chain programs are all-monomorphic and parity holds" ~count:25
    (Q.make
       ~print:(fun (k, cs) ->
         Printf.sprintf "k=%d cs=%s" k (String.concat "," (List.map string_of_int cs)))
       gen_chain)
    (fun (k, cs) ->
      let cs = List.filteri (fun i _ -> i < k) cs in
      let defs ann =
        String.concat "\n"
          (List.mapi
             (fun i c ->
               if ann then
                 Printf.sprintf "(define (f%d [x : Integer]) : Integer (+ x %d))" i c
               else Printf.sprintf "(define (f%d x) (+ x %d))" i c)
             cs)
      in
      let call =
        List.fold_left (fun acc i -> Printf.sprintf "(f%d %s)" i acc) "100"
          (List.init k (fun i -> i))
      in
      let untyped = Printf.sprintf "#lang racket\n%s\n(display %s)\n" (defs false) call in
      let typed =
        Printf.sprintf "#lang typed/racket\n%s\n(display %s)\n" (defs true) call
      in
      let expected = string_of_int (List.fold_left ( + ) 100 cs) in
      let facts = analyze_src untyped in
      let twin = Matrix.Twin { untyped = source_file untyped; typed = source_file typed } in
      (* abstract = concrete here: every site has exactly one callee *)
      facts.Facts.call_sites = k
      && Facts.NodeTbl.length facts.Facts.direct = k
      && match Matrix.check parity [ twin ] with Ok [ o ] -> o.code = 0 && o.out = expected | _ -> false)

(* -- fixpoint parity: the worklist solver against the sweep oracle -------------

   Both solvers run over the very same expanded forms, so their facts must
   name the same syntax nodes by physical identity — and the same callee
   at every direct site.  Only the work counters (sweeps, transfers) may
   differ. *)

let same_nodes (a : 'v Facts.NodeTbl.t) (b : 'v Facts.NodeTbl.t) =
  Facts.NodeTbl.length a = Facts.NodeTbl.length b
  && Facts.NodeTbl.fold (fun s _ ok -> ok && Facts.NodeTbl.mem b s) a true

let same_facts (a : Facts.t) (b : Facts.t) =
  same_nodes a.Facts.direct b.Facts.direct
  && Facts.NodeTbl.fold
       (fun s (c : Facts.callee) ok ->
         ok
         &&
         let c' = Facts.NodeTbl.find b.Facts.direct s in
         c.Facts.callee_stx == c'.Facts.callee_stx
         && c.Facts.callee_name = c'.Facts.callee_name
         && c.Facts.callee_arity = c'.Facts.callee_arity)
       a.Facts.direct true
  && same_nodes a.Facts.ref_inbounds b.Facts.ref_inbounds
  && same_nodes a.Facts.set_inbounds b.Facts.set_inbounds
  && same_nodes a.Facts.unboxable b.Facts.unboxable
  && a.Facts.call_sites = b.Facts.call_sites
  && a.Facts.lambdas = b.Facts.lambdas
  && a.Facts.escaping = b.Facts.escaping
  && a.Facts.vec_sites = b.Facts.vec_sites
  && a.Facts.exhausted = b.Facts.exhausted

let solvers_agree (forms : Stx.t list) =
  same_facts (Zcfa.analyze_module forms) (Zcfa.analyze_module_by_sweeps forms)

let chain_parity =
  Q.Test.make ~name:"0cfa: worklist facts equal the sweep oracle's on chains" ~count:25
    (Q.make gen_chain) (fun (k, cs) ->
      let cs = List.filteri (fun i _ -> i < k) cs in
      let defs =
        String.concat "\n" (List.mapi (fun i c -> Printf.sprintf "(define (f%d x) (+ x %d))" i c) cs)
      in
      let call =
        List.fold_left (fun acc i -> Printf.sprintf "(f%d %s)" i acc) "100" (List.init k Fun.id)
      in
      solvers_agree
        (Modsys.expand_source ~name:(fresh "parity")
           (Printf.sprintf "#lang racket\n%s\n(display %s)\n" defs call)))

(* The fig7 vector kernels, both variants: the flow-driven rewrites are
   built on exactly these facts. *)
let kernel_parity name =
  Alcotest.test_case ("parity: worklist = sweeps on " ^ name) `Quick (fun () ->
      let b = Programs.find name in
      List.iter
        (fun (lang, body) ->
          let forms = Modsys.expand_source ~name:(fresh name) ("#lang " ^ lang ^ "\n" ^ body) in
          check_b (name ^ " " ^ lang) true (solvers_agree forms))
        [ ("racket", b.Programs.untyped); ("typed/racket", b.Programs.typed) ])

(* Every corpus program that expands (most exist to fail earlier), under
   the pipeline's fuel so the divergent ones stop. *)
let corpus_parity () =
  let files =
    Sys.readdir corpus |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".scm")
    |> List.sort compare
  in
  let expanded =
    List.filter_map
      (fun f ->
        match Pipeline.contain (fun () -> Compiled.expand_file (Filename.concat corpus f)) with
        | Ok forms -> Some (f, forms)
        | Error _ -> None)
      files
  in
  check_b "some corpus programs expand" true (expanded <> []);
  List.iter (fun (f, forms) -> check_b f true (solvers_agree forms)) expanded

(* -- soundness: in-bounds proofs ----------------------------------------------

   A literal index against a vector of generated length: the analysis
   may prove the access in-bounds exactly when the concrete semantics
   can never trap — [i < len] — and must refuse the proof whenever the
   concrete run would raise.  (Here the rule is complete too, so the
   iff is pinned, not just the sound direction.) *)

let inbounds_soundness =
  Q.Test.make ~name:"0cfa: in-bounds proof iff the concrete index cannot trap" ~count:40
    (Q.pair (Q.int_range 1 6) (Q.int_range 0 8))
    (fun (len, i) ->
      let src =
        Printf.sprintf "#lang racket\n(define v (make-vector %d 7))\n(display (vector-ref v %d))\n"
          len i
      in
      let facts = analyze_src src in
      let proved = Facts.NodeTbl.length facts.Facts.ref_inbounds in
      if i < len then proved = 1 && run src = "7"
      else
        proved = 0
        && (match run src with
           | exception Value.Scheme_error _ -> true
           | _ -> false))

(* -- soundness: polymorphic merge points -------------------------------------- *)

(* A function value that flows from both branches of an opaque
   conditional: the abstract callee set at the call site has two
   elements, so the site must NOT be claimed monomorphic — a direct
   fact here would be exactly the unsoundness the property hunts. *)
let polymorphic_not_direct () =
  let src =
    "#lang racket\n\
     (define (f0 x) 1)\n\
     (define (f1 x) 2)\n\
     (define h (if (zero? (string-length \"a\")) f0 f1))\n\
     (display (h 5))\n"
  in
  let facts = analyze_src src in
  Alcotest.(check int)
    "no direct fact at the two-callee merge point" 0
    (Facts.NodeTbl.length facts.Facts.direct);
  Alcotest.(check string) "concrete run picks one branch" "2" (run src)

(* A provided lambda reaches code the analysis cannot see, so it must be
   flagged escaping and never unboxable, even with a single local call
   site.  (A closure stored into a tracked vector does NOT escape — the
   element flow stays visible — which is exactly the precision the
   escape bit exists to preserve.) *)
let escaping_not_unboxable () =
  let src =
    "#lang racket\n\
     (provide esc)\n\
     (define esc (lambda (x) (* x x)))\n\
     (display (esc 6))\n"
  in
  let facts = analyze_src src in
  Alcotest.(check bool) "provided lambda escapes" true (facts.Facts.escaping > 0);
  Alcotest.(check int) "not unboxable" 0 (Facts.NodeTbl.length facts.Facts.unboxable);
  Alcotest.(check string) "still runs" "36" (run src)

(* -- pinned parity: analyzed vs unanalyzed, interp vs vm ----------------------

   The fact-driven rewrites (direct calls, closure unboxing, bound-check
   elision) must be observationally invisible: byte-identical output
   with the analysis on and off, under the tree-walking interpreter and
   the bytecode VM alike. *)

let kernel =
  "#lang typed/racket\n\
   (define (A [i : Integer] [j : Integer]) : Float\n\
  \  (/ 1.0 (exact->inexact (+ (* i 3) (+ j 1)))))\n\
   (define (sweep [n : Integer] [v : (Vectorof Float)]) : Float\n\
  \  (let ([elt (lambda ([k : Integer]) (* (A k k) (vector-ref v k)))])\n\
  \    (let loop : Float ([k : Integer 0] [acc : Float 0.0])\n\
  \      (if (< k n) (loop (+ k 1) (+ acc (elt k))) acc))))\n\
   (define (main) : Float\n\
  \  (let* ([n 12] [v (make-vector n 2.0)])\n\
  \    (let fill : Void ([k : Integer 0])\n\
  \      (when (< k n) (vector-set! v k (exact->inexact (+ k 1))) (fill (+ k 1))))\n\
  \    (sweep n v)))\n\
   (display (main))\n"

let counted_loop =
  "#lang typed/racket\n\
   (define (sum [v : (Vectorof Integer)]) : Integer\n\
  \  (let ([n (vector-length v)])\n\
  \    (let loop : Integer ([j : Integer 0] [acc : Integer 0])\n\
  \      (if (< j n) (loop (+ j 1) (+ acc (vector-ref v j))) acc))))\n\
   (display (sum (make-vector 16 3)))\n"

let t_parity name src =
  Alcotest.test_case name `Quick (fun () ->
      ignore (succeeds (agree parity [ Matrix.Files [ source_file src ] ])))

(* The rewrite rules fed by the 0CFA facts, as opposed to type-driven
   ones like [fl:+]: they must fire on the typed vector kernels, so an
   inert analysis cannot pass, and never with the analysis off, so facts
   cannot leak past the switch.  spectralnorm's [mulAv] keeps its
   matrix-element accessor as a single-call-site [let]-bound lambda so
   closure unboxing has a benchmarked target. *)
let cfa_rules = [ "opt:direct-call"; "opt:closure-unbox"; "vec:ref!"; "vec:set!" ]

let kernel_rewrites ~cfa name =
  let b = Programs.find name in
  let saved = !Zcfa.enabled in
  Zcfa.enabled := cfa;
  Optimize.reset_stats ();
  Fun.protect
    ~finally:(fun () -> Zcfa.enabled := saved)
    (fun () ->
      ignore (Modsys.declare ~name:(fresh name) ("#lang typed/racket\n" ^ b.Programs.typed));
      Optimize.stats_alist ())

let cfa_rewrites_fire () =
  List.iter
    (fun (name, expected) ->
      let fired rewrites rule = Option.value (List.assoc_opt rule rewrites) ~default:0 in
      let on = kernel_rewrites ~cfa:true name and off = kernel_rewrites ~cfa:false name in
      List.iter
        (fun rule -> check_b (name ^ ": " ^ rule ^ " fires on typed") true (fired on rule > 0))
        expected;
      List.iter
        (fun rule -> check_i (name ^ ": " ^ rule ^ " with the analysis off") 0 (fired off rule))
        cfa_rules)
    [ ("spectralnorm", cfa_rules); ("nbody", [ "opt:direct-call" ]) ]

let suite =
  cleaning
  [
    to_alcotest chain_soundness;
    to_alcotest inbounds_soundness;
    to_alcotest chain_parity;
    kernel_parity "spectralnorm";
    kernel_parity "nbody";
    Alcotest.test_case "parity: worklist = sweeps on the corpus" `Quick corpus_parity;
    Alcotest.test_case "0cfa: polymorphic merge point is not direct" `Quick
      polymorphic_not_direct;
    Alcotest.test_case "0cfa: escaping lambda is not unboxable" `Quick
      escaping_not_unboxable;
    t_parity "parity: unboxed-closure float kernel" kernel;
    t_parity "parity: counted loop with elided bound checks" counted_loop;
    Alcotest.test_case "0cfa: rewrites fire on typed kernels, never with the analysis off" `Quick
      cfa_rewrites_fire;
  ]
