(** The bytecode backend (lib/backend/): engine parity against the
    closure-tree interpreter, the VM's observability counters, and the
    allocation budgets of the typed float kernels.

    Parity is the backend's prime directive (docs/backend.md): the
    cases here pin the quirks the lowerer reproduces on purpose —
    evaluation order, fuel accounting, binding errors — on top of the
    whole-corpus differential of the configuration matrix
    (test/test_matrix.ml). *)

open Liblang_core.Core
open Test_util
module Pipeline = Liblang_core.Pipeline

(** Run [src] under both engines: it must succeed, byte-identically. *)
let t_par name src =
  Alcotest.test_case name `Quick (fun () -> ignore (succeeds (engines_agree Matrix.vm src)))

let float_loop =
  "#lang typed/racket\n\
   (: run (Float -> Float))\n\
   (define (run n)\n\
  \  (let loop : Float ([i : Float 0.0] [s : Float 0.0])\n\
  \    (if (< i n) (loop (+ i 1.0) (+ s i)) s)))\n\
   (display (run 1000.0))\n"

let parity =
  [
    t_par "float loop (register lane)" float_loop;
    t_par "int loop counter keeps exactness"
      "#lang typed/racket\n\
       (: count (Integer -> Integer))\n\
       (define (count n)\n\
      \  (let loop : Integer ([i : Integer 0])\n\
      \    (if (< i n) (loop (+ i 1)) i)))\n\
       (display (count 10))\n";
    t_par "one-arg application: argument effect before callee effect"
      "#lang racket\n\
       (define (pick) (display \"c\") (lambda (x) x))\n\
       (display ((pick) (begin (display \"a\") 7)))\n";
    t_par "multi-arg application: callee first, args left to right"
      "#lang racket\n\
       (define (f a b) (+ a b))\n\
       (display ((begin (display \"c\") f)\n\
      \          (begin (display \"1\") 1)\n\
      \          (begin (display \"2\") 2)))\n";
    t_par "closure capture over loop-coalesced locals"
      "#lang racket\n\
       (define (adders)\n\
      \  (let ([a (let ([x 1]) (lambda (y) (+ x y)))]\n\
      \        [b (let ([x 10]) (lambda (y) (+ x y)))])\n\
      \    (+ (a 100) (b 100))))\n\
       (display (adders))\n";
    t_par "letrec forward reference through a closure"
      "#lang racket\n\
       (define (go) (letrec ([x (lambda () y)] [y 2]) (x)))\n\
       (display (go))\n";
    t_par "named let over generic (non-register) values"
      "#lang racket\n\
       (display (let loop ([l '(1 2 3)] [acc '()])\n\
      \  (if (null? l) acc (loop (cdr l) (cons (car l) acc)))))\n";
  ]

(* Fuel parity: both engines must exhaust the same budget at the same
   observable point — the diagnostics must render identically. *)
let fuel_exhaustion_point () =
  match engines_agree ~fuel:5_000 Matrix.vm "#lang racket\n(define (f) (f))\n(f)\n" with
  | [ o ] -> check_b "fuel: the budget actually ran out" true (contains o.err "fuel")
  | _ -> Alcotest.fail "one outcome per program"

(* The vm.* and lower.* counters: the float loop under the VM must
   actually retire bytecode (the perf_smoke canary's in-process twin);
   its parity case above pins what it prints. *)
let vm_counters () =
  let ok what = function
    | Ok v -> v
    | Error ds ->
        Alcotest.failf "%s failed: %s" what
          (String.concat "; " (List.map Pipeline.Diagnostic.to_string ds))
  in
  let counting f =
    let c = Metrics.create () in
    let r = f { Observe.metrics = Some c; trace = None } in
    (r, fun key -> check_b (key ^ " > 0") true (Metrics.get c key > 0))
  in
  Modsys.reset_user_modules_for_tests ();
  let (_, r), counted =
    counting (fun observe ->
        Prims.with_captured_output (fun () ->
            Pipeline.run ~engine:Pipeline.Vm ~observe ~name:"vmcounters" float_loop))
  in
  ignore (ok "vm run" r);
  List.iter counted [ "vm.instructions"; "lower.protos"; "lower.instructions" ];
  (* [eval] reads the same engine switch as instantiation *)
  let r, counted =
    counting (fun observe ->
        Pipeline.eval ~engine:Pipeline.Vm ~observe "(let loop ([i 0]) (if (< i 10) (loop (+ i 1)) i))")
  in
  check_s "vm eval: same answer" "10" (Value.write_string (ok "vm eval" r));
  counted "vm.instructions"

(* Per-run minor-word budgets for the typed float kernels under the VM,
   whose unboxed register lanes carry their inner loops; losing the lanes
   boxes every float the loops touch (~12.6M words for sumfp, ~4.5M for
   mbrot).  heapsort's residue is structural, ~30k generic sift-down!
   activations plus fill-random!'s per-slot boxing (~7.1M words).  The 0CFA
   vector kernels read ~3.1M (nbody) and ~4.5M (spectralnorm) against ~7.1M
   and ~5.5M with the analysis off, so their budget trips when the
   flow-driven wins are lost.

   Words are read as [Gc.quick_stat]'s [minor_words] delta after a
   [Gc.minor ()], the counter bench/main.exe reports as
   [vm_gc_minor_words].  On OCaml 5.1 that delta only counts words of the
   minor collections the run triggers, so a run that allocates less than
   one minor heap reads 0: sumfp and mbrot do (1.8k and 132k words by
   [Gc.minor_words]). *)
let vm_alloc_budgets =
  [
    ("sumfp", 50_000.0);
    ("mbrot", 50_000.0);
    ("heapsort", 10_000_000.0);
    ("nbody", 5_000_000.0);
    ("spectralnorm", 5_000_000.0);
  ]

(* The typed kernel prints under the VM what it prints under the
   interpreter, and its second VM instantiation (the first lowers it)
   stays within its budget. *)
let vm_kernel (name, budget) =
  Alcotest.test_case ("kernel: typed " ^ name ^ " under the VM") `Slow (fun () ->
      let b = Programs.find name in
      let m = Modsys.declare ~name:(fresh name) ("#lang typed/racket\n" ^ b.Programs.typed) in
      let instantiate () =
        m.Modsys.instantiated <- false;
        fst (Prims.with_captured_output (fun () -> Modsys.instantiate m))
      in
      let interp = instantiate () in
      Pipeline.with_engine Pipeline.Vm (fun () ->
          check_s (name ^ ": vm output = interpreter output") interp (instantiate ());
          Gc.minor ();
          let w0 = (Gc.quick_stat ()).Gc.minor_words in
          ignore (instantiate ());
          let words = (Gc.quick_stat ()).Gc.minor_words -. w0 in
          if words > budget then
            Alcotest.failf "%s: %.0f minor words under the VM, over its %.0f-word budget" name
              words budget))

let t name f = Alcotest.test_case name `Quick f

let suite =
  cleaning @@ parity
  @ [
      t "fuel: same exhaustion point under both engines" fuel_exhaustion_point;
      t "metrics: vm.* and lower.* counters" vm_counters;
    ]
  @ List.map vm_kernel vm_alloc_budgets
