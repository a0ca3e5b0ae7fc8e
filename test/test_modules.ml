(** Module-system tests: provides/requires, static exports, separate
    compilation with fresh compile-time stores, and compile-time
    declarations replayed at visit time (paper §2.3, §5). *)

open Liblang_core.Core
open Test_util

let basics =
  [
    Alcotest.test_case "provide / require of a value" `Quick (fun () ->
        let srv = fresh "m-srv" in
        declare ~name:srv (Printf.sprintf "#lang racket\n(provide the-answer)\n(define the-answer 42)");
        check_s "imported" "42"
          (run (Printf.sprintf "#lang racket\n(require %s)\n(display the-answer)" srv)));
    Alcotest.test_case "provide a function" `Quick (fun () ->
        let srv = fresh "m-fn" in
        declare ~name:srv "#lang racket\n(provide sq)\n(define (sq x) (* x x))";
        check_s "call" "49" (run (Printf.sprintf "#lang racket\n(require %s)\n(display (sq 7))" srv)));
    Alcotest.test_case "rename-out" `Quick (fun () ->
        let srv = fresh "m-ren" in
        declare ~name:srv "#lang racket\n(provide (rename-out [internal external]))\n(define internal 'payload)";
        check_s "external name" "payload"
          (run (Printf.sprintf "#lang racket\n(require %s)\n(display external)" srv)));
    Alcotest.test_case "only-in with rename" `Quick (fun () ->
        let srv = fresh "m-only" in
        declare ~name:srv "#lang racket\n(provide a b)\n(define a 1)\n(define b 2)";
        check_s "renamed" "1"
          (run (Printf.sprintf "#lang racket\n(require (only-in %s [a my-a]))\n(display my-a)" srv));
        check_s "plain only-in" "2"
          (run (Printf.sprintf "#lang racket\n(require (only-in %s b))\n(display b)" srv)));
    Alcotest.test_case "only-in hides others" `Quick (fun () ->
        let srv = fresh "m-hide" in
        declare ~name:srv "#lang racket\n(provide a b)\n(define a 1)\n(define b 2)";
        let msg =
          run_err (Printf.sprintf "#lang racket\n(require (only-in %s a))\n(display b)" srv)
        in
        check_b "b unbound" true (contains msg "unbound"));
    Alcotest.test_case "unprovided bindings stay private" `Quick (fun () ->
        let srv = fresh "m-priv" in
        declare ~name:srv "#lang racket\n(provide pub)\n(define pub 1)\n(define priv 2)";
        let msg = run_err (Printf.sprintf "#lang racket\n(require %s)\n(display priv)" srv) in
        check_b "priv unbound" true (contains msg "unbound"));
    Alcotest.test_case "requiring an unknown module" `Quick (fun () ->
        check_b "unknown" true
          (contains (run_err "#lang racket\n(require no-such-module-zzz)") "unknown module"));
    Alcotest.test_case "unknown language" `Quick (fun () ->
        check_b "unknown lang" true (contains (run_err "#lang no-such-lang\n(+ 1 2)") "unknown language"));
    Alcotest.test_case "missing export" `Quick (fun () ->
        let srv = fresh "m-miss" in
        declare ~name:srv "#lang racket\n(provide a)\n(define a 1)";
        check_b "no binding named" true
          (contains
             (run_err (Printf.sprintf "#lang racket\n(require (only-in %s nothere))" srv))
             "provides no binding"));
  ]

let static_exports =
  [
    Alcotest.test_case "macros can be provided (static bindings, §2.3)" `Quick (fun () ->
        let srv = fresh "m-macro" in
        declare ~name:srv
          "#lang racket\n(provide double)\n(define-syntax-rule (double e) (* 2 e))";
        check_s "macro import" "14"
          (run (Printf.sprintf "#lang racket\n(require %s)\n(display (double 7))" srv)));
    Alcotest.test_case "provided macro references module-private helper" `Quick (fun () ->
        (* the classic linguistic-reuse test: the macro's template identifier
           resolves at its definition site *)
        let srv = fresh "m-helper" in
        declare ~name:srv
          "#lang racket\n(provide call-helper)\n(define (helper) 'from-server)\n(define-syntax-rule (call-helper) (helper))";
        check_s "helper resolves in server" "from-server"
          (run (Printf.sprintf "#lang racket\n(require %s)\n(display (call-helper))" srv)));
    Alcotest.test_case "value binding replaced by macro does not break client source" `Quick
      (fun () ->
        (* §2.3: "value bindings can be replaced with static bindings without
           breaking clients" — same client source works with either server *)
        let client srv = Printf.sprintf "#lang racket\n(require %s)\n(display (thing 3))" srv in
        let srv1 = fresh "m-val" in
        declare ~name:srv1 "#lang racket\n(provide thing)\n(define (thing x) (+ x 1))";
        check_s "as function" "4" (run (client srv1));
        let srv2 = fresh "m-stx" in
        declare ~name:srv2 "#lang racket\n(provide thing)\n(define-syntax-rule (thing e) (+ e 1))";
        check_s "as macro" "4" (run (client srv2)));
  ]

let instantiation =
  [
    Alcotest.test_case "module body effects run once per instantiation chain" `Quick (fun () ->
        let srv = fresh "m-once" in
        declare ~name:srv "#lang racket\n(provide x)\n(define x 1)\n(display \"side\")";
        let a = fresh "m-client-a" in
        declare ~name:a (Printf.sprintf "#lang racket\n(require %s)\n(display x)" srv);
        (* running the client instantiates the server exactly once *)
        let out, () =
          Prims.with_captured_output (fun () -> Modsys.instantiate (Modsys.find a))
        in
        check_s "server output once" "side1" out);
    Alcotest.test_case "diamond requires instantiate shared dep once" `Quick (fun () ->
        let base = fresh "m-base" in
        declare ~name:base "#lang racket\n(provide v)\n(define v 5)\n(display \"B\")";
        let left = fresh "m-left" in
        declare ~name:left (Printf.sprintf "#lang racket\n(require %s)\n(provide l)\n(define l (+ v 1))" base);
        let right = fresh "m-right" in
        declare ~name:right (Printf.sprintf "#lang racket\n(require %s)\n(provide r)\n(define r (+ v 2))" base);
        let top = fresh "m-top" in
        declare ~name:top
          (Printf.sprintf "#lang racket\n(require %s)\n(require %s)\n(display (+ l r))" left right);
        let out, () =
          Prims.with_captured_output (fun () -> Modsys.instantiate (Modsys.find top))
        in
        check_s "B once then 13" "B13" out);
    Alcotest.test_case "imported binding keeps identity (shared cell)" `Quick (fun () ->
        let srv = fresh "m-cell" in
        declare ~name:srv
          "#lang racket\n(provide get bump)\n(define counter 0)\n(define (get) counter)\n(define (bump) (set! counter (+ counter 1)))";
        let out =
          run
            (Printf.sprintf "#lang racket\n(require %s)\n(bump)(bump)(display (get))" srv)
        in
        check_s "shared state" "2" out);
  ]

(* §5: a module is compiled once and instantiated many times.  Each body
   form keeps the interpreter closure its first instantiation compiled;
   these tests pin that later instantiations reuse it and that the reuse
   never changes what runs. *)
let minor_words f =
  let before = Gc.minor_words () in
  let r = f () in
  (Gc.minor_words () -. before, r)

(* Instantiate [m] afresh (as a long-lived session re-runs a program) and
   return the allocation and the captured output. *)
let reinstantiate (m : Modsys.t) =
  Modsys.reset_instantiated m;
  minor_words (fun () -> fst (Prims.with_captured_output (fun () -> Modsys.instantiate m)))

let compiled_code =
  [
    Alcotest.test_case "an instantiation after the first compiles nothing" `Quick (fun () ->
        (* a large lambda that is never called: creating its closure is
           cheap, compiling it is not *)
        let rec arms i =
          if i = 300 then "-1" else Printf.sprintf "(if (= x %d) %d %s)" i i (arms (i + 1))
        in
        let m =
          Modsys.declare ~name:(fresh "m-big")
            (Printf.sprintf "#lang racket\n(define (big x) %s)\n(display 'ok)" (arms 0))
        in
        let w1, out1 = reinstantiate m in
        let w2, out2 = reinstantiate m in
        check_s "first run" "ok" out1;
        check_s "second run" "ok" out2;
        if w2 > 0.1 *. w1 then
          Alcotest.failf "second instantiation allocated %.0f words, first %.0f" w2 w1);
    Alcotest.test_case "cached code restarts module state each instantiation" `Quick (fun () ->
        let m =
          Modsys.declare ~name:(fresh "m-restart")
            "#lang racket\n(define counter 0)\n(define (bump!) (set! counter (+ counter 1)) counter)\n(bump!)\n(display (bump!))"
        in
        List.iter (fun i -> check_s (Printf.sprintf "run %d" i) "2" (snd (reinstantiate m))) [ 1; 2; 3 ]);
    Alcotest.test_case "cached code follows the unboxing flag" `Quick (fun () ->
        let m =
          Modsys.declare ~name:(fresh "m-unbox")
            "#lang racket\n(define (sum i acc) (if (unsafe-fl< i 10000.0) (sum (unsafe-fl+ i 1.0) (unsafe-fl+ acc (unsafe-flmax 1.0 (unsafe-fl* i 0.5)))) acc))\n(display (sum 0.0 0.0))"
        in
        let saved = !Interp.unboxing_enabled in
        Fun.protect ~finally:(fun () -> Interp.unboxing_enabled := saved) @@ fun () ->
        Interp.unboxing_enabled := true;
        let w_on, out_on = reinstantiate m in
        Interp.unboxing_enabled := false;
        let w_off, out_off = reinstantiate m in
        Interp.unboxing_enabled := true;
        let w_on', out_on' = reinstantiate m in
        check_s "unboxing off" out_on out_off;
        check_s "unboxing back on" out_on out_on';
        (* with unboxing off, [unsafe-flmax] is a generic application that
           conses its argument list *)
        if not (w_off > w_on && w_off > w_on') then
          Alcotest.failf "minor words on/off/on: %.0f / %.0f / %.0f" w_on w_off w_on');
    Alcotest.test_case "other evaluators get the bare AST" `Quick (fun () ->
        let m =
          Modsys.declare ~name:(fresh "m-naive")
            "#lang racket\n(define (down n) (if (= n 0) 'done (down (- n 1))))\n(display (down 50))"
        in
        let apps () =
          let c = Metrics.create () in
          let out = Metrics.with_collector c (fun () -> snd (reinstantiate m)) in
          (c.Metrics.interp_apps, out)
        in
        let interp_apps, interp_out = apps () in
        let saved = !Modsys.evaluator and forms = ref 0 in
        (Modsys.evaluator :=
           fun ast ->
             incr forms;
             Naive.eval_top ast);
        let naive_apps, naive_out =
          Fun.protect ~finally:(fun () -> Modsys.evaluator := saved) apps
        in
        check_s "same output" interp_out naive_out;
        check_b "the naive evaluator ran the forms" true (!forms > 0);
        check_b "interpreter applied" true (interp_apps > 0);
        check_i "naive run: the interpreter's applications" interp_apps naive_apps);
  ]

(* §5: each module is compiled with a fresh compile-time store; mutations
   during one compilation don't leak into another, but begin-for-syntax
   declarations persist via replay. *)
let fresh_stores =
  [
    Alcotest.test_case "with_fresh_store isolates mutations" `Quick (fun () ->
        Ct_store.set "probe" (Value.Int 1);
        Ct_store.with_fresh_store (fun () ->
            check_b "fresh store starts empty" true (Ct_store.get "probe" = None);
            Ct_store.set "probe" (Value.Int 2));
        check_b "outer store untouched" true (Ct_store.get "probe" = Some (Value.Int 1)));
    Alcotest.test_case "uid tables are per store" `Quick (fun () ->
        let t1 = Ct_store.uid_table "probe-table" in
        Hashtbl.replace t1 1 (Value.Int 10);
        Ct_store.with_fresh_store (fun () ->
            let t2 = Ct_store.uid_table "probe-table" in
            check_b "fresh table empty" true (Hashtbl.length t2 = 0)));
    Alcotest.test_case "typed type declarations replay at visit (§5)" `Quick (fun () ->
        let srv = fresh "m-types" in
        declare ~name:srv
          "#lang typed/racket\n(: inc (Integer -> Integer))\n(define (inc x) (+ x 1))\n(provide inc)";
        (* two separate client compilations each get the declaration *)
        check_s "client 1" "6"
          (run (Printf.sprintf "#lang typed/racket\n(require %s)\n(display (inc 5))" srv));
        check_s "client 2" "8"
          (run (Printf.sprintf "#lang typed/racket\n(require %s)\n(display (inc 7))" srv)));
    Alcotest.test_case "typed-context? flag does not leak between compilations (§6.2)" `Quick
      (fun () ->
        (* compile a typed module (sets the flag in its own store), then an
           untyped client: the untyped client must still get the contract *)
        let srv = fresh "m-flag" in
        declare ~name:srv
          "#lang typed/racket\n(: f (Integer -> Integer))\n(define (f x) x)\n(provide f)";
        declare ~name:(fresh "m-flag-typed-client")
          (Printf.sprintf "#lang typed/racket\n(require %s)\n(display (f 1))" srv);
        (* now the untyped client, compiled after a typed compilation *)
        let msg =
          run_err (Printf.sprintf "#lang racket\n(require %s)\n(f \"bad\")" srv)
        in
        check_b "still contracted" true (contains msg "contract"));
  ]

let expansion_views =
  [
    Alcotest.test_case "expand_source shows core forms" `Quick (fun () ->
        let forms =
          Modsys.expand_source ~name:(fresh "m-exp")
            "#lang racket\n(define (f x) (* x 2))\n(display (f 3))"
        in
        let text = String.concat "\n" (List.map Stx.to_string forms) in
        check_b "define-values" true (contains text "define-values");
        check_b "plain-lambda" true (contains text "#%plain-lambda");
        check_b "plain-app" true (contains text "#%plain-app"));
    Alcotest.test_case "expand_source of typed module shows optimizer output" `Quick (fun () ->
        let forms =
          Modsys.expand_source ~name:(fresh "m-exp-t")
            "#lang typed/racket\n(define (f [x : Float]) : Float (* x 2.0))"
        in
        let text = String.concat "\n" (List.map Stx.to_string forms) in
        check_b "unsafe-fl*" true (contains text "unsafe-fl*"));
  ]

(* Resolution probes the anchors of a reference's own scope set, and an
   import is one bulk entry, so what one compile scans must not depend on
   how many modules the process compiled before it. *)
let resolution_work =
  [
    Alcotest.test_case "resolution work per compile stays flat" `Quick (fun () ->
        let dir = fresh_dir "scan" in
        let write name text =
          Out_channel.with_open_bin (Filename.concat dir name) (fun oc -> output_string oc text)
        in
        write "lib.scm" "#lang racket\n(provide twice)\n(define (twice x) (* 2 x))\n";
        write "main.scm"
          "#lang racket\n(require \"lib.scm\")\n(define (f x) (let ([y (twice x)]) (+ x y)))\n(display (f 3))\n";
        let main = Filename.concat dir "main.scm" in
        let cycle () =
          Compiled.reset_session ();
          let c = Metrics.create () in
          Observe.with_ctx { Observe.metrics = Some c; trace = None } (fun () ->
              Liblang_core.Pipeline.with_stx_counters (fun () -> ignore (Compiled.compile_file main)));
          Metrics.get c "expand.resolve_scanned"
        in
        (* the first cycle binds some names for the first time, which then
           resolve without the cache *)
        match List.init 50 (fun _ -> cycle ()) with
        | _ :: second :: later ->
            check_b "cache misses scan entries" true (second > 0);
            List.iteri
              (fun i n ->
                if n <> second then
                  Alcotest.failf "cycle %d scanned %d entries, cycle 2 scanned %d" (i + 3) n second)
              later
        | _ -> assert false);
  ]

let suite =
  basics @ static_exports @ instantiation @ compiled_code @ fresh_stores @ expansion_views
  @ cleaning resolution_work
